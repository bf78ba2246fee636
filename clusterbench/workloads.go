package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	hraft "github.com/hraft-io/hraft"
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// roundSeed derives the arrival-process seed of one round.
func roundSeed(seed int64, round int) int64 { return seed*1000 + int64(round) }

func newOutcomeFor(cfg runConfig) *outcome {
	out := newOutcome()
	if cfg.traced {
		out.tracer = newTracer()
	}
	return out
}

// flatRun is what the rounds of a flat workload measured together.
type flatRun struct {
	ops       []*op
	late      []float64
	elections hraft.Term
}

// runFlatRounds splits a run into rounds, each on a freshly built cluster:
// the round's cluster is set up (timed), driven by drive for its share of
// the run, checked and closed. Latency depends on the phase between the
// nodes' heartbeat timers, which is fixed when a cluster starts and drifts
// slowly, so several clusters per run measure several phases. drive
// returns the generator lateness of its open loop.
func runFlatRounds(cfg runConfig, n int, opt flatOptions, out *outcome,
	drive func(round int, c *flatCluster, cl *client) []float64) (*flatRun, error) {
	run := &flatRun{}
	var setups, lag []float64
	for r := 0; r < n; r++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("round%d-traced%v", r, cfg.traced))
		c, setup, err := startFlat(dir, opt)
		if err != nil {
			return nil, fmt.Errorf("round %d set-up: %w", r, err)
		}
		setups = append(setups, setup.Seconds())
		cl := newClient(1)
		term0 := c.maxTerm()
		out.activate()
		late := drive(r, c, cl)
		out.deactivate()
		run.elections += c.maxTerm() - term0
		run.late = append(run.late, late...)

		ops := cl.snapshot()
		c.converge(hraft.Index(cl.floors[0].Load()))
		all := func(int) []int { return c.all() }
		verifyWrites(ops, c.log, all, &out.checks)
		out.checks.addN("check.prefix_divergence", c.log.divergence(c.all()))
		lag = append(lag, followerLag(ops, c.log, all)...)
		run.ops = append(run.ops, ops...)
		c.close()
		_ = os.RemoveAll(dir) // disk space only; the run directory goes at exit
	}
	out.rep.add("setup_s", median(setups), "s", len(setups))
	out.attempted = int64(len(run.ops))
	out.failedOp = countFailed(run.ops)
	out.rep.timing("replica.follower_lag_ms_p50", "replica.follower_lag_ms_p99", "ms", lag)
	out.rep.add("loadgen.late_ms_p99", quantile(run.late, 0.99), "ms", len(run.late))
	return run, nil
}

// flatLayers reports the per-layer metrics of a traced flat run.
func flatLayers(out *outcome, ops []*op, raft bool, elections hraft.Term) {
	tr := out.tracer
	if tr == nil {
		return
	}
	r := out.rep
	var done, writes, reads, attemptedWrites float64
	for _, o := range ops {
		if o.kind == opWrite {
			attemptedWrites++
		}
		if !o.ok() {
			continue
		}
		done++
		if o.kind == opWrite {
			writes++
		} else {
			reads++
		}
	}
	send := tr.durations("udpnet", "Send.")
	r.timing("udpnet.send_us_p50", "udpnet.send_us_p99", "us", send)
	r.ratio("udpnet.msgs_per_op", tr.msgTotal(""), done, "msgs/op")
	r.ratio("udpnet.bytes_per_op", float64(tr.bytes.Load()), done, "B/op")
	storageLayers(out, done)

	if raft {
		for _, m := range []string{"ClientPropose", "AppendEntries"} {
			r.ratio("raft.msgs_per_op."+m, tr.msgCount("local", m), done, "msgs/op")
		}
	} else {
		for _, m := range []string{"ProposeEntry", "VoteEntry", "AppendEntries", "AppendEntriesResp", "CommitNotify"} {
			r.ratio("fastraft.msgs_per_op."+m, tr.msgCount("local", m), writes, "msgs/op")
		}
		broadcasts := tr.msgCount("local", "ProposeEntry") / (flatSize - 1)
		r.ratio("fastraft.reproposals_per_op", broadcasts-attemptedWrites, writes, "1/op")
		r.add("fastraft.elections", float64(elections), "count", 1)
	}
	if reads > 0 {
		req := tr.msgCount("local", "ReadRequest") + tr.msgCount("local", "ReadReply")
		r.ratio("readpath.msgs_per_read", req, reads, "msgs/read")
	}
}

// storageLayers reports the WAL metrics of a traced run; done is the
// number of completed operations.
func storageLayers(out *outcome, done float64) {
	tr, r := out.tracer, out.rep
	tr.mu.Lock()
	fsyncs, records := float64(tr.fsyncs), float64(tr.records)
	tr.mu.Unlock()
	r.ratio("storage.fsyncs_per_op", fsyncs, done, "fsyncs/op")
	r.ratio("storage.records_per_fsync", records, fsyncs, "records/fsync")
	fsyncMS := tr.durations("storage", "fsync")
	for i := range fsyncMS {
		fsyncMS[i] /= 1000
	}
	r.timing("storage.fsync_ms_p50", "storage.fsync_ms_p99", "ms", fsyncMS)
	appendUS := tr.durations("storage", "AppendEntry")
	r.add("storage.append_us_p50", quantile(appendUS, 0.5), "us", len(appendUS))
}

// recordClientSpans turns completed ops into client-call spans; node names
// a site by its index.
func recordClientSpans(tr *tracer, ops []*op, node func(site int) string) {
	if tr == nil {
		return
	}
	names := map[opKind]string{opWrite: "Propose", opReadLinearizable: "ReadLinearizable", opReadLease: "ReadLeaseBased"}
	for _, o := range ops {
		tr.span("hraft", names[o.kind], node(o.used), o.due, o.done.Sub(o.due), o.id+1)
	}
}

// flatNodeName names a flat cluster's site by its index.
func flatNodeName(site int) string { return fmt.Sprintf("n%d", site+1) }

// rounds splits a run into rounds of about per each, at least one.
func rounds(total float64, per float64) int {
	n := int(total/per + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// flatRoundSeconds is the length of one round of a steady flat workload.
const flatRoundSeconds = 2

// runFastRaftWrite: 3-node Fast Raft, every site proposing. In each round,
// phase 1 is an open loop at 200 writes/s (latency below the knee) and
// phase 2 a closed loop with 64 outstanding writes (peak throughput).
func runFastRaftWrite(cfg runConfig) (*outcome, error) {
	out := newOutcomeFor(cfg)
	gen := newGenerator(cfg.seed, flatSize)
	n := rounds(cfg.seconds, flatRoundSeconds)
	phase := seconds(cfg.seconds / float64(n) / 2)
	var open, closed []*op
	var peak int
	run, err := runFlatRounds(cfg, n, flatOptions{tracer: out.tracer}, out,
		func(r int, c *flatCluster, cl *client) []float64 {
			issue := func(due time.Time) {
				o := gen.op(nil, uniquePayload)
				o.due = due
				c.exec(cl, o, &out.checks)
			}
			late := openLoop(arrivals(roundSeed(cfg.seed, r), 200, phase), issue)
			nOpen := len(cl.snapshot())
			closedStart := time.Now()
			closedLoop(64, phase, issue)
			ops := cl.snapshot()
			open = append(open, ops[:nOpen]...)
			closed = append(closed, ops[nOpen:]...)
			for _, o := range ops[nOpen:] {
				if o.ok() && o.done.Sub(closedStart) <= phase {
					peak++
				}
			}
			return late
		})
	if err != nil {
		return nil, err
	}
	out.rep.timing("write_p50_ms", "write_p99_ms", "ms", latencies(open, opWrite))
	out.rep.timing("key_p50_ms", "key_p99_ms", "ms", latencies(closed, opWrite))
	measured := phase * time.Duration(n)
	out.rep.add("peak_ops", float64(peak)/measured.Seconds(), "1/s", peak)
	flatLayers(out, run.ops, false, run.elections)
	recordClientSpans(out.tracer, run.ops, flatNodeName)
	return out, nil
}

// runRaftRead: 3-node classic Raft, open loop of 1000 ops/s, 10% writes,
// 45% linearizable reads and 45% lease reads.
func runRaftRead(cfg runConfig) (*outcome, error) {
	out := newOutcomeFor(cfg)
	gen := newGenerator(cfg.seed, flatSize)
	mix := func(u float64) opKind {
		switch {
		case u < 0.10:
			return opWrite
		case u < 0.55:
			return opReadLinearizable
		default:
			return opReadLease
		}
	}
	n := rounds(cfg.seconds, flatRoundSeconds)
	dur := seconds(cfg.seconds / float64(n))
	run, err := runFlatRounds(cfg, n, flatOptions{raft: true, tracer: out.tracer}, out,
		func(r int, c *flatCluster, cl *client) []float64 {
			return openLoop(arrivals(roundSeed(cfg.seed, r), 1000, dur), func(due time.Time) {
				o := gen.op(mix, uniquePayload)
				o.due = due
				c.exec(cl, o, &out.checks)
			})
		})
	if err != nil {
		return nil, err
	}
	ops := run.ops
	out.rep.timing("write_p50_ms", "write_p99_ms", "ms", latencies(ops, opWrite))
	out.rep.timing("key_p50_ms", "key_p99_ms", "ms", latencies(ops, opReadLinearizable))
	out.rep.timing("read_p50_ms", "read_p99_ms", "ms", latencies(ops, opReadLinearizable))
	out.rep.timing("lease_read_p50_ms", "lease_read_p99_ms", "ms", latencies(ops, opReadLease))
	flatLayers(out, ops, true, 0)
	recordClientSpans(out.tracer, ops, flatNodeName)
	return out, nil
}

// counterKeys are the failover workload's commands: increments of a few
// counters, so that commands repeat as real ones do.
var counterKeys = []string{"inc counter-a", "inc counter-b", "inc counter-c", "inc counter-d"}

func counterPayload(_ int64, rng *rand.Rand) []byte {
	return []byte(counterKeys[rng.Intn(len(counterKeys))])
}

// failoverStops is how many times a run stops the leader.
const failoverStops = 5

// runFastRaftFailover: the fastraft-write cluster with compaction, behind a
// counter state machine, at 200 writes/s while the leader is stopped and
// restarted from its WAL failoverStops times.
func runFastRaftFailover(cfg runConfig) (*outcome, error) {
	out := newOutcomeFor(cfg)
	gen := newGenerator(cfg.seed, flatSize)
	dur := seconds(cfg.seconds)
	period := dur / (failoverStops + 1)
	pause := period / 2
	if pause > time.Second {
		pause = time.Second
	}
	var stops []time.Time
	var reopenMS, catchupMS []float64
	var chaosErr error
	run, err := runFlatRounds(cfg, 1, flatOptions{snapshots: true, tracer: out.tracer}, out,
		func(r int, c *flatCluster, cl *client) []float64 {
			var chaos sync.WaitGroup
			chaos.Add(1)
			start := time.Now()
			go func() {
				defer chaos.Done()
				stops, reopenMS, catchupMS, chaosErr = stopLeaders(c, start, period, pause)
			}()
			late := openLoop(arrivals(roundSeed(cfg.seed, r), 200, dur), func(due time.Time) {
				o := gen.op(nil, counterPayload)
				o.due = due
				c.exec(cl, o, &out.checks)
			})
			chaos.Wait()
			// Every replica's counters must cover the increments acked to
			// clients.
			ops := cl.snapshot()
			c.converge(hraft.Index(cl.floors[0].Load()))
			acked := map[string]int64{}
			for _, o := range ops {
				if o.ok() {
					acked[string(o.payload)]++
				}
			}
			for _, m := range c.members {
				c.mu.Lock()
				sm := m.sm
				c.mu.Unlock()
				for _, k := range counterKeys {
					if sm != nil && sm.get(k) < acked[k] {
						out.checks.add("check.counter_short")
					}
				}
			}
			return late
		})
	if err != nil {
		return nil, err
	}
	if chaosErr != nil {
		return nil, chaosErr
	}
	ops := run.ops
	out.rep.timing("write_p50_ms", "write_p99_ms", "ms", latencies(ops, opWrite))
	var unavail []float64
	for _, s := range stops {
		var first *op
		for _, o := range ops {
			if o.ok() && !o.due.Before(s) && (first == nil || o.due.Before(first.due)) {
				first = o
			}
		}
		if first != nil {
			unavail = append(unavail, msSince(s, first.done))
		}
	}
	out.rep.timing("key_p50_ms", "key_p99_ms", "ms", append([]float64(nil), unavail...))
	out.rep.add("unavail_ms", median(unavail), "ms", len(unavail))
	out.rep.add("storage.reopen_ms", median(reopenMS), "ms", len(reopenMS))
	out.rep.add("replica.catchup_ms", median(catchupMS), "ms", len(catchupMS))
	out.rep.add("replica.catchup_timeouts", float64(len(reopenMS)-len(catchupMS)), "count", len(reopenMS))
	flatLayers(out, ops, false, run.elections)
	recordClientSpans(out.tracer, ops, flatNodeName)
	return out, nil
}

// stopLeaders stops the current leader failoverStops times, one period
// apart from start, and restarts it from its WAL on the same address after
// pause. It returns the stop instants, how long each reopen took, and how
// long each restarted node took to reach the commit index the others had
// when it restarted.
func stopLeaders(c *flatCluster, start time.Time, period, pause time.Duration) (stops []time.Time, reopenMS, catchupMS []float64, err error) {
	var catchups sync.WaitGroup
	var mu sync.Mutex
	defer catchups.Wait() // before the results are read
	for j := 1; j <= failoverStops; j++ {
		time.Sleep(time.Until(start.Add(time.Duration(j) * period)))
		m := c.leader()
		for tries := 0; m == nil && tries < 200; tries++ {
			time.Sleep(5 * time.Millisecond)
			m = c.leader()
		}
		if m == nil {
			return nil, nil, nil, fmt.Errorf("stop %d: no leader", j)
		}
		stops = append(stops, time.Now())
		c.stop(m)
		time.Sleep(pause)
		var target hraft.Index
		for _, p := range c.members {
			if node := c.running(p); node != nil {
				if ci := node.CommitIndex(); ci > target {
					target = ci
				}
			}
		}
		t0 := time.Now()
		if err := c.restart(m); err != nil {
			return nil, nil, nil, fmt.Errorf("restart %s: %w", m.id, err)
		}
		reopenMS = append(reopenMS, msSince(t0, time.Now()))
		catchups.Add(1)
		go func() {
			defer catchups.Done()
			for deadline := t0.Add(opTimeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if node := c.running(m); node != nil && node.CommitIndex() >= target {
					mu.Lock()
					catchupMS = append(catchupMS, msSince(t0, time.Now()))
					mu.Unlock()
					return
				}
			}
		}()
	}
	catchups.Wait()
	mu.Lock()
	defer mu.Unlock()
	return stops, reopenMS, catchupMS, nil
}
