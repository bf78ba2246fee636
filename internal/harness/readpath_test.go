package harness

import (
	"fmt"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/core/fastraft"
	"github.com/hraft-io/hraft/internal/types"
)

// TestReadIndexBasic proves the happy path on both flat cores: a
// linearizable read returns an index at or beyond every write that
// completed before it was issued, whether served on the leader or
// forwarded from a follower — and writes nothing to the log.
func TestReadIndexBasic(t *testing.T) {
	for _, kind := range []Kind{KindRaft, KindFastRaft} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newTestCluster(t, kind, 11, 0)
			leader, ok := c.WaitForLeader(10 * time.Second)
			if !ok {
				t.Fatal("no leader")
			}
			pid, _ := c.Propose(leader, []byte("w1"))
			wIdx, ok := c.AwaitResolution(leader, pid, c.Sched.Now()+10*time.Second)
			if !ok {
				t.Fatal("write never resolved")
			}
			// Leader-served read.
			tok, err := c.Read(leader, types.ReadLinearizable)
			if err != nil {
				t.Fatal(err)
			}
			d, ok := c.AwaitRead(leader, tok, c.Sched.Now()+10*time.Second)
			if !ok || !d.OK {
				t.Fatalf("leader read not confirmed: %+v ok=%v", d, ok)
			}
			if d.Index < wIdx {
				t.Fatalf("leader read index %d below completed write %d", d.Index, wIdx)
			}
			// Follower-forwarded read.
			var follower types.NodeID
			for _, id := range fiveNodes() {
				if id != leader {
					follower = id
					break
				}
			}
			tok, err = c.Read(follower, types.ReadLinearizable)
			if err != nil {
				t.Fatal(err)
			}
			d, ok = c.AwaitRead(follower, tok, c.Sched.Now()+10*time.Second)
			if !ok || !d.OK || d.Index < wIdx {
				t.Fatalf("forwarded read = %+v (ok=%v), want index >= %d", d, ok, wIdx)
			}
			// Stale reads resolve locally and instantly.
			tok, err = c.Read(follower, types.ReadStale)
			if err != nil {
				t.Fatal(err)
			}
			if d, ok := c.Host(follower).ReadResult(tok); !ok || !d.OK {
				t.Fatalf("stale read not served synchronously: %+v ok=%v", d, ok)
			}
			if err := c.Safety.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSingleNodeReads pins reads on a single-member cluster (the
// start-then-Join bootstrap shape): the leader's implicit self-ack is the
// whole quorum, so ReadIndex and lease reads must both resolve.
func TestSingleNodeReads(t *testing.T) {
	for _, kind := range []Kind{KindRaft, KindFastRaft} {
		t.Run(kind.String(), func(t *testing.T) {
			c, err := NewCluster(Options{Kind: kind, Nodes: ids("n1"), Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			leader, ok := c.WaitForLeader(10 * time.Second)
			if !ok {
				t.Fatal("no leader")
			}
			pid, _ := c.Propose(leader, []byte("w"))
			wIdx, ok := c.AwaitResolution(leader, pid, c.Sched.Now()+10*time.Second)
			if !ok {
				t.Fatal("write never resolved")
			}
			for _, cons := range []types.ReadConsistency{types.ReadLinearizable, types.ReadLeaseBased} {
				tok, err := c.Read(leader, cons)
				if err != nil {
					t.Fatal(err)
				}
				d, ok := c.AwaitRead(leader, tok, c.Sched.Now()+10*time.Second)
				if !ok || !d.OK || d.Index < wIdx {
					t.Fatalf("%v single-node read = %+v (ok=%v), want index >= %d", cons, d, ok, wIdx)
				}
			}
		})
	}
}

// TestReadLinearizableAcrossFailover is acceptance test (a): a read issued
// on a leader that is then partitioned away never returns state the
// healed cluster contradicts, and a read issued after a newer write
// committed on the majority side returns an index at or beyond that write
// — no stale read is ever observed across a forced failover.
func TestReadLinearizableAcrossFailover(t *testing.T) {
	for _, kind := range []Kind{KindRaft, KindFastRaft} {
		t.Run(kind.String(), func(t *testing.T) {
			// A generous silent-leave threshold keeps the partitioned
			// leader a member: this test is about read safety across a
			// failover, not about removal of a silent site.
			c, err := NewCluster(Options{
				Kind: kind, Nodes: fiveNodes(), Seed: 23, MemberTimeoutRounds: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			oldLeader, ok := c.WaitForLeader(10 * time.Second)
			if !ok {
				t.Fatal("no leader")
			}
			pid, _ := c.Propose(oldLeader, []byte("w1"))
			w1, ok := c.AwaitResolution(oldLeader, pid, c.Sched.Now()+10*time.Second)
			if !ok {
				t.Fatal("w1 never resolved")
			}
			// Cut the leader off and read on it: the read must NOT resolve
			// while it cannot confirm a quorum.
			var rest []types.NodeID
			for _, id := range fiveNodes() {
				if id != oldLeader {
					rest = append(rest, id)
				}
			}
			c.Net.Partition([]types.NodeID{oldLeader}, rest)
			r2, err := c.Read(oldLeader, types.ReadLinearizable)
			if err != nil {
				t.Fatal(err)
			}
			c.RunFor(2 * time.Second)
			if d, done := c.Host(oldLeader).ReadResult(r2); done {
				t.Fatalf("partitioned leader confirmed a read without quorum: %+v", d)
			}
			// The majority elects a successor and commits a newer write.
			oldTerm := c.Host(oldLeader).Machine().Term()
			ok = c.RunUntil(func() bool {
				h, has := c.Leader()
				return has && h.ID() != oldLeader && h.Machine().Term() > oldTerm
			}, c.Sched.Now()+30*time.Second)
			if !ok {
				t.Fatal("no successor elected")
			}
			successor, _ := c.Leader()
			pid2, _ := c.Propose(successor.ID(), []byte("w2"))
			w2, ok := c.AwaitResolution(successor.ID(), pid2, c.Sched.Now()+10*time.Second)
			if !ok {
				t.Fatal("w2 never resolved")
			}
			// A read issued (on the deposed leader) AFTER w2 completed:
			// once the partition heals it must observe w2.
			r3, err := c.Read(oldLeader, types.ReadLinearizable)
			if err != nil {
				t.Fatal(err)
			}
			c.RunFor(time.Second)
			c.Net.Heal()
			d3, ok := c.AwaitRead(oldLeader, r3, c.Sched.Now()+30*time.Second)
			if !ok || !d3.OK {
				t.Fatalf("post-failover read never confirmed: %+v ok=%v", d3, ok)
			}
			if d3.Index < w2 {
				t.Fatalf("STALE READ: read issued after w2 (index %d) linearized at %d", w2, d3.Index)
			}
			// The earlier read is only bound by writes completed before it.
			d2, ok := c.AwaitRead(oldLeader, r2, c.Sched.Now()+30*time.Second)
			if !ok || !d2.OK || d2.Index < w1 {
				t.Fatalf("pre-partition read = %+v (ok=%v), want index >= %d", d2, ok, w1)
			}
			if err := c.Safety.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLeaseReadRefusedByDeposedLeader is acceptance test (b): after a
// forced failover, the deposed leader's lease has lapsed, so a
// lease-based read on it is never served from stale local state — it
// falls back to ReadIndex, stays unresolved while partitioned, and after
// heal resolves against the successor at or beyond the successor's
// writes.
func TestLeaseReadRefusedByDeposedLeader(t *testing.T) {
	// Generous silent-leave threshold: the deposed leader must stay a
	// member so the healed cluster answers its forwarded reads.
	c, err := NewCluster(Options{
		Kind: KindFastRaft, Nodes: fiveNodes(), Seed: 31, MemberTimeoutRounds: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	oldLeader, ok := c.WaitForLeader(10 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	// Warm the lease: one awaited lease read, then one that must be served
	// clock-free.
	tok, _ := c.Read(oldLeader, types.ReadLeaseBased)
	if _, ok := c.AwaitRead(oldLeader, tok, c.Sched.Now()+10*time.Second); !ok {
		t.Fatal("warm-up lease read never resolved")
	}
	before := metricsOf(c.Host(oldLeader).Machine())["readpath.reads_lease"]
	tok, _ = c.Read(oldLeader, types.ReadLeaseBased)
	if d, done := c.Host(oldLeader).ReadResult(tok); !done || !d.OK {
		t.Fatalf("lease read not served instantly while lease valid: %+v done=%v", d, done)
	}
	if after := metricsOf(c.Host(oldLeader).Machine())["readpath.reads_lease"]; after != before+1 {
		t.Fatalf("reads_lease = %d, want %d", after, before+1)
	}
	// Depose: partition the leader, let its lease lapse and the majority
	// elect a successor that commits a newer write.
	var rest []types.NodeID
	for _, id := range fiveNodes() {
		if id != oldLeader {
			rest = append(rest, id)
		}
	}
	c.Net.Partition([]types.NodeID{oldLeader}, rest)
	c.RunFor(3 * time.Second) // >> the lease window (bounded by the election timeout)
	successor, hasLeader := c.Leader()
	if !hasLeader || successor.ID() == oldLeader {
		t.Fatal("no successor elected on the majority side")
	}
	pid, _ := c.Propose(successor.ID(), []byte("w2"))
	w2, ok := c.AwaitResolution(successor.ID(), pid, c.Sched.Now()+10*time.Second)
	if !ok {
		t.Fatal("w2 never resolved")
	}
	// The deposed leader must refuse to serve the lease read locally.
	tok, _ = c.Read(oldLeader, types.ReadLeaseBased)
	c.RunFor(2 * time.Second)
	if d, done := c.Host(oldLeader).ReadResult(tok); done {
		t.Fatalf("deposed leader served a lease read while partitioned: %+v", d)
	}
	if got := metricsOf(c.Host(oldLeader).Machine())["readpath.batches_expired"]; got == 0 {
		t.Fatal("missed quorum never expired a batch on the deposed leader")
	}
	c.Net.Heal()
	d, ok := c.AwaitRead(oldLeader, tok, c.Sched.Now()+30*time.Second)
	if !ok || !d.OK {
		t.Fatalf("read never resolved after heal: %+v ok=%v", d, ok)
	}
	if d.Index < w2 {
		t.Fatalf("STALE LEASE READ: linearized at %d, below successor write %d", d.Index, w2)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseReadsZeroAppendsZeroRounds pins the lease fast path's
// acceptance bound: inside the lease window, reads complete with zero log
// appends and zero extra quorum rounds — nothing at all goes on the wire.
func TestLeaseReadsZeroAppendsZeroRounds(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 41, 0)
	leader, ok := c.WaitForLeader(10 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	pid, _ := c.Propose(leader, []byte("w"))
	if _, ok := c.AwaitResolution(leader, pid, c.Sched.Now()+10*time.Second); !ok {
		t.Fatal("write never resolved")
	}
	tok, _ := c.Read(leader, types.ReadLeaseBased)
	if _, ok := c.AwaitRead(leader, tok, c.Sched.Now()+10*time.Second); !ok {
		t.Fatal("warm-up read never resolved")
	}
	fr := c.Host(leader).Machine().(*fastraft.Node)
	lastBefore := fr.LastIndex()
	sent := 0
	c.Net.OnDeliver = func(env types.Envelope) { sent++ }
	defer func() { c.Net.OnDeliver = nil }()
	// All reads issue at one virtual instant inside the lease window: each
	// must resolve synchronously, with no messages and no appends.
	const reads = 50
	for i := 0; i < reads; i++ {
		tok, err := c.Read(leader, types.ReadLeaseBased)
		if err != nil {
			t.Fatal(err)
		}
		d, done := c.Host(leader).ReadResult(tok)
		if !done || !d.OK {
			t.Fatalf("lease read %d not served synchronously (done=%v %+v)", i, done, d)
		}
	}
	if sent != 0 {
		t.Fatalf("lease reads put %d messages on the wire, want 0", sent)
	}
	if got := fr.LastIndex(); got != lastBefore {
		t.Fatalf("lease reads appended log entries: last index %d -> %d", lastBefore, got)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReadBatchingCollapsesConcurrentReads is acceptance test (d): N
// concurrent ReadIndex reads collapse into a single confirmation round —
// one read batch, confirmed by tap-counted heartbeats of at most two
// broadcast rounds (issue-to-release may straddle one tick boundary).
// Paced: the round model stamps every read registered between two
// heartbeats into one batch.
func TestReadBatchingCollapsesConcurrentReads(t *testing.T) {
	checkReadBatching(t, true, 1)
}

// TestReadBatchingCollapsesConcurrentReadsEventDriven is acceptance test
// (d) with an event-driven leader: the first read's round goes out at
// once and the reads registered behind it share the next one, so N reads
// still cost at most two batches and two broadcast rounds.
func TestReadBatchingCollapsesConcurrentReadsEventDriven(t *testing.T) {
	checkReadBatching(t, false, 2)
}

func checkReadBatching(t *testing.T, paced bool, maxBatches uint64) {
	// Classic Raft: no lease shortcut taken.
	c, err := NewCluster(Options{Kind: KindRaft, Nodes: fiveNodes(), Seed: 53, Paced: paced})
	if err != nil {
		t.Fatal(err)
	}
	leader, ok := c.WaitForLeader(10 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	pid, _ := c.Propose(leader, []byte("w"))
	if _, ok := c.AwaitResolution(leader, pid, c.Sched.Now()+10*time.Second); !ok {
		t.Fatal("write never resolved")
	}
	batchesBefore := metricsOf(c.Host(leader).Machine())["readpath.read_batches"]
	heartbeats := 0
	c.Net.OnDeliver = func(env types.Envelope) {
		if m, ok := env.Msg.(types.AppendEntries); ok && env.From == leader && m.ReadCtx != 0 {
			heartbeats++
		}
	}
	defer func() { c.Net.OnDeliver = nil }()
	const reads = 10
	toks := make([]uint64, reads)
	for i := range toks {
		tok, err := c.Read(leader, types.ReadLinearizable)
		if err != nil {
			t.Fatal(err)
		}
		toks[i] = tok
	}
	for i, tok := range toks {
		d, ok := c.AwaitRead(leader, tok, c.Sched.Now()+10*time.Second)
		if !ok || !d.OK {
			t.Fatalf("read %d never confirmed (%+v ok=%v)", i, d, ok)
		}
	}
	if got := metricsOf(c.Host(leader).Machine())["readpath.read_batches"] - batchesBefore; got < 1 || got > maxBatches {
		t.Fatalf("%d concurrent reads used %d read batches, want 1..%d", reads, got, maxBatches)
	}
	// One broadcast round is 4 heartbeats (5 nodes); allow the release to
	// straddle a second round, but N reads must not cost N rounds.
	if rounds := (heartbeats + 3) / 4; rounds > 2 {
		t.Fatalf("%d concurrent reads consumed %d heartbeat rounds (%d msgs), want <= 2",
			reads, rounds, heartbeats)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCRaftLocalReadsDuringGlobalPartition is acceptance test (c): with
// the inter-cluster links severed, site-local linearizable reads keep
// completing at intra-cluster latency — while a global-ring read cannot
// confirm until the partition heals (the escalation rule's cost is paid
// only when global confirmation is demanded).
func TestCRaftLocalReadsDuringGlobalPartition(t *testing.T) {
	c := newCraft(t, twoClusterSpecs(), 7, 0)
	if !c.WaitForLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	pid, err := c.Propose("a1", []byte("w"))
	if err != nil {
		t.Fatal(err)
	}
	wIdx, ok := c.AwaitResolution("a1", pid, c.Sched.Now()+30*time.Second)
	if !ok {
		t.Fatal("local write never resolved")
	}
	// Sever the clusters (sites and cluster endpoints alike).
	groupA := append(ids("a1", "a2", "a3"), "cA")
	groupB := append(ids("b1", "b2", "b3"), "cB")
	c.Net.Partition(groupA, groupB)
	c.RunFor(2 * time.Second)

	// Site-local reads still linearize within the cluster.
	tok, err := c.Read("a1", types.ReadLinearizable)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := c.AwaitRead("a1", tok, c.Sched.Now()+10*time.Second)
	if !ok || !d.OK {
		t.Fatalf("local read failed during global partition: %+v ok=%v", d, ok)
	}
	if d.Index < wIdx {
		t.Fatalf("local read index %d below completed local write %d", d.Index, wIdx)
	}

	// A global read from the cluster leader cannot confirm against the
	// two-cluster ring while partitioned; it resolves only after heal.
	aLeader, ok := c.LocalLeader("cA")
	if !ok {
		t.Fatal("no cA leader")
	}
	gtok, err := c.ReadGlobal(aLeader.ID(), types.ReadLinearizable)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Second)
	if d, done := aLeader.ReadResult(gtok); done && d.OK {
		t.Fatalf("global read confirmed during partition: %+v", d)
	}
	c.Net.Heal()
	gd, ok := c.AwaitRead(aLeader.ID(), gtok, c.Sched.Now()+60*time.Second)
	if !ok {
		t.Fatal("global read never resolved after heal")
	}
	// A local leadership wobble during the partition may fail the global
	// read (OK=false, retry-at-caller); a confirmed one must carry a real
	// global index.
	if gd.OK && gd.Index == 0 {
		t.Fatalf("confirmed global read carries no index: %+v", gd)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestProposerByteBackpressure pins the byte-based proposer window
// (MaxInflightProposalBytes): a burst of large proposals queues beyond
// the byte budget instead of broadcasting, and every proposal still
// resolves as the window drains.
func TestProposerByteBackpressure(t *testing.T) {
	const budget = 600
	c, err := NewCluster(Options{
		Kind:                     KindFastRaft,
		Nodes:                    fiveNodes(),
		Seed:                     61,
		MaxInflightProposalBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const proposer = types.NodeID("n2")
	fr := c.Host(proposer).Machine().(*fastraft.Node)
	payload := make([]byte, 200) // ~3 proposals fit the 600-byte budget
	const burst = 12
	pids := make([]types.ProposalID, 0, burst)
	maxQueued := 0
	for i := 0; i < burst; i++ {
		copy(payload, fmt.Sprintf("payload-%02d", i))
		pid, err := c.Propose(proposer, payload)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
		if q := fr.QueuedProposals(); q > maxQueued {
			maxQueued = q
		}
	}
	if maxQueued == 0 {
		t.Fatal("burst beyond the byte budget never queued a proposal")
	}
	for i, pid := range pids {
		if _, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second); !ok {
			t.Fatalf("proposal %d never resolved under byte backpressure", i)
		}
	}
	if got := metricsOf(c.Host(proposer).Machine())["fastraft.proposals_byte_queued"]; got == 0 {
		t.Fatal("byte-queued counter never moved")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}
