// Command clusterbench is a wall-clock benchmark of hraft's replicated
// path: several nodes, real sockets or injected link delay, a file-backed
// group-commit WAL per node and real fsync. It drives only the public API
// and observes the program from outside, by timing calls into public
// functions and wrapping the public Transport and Storage interfaces.
//
//	clusterbench -workload fastraft-write -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints every end-to-end metric of the workload, one per
// line with its unit and sample count, then a JSON summary as the last line.
// With -trace 1 it runs the workload twice for half the time each, untraced
// and traced, and summarises the per-layer metrics of the traced pass plus
// the tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names a metric of the JSON summary and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics the JSON summary carries in each
// mode, as BENCHMARK.json lists them. Every workload reports all of them; a
// per-layer metric is 0 on a workload that does not exercise its layer.
// Only metrics that repeat across runs are listed; the others are printed.
// On a 2-vCPU virtual machine shared with other tenants the 99th
// percentiles, and the open-loop write median of fastraft-write, moved
// between sets of runs by more than any usable regression bound.
var endToEnd = []metricDef{{"setup_s", "s"}, {"key_p50_ms", "ms"}}

var perLayer = []metricDef{
	{"udpnet.send_us_p50", "us"}, {"udpnet.send_us_p99", "us"},
	{"udpnet.msgs_per_op", "msgs/op"}, {"udpnet.bytes_per_op", "B/op"},
	{"storage.fsyncs_per_op", "fsyncs/op"}, {"storage.records_per_fsync", "records/fsync"},
	{"storage.fsync_ms_p50", "ms"}, {"storage.fsync_ms_p99", "ms"},
	{"storage.append_us_p50", "us"},
	{"fastraft.msgs_per_op.ProposeEntry", "msgs/op"}, {"fastraft.msgs_per_op.VoteEntry", "msgs/op"},
	{"fastraft.msgs_per_op.AppendEntries", "msgs/op"}, {"fastraft.msgs_per_op.AppendEntriesResp", "msgs/op"},
	{"fastraft.msgs_per_op.CommitNotify", "msgs/op"},
	{"fastraft.reproposals_per_op", "1/op"}, {"fastraft.elections", "count"},
	{"raft.msgs_per_op.ClientPropose", "msgs/op"}, {"raft.msgs_per_op.AppendEntries", "msgs/op"},
	{"readpath.msgs_per_read", "msgs/read"},
	{"replica.follower_lag_ms_p50", "ms"}, {"replica.follower_lag_ms_p99", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_write_p50_pct", "%"}, {"trace.overhead_key_p50_pct", "%"},
}

// workload is one named traffic mix. run builds its cluster(s), drives the
// load for the given duration and returns everything it measured.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"fastraft-write", runFastRaftWrite},
	{"raft-read", runRaftRead},
	{"craft-geo", runCraftGeo},
	{"fastraft-failover", runFastRaftFailover},
}

// runConfig is what a workload run gets from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string // scratch directory for WALs, removed afterwards
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: payloads and target-site order")
	seconds := flag.Float64("seconds", 20, "measured duration in seconds")
	traceMode := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	data := flag.String("data", ".bench_build/data", "directory for WALs and span dumps")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "clusterbench: unknown workload %q (have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ")")
		return 2
	}
	if *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "clusterbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*data, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*data, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{seed: *seed, seconds: *seconds, dir: dir}
	var sum summary
	if *traceMode == 0 {
		out, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterbench: %s: %v\n", w.name, err)
			return 1
		}
		out.print(w.name, "untraced")
		sum = out.summary(endToEnd)
	} else {
		cfg.seconds = *seconds / 2
		base, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterbench: %s untraced pass: %v\n", w.name, err)
			return 1
		}
		base.print(w.name, "untraced")
		cfg.traced = true
		traced, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterbench: %s traced pass: %v\n", w.name, err)
			return 1
		}
		traced.rep.overhead(base.rep, "write_p50_ms", "trace.overhead_write_p50_pct")
		traced.rep.overhead(base.rep, "key_p50_ms", "trace.overhead_key_p50_pct")
		traced.print(w.name, "traced")
		path := filepath.Join(*data, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := traced.tracer.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(traced.tracer.spans), path)
		sum = traced.summary(perLayer)
		sum.Attempted += base.attempted
		sum.Failed += base.failedOps()
		sum.Correct = sum.Correct && base.correct()
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// summary is the last line of output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one workload run measured.
type outcome struct {
	rep       *report
	attempted int64 // client operations issued
	failedOp  int64 // operations that errored, timed out or broke a check
	checks    checkCounts
	tracer    *tracer // nil for an untraced run
}

func newOutcome() *outcome {
	return &outcome{rep: newReport(), checks: checkCounts{m: map[string]int64{
		"check.prefix_divergence": 0,
		"check.ack_mismatch":      0,
		"check.stale_acks":        0,
		"check.stale_reads":       0,
		"check.global_missing":    0,
		"check.counter_short":     0,
	}}}
}

// activate and deactivate bound the measurement window of a traced run.
func (o *outcome) activate() {
	if o.tracer != nil {
		o.tracer.active.Store(true)
	}
}

func (o *outcome) deactivate() {
	if o.tracer != nil {
		o.tracer.active.Store(false)
	}
}

// failedOps counts failed operations plus every check violation that is not
// tied to one operation, so that no violation is left out of failed_frac.
func (o *outcome) failedOps() int64 {
	f := o.failedOp + o.checks.m["check.prefix_divergence"] + o.checks.m["check.counter_short"]
	if f > o.attempted {
		f = o.attempted
	}
	return f
}

func (o *outcome) correct() bool {
	for _, v := range o.checks.m {
		if v != 0 {
			return false
		}
	}
	return true
}

func (o *outcome) print(workload, mode string) {
	fmt.Printf("# %s (%s)\n", workload, mode)
	o.rep.print()
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failedOps()) / float64(o.attempted)
	}
	fmt.Printf("%-40s %12.6f %-8s n=%d\n", "failed_frac", frac, "1", o.attempted)
	names := make([]string, 0, len(o.checks.m))
	for k := range o.checks.m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %12d %-8s\n", k, o.checks.m[k], "count")
	}
}

func (o *outcome) summary(defs []metricDef) summary {
	s := summary{
		Correct:   o.correct(),
		Attempted: o.attempted,
		Failed:    o.failedOps(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		s.Metrics[d.name] = metricValue{Value: o.rep.vals[d.name].Value, Unit: d.unit}
	}
	return s
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
