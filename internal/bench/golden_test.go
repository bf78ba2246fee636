package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hraft-io/hraft/internal/stats"
)

// The figure and ablation tests compare their exact outputs against
// testdata/*.golden: the experiments run on virtual time under the paper's
// round model (harness.Options.Paced), so every latency and throughput
// value is deterministic to the nanosecond. A change to the golden files
// is a change to the reproduced figures and must be explained.
//
//	go test ./internal/bench -run 'Fig|Ablation' -update
//
// rewrites them from the current outputs.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current outputs")

// checkGolden compares got with testdata/<name>.golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from the golden output at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// exact renders a summary at nanosecond precision (Summary.String rounds).
func exact(s stats.Summary) string {
	return fmt.Sprintf("n=%d mean=%d p50=%d p90=%d p99=%d min=%d max=%d sd=%d",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Min, s.Max, s.Stddev)
}

func goldenFig3(rows []Fig3Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "loss=%v speedup=%v\n raft %s\n fast %s\n", r.LossPercent, r.Speedup, exact(r.Raft), exact(r.FastRaft))
	}
	return b.String()
}

func goldenFig4(res Fig4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "left=%v leave=%d shrunk=%d\n", res.Left, res.LeaveAt, res.ConfigShrunkAt)
	fmt.Fprintf(&b, "before %s\nduring %s\nafter %s\n", exact(res.Before), exact(res.During), exact(res.After))
	for _, s := range res.Samples {
		fmt.Fprintf(&b, "%d %d\n", s.At, s.Value)
	}
	return b.String()
}

func goldenFig5(rows []Fig5Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "clusters=%d raft=%v craft=%v speedup=%v\n", r.Clusters, r.RaftPerSec, r.CraftPerSec, r.Speedup)
	}
	return b.String()
}

func goldenFastTrack(rows []AblationFastTrackRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %s\n", r.Variant, exact(r.Latency))
	}
	return b.String()
}

func goldenHeartbeat(rows []AblationHeartbeatRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "hb=%s\n raft %s\n fast %s\n", r.Heartbeat, exact(r.Raft), exact(r.FastRaft))
	}
	return b.String()
}

func goldenBatch(rows []AblationBatchRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "batch=%d perSec=%v\n", r.BatchSize, r.PerSec)
	}
	return b.String()
}
