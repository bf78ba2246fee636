package bench

import (
	"strings"
	"testing"
	"time"
)

// Small parameterizations keep these correctness tests fast; the full
// paper-scale sweeps run from bench_test.go at the repo root and from
// cmd/hraft-bench.

func TestFig3ShapeAtLowLoss(t *testing.T) {
	rows, err := Fig3CommitLatency(Fig3Options{
		LossPercents: []float64{0, 5},
		Entries:      30,
		Trials:       2,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	zero := rows[0]
	if zero.Speedup < 1.5 {
		t.Fatalf("paper: ~2x speedup at 0%% loss; got %.2fx (raft=%s fast=%s)",
			zero.Speedup, zero.Raft.Mean, zero.FastRaft.Mean)
	}
	if rows[1].FastRaft.Mean <= rows[0].FastRaft.Mean {
		t.Fatalf("fast raft should degrade with loss: 0%%=%s 5%%=%s",
			rows[0].FastRaft.Mean, rows[1].FastRaft.Mean)
	}
	checkGolden(t, "fig3", goldenFig3(rows))
	var sb strings.Builder
	PrintFig3(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 3") {
		t.Fatal("table header missing")
	}
}

func TestFig4SilentLeaveShape(t *testing.T) {
	res, err := Fig4SilentLeave(Fig4Options{
		Seed:    3,
		LeaveAt: 8 * time.Second,
		RunFor:  40 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before.Count == 0 || res.After.Count == 0 {
		t.Fatalf("missing phases: before=%d during=%d after=%d",
			res.Before.Count, res.During.Count, res.After.Count)
	}
	// Paper: before the leave the fast track dominates; during detection
	// only the classic track is available, so latency rises; after the
	// configuration shrinks latency returns to the 50–100 ms band.
	if res.During.Count > 0 && res.During.Mean <= res.Before.Mean {
		t.Fatalf("latency should rise during detection: before=%s during=%s",
			res.Before.Mean, res.During.Mean)
	}
	if res.ConfigShrunkAt == 0 {
		t.Fatal("configuration never shrank after silent leaves")
	}
	if res.After.Mean > 2*res.Before.Mean+50*time.Millisecond {
		t.Fatalf("latency should recover after reconfiguration: before=%s after=%s",
			res.Before.Mean, res.After.Mean)
	}
	checkGolden(t, "fig4", goldenFig4(res))
	var sb strings.Builder
	PrintFig4(&sb, res)
	if !strings.Contains(sb.String(), "Figure 4") {
		t.Fatal("series header missing")
	}
}

func TestFig5ShapeSmall(t *testing.T) {
	rows, err := Fig5Throughput(Fig5Options{
		ClusterCounts: []int{1, 4},
		Sites:         8,
		TrialDuration: 60 * time.Second,
		Warmup:        10 * time.Second,
		Trials:        1,
		Seed:          21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	// Paper shape: C-Raft's advantage grows with geographic distribution.
	if rows[1].Speedup <= rows[0].Speedup {
		t.Fatalf("speedup should grow with clusters: n=1 %.2fx, n=4 %.2fx",
			rows[0].Speedup, rows[1].Speedup)
	}
	if rows[1].Speedup < 1.5 {
		t.Fatalf("c-raft should clearly beat raft at 4 geo clusters: %.2fx", rows[1].Speedup)
	}
	checkGolden(t, "fig5", goldenFig5(rows))
	var sb strings.Builder
	PrintFig5(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 5") {
		t.Fatal("table header missing")
	}
}

func TestAblationFastTrack(t *testing.T) {
	rows, err := AblationFastTrack(Fig3Options{Entries: 20, Trials: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 variants, got %d", len(rows))
	}
	checkGolden(t, "ablation_fasttrack", goldenFastTrack(rows))
	if rows[0].Latency.Mean >= rows[1].Latency.Mean {
		t.Fatalf("fast track should reduce latency: on=%s off=%s",
			rows[0].Latency.Mean, rows[1].Latency.Mean)
	}
}

func TestAblationHeartbeatScales(t *testing.T) {
	rows, err := AblationHeartbeat(
		Fig3Options{Entries: 20, Trials: 1, Seed: 41},
		[]time.Duration{50 * time.Millisecond, 200 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablation_heartbeat", goldenHeartbeat(rows))
	if rows[1].FastRaft.Mean <= rows[0].FastRaft.Mean {
		t.Fatalf("latency should scale with heartbeat: 50ms=%s 200ms=%s",
			rows[0].FastRaft.Mean, rows[1].FastRaft.Mean)
	}
}

func TestAblationBatchSizeRuns(t *testing.T) {
	rows, err := AblationBatchSize(Fig5Options{
		Sites:         8,
		TrialDuration: 45 * time.Second,
		Warmup:        10 * time.Second,
		Trials:        1,
		Seed:          51,
	}, 4, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	checkGolden(t, "ablation_batch", goldenBatch(rows))
	for _, r := range rows {
		if r.PerSec <= 0 {
			t.Fatalf("batch=%d produced no throughput", r.BatchSize)
		}
	}
}
