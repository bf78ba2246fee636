package hraft

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

type staticMetrics map[string]uint64

func (m staticMetrics) Metrics() map[string]uint64 { return m }

// staticPeers is a metric source that also exposes peer progress.
type staticPeers struct {
	staticMetrics
	peers []PeerStatus
}

func (s staticPeers) PeerStatus() []PeerStatus { return s.peers }

// TestMetricsHandlerPrometheusFormat pins the exposition format: histogram
// buckets carry numeric le values in seconds (what histogram_quantile
// needs), the sum is converted to seconds, and plain counters/gauges pass
// through sanitized.
func TestMetricsHandlerPrometheusFormat(t *testing.T) {
	src := staticMetrics{
		"hist.commit_latency.le.5ms":   3,
		"hist.commit_latency.le.2.5s":  7,
		"hist.commit_latency.le.inf":   9,
		"hist.commit_latency.count":    9,
		"hist.commit_latency.sum_us":   1500000,
		"replica.snapshot_chunks_sent": 12,
		"gauge.log_span":               42,
	}
	rec := httptest.NewRecorder()
	MetricsHandler("n1", src).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`hraft_hist_commit_latency_seconds_bucket{node="n1",le="0.005"} 3`,
		`hraft_hist_commit_latency_seconds_bucket{node="n1",le="2.5"} 7`,
		`hraft_hist_commit_latency_seconds_bucket{node="n1",le="+Inf"} 9`,
		`hraft_hist_commit_latency_seconds_count{node="n1"} 9`,
		`hraft_hist_commit_latency_seconds_sum{node="n1"} 1.5`,
		`hraft_replica_snapshot_chunks_sent{node="n1"} 12`,
		`hraft_gauge_log_span{node="n1"} 42`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

// TestMetricsHandlerMetadata pins the scrape metadata: every family gets
// exactly one # HELP and one # TYPE line, histograms are typed histogram
// with their buckets in ascending le order, gauge.* keys are typed gauge,
// and everything else counter.
func TestMetricsHandlerMetadata(t *testing.T) {
	src := staticMetrics{
		"hist.commit_latency.le.5ms":   3,
		"hist.commit_latency.le.10ms":  5,
		"hist.commit_latency.le.inf":   9,
		"hist.commit_latency.count":    9,
		"hist.commit_latency.sum_us":   1500000,
		"replica.snapshot_chunks_sent": 12,
		"gauge.log_span":               42,
		"local.gauge.sessions_open":    2,
	}
	rec := httptest.NewRecorder()
	MetricsHandler("n1", src).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP hraft_hist_commit_latency_seconds ",
		"# TYPE hraft_hist_commit_latency_seconds histogram",
		"# TYPE hraft_replica_snapshot_chunks_sent counter",
		"# TYPE hraft_gauge_log_span gauge",
		"# TYPE hraft_local_gauge_sessions_open gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	for _, dup := range []string{"# TYPE hraft_hist_commit_latency_seconds histogram"} {
		if strings.Count(body, dup) != 1 {
			t.Fatalf("metadata line %q emitted %d times:\n%s", dup, strings.Count(body, dup), body)
		}
	}
	// Buckets ascend numerically: 5ms before 10ms despite lexical order.
	i5 := strings.Index(body, `le="0.005"`)
	i10 := strings.Index(body, `le="0.01"`)
	iInf := strings.Index(body, `le="+Inf"`)
	if i5 < 0 || i10 < 0 || iInf < 0 || !(i5 < i10 && i10 < iInf) {
		t.Fatalf("buckets out of ascending le order (5ms@%d 10ms@%d inf@%d):\n%s", i5, i10, iInf, body)
	}
	// Every sample line belongs to a family whose metadata precedes it.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_count"), "_sum")
		typeLine := "# TYPE " + base + " "
		ti := strings.Index(body, typeLine)
		li := strings.Index(body, line)
		if ti < 0 || ti > li {
			t.Fatalf("sample %q not preceded by its TYPE metadata", line)
		}
	}
}

// TestMetricsHandlerAuditFamily pins the auditor exposition: the flat
// "audit.violations.<invariant>" counters collapse into one
// invariant-labeled family with a single metadata block, so one alert
// rule covers every invariant.
func TestMetricsHandlerAuditFamily(t *testing.T) {
	src := staticMetrics{
		"audit.violations.election-safety":  2,
		"audit.violations.committed-prefix": 1,
	}
	rec := httptest.NewRecorder()
	MetricsHandler("n1", src).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE hraft_audit_violations counter",
		`hraft_audit_violations{node="n1",invariant="election-safety"} 2`,
		`hraft_audit_violations{node="n1",invariant="committed-prefix"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE hraft_audit_violations counter"); n != 1 {
		t.Fatalf("audit family metadata emitted %d times:\n%s", n, body)
	}
	// The flat keys must not also render as per-invariant families.
	if strings.Contains(body, "hraft_audit_violations_election_safety") {
		t.Fatalf("audit key leaked as an unlabeled family:\n%s", body)
	}
}

// TestMetricsHandlerRuntimeFamilies pins the process-level context every
// scrape carries: build info (value fixed at 1), uptime, goroutine count
// and heap gauges.
func TestMetricsHandlerRuntimeFamilies(t *testing.T) {
	rec := httptest.NewRecorder()
	MetricsHandler("n1", staticMetrics{}).ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE hraft_build_info gauge",
		`hraft_build_info{node="n1",go_version="` + runtime.Version() + `"`,
		"# TYPE hraft_process_uptime_seconds gauge",
		`hraft_process_uptime_seconds{node="n1"} `,
		"# TYPE hraft_goroutines gauge",
		`hraft_goroutines{node="n1"} `,
		"# TYPE hraft_heap_alloc_bytes gauge",
		`hraft_heap_alloc_bytes{node="n1"} `,
		"# TYPE hraft_heap_objects gauge",
		"# TYPE hraft_gc_cycles_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, `"} 1`) || !strings.Contains(body, "hraft_build_info{") {
		t.Fatalf("build info sample malformed:\n%s", body)
	}
}

// TestMetricsHandlerPeerStatus pins the per-peer introspection gauges: a
// source that exposes PeerStatus gets peer-labeled match/next/srtt/state
// series with their own metadata.
func TestMetricsHandlerPeerStatus(t *testing.T) {
	src := staticPeers{
		staticMetrics: staticMetrics{"replica.snapshot_chunks_sent": 1},
		peers: []PeerStatus{
			{ID: "n2", State: "replicate", Match: 10, Next: 12,
				SRTT: 5 * time.Millisecond, RTTVar: time.Millisecond,
				InflightBytes: 2048, InflightMsgs: 2},
			{ID: "n3", State: "snapshot", Match: 3, Next: 4},
		},
	}
	rec := httptest.NewRecorder()
	MetricsHandler("n1", src).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE hraft_peer_match_index gauge",
		`hraft_peer_match_index{node="n1",peer="n2"} 10`,
		`hraft_peer_next_index{node="n1",peer="n2"} 12`,
		`hraft_peer_srtt_seconds{node="n1",peer="n2"} 0.005`,
		`hraft_peer_rttvar_seconds{node="n1",peer="n2"} 0.001`,
		`hraft_peer_inflight_bytes{node="n1",peer="n2"} 2048`,
		`hraft_peer_inflight_msgs{node="n1",peer="n2"} 2`,
		`hraft_peer_state{node="n1",peer="n2",state="replicate"} 1`,
		`hraft_peer_state{node="n1",peer="n3",state="snapshot"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsFsyncDurationAfterTracedWrite: on a traced node with a
// group-commit WAL, every durable batch feeds hist.fsync_duration next to
// hist.fsync_batch_size, so the WAL's fsync time shows in Metrics().
func TestMetricsFsyncDurationAfterTracedWrite(t *testing.T) {
	wal, err := OpenWALOptions(filepath.Join(t.TempDir(), "n1"), WALOptions{GroupCommit: true, SyncWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	net := NewInProcNetwork(1)
	defer net.Close()
	node, err := NewNode(Options{
		ID:                 "n1",
		Peers:              []NodeID{"n1"},
		Transport:          net.Endpoint("n1"),
		Storage:            wal,
		HeartbeatInterval:  5 * time.Millisecond,
		ElectionTimeoutMin: 20 * time.Millisecond,
		ElectionTimeoutMax: 40 * time.Millisecond,
		Trace:              &TraceOptions{},
		Seed:               1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	defer node.Stop()
	go func() {
		for range node.Commits() {
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := node.Propose(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	m := node.Metrics()
	batches, syncs := m["hist.fsync_batch_size.count"], m["hist.fsync_duration.count"]
	if syncs == 0 || syncs != batches {
		t.Fatalf("hist.fsync_duration.count = %d, hist.fsync_batch_size.count = %d; want equal and > 0", syncs, batches)
	}
	if _, ok := m["hist.fsync_duration.sum_us"]; !ok {
		t.Fatal("hist.fsync_duration.sum_us missing")
	}
}
