package harness

import (
	"strings"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// TestWireTraceAssemblesAcrossNodes proves the tentpole end to end: one
// sampled proposal submitted at a follower carries its trace ID across
// the wire — follower forward, leader append, peer replication, acks,
// commit, apply — and the merged rings assemble into a single causally-
// ordered tree naming every node with per-hop latency. A paced leader
// commits at its tick, after both followers' acks arrived, so the tree
// holds both.
func TestWireTraceAssemblesAcrossNodes(t *testing.T) {
	checkWireTrace(t, true, 2)
}

// TestWireTraceAssemblesAcrossNodesEventDriven is the same journey with an
// event-driven leader. It commits on the first follower's ack and retires
// the entry from ack tracing (Recorder.TraceCommitted), so the tree holds
// at least one ack; it still spans all three nodes.
func TestWireTraceAssemblesAcrossNodesEventDriven(t *testing.T) {
	checkWireTrace(t, false, 1)
}

func checkWireTrace(t *testing.T, paced bool, minAckers int) {
	c, err := NewCluster(Options{
		Kind:        KindRaft,
		Nodes:       ids("n1", "n2", "n3"),
		Seed:        7,
		Trace:       true,
		TraceSample: 1,
		Paced:       paced,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	DumpTraceOnFailure(t, c)

	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	var follower types.NodeID
	for _, id := range ids("n1", "n2", "n3") {
		if id != leader {
			follower = id
			break
		}
	}
	pid, err := c.Propose(follower, []byte("traced-op"))
	if err != nil {
		t.Fatalf("propose on %s: %v", follower, err)
	}
	idx, ok := c.AwaitResolution(follower, pid, c.Sched.Now()+30*time.Second)
	if !ok {
		t.Fatalf("proposal %s never resolved", pid)
	}
	// Let the commit index advance everywhere so all three rings hold the
	// traced entry's commit record.
	c.RunFor(2 * time.Second)
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}

	trees := trace.AssembleTraces(c.MergedTrace())
	var tree *trace.TraceTree
	for _, tr := range trees {
		forwarded := false
		tr.Walk(func(_ int, s *trace.TraceSpan) {
			if s.Event.Type == trace.EvTraceHop && trace.HopKind(s.Event.Arg) == trace.HopForward {
				forwarded = true
			}
		})
		if forwarded {
			if tree != nil {
				t.Fatalf("proposal split across traces %016x and %016x", tree.ID, tr.ID)
			}
			tree = tr
		}
	}
	if tree == nil {
		t.Fatalf("no forwarded trace assembled from %d trees", len(trees))
	}

	// One tree, spanning all three nodes.
	if len(tree.Nodes) != 3 {
		t.Fatalf("trace %016x spans nodes %v, want all 3", tree.ID, tree.Nodes)
	}

	// Causal order is monotone: every child happens at or after its parent
	// (the per-hop gap is the latency attribution, never negative).
	spans := 0
	tree.Walk(func(depth int, s *trace.TraceSpan) {
		spans++
		if s.Event.Trace != tree.ID {
			t.Errorf("span %s carries trace %016x, want %016x", s.Event, s.Event.Trace, tree.ID)
		}
		if depth > 0 && s.Gap < 0 {
			t.Errorf("negative causal gap %s at %s", s.Gap, s.Event)
		}
	})
	if spans < 6 {
		t.Fatalf("only %d spans in the tree, journey incomplete", spans)
	}

	// The journey itself: forward at the follower, append at the leader,
	// replication onto both followers' logs, minAckers peer acks back at
	// the leader, commit records on every node, and the origin's apply
	// stamp.
	ackers := map[types.NodeID]bool{}
	replicas := map[string]bool{}
	committed := map[string]bool{}
	var forwarded, appended, applied bool
	tree.Walk(func(_ int, s *trace.TraceSpan) {
		e := s.Event
		switch e.Type {
		case trace.EvTraceHop:
			switch trace.HopKind(e.Arg) {
			case trace.HopForward:
				forwarded = e.Node == string(follower)
			case trace.HopAppend:
				appended = e.Node == string(leader) && e.Index == idx
			case trace.HopReplicate:
				replicas[e.Node] = true
			case trace.HopAck:
				ackers[e.Peer] = true
			}
		case trace.EvCommitEntry:
			committed[e.Node] = true
		case trace.EvStage:
			if trace.Stage(e.Arg) == trace.StageApply && e.Node == string(follower) {
				applied = true
			}
		}
	})
	if !forwarded {
		t.Errorf("no forward hop recorded at follower %s", follower)
	}
	if !appended {
		t.Errorf("no append hop at leader %s index=%d", leader, idx)
	}
	if len(replicas) < 2 {
		t.Errorf("traced entry replicated on %d followers, want >=2 (%v)", len(replicas), replicas)
	}
	if len(ackers) < minAckers {
		t.Errorf("leader saw acks from %d peers, want >=%d (%v)", len(ackers), minAckers, ackers)
	}
	if len(committed) != 3 {
		t.Errorf("commit recorded on %d nodes, want 3 (%v)", len(committed), committed)
	}
	if !applied {
		t.Errorf("origin %s never stamped apply", follower)
	}

	// The rendered tree names every node and attributes per-hop latency.
	rendered := trace.FormatTree(tree)
	for _, id := range ids("n1", "n2", "n3") {
		if !strings.Contains(rendered, string(id)) {
			t.Errorf("rendered tree omits %s:\n%s", id, rendered)
		}
	}
	if !strings.Contains(rendered, "+") || !strings.Contains(rendered, "hop") {
		t.Errorf("rendered tree lacks per-hop latency lines:\n%s", rendered)
	}
	if t.Failed() {
		t.Logf("assembled tree:\n%s", rendered)
	}
}

// TestUnsampledRunCarriesNoTraceContext is the control: with sampling off
// (the default) an identical workload mints no trace IDs — nothing in any
// ring is trace-stamped and no trace-context bytes ride the wire (the
// codec only emits the context for non-zero IDs; see
// TestCodecUnsampledBytesIdentical for the byte-level proof).
func TestUnsampledRunCarriesNoTraceContext(t *testing.T) {
	c, err := NewCluster(Options{
		Kind:  KindRaft,
		Nodes: ids("n1", "n2", "n3"),
		Seed:  7,
		Trace: true,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	if _, err := c.RunProposals("n2", 5, c.Sched.Now()+30*time.Second); err != nil {
		t.Fatalf("proposals: %v", err)
	}
	merged := c.MergedTrace()
	if len(merged) == 0 {
		t.Fatal("no events recorded at all")
	}
	for _, e := range merged {
		if e.Trace != 0 {
			t.Fatalf("unsampled run recorded trace context: %s", e)
		}
		if e.Type == trace.EvTraceHop {
			t.Fatalf("unsampled run recorded a hop: %s", e)
		}
	}
	if trees := trace.AssembleTraces(merged); len(trees) != 0 {
		t.Fatalf("unsampled run assembled %d trees", len(trees))
	}
}

// TestFastRaftSampledProposalTraces covers the second core: a sampled
// proposal on the Fast Raft track stitches its vote-driven journey
// (self-insert, peer replication, vote acks, commit) into one tree too.
func TestFastRaftSampledProposalTraces(t *testing.T) {
	c, err := NewCluster(Options{
		Kind:        KindFastRaft,
		Nodes:       ids("n1", "n2", "n3"),
		Seed:        9,
		Trace:       true,
		TraceSample: 1,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	DumpTraceOnFailure(t, c)
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	pid, err := c.Propose("n2", []byte("fast-traced"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.AwaitResolution("n2", pid, c.Sched.Now()+30*time.Second); !ok {
		t.Fatalf("proposal %s never resolved", pid)
	}
	c.RunFor(2 * time.Second)

	trees := trace.AssembleTraces(c.MergedTrace())
	var best *trace.TraceTree
	for _, tr := range trees {
		if best == nil || len(tr.Nodes) > len(best.Nodes) {
			best = tr
		}
	}
	if best == nil {
		t.Fatal("no trace trees assembled")
	}
	if len(best.Nodes) < 3 {
		t.Fatalf("widest tree %016x spans only %v:\n%s", best.ID, best.Nodes, trace.FormatTree(best))
	}
	best.Walk(func(depth int, s *trace.TraceSpan) {
		if depth > 0 && s.Gap < 0 {
			t.Errorf("negative causal gap %s at %s", s.Gap, s.Event)
		}
	})
}
