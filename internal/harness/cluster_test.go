package harness

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

func ids(names ...string) []types.NodeID {
	out := make([]types.NodeID, len(names))
	for i, n := range names {
		out[i] = types.NodeID(n)
	}
	return out
}

func fiveNodes() []types.NodeID { return ids("n1", "n2", "n3", "n4", "n5") }

func newTestCluster(t *testing.T, kind Kind, seed int64, loss float64) *Cluster {
	t.Helper()
	c, err := NewCluster(Options{
		Kind:     kind,
		Nodes:    fiveNodes(),
		Seed:     seed,
		LossProb: loss,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestRaftElectsLeader(t *testing.T) {
	c := newTestCluster(t, KindRaft, 1, 0)
	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader elected within 5s of virtual time")
	}
	if leader == types.None {
		t.Fatal("empty leader id")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftElectsLeader(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 1, 0)
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader elected within 5s of virtual time")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRaftCommitsProposals(t *testing.T) {
	c := newTestCluster(t, KindRaft, 2, 0)
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	sum, err := c.RunProposals("n2", 20, c.Sched.Now()+60*time.Second)
	if err != nil {
		t.Fatalf("proposals: %v (summary %s)", err, sum)
	}
	if sum.Count != 20 {
		t.Fatalf("want 20 resolutions, got %d", sum.Count)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("classic raft latency: %s", sum)
}

func TestFastRaftCommitsProposals(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 2, 0)
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	sum, err := c.RunProposals("n2", 20, c.Sched.Now()+60*time.Second)
	if err != nil {
		t.Fatalf("proposals: %v (summary %s)", err, sum)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("fast raft latency: %s", sum)
}

// TestProposerYieldsOnSameInstantCommits pins the closed loop's guard: an
// event-driven one-member group commits without virtual time passing, so
// a proposer with no think time must still let the clock advance, or a
// run bounded by StopAfter would never end.
func TestProposerYieldsOnSameInstantCommits(t *testing.T) {
	c, err := NewCluster(Options{Kind: KindFastRaft, Nodes: ids("n1"), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const run = time.Second
	start := c.Sched.Now()
	p, err := c.StartProposer(ProposerOptions{Node: "n1", StopAfter: start + run, MaxProposals: 10 * int(run/sameInstantYield)})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(func() bool { return false }, start+2*run)
	if p.Completed == 0 {
		t.Fatal("no proposal resolved")
	}
	if max := int(run/sameInstantYield) + 1; p.Completed > max {
		t.Fatalf("%d proposals resolved in %s, want at most %d: the loop did not yield", p.Completed, run, max)
	}
	if v := p.Series.Values(); v[len(v)-1] != 0 {
		t.Fatalf("last commit took %s; the scenario needs same-instant commits", v[len(v)-1])
	}
}

// TestFastRaftFasterThanRaftAtZeroLoss is Figure 3's claim, which holds on
// the paper's round model: the fast track saves a heartbeat round. With
// event-driven leaders both protocols commit within a round trip or two,
// and a proposal at the leader takes one round trip in either.
func TestFastRaftFasterThanRaftAtZeroLoss(t *testing.T) {
	run := func(kind Kind) time.Duration {
		c, err := NewCluster(Options{Kind: kind, Nodes: fiveNodes(), Seed: 7, Paced: true})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		if _, ok := c.WaitForLeader(5 * time.Second); !ok {
			t.Fatalf("%v: no leader", kind)
		}
		sum, err := c.RunProposals("n3", 50, c.Sched.Now()+120*time.Second)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := c.Safety.Err(); err != nil {
			t.Fatal(err)
		}
		return sum.Mean
	}
	classic := run(KindRaft)
	fast := run(KindFastRaft)
	t.Logf("classic=%s fast=%s ratio=%.2f", classic, fast, float64(classic)/float64(fast))
	if fast >= classic {
		t.Fatalf("fast raft (%s) should beat classic raft (%s) at zero loss", fast, classic)
	}
}

func TestRaftLeaderCrashFailover(t *testing.T) {
	c := newTestCluster(t, KindRaft, 3, 0)
	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	if _, err := c.RunProposals("n1", 5, c.Sched.Now()+30*time.Second); err != nil {
		t.Fatalf("pre-crash proposals: %v", err)
	}
	c.Crash(leader)
	newLeader, ok := c.WaitForLeader(c.Sched.Now() + 10*time.Second)
	if !ok {
		t.Fatal("no new leader after crash")
	}
	if newLeader == leader {
		t.Fatalf("crashed node %s still leader", leader)
	}
	var prop types.NodeID
	for _, id := range fiveNodes() {
		if id != leader {
			prop = id
			break
		}
	}
	if _, err := c.RunProposals(prop, 5, c.Sched.Now()+30*time.Second); err != nil {
		t.Fatalf("post-crash proposals: %v", err)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftLeaderCrashRecovery(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 4, 0)
	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	if _, err := c.RunProposals("n2", 10, c.Sched.Now()+30*time.Second); err != nil {
		t.Fatalf("pre-crash proposals: %v", err)
	}
	c.Crash(leader)
	if _, ok := c.WaitForLeader(c.Sched.Now() + 10*time.Second); !ok {
		t.Fatal("no new leader after crash")
	}
	var prop types.NodeID
	for _, id := range fiveNodes() {
		if id != leader {
			prop = id
			break
		}
	}
	if _, err := c.RunProposals(prop, 10, c.Sched.Now()+60*time.Second); err != nil {
		t.Fatalf("post-crash proposals: %v", err)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftCommitsUnderLoss(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 5, 0.05)
	if _, ok := c.WaitForLeader(10 * time.Second); !ok {
		t.Fatal("no leader")
	}
	sum, err := c.RunProposals("n4", 30, c.Sched.Now()+5*time.Minute)
	if err != nil {
		t.Fatalf("proposals under loss: %v (%s)", err, sum)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("fast raft at 5%% loss: %s", sum)
}

func TestDeterminismSameSeedSameResult(t *testing.T) {
	run := func() (types.Index, time.Duration) {
		c := newTestCluster(t, KindFastRaft, 42, 0.02)
		if _, ok := c.WaitForLeader(10 * time.Second); !ok {
			t.Fatal("no leader")
		}
		if _, err := c.RunProposals("n1", 15, c.Sched.Now()+2*time.Minute); err != nil {
			t.Fatalf("proposals: %v", err)
		}
		h, _ := c.Leader()
		return h.Machine().CommitIndex(), c.Sched.Now()
	}
	i1, t1 := run()
	i2, t2 := run()
	if i1 != i2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%s) vs (%d,%s)", i1, t1, i2, t2)
	}
}
