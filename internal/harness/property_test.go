package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// TestPropertyFastRaftSafetyUnderChaos runs many independently seeded
// scenarios that combine message loss, leader crashes, restarts,
// partitions and membership churn under continuous proposal load, and
// asserts the paper's safety property (Definition 2.1) plus election
// safety on every one, with event-driven leaders.
func TestPropertyFastRaftSafetyUnderChaos(t *testing.T) {
	runChaosSeeds(t, false)
}

// TestPropertyFastRaftSafetyUnderChaosPaced runs the same scenarios on the
// paper's round model (Options.Paced).
func TestPropertyFastRaftSafetyUnderChaosPaced(t *testing.T) {
	runChaosSeeds(t, true)
}

// An event-driven chaos proposer runs in bursts of chaosBurst proposals,
// one at the start and one opening burstLead before each of the ten
// faults: eleven bursts match the ~270 proposals a paced proposer resolves
// over the run.
const (
	chaosBurst = 25
	burstLead  = 5 * time.Millisecond
)

// eventCoverage sums, over one property's event-driven seeds, how often a
// proposer had a proposal in flight when a fault struck and how often the
// leader paths named in counters ran (on the nodes' last incarnations).
// It fails the property when either is rare: without think time between
// proposals, faults should meet proposals in flight.
type eventCoverage struct {
	keys            []string
	faults          int64 // proposer-faults per seed
	seeds           atomic.Int64
	inFlightAtFault atomic.Int64
	mu              sync.Mutex
	counters        map[string]uint64
}

// fastRaftEventCounters are the event-driven leader paths: early
// decisions, split-vote losers re-sequenced, and proposals for already
// decided slots sequenced on arrival.
var fastRaftEventCounters = []string{
	"fastraft.decided_settled",
	"fastraft.losers_resequenced",
	"fastraft.burned_slots_sequenced",
}

func newEventCoverage(t *testing.T, seeds int, faults int64, keys []string) *eventCoverage {
	cov := &eventCoverage{keys: keys, faults: faults, counters: make(map[string]uint64)}
	t.Cleanup(func() {
		if cov.seeds.Load() != int64(seeds) {
			return // a -run filter skipped seeds
		}
		all := cov.faults * int64(seeds)
		t.Logf("proposals in flight at %d of %d proposer-faults; %v", cov.inFlightAtFault.Load(), all, cov.counters)
		if got := cov.inFlightAtFault.Load(); 2*got < all {
			t.Errorf("proposals in flight at only %d of %d proposer-faults", got, all)
		}
		for _, k := range cov.keys {
			if cov.counters[k] == 0 {
				t.Errorf("%s never ran under faults", k)
			}
		}
	})
	return cov
}

// fault notes, at a fault's instant, which proposers have proposals in
// flight.
func (cov *eventCoverage) fault(ps []*closedLoop) {
	for _, p := range ps {
		if p.pending(p.last) {
			cov.inFlightAtFault.Add(1)
		}
	}
}

// add folds one node's counters into the tally.
func (cov *eventCoverage) add(m map[string]uint64) {
	cov.mu.Lock()
	defer cov.mu.Unlock()
	for _, k := range cov.keys {
		cov.counters[k] += m[k]
	}
}

func runChaosSeeds(t *testing.T, paced bool) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	var cov *eventCoverage
	if !paced {
		// Two proposers, ten faults.
		cov = newEventCoverage(t, seeds, 2*10, fastRaftEventCounters)
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosScenario(t, seed, cov)
		})
	}
}

// runChaosScenario runs one chaos seed; cov is nil for a paced run.
func runChaosScenario(t *testing.T, seed int64, cov *eventCoverage) {
	paced := cov == nil
	if !paced {
		cov.seeds.Add(1)
	}
	rng := rand.New(rand.NewSource(seed * 7919))
	nodes := fiveNodes()
	c, err := NewCluster(Options{
		Kind:     KindFastRaft,
		Nodes:    nodes,
		Seed:     seed,
		LossProb: []float64{0, 0.02, 0.05, 0.10}[rng.Intn(4)],
		Paced:    paced,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(30 * time.Second); !ok {
		t.Fatal("no initial leader")
	}
	// Two closed-loop proposers with no think time. A paced leader takes
	// one to three heartbeats per proposal, so the paced run's proposers
	// stay busy for the whole run. An event-driven leader commits within a
	// round trip, and an unbounded loop would commit 5–130x more entries at
	// the same simulation cost per entry. Its proposers instead run in
	// bursts of the paced run's volume: one at the start and one opening
	// just before each fault, so faults land while both have proposals in
	// flight, which is when split votes, burned slots and re-sequencing
	// meet crashes and loss.
	var proposers []*closedLoop
	for _, id := range []types.NodeID{"n1", "n2"} {
		opts := ProposerOptions{Node: id, StopAfter: c.Sched.Now() + 60*time.Second}
		if !paced {
			opts.MaxProposals = chaosBurst
		}
		p, err := c.StartProposer(opts)
		if err != nil {
			t.Fatal(err)
		}
		proposers = append(proposers, &p.closedLoop)
	}
	// Chaos script: one random fault every ~5 virtual seconds.
	crashed := make(map[types.NodeID]bool)
	for i := 1; i <= 10; i++ {
		at := c.Sched.Now() + time.Duration(i)*5*time.Second
		if !paced {
			c.Sched.At(at-burstLead, func() {
				for _, p := range proposers {
					p.Extend(chaosBurst)
				}
			})
		}
		c.Sched.At(at, func() {
			if !paced {
				cov.fault(proposers)
			}
			switch rng.Intn(5) {
			case 0: // crash the current leader
				if h, ok := c.Leader(); ok && len(crashed) < 2 {
					crashed[h.ID()] = true
					c.Crash(h.ID())
				}
			case 1: // crash a random follower
				id := nodes[rng.Intn(len(nodes))]
				if h := c.Host(id); h != nil && h.Alive() && len(crashed) < 2 {
					if l, ok := c.Leader(); !ok || l.ID() != id {
						crashed[id] = true
						c.Crash(id)
					}
				}
			case 2: // restart someone
				for id := range crashed {
					delete(crashed, id)
					if err := c.Restart(id); err != nil {
						t.Errorf("restart %s: %v", id, err)
					}
					break
				}
			case 3: // short partition
				cut := nodes[rng.Intn(len(nodes))]
				rest := make([]types.NodeID, 0, len(nodes)-1)
				for _, id := range nodes {
					if id != cut {
						rest = append(rest, id)
					}
				}
				c.Net.Partition([]types.NodeID{cut}, rest)
				c.Sched.After(3*time.Second, c.Net.Heal)
			case 4: // graceful leave + later rejoin via the join protocol
				id := nodes[2+rng.Intn(3)]
				if h := c.Host(id); h != nil && h.Alive() {
					_ = c.Leave(id)
				}
			}
		})
	}
	c.RunUntil(func() bool { return false }, 70*time.Second)
	for _, err := range c.Safety.Errors() {
		t.Error(err)
	}
	if c.Safety.Committed("") == 0 {
		t.Error("scenario committed nothing at all")
	}
	if !paced {
		for _, h := range c.Hosts() {
			cov.add(metricsOf(h.Machine()))
		}
	}
}

// TestPropertyCRaftSafetyUnderChurn subjects a two-cluster C-Raft
// deployment to local leader crashes and loss while both clusters batch
// into the global log, asserting safety on the global log and on every
// cluster's local log, with event-driven leaders at both levels.
func TestPropertyCRaftSafetyUnderChurn(t *testing.T) {
	runCraftChurnSeeds(t, false)
}

// TestPropertyCRaftSafetyUnderChurnPaced runs the same scenarios on the
// paper's round model (CraftOptions.Paced).
func TestPropertyCRaftSafetyUnderChurnPaced(t *testing.T) {
	runCraftChurnSeeds(t, true)
}

// An event-driven churn proposer runs in bursts of craftBurst proposals,
// one at the start and one opening craftBurstLead before each of the five
// faults: six bursts match the ~400 proposals a paced proposer resolves
// over the run. The lead is longer than burstLead so that the burst's
// batches are on their cross-region way to the global log, not only its
// proposals in the local one, when the fault strikes.
const (
	craftBurst     = 70
	craftBurstLead = 100 * time.Millisecond
)

// craftEventCounters are the event-driven paths at both C-Raft levels.
var craftEventCounters = []string{
	"local.fastraft.decided_settled",
	"local.fastraft.losers_resequenced",
	"local.fastraft.burned_slots_sequenced",
	"global.fastraft.decided_settled",
	"global.fastraft.losers_resequenced",
	"global.fastraft.burned_slots_sequenced",
}

func runCraftChurnSeeds(t *testing.T, paced bool) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	var cov *eventCoverage
	if !paced {
		// Four proposers, five faults.
		cov = newEventCoverage(t, seeds, 4*5, craftEventCounters)
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCraftChurnScenario(t, seed, cov)
		})
	}
}

// runCraftChurnScenario runs one churn seed; cov is nil for a paced run.
func runCraftChurnScenario(t *testing.T, seed int64, cov *eventCoverage) {
	paced := cov == nil
	if !paced {
		cov.seeds.Add(1)
	}
	rng := rand.New(rand.NewSource(seed * 104729))
	specs := []ClusterSpec{
		{ID: "cA", Sites: ids("a1", "a2", "a3"), Region: "us-east-1"},
		{ID: "cB", Sites: ids("b1", "b2", "b3"), Region: "eu-west-1"},
	}
	c, err := NewCraftCluster(CraftOptions{
		Clusters: specs,
		Seed:     seed,
		LossProb: []float64{0, 0.02}[rng.Intn(2)],
		Paced:    paced,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForLeaders(time.Minute) {
		t.Fatal("leaders not elected")
	}
	end := c.Sched.Now() + 90*time.Second
	// As in the Fast Raft chaos scenario, event-driven proposers run in
	// bursts that open just before each fault.
	var proposers []*closedLoop
	for _, spec := range specs {
		// Proposers on two sites per cluster to survive crashes.
		for _, site := range spec.Sites[:2] {
			opts := ProposerOptions{Node: site, StopAfter: end}
			if !paced {
				opts.MaxProposals = craftBurst
			}
			p, err := c.StartProposer(opts)
			if err != nil {
				t.Fatal(err)
			}
			proposers = append(proposers, &p.closedLoop)
		}
	}
	// Crash-and-restart local leaders a few times during the run.
	crashedAt := make(map[types.NodeID]types.NodeID) // cluster -> crashed site
	for i := 1; i <= 5; i++ {
		at := c.Sched.Now() + time.Duration(i)*15*time.Second
		if !paced {
			c.Sched.At(at-craftBurstLead, func() {
				for _, p := range proposers {
					p.Extend(craftBurst)
				}
			})
		}
		c.Sched.At(at, func() {
			if !paced {
				cov.fault(proposers)
			}
			spec := specs[rng.Intn(len(specs))]
			if prev, ok := crashedAt[spec.ID]; ok {
				delete(crashedAt, spec.ID)
				if err := c.Restart(prev); err != nil {
					t.Errorf("restart %s: %v", prev, err)
				}
				return
			}
			if h, ok := c.LocalLeader(spec.ID); ok {
				crashedAt[spec.ID] = h.ID()
				c.Crash(h.ID())
			}
		})
	}
	c.RunUntil(func() bool { return false }, end+10*time.Second)
	for _, err := range c.Safety.Errors() {
		t.Error(err)
	}
	if c.Safety.Committed("global") == 0 {
		t.Error("nothing committed to the global log")
	}
	if !paced {
		for _, spec := range specs {
			for _, site := range spec.Sites {
				cov.add(c.Host(site).Node().Metrics())
			}
		}
	}
}

// TestPropertyLivenessAfterQuorumRestore checks Definition 2.2 under the
// paper's liveness conditions: after arbitrary crashes, as long as a
// classic quorum is restored and a leader holds long enough, every pending
// proposal eventually commits. Both leader timing models run.
func TestPropertyLivenessAfterQuorumRestore(t *testing.T) {
	for _, paced := range []bool{false, true} {
		for seed := int64(1); seed <= 10; seed++ {
			checkLivenessAfterQuorumRestore(t, seed, paced)
		}
	}
}

func checkLivenessAfterQuorumRestore(t *testing.T, seed int64, paced bool) {
	c, err := NewCluster(Options{Kind: KindFastRaft, Nodes: fiveNodes(), Seed: seed, Paced: paced})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(30 * time.Second); !ok {
		t.Fatal("no leader")
	}
	// Crash a majority: consensus must stall.
	c.Crash("n3")
	c.Crash("n4")
	c.Crash("n5")
	p, err := c.StartProposer(ProposerOptions{Node: "n1", MaxProposals: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	stalled := p.Completed
	// Restore the quorum: everything must drain.
	if err := c.Restart("n3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("n4"); err != nil {
		t.Fatal(err)
	}
	ok := c.RunUntil(func() bool { return p.Completed >= 5 }, c.Sched.Now()+2*time.Minute)
	if !ok {
		t.Fatalf("seed %d (paced=%v): stalled at %d then %d/5 after quorum restore",
			seed, paced, stalled, p.Completed)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}
