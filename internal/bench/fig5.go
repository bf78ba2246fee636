package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/hraft-io/hraft/internal/harness"
	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/types"
)

// Fig5Options parametrizes the Figure 5 experiment: global-log throughput
// of classic Raft vs C-Raft with 20 sites split evenly over a varying
// number of geo-distributed clusters (paper: batches of 10, five 3-minute
// trials, one closed-loop proposer per cluster).
type Fig5Options struct {
	// ClusterCounts are the sweep points (paper: 20 sites over 1..10
	// clusters; counts must divide Sites).
	ClusterCounts []int
	// Sites is the total number of sites (paper: 20).
	Sites int
	// BatchSize is entries per C-Raft batch (paper: 10).
	BatchSize int
	// TrialDuration is the measured window per trial (paper: 3 minutes).
	TrialDuration time.Duration
	// Warmup precedes the measured window.
	Warmup time.Duration
	// Trials is the number of seeded trials averaged per point (paper: 5).
	Trials int
	// Seed is the base random seed.
	Seed int64
}

// Defaults fills unset fields with the paper's settings.
func (o *Fig5Options) Defaults() {
	if len(o.ClusterCounts) == 0 {
		o.ClusterCounts = []int{1, 2, 4, 5, 10}
	}
	if o.Sites == 0 {
		o.Sites = 20
	}
	if o.BatchSize == 0 {
		o.BatchSize = 10
	}
	if o.TrialDuration == 0 {
		o.TrialDuration = 3 * time.Minute
	}
	if o.Warmup == 0 {
		o.Warmup = 15 * time.Second
	}
	if o.Trials == 0 {
		o.Trials = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Fig5Row is one sweep point of Figure 5.
type Fig5Row struct {
	// Clusters is the number of clusters/regions.
	Clusters int
	// RaftPerSec is classic Raft's committed application entries per
	// second.
	RaftPerSec float64
	// CraftPerSec is C-Raft's application entries committed to the global
	// log per second.
	CraftPerSec float64
	// Speedup is CraftPerSec / RaftPerSec.
	Speedup float64
}

// Fig5Throughput reproduces Figure 5.
func Fig5Throughput(opts Fig5Options) ([]Fig5Row, error) {
	opts.Defaults()
	rows := make([]Fig5Row, 0, len(opts.ClusterCounts))
	for i, n := range opts.ClusterCounts {
		if opts.Sites%n != 0 {
			return nil, fmt.Errorf("fig5: %d clusters does not divide %d sites", n, opts.Sites)
		}
		var raftTotal, craftTotal float64
		for trial := 0; trial < opts.Trials; trial++ {
			seed := opts.Seed + int64(1000*i+trial)
			r, err := fig5RaftTrial(opts, n, seed)
			if err != nil {
				return nil, fmt.Errorf("fig5 raft n=%d: %w", n, err)
			}
			cr, err := fig5CraftTrial(opts, n, seed+500)
			if err != nil {
				return nil, fmt.Errorf("fig5 craft n=%d: %w", n, err)
			}
			raftTotal += r
			craftTotal += cr
		}
		row := Fig5Row{
			Clusters:    n,
			RaftPerSec:  raftTotal / float64(opts.Trials),
			CraftPerSec: craftTotal / float64(opts.Trials),
		}
		if row.RaftPerSec > 0 {
			row.Speedup = row.CraftPerSec / row.RaftPerSec
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// fig5Groups lays out sites over the first n AWS regions.
func fig5Groups(opts Fig5Options, n int) []harness.ClusterSpec {
	regions := simnet.AWSRegions()
	perCluster := opts.Sites / n
	specs := make([]harness.ClusterSpec, 0, n)
	site := 0
	for i := 0; i < n; i++ {
		sites := make([]types.NodeID, 0, perCluster)
		for j := 0; j < perCluster; j++ {
			site++
			sites = append(sites, types.NodeID(fmt.Sprintf("s%d", site)))
		}
		specs = append(specs, harness.ClusterSpec{
			ID:     types.NodeID(fmt.Sprintf("c%d", i+1)),
			Sites:  sites,
			Region: regions[i%len(regions)],
		})
	}
	return specs
}

// fig5RaftTrial measures the classic Raft baseline: one flat 20-site group
// spread over the same regions, one closed-loop proposer per region group.
func fig5RaftTrial(opts Fig5Options, n int, seed int64) (float64, error) {
	specs := fig5Groups(opts, n)
	topo := simnet.AWSTopology()
	var all []types.NodeID
	for _, spec := range specs {
		for _, s := range spec.Sites {
			topo.SetRegion(string(s), spec.Region)
			all = append(all, s)
		}
	}
	c, err := harness.NewCluster(harness.Options{
		Kind:     harness.KindRaft,
		Nodes:    all,
		Seed:     seed,
		Topology: topo,
		// A flat WAN deployment needs election timeouts beyond the largest
		// round trip (300 ms): use 1–2 s.
		ElectionTimeoutMin: time.Second,
		ElectionTimeoutMax: 2 * time.Second,
		ProposalTimeout:    3 * time.Second,
		Paced:              true,
		Audit:              harness.AuditOff,
	})
	if err != nil {
		return 0, err
	}
	if _, ok := c.WaitForLeader(60 * time.Second); !ok {
		return 0, fmt.Errorf("no leader")
	}
	start := c.Sched.Now() + opts.Warmup
	end := start + opts.TrialDuration
	proposers := make([]*harness.Proposer, 0, n)
	for _, spec := range specs {
		p, err := c.StartProposer(harness.ProposerOptions{Node: spec.Sites[0], StopAfter: end})
		if err != nil {
			return 0, err
		}
		proposers = append(proposers, p)
	}
	c.RunUntil(func() bool { return false }, end+time.Second)
	if err := c.Safety.Err(); err != nil {
		return 0, err
	}
	committed := 0
	for _, p := range proposers {
		committed += len(p.Series.Between(start, end))
	}
	return float64(committed) / opts.TrialDuration.Seconds(), nil
}

// fig5CraftTrial measures C-Raft: the same sites grouped into clusters, one
// closed-loop proposer per cluster; throughput counts application entries
// committed to the global log.
func fig5CraftTrial(opts Fig5Options, n int, seed int64) (float64, error) {
	specs := fig5Groups(opts, n)
	c, err := harness.NewCraftCluster(harness.CraftOptions{
		Clusters:  specs,
		Seed:      seed,
		BatchSize: opts.BatchSize,
		Paced:     true,
		Audit:     harness.AuditOff,
	})
	if err != nil {
		return 0, err
	}
	if !c.WaitForLeaders(2 * time.Minute) {
		return 0, fmt.Errorf("leaders not elected")
	}
	start := c.Sched.Now() + opts.Warmup
	end := start + opts.TrialDuration
	for _, spec := range specs {
		if _, err := c.StartProposer(harness.ProposerOptions{Node: spec.Sites[0], StopAfter: end}); err != nil {
			return 0, err
		}
	}
	c.RunUntil(func() bool { return false }, end+time.Second)
	if err := c.Safety.Err(); err != nil {
		return 0, err
	}
	items := c.GlobalItemsCommitted(start, end)
	return float64(items) / opts.TrialDuration.Seconds(), nil
}

// PrintFig5 renders the Figure 5 table.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "Figure 5: global commit throughput, classic Raft vs C-Raft (20 sites over N regions)\n")
	fmt.Fprintf(w, "%-10s %-14s %-14s %s\n", "clusters", "raft (e/s)", "c-raft (e/s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %-14.1f %-14.1f %.2fx\n",
			r.Clusters, r.RaftPerSec, r.CraftPerSec, r.Speedup)
	}
}
