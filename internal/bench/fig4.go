package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/hraft-io/hraft/internal/harness"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/types"
)

// Fig4Options parametrizes the Figure 4 experiment: per-proposal commit
// latency in Fast Raft across a silent leave of two sites (5 sites, 5%
// loss, member timeout of 5 missed heartbeat responses in the paper).
type Fig4Options struct {
	// Seed is the random seed.
	Seed int64
	// LossPercent is the injected message loss (paper: 5).
	LossPercent float64
	// LeaveAt is when the two sites leave silently.
	LeaveAt time.Duration
	// RunFor is the total experiment duration.
	RunFor time.Duration
	// MemberTimeoutRounds is the silent-leave threshold (paper: 5).
	MemberTimeoutRounds int
}

// Defaults fills unset fields with the paper's settings.
func (o *Fig4Options) Defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.LossPercent == 0 {
		o.LossPercent = 5
	}
	if o.LeaveAt == 0 {
		o.LeaveAt = 10 * time.Second
	}
	if o.RunFor == 0 {
		o.RunFor = 30 * time.Second
	}
	if o.MemberTimeoutRounds == 0 {
		o.MemberTimeoutRounds = 5
	}
}

// Fig4Result is the latency time-series around the silent leave.
type Fig4Result struct {
	// Samples holds (completion time, latency) for every committed
	// proposal.
	Samples []stats.Sample
	// LeaveAt is when the two sites left (the figure's vertical red line).
	LeaveAt time.Duration
	// Left are the sites that left silently.
	Left []types.NodeID
	// ConfigShrunkAt is when the leader committed the configuration that
	// excludes both leavers (0 if it never happened).
	ConfigShrunkAt time.Duration
	// Before/During/After summarize the three phases.
	Before stats.Summary
	// During covers LeaveAt until the configuration shrank.
	During stats.Summary
	// After covers the remainder of the run.
	After stats.Summary
}

// Fig4SilentLeave reproduces Figure 4.
func Fig4SilentLeave(opts Fig4Options) (Fig4Result, error) {
	opts.Defaults()
	nodes := siteNames(5)
	c, err := harness.NewCluster(harness.Options{
		Kind:                harness.KindFastRaft,
		Nodes:               nodes,
		Seed:                opts.Seed,
		LossProb:            opts.LossPercent / 100,
		MemberTimeoutRounds: opts.MemberTimeoutRounds,
		Paced:               true,
		Audit:               harness.AuditOff,
	})
	if err != nil {
		return Fig4Result{}, err
	}
	leaderID, ok := c.WaitForLeader(30 * time.Second)
	if !ok {
		return Fig4Result{}, fmt.Errorf("no leader elected")
	}
	// Proposer: first non-leader site. Leavers: two sites that are neither
	// the leader nor the proposer, so consensus continues across the churn.
	var proposer types.NodeID
	var leavers []types.NodeID
	for _, id := range nodes {
		if id == leaderID {
			continue
		}
		if proposer == types.None {
			proposer = id
			continue
		}
		if len(leavers) < 2 {
			leavers = append(leavers, id)
		}
	}
	start := c.Sched.Now()
	p, err := c.StartProposer(harness.ProposerOptions{Node: proposer})
	if err != nil {
		return Fig4Result{}, err
	}
	leaveAt := start + opts.LeaveAt
	c.Sched.At(leaveAt, func() {
		for _, id := range leavers {
			c.Crash(id)
		}
	})
	end := start + opts.RunFor
	c.RunUntil(func() bool { return false }, end)
	p.Stop()
	if err := c.Safety.Err(); err != nil {
		return Fig4Result{}, err
	}

	res := Fig4Result{
		Samples: p.Series.Samples(),
		LeaveAt: leaveAt,
		Left:    leavers,
	}
	// Find when the leader's configuration dropped both leavers.
	if h, okLeader := c.Leader(); okLeader {
		cfg := h.Machine().Config()
		shrunk := !cfg.Contains(leavers[0]) && !cfg.Contains(leavers[1])
		if shrunk {
			// Locate the first post-leave sample committed under the
			// shrunken configuration by scanning the series for the
			// latency recovery; exact commit time of the config entry is
			// interior to the harness, so approximate with the first
			// sample after which the fast track was restored.
			res.ConfigShrunkAt = firstRecovery(p.Series, leaveAt)
		}
	}
	boundary := res.ConfigShrunkAt
	if boundary == 0 {
		boundary = end
	}
	res.Before = stats.Summarize(valuesBetween(p.Series, 0, leaveAt))
	res.During = stats.Summarize(valuesBetween(p.Series, leaveAt, boundary))
	res.After = stats.Summarize(valuesBetween(p.Series, boundary, end+time.Hour))
	return res, nil
}

func valuesBetween(s *stats.Series, lo, hi time.Duration) []time.Duration {
	var out []time.Duration
	for _, sm := range s.Between(lo, hi) {
		out = append(out, sm.Value)
	}
	return out
}

// firstRecovery estimates when the reconfiguration completed: the first
// sample after the leave that is followed by three consecutive fast-track
// latencies (≲ 1.5 heartbeats).
func firstRecovery(s *stats.Series, leaveAt time.Duration) time.Duration {
	const fastThreshold = 150 * time.Millisecond
	samples := s.Samples()
	for i := 0; i+2 < len(samples); i++ {
		if samples[i].At <= leaveAt {
			continue
		}
		if samples[i].Value <= fastThreshold &&
			samples[i+1].Value <= fastThreshold &&
			samples[i+2].Value <= fastThreshold {
			return samples[i].At
		}
	}
	return 0
}

// PrintFig4 renders the Figure 4 series and phase summary.
func PrintFig4(w io.Writer, res Fig4Result) {
	fmt.Fprintf(w, "Figure 4: Fast Raft latency across a silent leave of %v (leave at %s)\n",
		res.Left, res.LeaveAt.Round(time.Millisecond))
	fmt.Fprintf(w, "%-12s %s\n", "time", "latency")
	for _, sm := range res.Samples {
		marker := ""
		if sm.At >= res.LeaveAt && sm.At < res.LeaveAt+time.Second {
			marker = "  <- leave window"
		}
		fmt.Fprintf(w, "%-12s %s%s\n",
			sm.At.Round(time.Millisecond), sm.Value.Round(time.Millisecond), marker)
	}
	fmt.Fprintf(w, "before leave:   %s\n", res.Before)
	fmt.Fprintf(w, "during detect:  %s\n", res.During)
	fmt.Fprintf(w, "after shrink:   %s\n", res.After)
}
