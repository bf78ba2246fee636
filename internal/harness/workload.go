package harness

import (
	"fmt"
	"time"

	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/types"
)

// ProposerOptions configures a closed-loop proposer: it proposes one entry,
// waits for it to resolve, then proposes the next — the workload used by
// all of the paper's experiments.
type ProposerOptions struct {
	// Node is the proposing site.
	Node types.NodeID
	// MaxProposals stops the proposer after this many resolutions
	// (0 = unlimited); Extend raises it.
	MaxProposals int
	// StopAfter stops the proposer once virtual time passes this instant
	// (0 = never).
	StopAfter time.Duration
	// ThinkTime separates a resolution from the next proposal.
	ThinkTime time.Duration
	// PayloadSize is the entry payload size in bytes (default 16).
	PayloadSize int
}

// sameInstantYield is how long a proposer with no think time waits after a
// proposal that resolved at the instant it was proposed. A one-member group
// commits without virtual time passing, and proposing again at once would
// run the loop at one instant forever.
const sameInstantYield = time.Millisecond

// closedLoop is the proposal loop shared by Proposer and CraftProposer.
type closedLoop struct {
	sched *simnet.Scheduler
	opts  ProposerOptions
	// submit proposes data at the proposing site; ok is false while the
	// site is down.
	submit func(data []byte) (pid types.ProposalID, ok bool)
	// pending reports whether pid is still in flight at the site: false
	// once it resolved or was lost with a crash.
	pending func(pid types.ProposalID) bool
	// Series records (completion time, latency) per resolved proposal.
	Series *stats.Series
	// Completed counts resolved proposals.
	Completed int
	seq       int
	last      types.ProposalID
	stopped   bool
}

// Stop halts the proposer after the current in-flight proposal.
func (p *closedLoop) Stop() { p.stopped = true }

// Extend raises MaxProposals by n and, unless a proposal is still in
// flight, proposes at once. A proposer started with a small budget and
// extended at chosen instants runs its closed loop in bursts; one whose
// site crashed mid-proposal resumes with the next burst.
func (p *closedLoop) Extend(n int) {
	p.opts.MaxProposals += n
	if !p.pending(p.last) {
		p.propose()
	}
}

func (p *closedLoop) done() bool {
	if p.stopped {
		return true
	}
	if p.opts.MaxProposals > 0 && p.Completed >= p.opts.MaxProposals {
		return true
	}
	if p.opts.StopAfter > 0 && p.sched.Now() >= p.opts.StopAfter {
		return true
	}
	return false
}

func (p *closedLoop) resolved(at, latency time.Duration) {
	p.Series.Add(at, latency)
	p.Completed++
	if p.done() {
		return
	}
	delay := p.opts.ThinkTime
	if delay == 0 && latency == 0 {
		delay = sameInstantYield
	}
	// Even with no delay the next proposal is a scheduled event, which
	// keeps stack depth bounded.
	p.sched.After(delay, p.propose)
}

func (p *closedLoop) propose() {
	if p.done() {
		return
	}
	p.seq++
	payload := make([]byte, p.opts.PayloadSize)
	for i := range payload {
		payload[i] = byte(p.seq + i)
	}
	if pid, ok := p.submit(payload); ok {
		p.last = pid
	}
}

// Proposer is a running closed-loop proposer.
type Proposer struct{ closedLoop }

// StartProposer attaches a closed-loop proposer to a node.
func (c *Cluster) StartProposer(opts ProposerOptions) (*Proposer, error) {
	h := c.hosts[opts.Node]
	if h == nil {
		return nil, fmt.Errorf("harness: unknown proposer node %s", opts.Node)
	}
	p := &Proposer{newClosedLoop(c.Sched, opts)}
	p.submit = func(data []byte) (types.ProposalID, bool) {
		pid, err := c.Propose(opts.Node, data)
		return pid, err == nil
	}
	p.pending = func(pid types.ProposalID) bool {
		_, ok := h.proposeStart[pid]
		return ok && h.alive
	}
	h.OnResolve = func(_ types.ProposalID, at, latency time.Duration) { p.resolved(at, latency) }
	p.propose()
	return p, nil
}

func newClosedLoop(sched *simnet.Scheduler, opts ProposerOptions) closedLoop {
	if opts.PayloadSize == 0 {
		opts.PayloadSize = 16
	}
	return closedLoop{sched: sched, opts: opts, Series: &stats.Series{}}
}

// RunProposals drives a single closed-loop proposer on node until count
// proposals resolve (or the deadline passes), returning the latency
// summary. It is the Figure 3 primitive.
func (c *Cluster) RunProposals(node types.NodeID, count int, deadline time.Duration) (stats.Summary, error) {
	p, err := c.StartProposer(ProposerOptions{Node: node, MaxProposals: count})
	if err != nil {
		return stats.Summary{}, err
	}
	ok := c.RunUntil(func() bool { return p.Completed >= count }, deadline)
	if !ok {
		return stats.Summarize(p.Series.Values()),
			fmt.Errorf("harness: only %d/%d proposals resolved by %s", p.Completed, count, deadline)
	}
	return stats.Summarize(p.Series.Values()), nil
}
