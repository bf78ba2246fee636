package quorum

import (
	"sort"

	"github.com/hraft-io/hraft/internal/types"
)

// Tally is the paper's possibleEntries structure: for each log index, the
// set of distinct proposed entries and the sites that voted for each. A
// Fast Raft leader feeds follower votes (and recovered self-approved
// entries after an election) into the tally and reads decisions out of it.
type Tally struct {
	byIndex map[types.Index]*indexTally
}

type indexTally struct {
	// candidates maps a proposal identity to its candidate record.
	candidates map[candidateKey]*candidate
	// voters records which sites have voted at this index (a site votes at
	// most once per index; re-votes replace the previous vote).
	voters map[types.NodeID]candidateKey
}

// candidateKey identifies a distinct proposed value. Entries with a PID key
// by PID; leader-internal entries key by kind+payload hash (they are never
// proposed on the fast track, so collisions are not a safety concern).
type candidateKey struct {
	pid  types.ProposalID
	kind types.EntryKind
	sum  uint64
}

type candidate struct {
	entry  types.Entry
	voters map[types.NodeID]struct{}
	// nulled marks a candidate suppressed because its proposal was decided
	// at another index (the paper's "set to a null vote" rule).
	nulled bool
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	return &Tally{byIndex: make(map[types.Index]*indexTally)}
}

func keyOf(e types.Entry) candidateKey {
	if !e.PID.IsZero() {
		return candidateKey{pid: e.PID}
	}
	return candidateKey{kind: e.Kind, sum: fnv64(e.Data)}
}

func fnv64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// AddVote records that voter voted for entry e at index idx. A voter's
// newer vote at the same index replaces its older one (a follower re-votes
// with its slot occupant, which may have been overwritten by the leader).
func (t *Tally) AddVote(idx types.Index, voter types.NodeID, e types.Entry) {
	it := t.byIndex[idx]
	if it == nil {
		it = &indexTally{
			candidates: make(map[candidateKey]*candidate),
			voters:     make(map[types.NodeID]candidateKey),
		}
		t.byIndex[idx] = it
	}
	k := keyOf(e)
	if prev, voted := it.voters[voter]; voted {
		if prev == k {
			return
		}
		if c := it.candidates[prev]; c != nil {
			delete(c.voters, voter)
		}
	}
	it.voters[voter] = k
	c := it.candidates[k]
	if c == nil {
		c = &candidate{entry: e.Clone(), voters: make(map[types.NodeID]struct{})}
		it.candidates[k] = c
	}
	c.voters[voter] = struct{}{}
}

// Voters returns the number of distinct configuration members that have
// voted at idx.
func (t *Tally) Voters(idx types.Index, cfg types.Config) int {
	it := t.byIndex[idx]
	if it == nil {
		return 0
	}
	n := 0
	for v := range it.voters {
		if cfg.Contains(v) {
			n++
		}
	}
	return n
}

// Settled reports whether no further vote can change the decision at idx:
// every configuration member has voted, or one candidate already holds
// fastQ of their votes.
func (t *Tally) Settled(idx types.Index, cfg types.Config, fastQ int) bool {
	it := t.byIndex[idx]
	if it == nil {
		return false
	}
	if t.Voters(idx, cfg) == cfg.Size() {
		return true
	}
	for _, c := range it.candidates {
		if c.nulled {
			continue
		}
		votes := 0
		for v := range c.voters {
			if cfg.Contains(v) {
				votes++
			}
		}
		if votes >= fastQ {
			return true
		}
	}
	return false
}

// Decision is the result of deciding an index.
type Decision struct {
	// Winner is the entry with the most votes (ties broken by ProposalID
	// order for determinism). Winner.Index is not set by the tally.
	Winner types.Entry
	// WinnerVoters are the configuration members that voted for the winner.
	WinnerVoters []types.NodeID
	// Losers are the other distinct, non-nulled candidate entries at the
	// index, most-voted first. The leader re-sequences them at later
	// indices so their proposers need not wait for a proposal timeout.
	Losers []types.Entry
	// Votes is the winner's vote count among configuration members.
	Votes int
}

// Decide returns the decision for idx among configuration members, or
// ok=false if no votes are present (the caller then decides a no-op).
// Candidates whose proposal was nulled (decided elsewhere) or that appear
// in skip are excluded; if every candidate is excluded ok=false.
func (t *Tally) Decide(idx types.Index, cfg types.Config, skip func(types.Entry) bool) (Decision, bool) {
	it := t.byIndex[idx]
	if it == nil {
		return Decision{}, false
	}
	type scored struct {
		key   candidateKey
		c     *candidate
		votes int
	}
	var list []scored
	for k, c := range it.candidates {
		if c.nulled || (skip != nil && skip(c.entry)) {
			continue
		}
		votes := 0
		for v := range c.voters {
			if cfg.Contains(v) {
				votes++
			}
		}
		if votes == 0 {
			continue
		}
		list = append(list, scored{key: k, c: c, votes: votes})
	}
	if len(list) == 0 {
		return Decision{}, false
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].votes != list[j].votes {
			return list[i].votes > list[j].votes
		}
		// Deterministic tie-break: PID order, then kind/sum.
		a, b := list[i].key, list[j].key
		if a.pid != b.pid {
			return a.pid.Less(b.pid)
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.sum < b.sum
	})
	win := list[0]
	d := Decision{Winner: win.c.entry.Clone(), Votes: win.votes}
	for v := range win.c.voters {
		if cfg.Contains(v) {
			d.WinnerVoters = append(d.WinnerVoters, v)
		}
	}
	sort.Slice(d.WinnerVoters, func(i, j int) bool { return d.WinnerVoters[i] < d.WinnerVoters[j] })
	for _, s := range list[1:] {
		d.Losers = append(d.Losers, s.c.entry.Clone())
	}
	return d, true
}

// NullProposal suppresses every candidate matching entry e's proposal
// identity at all indices other than except. It implements the paper's
// duplicate-avoidance rule when a proposal is decided at some index.
func (t *Tally) NullProposal(e types.Entry, except types.Index) {
	k := keyOf(e)
	for idx, it := range t.byIndex {
		if idx == except {
			continue
		}
		if c, ok := it.candidates[k]; ok {
			c.nulled = true
		}
	}
}

// Clear discards all state at or below idx; the leader calls it as its
// commit index advances.
func (t *Tally) Clear(idx types.Index) {
	for i := range t.byIndex {
		if i <= idx {
			delete(t.byIndex, i)
		}
	}
}

// MaxIndex returns the highest index with any recorded vote, or 0.
func (t *Tally) MaxIndex() types.Index {
	var max types.Index
	for i := range t.byIndex {
		if i > max {
			max = i
		}
	}
	return max
}

// PendingIndexes returns all indexes with votes, ascending. Used by tests
// and by the leader when re-sequencing orphaned proposals.
func (t *Tally) PendingIndexes() []types.Index {
	out := make([]types.Index, 0, len(t.byIndex))
	for i := range t.byIndex {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Len returns the number of indexes currently tracked.
func (t *Tally) Len() int { return len(t.byIndex) }
