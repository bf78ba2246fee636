// Package logstore implements the replicated log used by every consensus
// core in this repository.
//
// Unlike classic Raft's append-only log, a Fast Raft log is sparse:
// proposers broadcast entries directly to sites at chosen indices, so a
// site may insert index i while index j < i is still empty. Each entry also
// carries an approval marker (self vs leader). The store maintains two key
// invariants the protocols rely on:
//
//   - the leader-approved entries always form a contiguous prefix
//     [FirstIndex()..LastLeaderIndex()];
//   - an occupied slot is never silently replaced: self-approved entries
//     are only overwritten by leader-approved ones.
//
// Classic Raft uses the same store in append-only mode (all entries
// leader-approved) with suffix truncation on conflict.
//
// The log may not start at index 1: after compaction, everything at or
// below the snapshot boundary (SnapshotIndex/SnapshotTerm) is gone and the
// first retained slot is SnapshotIndex()+1. The boundary only ever covers
// committed, leader-approved prefixes, so compaction never discards
// self-approved entries the recovery algorithm might need.
package logstore

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"sort"

	"github.com/hraft-io/hraft/internal/types"
)

// ErrOccupied is returned by Insert when the slot already holds an entry.
var ErrOccupied = errors.New("logstore: slot occupied")

// ErrGap is returned by AppendLeader when the append would break the
// leader-approved prefix contiguity.
var ErrGap = errors.New("logstore: leader-approved prefix gap")

// ErrCompacted is returned by CompactTo for a boundary that is not inside
// the current leader-approved prefix.
var ErrCompacted = errors.New("logstore: invalid compaction boundary")

// Log is a sparse, 1-indexed replicated log whose prefix may be compacted
// into a snapshot. It is not safe for concurrent use; the consensus cores
// are single-threaded per node.
type Log struct {
	// entries[i - snapIndex - 1] holds index i; nil means a hole.
	entries []*types.Entry
	// snapIndex/snapTerm are the snapshot boundary: the index and term of
	// the last compacted entry (0/0 when the log starts at 1).
	snapIndex types.Index
	snapTerm  types.Term
	// lastLeader is the highest index of the contiguous leader-approved
	// prefix.
	lastLeader types.Index
	// lastIndex is the highest occupied index (== snapIndex when the
	// retained log is empty).
	lastIndex types.Index
	// byPID locates retained entries by proposal for de-duplication.
	// Values are indices; entries with zero PIDs are not tracked. Mappings
	// at or below the compaction boundary move into the compacted window —
	// bounding the map by the retained log length — while restart-safe
	// de-duplication of committed-then-compacted proposals is owned by the
	// session registry (internal/session), whose state rides in the
	// snapshot.
	byPID map[types.ProposalID]types.Index
	// compacted is the sessionless-retry window: a bounded LRU of proposal
	// mappings whose entries were dropped by compaction. Sessionless
	// proposers that retry after a lost acknowledgment race compaction —
	// once the committed entry is snapshotted away, byPID no longer knows
	// it and the retry would commit a second time. The window keeps the
	// most recently compacted mappings findable so such retries still
	// resolve to the original index. Each mapping carries a payload digest:
	// a restarted proposer's sequence counter resets, so a reused pid with
	// different bytes is a fresh proposal, not a retry. Best-effort only
	// (bounded, not restart-safe): sessions remain the exactly-once
	// mechanism.
	compacted pidWindow
	// compactedHits counts FindProposal answers served from the window;
	// each one is a duplicate commit avoided.
	compactedHits uint64
	// config is the configuration carried by the last KindConfig entry in
	// the log (or the snapshot/bootstrap base), and configIndex its index
	// (0 if from bootstrap).
	config      types.Config
	configIndex types.Index
	// base is the configuration in effect below FirstIndex (bootstrap, or
	// the snapshot's config after compaction/installation), with the index
	// it came from. It is the fallback when no retained entry carries one.
	base      types.Config
	baseIndex types.Index
}

// compactedWindowSize bounds the sessionless-retry window: how many
// recently compacted proposal mappings stay findable after their entries
// left the log. Large enough to cover a burst of retries racing one
// compaction, small enough to be memory-irrelevant.
const compactedWindowSize = 1024

// pidWindow is a bounded LRU of proposal→index mappings. Lookups refresh
// recency; inserting past capacity evicts the least recently used mapping.
type pidWindow struct {
	byPID map[types.ProposalID]*list.Element
	order *list.List // front = most recently used
}

type pidMapping struct {
	pid    types.ProposalID
	idx    types.Index
	digest uint64
}

func (w *pidWindow) add(pid types.ProposalID, idx types.Index, digest uint64) {
	if w.byPID == nil {
		w.byPID = make(map[types.ProposalID]*list.Element)
		w.order = list.New()
	}
	if el, ok := w.byPID[pid]; ok {
		m := el.Value.(*pidMapping)
		m.idx, m.digest = idx, digest
		w.order.MoveToFront(el)
		return
	}
	w.byPID[pid] = w.order.PushFront(&pidMapping{pid: pid, idx: idx, digest: digest})
	if w.order.Len() > compactedWindowSize {
		oldest := w.order.Back()
		w.order.Remove(oldest)
		delete(w.byPID, oldest.Value.(*pidMapping).pid)
	}
}

func (w *pidWindow) get(pid types.ProposalID) (types.Index, uint64, bool) {
	el, ok := w.byPID[pid]
	if !ok {
		return 0, 0, false
	}
	w.order.MoveToFront(el)
	m := el.Value.(*pidMapping)
	return m.idx, m.digest, true
}

// payloadDigest is FNV-1a over an entry's payload: the window's way to
// tell a genuine retry (same pid, same bytes) from a fresh proposal whose
// restarted proposer reused the pid.
func payloadDigest(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func (w *pidWindow) len() int {
	if w.order == nil {
		return 0
	}
	return w.order.Len()
}

// New returns an empty log with the given bootstrap configuration. The
// bootstrap configuration is what sites use before any config entry exists
// in the log.
func New(bootstrap types.Config) *Log {
	return &Log{
		byPID:  make(map[types.ProposalID]types.Index),
		config: bootstrap.Clone(),
		base:   bootstrap.Clone(),
	}
}

// Get returns the entry at idx, or ok=false for a hole, a compacted index
// or an out-of-range index. The returned entry is a copy.
func (l *Log) Get(idx types.Index) (types.Entry, bool) {
	if e := l.at(idx); e != nil {
		return e.Clone(), true
	}
	return types.Entry{}, false
}

// ProposalAt returns the ProposalID of the entry at idx without copying
// the entry (Get clones its payload); ok=false for a hole, a compacted
// index or an out-of-range index.
func (l *Log) ProposalAt(idx types.Index) (types.ProposalID, bool) {
	if e := l.at(idx); e != nil {
		return e.PID, true
	}
	return types.ProposalID{}, false
}

// Has reports whether idx holds an entry.
func (l *Log) Has(idx types.Index) bool { return l.at(idx) != nil }

// Term returns the term of the entry at idx, the snapshot term at the
// boundary, or 0 for a hole or compacted index.
func (l *Log) Term(idx types.Index) types.Term {
	if idx == l.snapIndex {
		return l.snapTerm
	}
	if e := l.at(idx); e != nil {
		return e.Term
	}
	return 0
}

// FirstIndex returns the first retained log position (1 when nothing was
// compacted).
func (l *Log) FirstIndex() types.Index { return l.snapIndex + 1 }

// SnapshotIndex returns the index of the last compacted entry (0 if none).
func (l *Log) SnapshotIndex() types.Index { return l.snapIndex }

// SnapshotTerm returns the term of the entry at SnapshotIndex (0 if none).
func (l *Log) SnapshotTerm() types.Term { return l.snapTerm }

// LastIndex returns the highest occupied index (SnapshotIndex if the
// retained log is empty, 0 for a fresh log).
func (l *Log) LastIndex() types.Index { return l.lastIndex }

// LastLeaderIndex returns the highest index of the contiguous
// leader-approved prefix (the paper's lastLeaderIndex). Compacted entries
// were all leader-approved, so the prefix includes the boundary.
func (l *Log) LastLeaderIndex() types.Index { return l.lastLeader }

// LastLeaderTerm returns the term of the entry at LastLeaderIndex (0 if
// none).
func (l *Log) LastLeaderTerm() types.Term { return l.Term(l.lastLeader) }

// Config returns the active configuration (last config entry in the log,
// or the snapshot/bootstrap base) and the index it came from (0 for
// bootstrap).
func (l *Log) Config() (types.Config, types.Index) {
	return l.config.Clone(), l.configIndex
}

// ActiveConfig is Config without the copy, for read-only use on hot
// paths: the caller must not modify the returned configuration.
func (l *Log) ActiveConfig() types.Config { return l.config }

// ConfigAt returns the configuration in effect at idx: the last config
// entry at or below idx, falling back to the snapshot/bootstrap base. It is
// what a snapshot taken at idx must record.
func (l *Log) ConfigAt(idx types.Index) (types.Config, types.Index) {
	if l.configIndex <= idx {
		return l.config.Clone(), l.configIndex
	}
	for i := idx; i >= l.FirstIndex(); i-- {
		if e := l.at(i); e != nil && e.Kind == types.KindConfig && e.Config != nil {
			return e.Config.Clone(), i
		}
	}
	// No config entry in (boundary, idx]: the base configuration
	// (bootstrap, or the snapshot's) is still in effect at idx.
	return l.base.Clone(), l.baseIndex
}

// FindProposal returns the index at which the proposal identified by pid is
// stored, or 0. A retained entry answers directly; failing that, the
// bounded window of recently compacted mappings is consulted, so a
// sessionless retry arriving just after compaction still resolves to the
// original (committed) index instead of committing twice.
func (l *Log) FindProposal(pid types.ProposalID) types.Index {
	if pid.IsZero() {
		return 0
	}
	if idx := l.byPID[pid]; idx != 0 {
		return idx
	}
	if idx, _, ok := l.compacted.get(pid); ok {
		l.compactedHits++
		return idx
	}
	return 0
}

// FindProposalFor is FindProposal for de-duplication decisions: it only
// reports a match when the stored payload equals data. A proposer's
// in-memory sequence counter resets on restart, so a reused ProposalID can
// name a brand-new proposal — answering it with the old entry's index
// would acknowledge a write that never committed. Retained entries compare
// payloads directly; windowed mappings compare the digest captured at
// compaction. Callers reasoning about entries already placed in the log
// (recovery, decide) keep using FindProposal.
func (l *Log) FindProposalFor(pid types.ProposalID, data []byte) types.Index {
	if pid.IsZero() {
		return 0
	}
	if idx := l.byPID[pid]; idx != 0 {
		if e := l.at(idx); e != nil && bytes.Equal(e.Data, data) {
			return idx
		}
		return 0
	}
	if idx, digest, ok := l.compacted.get(pid); ok && digest == payloadDigest(data) {
		l.compactedHits++
		return idx
	}
	return 0
}

// InsertSelf inserts a self-approved entry at idx if the slot is free,
// implementing the follower's handling of a proposer broadcast. The entry's
// Index and Approval are overwritten; other fields are kept.
func (l *Log) InsertSelf(idx types.Index, e types.Entry) error {
	if idx < l.FirstIndex() {
		return fmt.Errorf("logstore: insert at compacted index %d (first %d)", idx, l.FirstIndex())
	}
	if l.at(idx) != nil {
		return ErrOccupied
	}
	e = e.Clone()
	e.Index = idx
	e.Approval = types.ApprovedSelf
	l.place(idx, &e)
	return nil
}

// AppendLeader places a leader-approved entry at idx, which must be exactly
// LastLeaderIndex()+1 to preserve prefix contiguity. Any occupant (a
// self-approved entry, or a leader-approved entry from an older term being
// overwritten after a leadership change) is replaced. The entry's Index and
// Approval are overwritten.
func (l *Log) AppendLeader(idx types.Index, e types.Entry) error {
	if idx != l.lastLeader+1 {
		return fmt.Errorf("%w: append %d after leader prefix %d", ErrGap, idx, l.lastLeader)
	}
	e = e.Clone()
	e.Index = idx
	e.Approval = types.ApprovedLeader
	l.remove(idx)
	l.place(idx, &e)
	l.lastLeader = idx
	return nil
}

// OverwriteLeader replaces the slot at idx with a leader-approved entry
// even when idx is inside the existing leader-approved prefix. It is used
// when a new leader's AppendEntries conflicts with stale leader-approved
// entries. idx must not exceed LastLeaderIndex()+1 nor fall below
// FirstIndex().
func (l *Log) OverwriteLeader(idx types.Index, e types.Entry) error {
	if idx > l.lastLeader+1 {
		return fmt.Errorf("%w: overwrite %d beyond leader prefix %d", ErrGap, idx, l.lastLeader)
	}
	if idx < l.FirstIndex() {
		return fmt.Errorf("logstore: overwrite compacted index %d (first %d)", idx, l.FirstIndex())
	}
	e = e.Clone()
	e.Index = idx
	e.Approval = types.ApprovedLeader
	l.remove(idx)
	l.place(idx, &e)
	if idx > l.lastLeader {
		l.lastLeader = idx
	}
	return nil
}

// PromoteToLeader marks the existing entry at idx leader-approved without
// changing its contents, used when a follower receives from the leader an
// entry it already inserted. idx must be LastLeaderIndex()+1.
func (l *Log) PromoteToLeader(idx types.Index, term types.Term) error {
	e := l.at(idx)
	if e == nil {
		return fmt.Errorf("logstore: promote hole %d", idx)
	}
	if idx != l.lastLeader+1 {
		return fmt.Errorf("%w: promote %d after leader prefix %d", ErrGap, idx, l.lastLeader)
	}
	e.Approval = types.ApprovedLeader
	e.Term = term
	l.lastLeader = idx
	if e.Kind == types.KindConfig && e.Config != nil {
		l.adoptConfig(*e)
	}
	return nil
}

// TruncateSuffix removes all entries with index > idx. Classic Raft uses it
// to resolve AppendEntries conflicts. Fast Raft never truncates (it would
// discard self-approved entries), which the core enforces by not calling
// this. idx is clamped to the compaction boundary.
func (l *Log) TruncateSuffix(idx types.Index) {
	if idx < l.snapIndex {
		idx = l.snapIndex
	}
	for i := l.lastIndex; i > idx; i-- {
		l.remove(i)
	}
	if l.lastIndex > idx {
		l.lastIndex = idx
	}
	for l.lastIndex > l.snapIndex && l.at(l.lastIndex) == nil {
		l.lastIndex--
	}
	if l.lastLeader > idx {
		l.lastLeader = idx
	}
	l.recomputeConfig()
}

// CompactTo discards every entry at or below idx, recording idx/term as the
// new snapshot boundary. The boundary must lie inside the leader-approved
// prefix (callers additionally restrict it to committed, applied entries)
// and advance monotonically. Proposal-ID mappings of compacted entries move
// into the bounded retry window: full in-log de-duplication covers the
// retained suffix, recently compacted proposals stay findable for a while,
// and the session registry covers everything older.
func (l *Log) CompactTo(idx types.Index, term types.Term) error {
	if idx <= l.snapIndex {
		return fmt.Errorf("%w: compact to %d at or below boundary %d", ErrCompacted, idx, l.snapIndex)
	}
	if idx > l.lastLeader {
		return fmt.Errorf("%w: compact to %d beyond leader prefix %d", ErrCompacted, idx, l.lastLeader)
	}
	l.base, l.baseIndex = l.ConfigAt(idx)
	digests := l.capturePIDDigests(idx)
	l.entries = append([]*types.Entry(nil), l.entries[idx-l.snapIndex:]...)
	l.snapIndex = idx
	l.snapTerm = term
	if l.lastIndex < idx {
		l.lastIndex = idx
	}
	l.dropCompactedPIDs(digests)
	return nil
}

// capturePIDDigests records the payload digest of every tracked proposal at
// or below boundary, while its entry is still retained. Compaction paths
// call it just before dropping the prefix so the retry window can later
// distinguish genuine retries from reused proposal IDs.
func (l *Log) capturePIDDigests(boundary types.Index) map[types.ProposalID]uint64 {
	var digests map[types.ProposalID]uint64
	for pid, idx := range l.byPID {
		if idx <= boundary {
			if e := l.at(idx); e != nil {
				if digests == nil {
					digests = make(map[types.ProposalID]uint64)
				}
				digests[pid] = payloadDigest(e.Data)
			}
		}
	}
	return digests
}

// dropCompactedPIDs moves proposal mappings that point at or below the
// snapshot boundary into the bounded retry window, keeping the primary map
// proportional to the retained log. Only compaction paths call this, so
// every windowed mapping refers to a committed entry — truncated or
// overwritten (never-committed) entries are removed outright by remove()
// and never enter the window. They enter in log order, so which mappings
// the window later evicts depends on the log alone, not on map iteration
// order: a run replays from its seed.
func (l *Log) dropCompactedPIDs(digests map[types.ProposalID]uint64) {
	var moved []pidMapping
	for pid, idx := range l.byPID {
		if idx <= l.snapIndex {
			delete(l.byPID, pid)
			moved = append(moved, pidMapping{pid: pid, idx: idx, digest: digests[pid]})
		}
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i].idx < moved[j].idx })
	for _, m := range moved {
		l.compacted.add(m.pid, m.idx, m.digest)
	}
}

// PIDCount returns the number of tracked proposal mappings (tests assert it
// stays bounded across compactions).
func (l *Log) PIDCount() int { return len(l.byPID) }

// CompactedPIDCount returns the number of mappings in the sessionless-retry
// window (bounded by a fixed capacity; tests assert the bound holds).
func (l *Log) CompactedPIDCount() int { return l.compacted.len() }

// CompactedPIDHits returns how many FindProposal lookups were answered from
// the retry window — each one a duplicate commit avoided after compaction
// outran a sessionless retry.
func (l *Log) CompactedPIDHits() uint64 { return l.compactedHits }

// InstallSnapshot resets the log to a snapshot boundary received from the
// leader: everything at or below meta.LastIndex is dropped and the
// snapshot's configuration becomes the base. Entries above the boundary
// (for a lagging site, typically none) are retained — self-approved ones
// may still matter to Fast Raft recovery, and leader-approved ones remain
// consistent with the leader that sent the snapshot.
func (l *Log) InstallSnapshot(meta types.SnapshotMeta) error {
	if meta.LastIndex <= l.snapIndex {
		return fmt.Errorf("%w: install snapshot %d at or below boundary %d",
			ErrCompacted, meta.LastIndex, l.snapIndex)
	}
	digests := l.capturePIDDigests(meta.LastIndex)
	if meta.LastIndex <= types.Index(len(l.entries))+l.snapIndex {
		// Boundary inside the retained range: drop the covered prefix.
		l.entries = append([]*types.Entry(nil), l.entries[meta.LastIndex-l.snapIndex:]...)
	} else {
		l.entries = nil
	}
	l.snapIndex = meta.LastIndex
	l.snapTerm = meta.LastTerm
	if l.lastIndex < meta.LastIndex {
		l.lastIndex = meta.LastIndex
	}
	if l.lastLeader < meta.LastIndex {
		l.lastLeader = meta.LastIndex
	}
	// Adopt the snapshot's configuration unless a config entry above the
	// boundary (already consistent with the leader) overrides it.
	l.base = meta.Config.Clone()
	l.baseIndex = meta.ConfigIndex
	l.recomputeConfig()
	l.dropCompactedPIDs(digests)
	return nil
}

// SelfApproved returns copies of all self-approved entries, ascending by
// index. They are what a voter ships to a candidate for recovery.
func (l *Log) SelfApproved() []types.Entry {
	var out []types.Entry
	for i := l.FirstIndex(); i <= l.lastIndex; i++ {
		if e := l.at(i); e != nil && e.Approval == types.ApprovedSelf {
			out = append(out, e.Clone())
		}
	}
	return out
}

// Range returns copies of the entries in [lo, hi] (inclusive), skipping
// holes and the compacted prefix. Used to build AppendEntries payloads and
// catch-up batches.
func (l *Log) Range(lo, hi types.Index) []types.Entry {
	if lo < l.FirstIndex() {
		lo = l.FirstIndex()
	}
	if hi > l.lastIndex {
		hi = l.lastIndex
	}
	var out []types.Entry
	for i := lo; i <= hi; i++ {
		if e := l.at(i); e != nil {
			out = append(out, e.Clone())
		}
	}
	return out
}

// LeaderRange returns copies of leader-approved entries in
// [lo, min(hi, LastLeaderIndex)]; the result is contiguous by construction.
func (l *Log) LeaderRange(lo, hi types.Index) []types.Entry {
	if hi > l.lastLeader {
		hi = l.lastLeader
	}
	return l.Range(lo, hi)
}

// Snapshot returns copies of every retained entry in the log, ascending.
// Used by stable storage and tests.
func (l *Log) Snapshot() []types.Entry {
	return l.Range(l.FirstIndex(), l.lastIndex)
}

// CheckInvariants verifies structural invariants; tests call it after every
// mutation sequence.
func (l *Log) CheckInvariants() error {
	for i := l.FirstIndex(); i <= l.lastLeader; i++ {
		e := l.at(i)
		if e == nil {
			return fmt.Errorf("logstore: hole %d inside leader prefix %d", i, l.lastLeader)
		}
		if e.Approval != types.ApprovedLeader {
			return fmt.Errorf("logstore: non-leader entry %d inside leader prefix", i)
		}
	}
	if l.lastIndex > l.snapIndex && l.at(l.lastIndex) == nil {
		return fmt.Errorf("logstore: lastIndex %d is a hole", l.lastIndex)
	}
	if l.lastIndex < l.snapIndex {
		return fmt.Errorf("logstore: lastIndex %d below snapshot boundary %d", l.lastIndex, l.snapIndex)
	}
	if l.lastLeader < l.snapIndex {
		return fmt.Errorf("logstore: leader prefix %d below snapshot boundary %d", l.lastLeader, l.snapIndex)
	}
	for i := l.lastIndex + 1; i <= l.snapIndex+types.Index(len(l.entries)); i++ {
		if l.at(i) != nil {
			return fmt.Errorf("logstore: entry beyond lastIndex at %d", i)
		}
	}
	return nil
}

func (l *Log) at(idx types.Index) *types.Entry {
	if idx <= l.snapIndex || idx > l.snapIndex+types.Index(len(l.entries)) {
		return nil
	}
	return l.entries[idx-l.snapIndex-1]
}

func (l *Log) place(idx types.Index, e *types.Entry) {
	if idx <= l.snapIndex {
		panic(fmt.Sprintf("logstore: place at compacted index %d (boundary %d)", idx, l.snapIndex))
	}
	for l.snapIndex+types.Index(len(l.entries)) < idx {
		l.entries = append(l.entries, nil)
	}
	l.entries[idx-l.snapIndex-1] = e
	if idx > l.lastIndex {
		l.lastIndex = idx
	}
	if !e.PID.IsZero() {
		l.byPID[e.PID] = idx
	}
	if e.Kind == types.KindConfig && e.Config != nil && idx >= l.configIndex {
		l.adoptConfig(*e)
	}
}

func (l *Log) remove(idx types.Index) {
	e := l.at(idx)
	if e == nil {
		return
	}
	if !e.PID.IsZero() && l.byPID[e.PID] == idx {
		delete(l.byPID, e.PID)
	}
	wasConfig := e.Kind == types.KindConfig
	l.entries[idx-l.snapIndex-1] = nil
	if wasConfig && idx == l.configIndex {
		l.recomputeConfig()
	}
}

func (l *Log) adoptConfig(e types.Entry) {
	l.config = e.Config.Clone()
	l.configIndex = e.Index
}

// recomputeConfig rescans for the highest config entry, falling back to
// the base configuration. Only called on the rare
// removal/truncation/installation paths.
func (l *Log) recomputeConfig() {
	for i := l.lastIndex; i >= l.FirstIndex(); i-- {
		if e := l.at(i); e != nil && e.Kind == types.KindConfig && e.Config != nil {
			l.config = e.Config.Clone()
			l.configIndex = i
			return
		}
	}
	l.config = l.base.Clone()
	l.configIndex = l.baseIndex
}

// Restore rebuilds a log from persisted entries (used on recovery from
// stable storage when no snapshot exists). Entries must be sorted ascending
// by index.
func Restore(bootstrap types.Config, entries []types.Entry) (*Log, error) {
	return RestoreSnapshot(bootstrap, types.SnapshotMeta{}, entries)
}

// RestoreSnapshot rebuilds a log on top of a snapshot boundary: the first
// retained index is meta.LastIndex+1 and the snapshot's configuration is
// the base (bootstrap is used when meta is zero). Entries at or below the
// boundary are ignored; the rest must be sorted ascending by index.
func RestoreSnapshot(bootstrap types.Config, meta types.SnapshotMeta, entries []types.Entry) (*Log, error) {
	l := New(bootstrap)
	l.snapIndex = meta.LastIndex
	l.snapTerm = meta.LastTerm
	l.lastIndex = meta.LastIndex
	l.lastLeader = meta.LastIndex
	if meta.LastIndex > 0 {
		l.config = meta.Config.Clone()
		l.configIndex = meta.ConfigIndex
		l.base = meta.Config.Clone()
		l.baseIndex = meta.ConfigIndex
	}
	for _, e := range entries {
		if e.Index == 0 {
			return nil, fmt.Errorf("logstore: restore entry with index 0")
		}
		if e.Index <= meta.LastIndex {
			continue
		}
		ec := e.Clone()
		l.place(e.Index, &ec)
	}
	// Recompute the leader prefix above the boundary.
	for i := l.FirstIndex(); ; i++ {
		e := l.at(i)
		if e == nil || e.Approval != types.ApprovedLeader {
			l.lastLeader = i - 1
			break
		}
	}
	l.recomputeConfig()
	if err := l.CheckInvariants(); err != nil {
		return nil, err
	}
	return l, nil
}
