// Package craft implements C-Raft, the paper's hierarchical consensus
// model: each cluster runs Fast Raft over a local log, and the cluster
// leaders run a second Fast Raft instance over a global log of batches of
// locally committed entries.
//
// The crucial mechanism is global-state replication (paper Section V): a
// cluster leader must not externalize any step of inter-cluster consensus
// before that step survives the leader's failure. Here, every change to the
// global instance's durable state (inserted/overwritten entries, term,
// vote, commit index) is captured in a GlobalState delta entry and proposed
// to intra-cluster consensus; all outbound global messages produced up to
// and including that step are held until the delta — and every delta before
// it — commits locally. A successor local leader rebuilds the global
// instance by replaying committed deltas from the local log and re-attaches
// to the global configuration as the same member (the cluster), exactly as
// a crashed site recovers from stable storage.
//
// Batches are identified by deterministic ProposalIDs (cluster, sequence),
// so a successor re-proposing a batch de-duplicates against the original at
// the global level.
package craft

import (
	"fmt"
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/core/fastraft"
	"github.com/hraft-io/hraft/internal/replica"
	"github.com/hraft-io/hraft/internal/session"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// heldMsg is a global outbound message waiting for its barrier: it may be
// released once every delta up to and including ordinal barrier has
// committed locally.
type heldMsg struct {
	barrier uint64
	env     types.Envelope
}

// batchRecord tracks one of this cluster's batches observed in the replayed
// global log.
type batchRecord struct {
	entry types.Entry
	items int
}

// Node is a C-Raft site: a local Fast Raft node plus, while this site leads
// its cluster, the cluster's inter-cluster Fast Raft instance.
type Node struct {
	cfg Config

	local  *fastraft.Node
	global *fastraft.Node  // nil unless this site currently leads its cluster
	gRec   *trace.Recorder // the global instance's derived recorder (nil with it)
	// gsRec records the site's authoritative view of the global log: the
	// commit stream replayed from externalized deltas. The live global
	// instance's own commits are provisional (see startGlobal) and are not
	// recorded; this stream is what cross-site agreement is audited on.
	gsRec    *trace.Recorder
	gsBooted bool // first replayed commit this lifetime emits a boot epoch

	// Replayed global state, rebuilt from committed GlobalState entries in
	// the local log. This is the recovery source for successor leaders.
	gTerm   types.Term
	gVote   types.NodeID
	gCommit types.Index
	gLog    map[types.Index]types.Entry
	// Replay ordering: deltas apply in (era, seq) order; stale eras are
	// ignored (their changes were never externalized).
	replayEra uint64
	replaySeq uint64
	replayBuf map[uint64]types.GlobalStateDelta // seq -> delta (current era)

	// Live-leader barrier machinery.
	deltaSeq       uint64                        // seq of the last proposed delta (current era)
	deltaOrdinal   uint64                        // total deltas proposed by this leadership
	deltaPids      map[types.ProposalID]uint64   // delta pid -> ordinal
	deltaCommitted map[uint64]bool               // ordinal -> committed locally
	deltaPrefix    uint64                        // all ordinals <= deltaPrefix committed
	held           []heldMsg                     // FIFO of held global messages
	internalPIDs   map[types.ProposalID]struct{} // delta pids (hidden from resolutions)
	lastTerm       types.Term                    // last replicated global hard state
	lastVote       types.NodeID
	lastCommit     types.Index

	// Batching.
	appLog       []types.BatchItem // locally committed application entries, in order
	batchedItems int               // items covered by known batches of this cluster
	nextBatchSeq uint64            // next batch sequence to create
	ourBatches   map[uint64]batchRecord
	oldestWait   time.Duration // when the oldest unbatched item committed (0 = none)

	// appliedLocal is the highest local index drained into the replay and
	// batching state above; local-log snapshots are cut no further than it.
	appliedLocal types.Index

	// Read plumbing (see read.go): craft-level read tokens mapped onto the
	// two instances' token spaces, plus globally confirmed reads waiting
	// for the local replay (gCommit) to cover their index.
	readSeq        uint64
	localReadMap   map[uint64]uint64
	globalReadMap  map[uint64]uint64
	globalReadWait []globalRead
	readDone       []types.ReadDone

	// metrics counts C-Raft-level events (batch throttling); globalBase
	// accumulates the counters of torn-down global instances so demotion
	// does not zero the "global." metrics.
	metrics    *stats.Counters
	globalBase map[string]uint64

	// Outputs.
	outbox          []types.Envelope
	localCommitted  []types.Entry
	globalCommitted []types.Entry
	resolved        []types.Resolution

	joinContacts []types.NodeID // pending global join (new cluster)
	now          time.Duration
}

// New builds a C-Raft site, recovering the local log from storage. The
// replayed global state rebuilds itself as local entries re-commit.
func New(cfg Config) (*Node, error) {
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:            cfg,
		gLog:           make(map[types.Index]types.Entry),
		replayBuf:      make(map[uint64]types.GlobalStateDelta),
		deltaPids:      make(map[types.ProposalID]uint64),
		deltaCommitted: make(map[uint64]bool),
		internalPIDs:   make(map[types.ProposalID]struct{}),
		ourBatches:     make(map[uint64]batchRecord),
		localReadMap:   make(map[uint64]uint64),
		globalReadMap:  make(map[uint64]uint64),
		metrics:        stats.NewCounters(),
		globalBase:     make(map[string]uint64),
	}
	// Group-stamp the site recorder so cross-site audit tooling can tell
	// which consensus group an event belongs to: intra-cluster events from
	// different clusters at the same log index are unrelated.
	cfg.Recorder.SetGroup("local/" + string(cfg.Cluster))
	n.gsRec = cfg.Recorder.Derive(cfg.Recorder.Label() + "/gstate")
	n.gsRec.SetGroup("global")
	// The local instance snapshots through the craft node: the replayed
	// global state and batching position ARE this site's application state,
	// so C-Raft recovery survives a compacted local log. A stored snapshot
	// is restored into n during fastraft.New (restore-on-open).
	local, err := fastraft.New(fastraft.Config{
		ID:                       cfg.ID,
		Bootstrap:                cfg.ClusterBootstrap,
		Storage:                  cfg.Storage,
		HeartbeatInterval:        cfg.LocalHeartbeat,
		ElectionTimeoutMin:       cfg.LocalElectionMin,
		ElectionTimeoutMax:       cfg.LocalElectionMax,
		ProposalTimeout:          cfg.LocalProposalTimeout,
		MemberTimeoutRounds:      cfg.MemberTimeoutRounds,
		SnapshotThreshold:        cfg.SnapshotThreshold,
		Snapshotter:              craftSnapshotter{n},
		MaxEntriesPerAppend:      cfg.MaxEntriesPerAppend,
		MaxInflightAppends:       cfg.MaxInflightAppends,
		MaxInflightBytes:         cfg.MaxInflightBytes,
		MaxSnapshotChunk:         cfg.MaxSnapshotChunk,
		MaxInflightProposalBytes: cfg.MaxInflightProposalBytes,
		SessionTTL:               cfg.SessionTTL,
		DisableFastTrack:         cfg.DisableFastTrack,
		Paced:                    cfg.Paced,
		Rand:                     cfg.Rand,
		Layer:                    types.LayerLocal,
		Recorder:                 cfg.Recorder,
	})
	if err != nil {
		return nil, fmt.Errorf("craft: local instance: %w", err)
	}
	n.local = local
	return n, nil
}

// ID returns the site's identity.
func (n *Node) ID() types.NodeID { return n.cfg.ID }

// ClusterID returns the cluster (= global member) identity.
func (n *Node) ClusterID() types.NodeID { return n.cfg.Cluster }

// Role returns the local-instance role.
func (n *Node) Role() types.Role { return n.local.Role() }

// Term returns the local-instance term.
func (n *Node) Term() types.Term { return n.local.Term() }

// LeaderID returns the local-instance leader.
func (n *Node) LeaderID() types.NodeID { return n.local.LeaderID() }

// CommitIndex returns the local commit index.
func (n *Node) CommitIndex() types.Index { return n.local.CommitIndex() }

// Config returns the local cluster configuration.
func (n *Node) Config() types.Config { return n.local.Config() }

// PendingProposals counts unresolved local application proposals.
func (n *Node) PendingProposals() int { return n.local.PendingProposals() }

// LocalSnapshotIndex returns the local log's compaction boundary (0 if the
// local log has never been compacted).
func (n *Node) LocalSnapshotIndex() types.Index { return n.local.SnapshotIndex() }

// LocalLastIndex returns the local log's last occupied index.
func (n *Node) LocalLastIndex() types.Index { return n.local.LastIndex() }

// IsGlobalMember reports whether this site currently runs the cluster's
// global instance (i.e., leads its cluster).
func (n *Node) IsGlobalMember() bool { return n.global != nil }

// GlobalRole returns the global-instance role (follower if none).
func (n *Node) GlobalRole() types.Role {
	if n.global == nil {
		return types.RoleFollower
	}
	return n.global.Role()
}

// GlobalTerm returns the global-instance term (replayed value if this site
// is not the cluster leader).
func (n *Node) GlobalTerm() types.Term {
	if n.global == nil {
		return n.gTerm
	}
	return n.global.Term()
}

// GlobalCommitIndex returns the highest global commit index this site has
// learned through replay.
func (n *Node) GlobalCommitIndex() types.Index { return n.gCommit }

// GlobalNode exposes the live global instance (nil unless this site leads
// its cluster); used by tests and diagnostics.
func (n *Node) GlobalNode() *fastraft.Node { return n.global }

// DebugString renders a one-line state summary for diagnostics.
func (n *Node) DebugString() string {
	s := fmt.Sprintf("%s[%s] local{role=%s term=%d commit=%d last=%d} replay{era=%d seq=%d gCommit=%d}",
		n.cfg.ID, n.cfg.Cluster, n.local.Role(), n.local.Term(),
		n.local.CommitIndex(), n.local.LastIndex(), n.replayEra, n.replaySeq, n.gCommit)
	if n.global != nil {
		s += fmt.Sprintf(" global{role=%s term=%d commit=%d lastLeader=%d last=%d pending=%d held=%d prefix=%d ord=%d}",
			n.global.Role(), n.global.Term(), n.global.CommitIndex(),
			n.global.LastLeaderIndex(), n.global.LastIndex(),
			n.global.PendingProposals(), len(n.held), n.deltaPrefix, n.deltaOrdinal)
	}
	return s
}

// Metrics returns a snapshot of the site's monotonic counters: the local
// instance's under "local.", the (live plus past) global instances' under
// "global.", and C-Raft's own batch counters under "craft.".
func (n *Node) Metrics() map[string]uint64 {
	out := make(map[string]uint64)
	for k, v := range n.local.Metrics() {
		out["local."+k] += v
	}
	for k, v := range n.globalBase {
		out["global."+k] += v
	}
	if n.global != nil {
		for k, v := range n.global.Metrics() {
			out["global."+k] += v
		}
	}
	n.metrics.MergeInto(out, "")
	return out
}

// Recorder exposes the site's flight recorder (nil when tracing is
// disabled). The local and global layers share its ring, so one snapshot
// covers both.
func (n *Node) Recorder() *trace.Recorder { return n.cfg.Recorder }

// LeaseUntil returns the local instance's read lease expiry (0 = no
// lease, or not leading); diagnostics.
func (n *Node) LeaseUntil() time.Duration { return n.local.LeaseUntil() }

// PeerStatus snapshots the local instance's per-peer replication progress
// (empty unless this site leads its cluster).
func (n *Node) PeerStatus() []replica.PeerStatus { return n.local.PeerStatus() }

// GlobalPeerStatus snapshots the global instance's per-peer replication
// progress (empty unless this site runs the global instance and leads the
// ring).
func (n *Node) GlobalPeerStatus() []replica.PeerStatus {
	if n.global == nil {
		return nil
	}
	return n.global.PeerStatus()
}

// GlobalLogEntry returns the replayed global-log entry at idx, if known.
func (n *Node) GlobalLogEntry(idx types.Index) (types.Entry, bool) {
	e, ok := n.gLog[idx]
	if !ok {
		return types.Entry{}, false
	}
	return e.Clone(), true
}

// GlobalConfig returns the global configuration as known to the global
// instance (or the replayed log).
func (n *Node) GlobalConfig() types.Config {
	if n.global != nil {
		return n.global.Config()
	}
	cfg := n.cfg.GlobalBootstrap
	var bestIdx types.Index
	for idx, e := range n.gLog {
		if e.Kind == types.KindConfig && e.Config != nil && idx >= bestIdx {
			bestIdx = idx
			cfg = *e.Config
		}
	}
	return cfg.Clone()
}

// TakeOutbox drains outgoing messages (both layers; global messages only
// once their barrier deltas committed locally).
func (n *Node) TakeOutbox() []types.Envelope {
	out := n.outbox
	n.outbox = nil
	return out
}

// TakeCommitted drains newly committed local entries.
func (n *Node) TakeCommitted() []types.Entry {
	out := n.localCommitted
	n.localCommitted = nil
	return out
}

// TakeGlobalCommitted drains global-log entries newly learned committed
// (through delta replay, hence locally durable).
func (n *Node) TakeGlobalCommitted() []types.Entry {
	out := n.globalCommitted
	n.globalCommitted = nil
	return out
}

// TakeResolved drains resolutions of local application proposals (C-Raft
// internal proposals are filtered out).
func (n *Node) TakeResolved() []types.Resolution {
	out := n.resolved
	n.resolved = nil
	return out
}

// Propose submits an application entry to intra-cluster consensus. Once
// enough entries commit locally, the cluster leader batches them into the
// global log.
func (n *Node) Propose(now time.Duration, data []byte) types.ProposalID {
	n.now = now
	pid := n.local.Propose(now, data)
	n.pump(now)
	return pid
}

// OpenSession opens a client session at the intra-cluster level; the
// proposal resolves with the new session's ID. Session dedup is local to
// the cluster: duplicates are withheld from the local commit stream and
// therefore never batched into the global log a second time either.
func (n *Node) OpenSession(now time.Duration) types.ProposalID {
	n.now = now
	pid := n.local.OpenSession(now)
	n.pump(now)
	return pid
}

// ProposeSession submits an application entry under (sid, seq) to
// intra-cluster consensus with exactly-once semantics across proposer
// restarts and local-log compaction. ack is the client's retry floor
// (see fastraft.Node.ProposeSession).
func (n *Node) ProposeSession(now time.Duration, sid types.SessionID, seq, ack uint64, data []byte) types.ProposalID {
	n.now = now
	pid := n.local.ProposeSession(now, sid, seq, ack, data)
	n.pump(now)
	return pid
}

// Sessions exposes the local-level session registry (tests, diagnostics).
func (n *Node) Sessions() *session.Registry { return n.local.Sessions() }

// JoinCluster starts the local (intra-cluster) join protocol for a site
// entering an existing cluster.
func (n *Node) JoinCluster(now time.Duration, contacts []types.NodeID) {
	n.now = now
	n.local.Join(now, contacts)
	n.pump(now)
}

// JoinGlobal registers this cluster for the global join protocol (forming
// a new cluster, paper Section V-C). The join request is sent once this
// site leads its cluster and runs a global instance.
func (n *Node) JoinGlobal(now time.Duration, contacts []types.NodeID) {
	n.now = now
	n.joinContacts = append([]types.NodeID(nil), contacts...)
	n.pump(now)
}

// Step delivers one message, routed to the matching consensus level.
func (n *Node) Step(now time.Duration, env types.Envelope) {
	n.now = now
	switch env.Layer {
	case types.LayerGlobal:
		if n.global != nil {
			n.global.Step(now, env)
		}
	default:
		n.local.Step(now, env)
	}
	n.pump(now)
}

// Tick advances time at both levels.
func (n *Node) Tick(now time.Duration) {
	n.now = now
	n.local.Tick(now)
	if n.global != nil {
		n.global.Tick(now)
	}
	n.pump(now)
}

// SyncDone forwards a storage durability advance to the local instance
// (the global instance runs on in-memory storage and never defers), then
// pumps: released local outputs may trigger replay or batching. No-op with
// synchronous storage.
func (n *Node) SyncDone(now time.Duration, durableLSN uint64) {
	n.now = now
	n.local.SyncDone(now, durableLSN)
	n.pump(now)
}

// NextDeadline reports the earliest instant either level needs Tick.
func (n *Node) NextDeadline() time.Duration {
	d := n.local.NextDeadline()
	if n.global != nil {
		if g := n.global.NextDeadline(); g != 0 && (d == 0 || g < d) {
			d = g
		}
	}
	// The delayed-flush deadline applies only while this site runs the
	// global instance: followers cannot flush, and keeping a stale past
	// deadline would spin the host's wake timer without ever progressing
	// (they learn batch positions through replay instead).
	if n.cfg.BatchDelay > 0 && n.oldestWait > 0 && n.global != nil {
		f := n.oldestWait + n.cfg.BatchDelay
		if f <= n.now && !n.canProposeBatch() {
			// The delayed flush is due but the batch window is closed
			// (MaxInflightBatches): retry at the next heartbeat instead of
			// spinning on a stale deadline.
			f = n.now + n.cfg.LocalHeartbeat
		}
		if d == 0 || f < d {
			d = f
		}
	}
	return d
}

// pump processes the interplay between the two levels until quiescent:
// leadership changes, global output capture (deltas + barriers), local
// output draining (replay, batching triggers) and batch creation.
func (n *Node) pump(now time.Duration) {
	for i := 0; i < 16; i++ {
		progress := false
		if n.syncGlobalLifecycle(now) {
			progress = true
		}
		if n.captureGlobal(now) {
			progress = true
		}
		if n.drainLocal(now) {
			progress = true
		}
		if n.drainReads() {
			progress = true
		}
		if n.makeBatches(now) {
			progress = true
		}
		if !progress {
			return
		}
	}
}

// syncGlobalLifecycle creates or destroys the global instance as local
// leadership changes.
func (n *Node) syncGlobalLifecycle(now time.Duration) bool {
	isLeader := n.local.Role() == types.RoleLeader
	switch {
	case isLeader && n.global == nil:
		// Build the global member only from complete state. Until this
		// leadership's first entry has committed and been replayed, deltas
		// an earlier local leader committed, and may have externalized,
		// can still be missing from the replay: the member would rejoin
		// the global group having forgotten decisions it acknowledged.
		if n.appliedLocal < n.local.TermStart() {
			return false
		}
		n.startGlobal(now)
		return true
	case !isLeader && n.global != nil:
		n.stopGlobal()
		return true
	}
	return false
}

// startGlobal builds the cluster's global instance from the replayed
// global state — the local log is the global member's stable storage.
func (n *Node) startGlobal(now time.Duration) {
	store := storage.NewMemory()
	if err := store.SetHardState(storage.HardState{Term: n.gTerm, VotedFor: n.gVote}); err != nil {
		panic(fmt.Sprintf("craft %s: seed global storage: %v", n.cfg.ID, err))
	}
	// The derived recorder shares the site recorder's ring, so local and
	// global events interleave into one narrative per site; the "global"
	// group marks events of the inter-cluster instance for audit tooling.
	gRec := n.cfg.Recorder.Derive(n.cfg.Recorder.Label() + "/global")
	gRec.SetGroup("global")
	idxs := make([]types.Index, 0, len(n.gLog))
	for idx := range n.gLog {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		if err := store.AppendEntry(n.gLog[idx]); err != nil {
			panic(fmt.Sprintf("craft %s: seed global storage: %v", n.cfg.ID, err))
		}
	}
	g, err := fastraft.New(fastraft.Config{
		ID:                  n.cfg.Cluster,
		Bootstrap:           n.cfg.GlobalBootstrap,
		Storage:             store,
		HeartbeatInterval:   n.cfg.GlobalHeartbeat,
		ElectionTimeoutMin:  n.cfg.GlobalElectionMin,
		ElectionTimeoutMax:  n.cfg.GlobalElectionMax,
		ProposalTimeout:     n.cfg.GlobalProposalTimeout,
		MemberTimeoutRounds: n.cfg.MemberTimeoutRounds,
		MaxEntriesPerAppend: n.cfg.MaxEntriesPerAppend,
		MaxInflightAppends:  n.cfg.MaxInflightAppends,
		MaxInflightBytes:    n.cfg.MaxInflightBytes,
		DisableFastTrack:    n.cfg.DisableFastTrack,
		Paced:               n.cfg.Paced,
		Rand:                n.cfg.Rand,
		Layer:               types.LayerGlobal,
		Recorder:            gRec,
	})
	if err != nil {
		panic(fmt.Sprintf("craft %s: start global instance: %v", n.cfg.ID, err))
	}
	n.global = g
	n.gRec = gRec
	// New leadership era for delta sequencing.
	n.deltaSeq = 0
	n.deltaOrdinal = 0
	n.deltaPrefix = 0
	n.deltaPids = make(map[types.ProposalID]uint64)
	n.deltaCommitted = make(map[uint64]bool)
	n.held = nil
	n.lastTerm, n.lastVote = n.gTerm, n.gVote
	n.lastCommit = 0 // fresh instance relearns its commit index
	// Resume this cluster's globally uncommitted batches under their
	// original deterministic PIDs (sorted for deterministic simulation).
	seqs := make([]uint64, 0, len(n.ourBatches))
	for seq := range n.ourBatches {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		rec := n.ourBatches[seq]
		pid := types.ProposalID{Proposer: n.cfg.Cluster, Seq: seq}
		if rec.entry.Index != 0 && rec.entry.Index <= n.gCommit {
			if cur, ok := n.gLog[rec.entry.Index]; ok && cur.PID == pid {
				continue // globally committed
			}
		}
		e := rec.entry.Clone()
		e.Index = 0
		e.Approval = 0
		n.global.ProposeEntryPID(now, e, pid)
	}
	// Pending global join for a newly formed cluster.
	if len(n.joinContacts) > 0 && !n.global.IsMember() {
		n.global.Join(now, n.joinContacts)
	}
}

// stopGlobal tears down the global instance on demotion. Held messages are
// dropped: they were never externalized, so the successor's replayed state
// is complete.
func (n *Node) stopGlobal() {
	// Unconfirmed global reads die with the instance; confirmed ones keep
	// waiting for the replay, which every site advances as a follower too.
	n.drainReads()
	n.failGlobalReads()
	for k, v := range n.global.Metrics() {
		n.globalBase[k] += v
	}
	// The discarded instance may hold a live leader lease; record the
	// revocation so audit tooling does not carry a phantom lease for this
	// site past the teardown.
	if n.global.Role() == types.RoleLeader {
		n.gRec.LeaseRevoke(n.now, n.cfg.Cluster)
	}
	n.global = nil
	n.gRec = nil
	n.held = nil
	n.deltaPids = make(map[types.ProposalID]uint64)
	n.deltaCommitted = make(map[uint64]bool)
}
