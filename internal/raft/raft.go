// Package raft implements classic Raft (Ongaro & Ousterhout) as the paper's
// experimental baseline.
//
// The implementation is a sans-io state machine: the host delivers messages
// via Step, advances time via Tick, and drains outgoing messages and newly
// committed entries. The leader is event-driven by default: an append, an
// ack, a durability advance or a read dispatches what it made sendable at
// once, and the heartbeat tick covers liveness, lease renewal and
// retransmission. Config.Paced restores the paper's implementation model
// (see DESIGN.md "Timing model"): all leader actions — dispatching
// AppendEntries, evaluating commits and notifying proposers — happen at
// the leader's periodic heartbeat tick. That is what gives classic Raft its
// characteristic ~1.5 heartbeat commit latency in the paper's figures,
// against which Fast Raft's single-tick fast track is compared.
package raft

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/durable"
	"github.com/hraft-io/hraft/internal/logstore"
	"github.com/hraft-io/hraft/internal/quorum"
	"github.com/hraft-io/hraft/internal/readpath"
	"github.com/hraft-io/hraft/internal/replica"
	"github.com/hraft-io/hraft/internal/session"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Config parametrizes a classic Raft node.
type Config struct {
	// ID is this site's identity.
	ID types.NodeID
	// Bootstrap is the initial configuration used when storage is empty.
	Bootstrap types.Config
	// Storage is the site's stable storage (required).
	Storage storage.Storage
	// HeartbeatInterval is the leader tick period (paper: 100 ms
	// intra-cluster).
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound the randomized election timeout.
	ElectionTimeoutMin time.Duration
	// ElectionTimeoutMax must be > ElectionTimeoutMin.
	ElectionTimeoutMax time.Duration
	// ProposalTimeout is how long a proposer waits before re-sending an
	// unresolved proposal.
	ProposalTimeout time.Duration
	// SnapshotThreshold is the number of committed entries beyond the
	// latest snapshot boundary after which the node snapshots its state
	// machine and compacts the log prefix (0 = compaction disabled).
	SnapshotThreshold int
	// MaxEntriesPerAppend caps the entries carried by one AppendEntries
	// message (0 = unlimited); a lagging follower then catches up over
	// several bounded round trips instead of one unbounded message.
	MaxEntriesPerAppend int
	// MaxInflightAppends bounds outstanding AppendEntries messages per
	// follower once it is replicating (0 = replica.DefaultMaxInflight). A
	// full window downgrades the round to a plain heartbeat. Secondary to
	// MaxInflightBytes.
	MaxInflightAppends int
	// MaxInflightBytes bounds the encoded entry bytes outstanding per
	// follower (0 = replica.DefaultMaxInflightBytes, 1 MiB): the primary
	// append window, sized at encode time so flow control tracks actual
	// wire cost instead of message counts.
	MaxInflightBytes int
	// MaxSnapshotChunk is the InstallSnapshot chunk payload size in bytes:
	// the leader slices the encoded snapshot into chunks no larger than
	// this so transfers fit datagram transports (0 = whole snapshot in one
	// message).
	MaxSnapshotChunk int
	// SnapshotResendTimeout is how long a transfer may go without
	// acknowledged progress before it is retried, before any round trips
	// have been observed on the link (default 4 heartbeats): a pending
	// snapshot's unacked part is re-sent, and a full AppendEntries window
	// falls back to probing so lost appends are retransmitted. Once acks
	// flow, the per-peer adaptive estimate (EWMA of observed round trips,
	// clamped between HeartbeatInterval and ElectionTimeoutMin) takes
	// over.
	SnapshotResendTimeout time.Duration
	// SessionTTL expires client sessions idle longer than this, via
	// leader-committed clock entries (0 = no expiry).
	SessionTTL time.Duration
	// Snapshotter produces and consumes application state-machine images
	// for compaction (optional; without one snapshots carry empty state).
	Snapshotter types.Snapshotter
	// Paced keeps the paper's round model: the leader dispatches appends,
	// advances its commit index, notifies proposers and confirms reads
	// only at its heartbeat tick. The virtual-time paper figures run
	// paced.
	Paced bool
	// Rand drives randomized timeouts; required for deterministic
	// simulation.
	Rand *rand.Rand
	// Recorder, when set, receives protocol flight-recorder events and
	// proposal lifecycle spans (see internal/trace). Nil disables recording
	// at the cost of one nil check per instrumentation point.
	Recorder *trace.Recorder
}

// Defaults fills unset durations with the paper's experimental settings.
func (c *Config) Defaults() {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.ElectionTimeoutMin == 0 {
		c.ElectionTimeoutMin = 3 * c.HeartbeatInterval
	}
	if c.ElectionTimeoutMax == 0 {
		c.ElectionTimeoutMax = 2 * c.ElectionTimeoutMin
	}
	if c.ProposalTimeout == 0 {
		c.ProposalTimeout = 6 * c.HeartbeatInterval
	}
	if c.SnapshotResendTimeout == 0 {
		c.SnapshotResendTimeout = 4 * c.HeartbeatInterval
	}
}

func (c *Config) validate() error {
	if c.ID == types.None {
		return errors.New("raft: config needs an ID")
	}
	if c.Storage == nil {
		return errors.New("raft: config needs Storage")
	}
	if c.Rand == nil {
		return errors.New("raft: config needs Rand")
	}
	if c.ElectionTimeoutMax <= c.ElectionTimeoutMin {
		return errors.New("raft: ElectionTimeoutMax must exceed ElectionTimeoutMin")
	}
	return nil
}

// pendingProposal tracks a locally originated proposal until it resolves.
type pendingProposal struct {
	entry    types.Entry
	deadline time.Duration
}

// Node is a classic Raft site. It is not safe for concurrent use; hosts
// serialize all calls.
type Node struct {
	cfg Config

	term     types.Term
	votedFor types.NodeID
	log      *logstore.Log

	role        types.Role
	leaderID    types.NodeID
	commitIndex types.Index

	// follower/candidate timer.
	electionDeadline time.Duration
	// leader timer.
	tickDeadline time.Duration

	// candidate state.
	votes map[types.NodeID]bool

	// progress is the per-peer replication engine (internal/replica): it
	// owns what used to be the nextIndex/matchIndex maps plus append flow
	// control and snapshot streaming state. Leader-only; nil otherwise.
	progress *replica.Tracker
	aeRound  uint64
	// notifyQueue holds commit notifications to flush at the next leader
	// tick, or at the end of the current event when not paced (see package
	// comment on timing).
	notifyQueue []types.Envelope

	// proposer state.
	proposalSeq uint64
	pending     map[types.ProposalID]*pendingProposal

	outbox    []types.Envelope
	committed []types.Entry
	resolved  []types.Resolution

	// Durability gating (group-commit storage only; see internal/durable).
	// gate is nil for synchronous storage and every queue passes through.
	// The Take* drains tag each batch with the storage LSN it depends on and
	// release only the durable prefix; acts defers this node's internal
	// self-acknowledgements — its own election vote and its own match index
	// — until the records behind them are on disk.
	gate       *durable.Gate
	acts       durable.Acts
	outboxQ    durable.Queue[types.Envelope]
	committedQ durable.Queue[types.Entry]
	resolvedQ  durable.Queue[types.Resolution]

	// snap is the latest snapshot (zero if none); the leader ships it to
	// followers that fell behind the compacted prefix. snapEnc caches its
	// wire encoding for chunked transfers; snapRecv reassembles chunked
	// streams received as follower.
	snap     types.Snapshot
	snapEnc  replica.SnapshotEncoder
	snapRecv replica.Reassembler

	// metrics counts replication events (see internal/replica counter
	// names); it survives role changes, as do the latency histograms.
	// commitHist observes leader-side commit latency (local append to
	// commit); installHist observes follower-side snapshot install
	// duration (stream start to install). appendedAt tracks when the
	// leader appended each uncommitted index (commitHist input; leader
	// only), installStart when the pending snapshot stream began.
	metrics      *stats.Counters
	commitHist   *stats.TimingHist
	installHist  *stats.TimingHist
	appendedAt   map[types.Index]time.Duration
	installStart time.Duration
	// installBoundary/installCheck identify the stream installStart was
	// armed for, so a new stream arriving over a stale partial buffer
	// restarts the clock instead of inheriting the dead stream's start.
	installBoundary types.Index
	installCheck    uint32
	// snapStreamTrace (leader) and installTrace (follower) carry the
	// sampled trace context of an in-flight snapshot stream, so every
	// chunk and the final install land in the same trace tree.
	snapStreamTrace map[types.NodeID]uint64
	installTrace    uint64

	// Linearizable read state (see read.go and internal/readpath). reads
	// is the node-lifetime frontend; readMgr is leader-only, like the
	// tracker; readFloor is this term's no-op index, the completeness
	// floor below which a fresh leader cannot vouch for prior commits.
	// lastLeaderContact backs the election-stickiness vote refusal the
	// lease safety argument depends on.
	reads             *readpath.Frontend
	readMgr           *readpath.Manager
	readFloor         types.Index
	lastLeaderContact time.Duration
	// bootGraceArm/bootGraceUntil implement the post-restart vote-refusal
	// window: a node restarted with persisted state may have acknowledged
	// a lease round just before crashing, and its volatile stickiness
	// state is gone — so it refuses votes for one minimum election
	// timeout after its first post-boot activity, by which time any lease
	// it could have underwritten has expired.
	bootGraceArm   bool
	bootGraceUntil time.Duration

	// sessions is the replicated client-session registry (see
	// internal/session), consulted at append and apply time for
	// exactly-once semantics and snapshotted with the log prefix.
	sessions *session.Registry
	// lastSessionClock is when this leader last appended a session clock
	// entry (expiry pacing).
	lastSessionClock time.Duration

	// rec is the protocol flight recorder (nil = disabled; every call is a
	// nil-check no-op).
	rec *trace.Recorder
	// lv and out bind the shared replication dispatch to this node's log,
	// transport and recorder; built once, they cost nothing per event.
	lv  replica.LogView
	out replica.Outlet

	now time.Duration
}

// New builds a node, recovering persistent state from cfg.Storage.
func New(cfg Config) (*Node, error) {
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hs, entries, err := cfg.Storage.Load()
	if err != nil {
		return nil, fmt.Errorf("raft: load storage: %w", err)
	}
	snap, hasSnap, err := cfg.Storage.LoadSnapshot()
	if err != nil {
		return nil, fmt.Errorf("raft: load snapshot: %w", err)
	}
	log, err := logstore.RestoreSnapshot(cfg.Bootstrap, snap.Meta, entries)
	if err != nil {
		return nil, fmt.Errorf("raft: restore log: %w", err)
	}
	n := &Node{
		cfg:         cfg,
		term:        hs.Term,
		votedFor:    hs.VotedFor,
		log:         log,
		gate:        durable.NewGate(cfg.Storage),
		role:        types.RoleFollower,
		pending:     make(map[types.ProposalID]*pendingProposal),
		sessions:    session.New(),
		metrics:     stats.NewCounters(),
		commitHist:  stats.NewTimingHist("hist.commit_latency", stats.DefaultLatencyBounds()...),
		installHist: stats.NewTimingHist("hist.snapshot_install", stats.DefaultLatencyBounds()...),
		rec:         cfg.Recorder,
	}
	n.rec.SetPeersFunc(func() []types.NodeID { return n.Config().Others(n.cfg.ID) })
	// A node with persisted consensus state may have underwritten a lease
	// before it crashed; see bootGraceArm.
	n.bootGraceArm = hs.Term > 0
	if hasSnap {
		// Snapshots cover only committed entries; resume committing above.
		n.snap = snap
		n.commitIndex = snap.Meta.LastIndex
		if err := n.sessions.Restore(snap.Sessions); err != nil {
			return nil, fmt.Errorf("raft: restore sessions: %w", err)
		}
		if cfg.Snapshotter != nil {
			if err := cfg.Snapshotter.Restore(snap.Clone()); err != nil {
				return nil, fmt.Errorf("raft: restore state machine: %w", err)
			}
		}
	}
	n.reads = n.newReadFrontend()
	n.lv, n.out = n.logView(), n.outlet()
	n.resetElectionTimer()
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() types.NodeID { return n.cfg.ID }

// Role returns the node's current role.
func (n *Node) Role() types.Role { return n.role }

// Term returns the node's current term.
func (n *Node) Term() types.Term { return n.term }

// LeaderID returns the current known leader (None if unknown).
func (n *Node) LeaderID() types.NodeID { return n.leaderID }

// CommitIndex returns the node's commit index.
func (n *Node) CommitIndex() types.Index { return n.commitIndex }

// Config returns the node's active membership configuration.
func (n *Node) Config() types.Config {
	cfg, _ := n.log.Config()
	return cfg
}

// LastIndex returns the last log index.
func (n *Node) LastIndex() types.Index { return n.log.LastIndex() }

// FirstIndex returns the first retained log index (1 when nothing has been
// compacted).
func (n *Node) FirstIndex() types.Index { return n.log.FirstIndex() }

// SnapshotIndex returns the current snapshot boundary (0 if none).
func (n *Node) SnapshotIndex() types.Index { return n.log.SnapshotIndex() }

// PendingProposals returns the number of unresolved local proposals.
func (n *Node) PendingProposals() int { return len(n.pending) }

// Metrics returns a snapshot of the node's observability surface: the
// monotonic replication counters (see internal/replica for the names),
// the commit-latency and snapshot-install histograms (hist.* keys,
// cumulative buckets), and point-in-time gauges (gauge.log_span,
// gauge.sessions_open, gauge.snapshot_bytes).
func (n *Node) Metrics() map[string]uint64 {
	out := n.metrics.Snapshot()
	n.commitHist.MergeInto(out, "")
	n.installHist.MergeInto(out, "")
	n.rec.MergeMetrics(out, "")
	out["gauge.log_span"] = uint64(n.log.LastIndex() - n.log.FirstIndex() + 1)
	out["gauge.sessions_open"] = uint64(n.sessions.Len())
	out["gauge.snapshot_bytes"] = uint64(len(n.snap.Data) + len(n.snap.Sessions))
	out["log.compacted_pid_hits"] = n.log.CompactedPIDHits()
	return out
}

// Recorder exposes the node's flight recorder (nil when tracing is
// disabled). The recorder is safe to snapshot from any goroutine.
func (n *Node) Recorder() *trace.Recorder { return n.rec }

// LeaseUntil returns the read lease expiry on this node's clock (0 = no
// lease, or not leading); diagnostics.
func (n *Node) LeaseUntil() time.Duration {
	if n.readMgr == nil {
		return 0
	}
	return n.readMgr.LeaseUntil()
}

// Progress exposes the per-peer replication tracker (nil unless leader);
// tests and diagnostics only.
func (n *Node) Progress() *replica.Tracker { return n.progress }

// PeerStatus snapshots every tracked peer's replication progress (empty
// unless this node leads): state, match/next, srtt/rttvar and inflight
// window occupancy.
func (n *Node) PeerStatus() []replica.PeerStatus {
	if n.progress == nil {
		return nil
	}
	return n.progress.Status()
}

// TakeOutbox drains messages to send. With group-commit storage only the
// durable prefix is released; the rest follows after SyncDone.
func (n *Node) TakeOutbox() []types.Envelope {
	n.outboxQ.Hold(n.gate.Tag(), n.outbox)
	n.outbox = nil
	return n.outboxQ.Release(n.gate.Durable(), nil)
}

// TakeCommitted drains newly committed entries, in log order. With
// group-commit storage only the durable prefix is released.
func (n *Node) TakeCommitted() []types.Entry {
	n.committedQ.Hold(n.gate.Tag(), n.committed)
	n.committed = nil
	return n.committedQ.Release(n.gate.Durable(), nil)
}

// TakeResolved drains resolutions of locally originated proposals. With
// group-commit storage only the durable prefix is released.
func (n *Node) TakeResolved() []types.Resolution {
	n.resolvedQ.Hold(n.gate.Tag(), n.resolved)
	n.resolved = nil
	return n.resolvedQ.Release(n.gate.Durable(), nil)
}

// SyncDone advances the durability horizon after a storage sync: deferred
// self-acknowledgements run (possibly winning an election), held outputs
// become releasable at the next Take*, and a leader re-evaluates commits
// that were waiting on its own appends. With synchronous storage nothing is
// ever deferred and this is a no-op.
func (n *Node) SyncDone(now time.Duration, durableLSN uint64) {
	n.now = now
	if !n.acts.Run(durableLSN) {
		return
	}
	if !n.cfg.Paced {
		n.react()
		return
	}
	if n.role != types.RoleLeader {
		return
	}
	n.advanceCommit()
	n.reads.Flush(n.now)
}

// recordSelfDurable counts the leader's own log head toward the commit
// quorum only once every record behind it is on disk. Head and term are
// captured now; a stale self-ack from a finished leadership is dropped.
func (n *Node) recordSelfDurable() {
	idx := n.log.LastIndex()
	term := n.term
	n.acts.After(n.gate, func() {
		if n.role == types.RoleLeader && n.term == term && n.progress != nil {
			n.progress.RecordSelf(n.cfg.ID, idx)
		}
	})
}

// NextDeadline returns the earliest future instant at which the node needs
// Tick. Zero means no pending deadline.
func (n *Node) NextDeadline() time.Duration {
	var d time.Duration
	add := func(t time.Duration) {
		if t > 0 && (d == 0 || t < d) {
			d = t
		}
	}
	switch n.role {
	case types.RoleLeader:
		add(n.tickDeadline)
	default:
		add(n.electionDeadline)
	}
	for _, p := range n.pending {
		add(p.deadline)
	}
	n.reads.EachDeadline(add)
	return d
}

// Propose submits an application entry from this site. The proposal is
// tracked and re-sent until resolved.
func (n *Node) Propose(now time.Duration, data []byte) types.ProposalID {
	n.now = now
	n.proposalSeq++
	pid := types.ProposalID{Proposer: n.cfg.ID, Seq: n.proposalSeq}
	e := types.Entry{Kind: types.KindNormal, PID: pid, Data: append([]byte(nil), data...)}
	e.TraceID = n.rec.MintTrace()
	n.pending[pid] = &pendingProposal{entry: e, deadline: now + n.cfg.ProposalTimeout}
	n.rec.SpanStart(now, pid, n.term, e.TraceID)
	n.submit(e)
	return pid
}

// Sessions exposes the replicated client-session registry (tests and
// diagnostics; callers must not mutate it).
func (n *Node) Sessions() *session.Registry { return n.sessions }

// OpenSession proposes a session-registration entry; the proposal resolves
// with the commit index of the entry, which is the new session's ID.
func (n *Node) OpenSession(now time.Duration) types.ProposalID {
	n.now = now
	n.proposalSeq++
	pid := types.ProposalID{Proposer: n.cfg.ID, Seq: n.proposalSeq}
	e := types.Entry{Kind: types.KindSessionOpen, PID: pid}
	e.TraceID = n.rec.MintTrace()
	n.pending[pid] = &pendingProposal{entry: e, deadline: now + n.cfg.ProposalTimeout}
	n.rec.SpanStart(now, pid, n.term, e.TraceID)
	n.submit(e)
	return pid
}

// ProposeSession submits an application entry under (sid, seq): an identity
// that, unlike the ProposalID, survives proposer restarts. A retry of an
// already-applied sequence resolves immediately with the cached commit
// index. ack is the client's retry floor (0 = none): sequences below it
// are promised never to be retried, so every replica drops their cached
// responses when the entry commits.
func (n *Node) ProposeSession(now time.Duration, sid types.SessionID, seq, ack uint64, data []byte) types.ProposalID {
	n.now = now
	n.proposalSeq++
	pid := types.ProposalID{Proposer: n.cfg.ID, Seq: n.proposalSeq}
	if idx, dup := n.sessions.LookupDup(sid, seq); dup {
		n.resolved = append(n.resolved, types.Resolution{PID: pid, Index: idx})
		return pid
	}
	e := types.Entry{
		Kind:       types.KindNormal,
		PID:        pid,
		Session:    sid,
		SessionSeq: seq,
		SessionAck: ack,
		Data:       append([]byte(nil), data...),
	}
	e.TraceID = n.rec.MintTrace()
	n.pending[pid] = &pendingProposal{entry: e, deadline: now + n.cfg.ProposalTimeout}
	n.rec.SpanStart(now, pid, n.term, e.TraceID)
	n.submit(e)
	return pid
}

// submit routes a proposal toward the leader (appending locally when this
// node leads).
func (n *Node) submit(e types.Entry) {
	if n.role == types.RoleLeader {
		n.leaderAppend(e)
		n.react()
		return
	}
	if n.leaderID != types.None && n.leaderID != n.cfg.ID {
		n.rec.TraceHop(n.now, e.TraceID, trace.HopForward, n.leaderID, 0)
		n.send(n.leaderID, types.ClientPropose{Entry: e.Clone()})
	}
	// Leader unknown: the retry timer will re-submit.
}

// armBootGrace anchors the post-restart vote-refusal window at the
// node's first post-boot activity. It doubles as the boot marker in the
// flight recorder: the EvBoot event opens a new epoch for the safety
// auditor (recommits from the restored commit index are legitimate).
func (n *Node) armBootGrace(now time.Duration) {
	if n.bootGraceArm {
		n.bootGraceArm = false
		n.bootGraceUntil = now + n.cfg.ElectionTimeoutMin
		n.rec.Boot(now, n.term, n.commitIndex)
	}
}

// Tick advances time; expired deadlines fire.
func (n *Node) Tick(now time.Duration) {
	n.now = now
	n.armBootGrace(now)
	switch n.role {
	case types.RoleLeader:
		if n.tickDeadline != 0 && now >= n.tickDeadline {
			n.leaderTick()
			n.tickDeadline = now + n.cfg.HeartbeatInterval
		}
	default:
		if n.electionDeadline != 0 && now >= n.electionDeadline {
			n.startElection()
		}
	}
	n.retryProposals(now)
	n.reads.Retry(now)
	n.maybeCompact()
}

func (n *Node) retryProposals(now time.Duration) {
	var due []types.ProposalID
	for pid, p := range n.pending {
		if now >= p.deadline {
			due = append(due, pid)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].Less(due[j]) })
	for _, pid := range due {
		p := n.pending[pid]
		p.deadline = now + n.cfg.ProposalTimeout
		// Re-submit; the leader de-duplicates by PID.
		n.submit(p.entry)
	}
}

// Step delivers one message.
func (n *Node) Step(now time.Duration, env types.Envelope) {
	n.now = now
	n.armBootGrace(now)
	switch m := env.Msg.(type) {
	case types.ClientPropose:
		n.onClientPropose(env.From, m)
	case types.AppendEntries:
		n.onAppendEntries(env.From, m)
	case types.AppendEntriesResp:
		n.onAppendEntriesResp(env.From, m)
	case types.RequestVote:
		n.onRequestVote(env.From, m)
	case types.RequestVoteResp:
		n.onRequestVoteResp(env.From, m)
	case types.InstallSnapshot:
		n.onInstallSnapshot(env.From, m)
	case types.InstallSnapshotReply:
		n.onInstallSnapshotReply(env.From, m)
	case types.CommitNotify:
		n.onCommitNotify(m)
	case types.ReadRequest:
		n.reads.OnReadRequest(env.From, m, n.now)
	case types.ReadReply:
		n.reads.OnReadReply(m, n.now)
	default:
		// Unknown messages (e.g. Fast Raft traffic misrouted in tests) are
		// ignored; classic Raft has no use for them.
	}
	n.react()
}

func (n *Node) send(to types.NodeID, msg types.Message) {
	if to == n.cfg.ID || to == types.None {
		return
	}
	n.outbox = append(n.outbox, types.Envelope{
		From: n.cfg.ID, To: to, Layer: types.LayerLocal, Msg: msg,
	})
}

func (n *Node) persistHardState() {
	err := n.cfg.Storage.SetHardState(storage.HardState{Term: n.term, VotedFor: n.votedFor})
	if err != nil {
		// Storage failures are fatal for a consensus node; surface loudly.
		panic(fmt.Sprintf("raft %s: persist hard state: %v", n.cfg.ID, err))
	}
}

func (n *Node) persistEntry(e types.Entry) {
	if err := n.cfg.Storage.AppendEntry(e); err != nil {
		panic(fmt.Sprintf("raft %s: persist entry: %v", n.cfg.ID, err))
	}
}

func (n *Node) resetElectionTimer() {
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	d := n.cfg.ElectionTimeoutMin + time.Duration(n.cfg.Rand.Int63n(int64(span)))
	n.electionDeadline = n.now + d
}

func (n *Node) becomeFollower(term types.Term, leader types.NodeID) {
	changedTerm := term > n.term
	if changedTerm {
		n.term = term
		n.votedFor = types.None
		n.persistHardState()
	}
	n.role = types.RoleFollower
	if leader != types.None {
		n.leaderID = leader
	} else if changedTerm {
		n.leaderID = types.None
	}
	n.votes = nil
	// Step-down fails every leader-side read before the manager goes: local
	// reads fall back to the forward path, remote origins are told to retry.
	n.reads.FailLeaderReads(n.now)
	n.readMgr = nil
	n.progress = nil
	n.snapEnc.Release()
	n.appendedAt = nil
	n.snapStreamTrace = nil
	n.notifyQueue = nil
	n.tickDeadline = 0
	n.resetElectionTimer()
	n.rec.RoleChange(n.now, n.term, types.RoleFollower, n.leaderID)
}

func (n *Node) startElection() {
	cfg := n.Config()
	if !cfg.Contains(n.cfg.ID) {
		// Not a voting member; wait to be contacted.
		n.resetElectionTimer()
		return
	}
	n.role = types.RoleCandidate
	n.term++
	n.votedFor = n.cfg.ID
	n.persistHardState()
	n.leaderID = types.None
	n.votes = map[types.NodeID]bool{}
	// Every role transition releases the snapshot-encoding cache: a
	// candidate that immediately wins would otherwise inherit (and pin)
	// its previous leadership's encoded image.
	n.snapEnc.Release()
	n.resetElectionTimer()
	n.rec.ElectionStart(n.now, n.term)
	n.rec.RoleChange(n.now, n.term, types.RoleCandidate, types.None)
	req := types.RequestVote{
		Term:         n.term,
		CandidateID:  n.cfg.ID,
		LastLogIndex: n.log.LastIndex(),
		LastLogTerm:  n.log.Term(n.log.LastIndex()),
	}
	for _, peer := range cfg.Others(n.cfg.ID) {
		n.send(peer, req)
	}
	// The candidate's own vote counts only once the term/vote record is on
	// disk: a crash before then would restart the node in the old term, and
	// a tallied-but-lost self-vote could elect a leader a quorum never
	// durably endorsed. With synchronous storage this runs inline.
	term := n.term
	n.acts.After(n.gate, func() {
		if n.role == types.RoleCandidate && n.term == term {
			n.votes[n.cfg.ID] = true
			n.maybeWinElection()
		}
	})
}

func (n *Node) onRequestVote(from types.NodeID, m types.RequestVote) {
	// Election stickiness (the lease-read safety premise): a follower that
	// has heard from a live leader within the minimum election timeout
	// refuses to participate in elections — it neither grants the vote nor
	// adopts the candidate's term, so a disruptive candidate cannot depose
	// a leader whose lease quorum is still fresh. The refusal is answered
	// at our own (lower) term so the candidate knows it was heard.
	if m.Term >= n.term && n.role == types.RoleFollower &&
		n.leaderID != types.None && n.lastLeaderContact != 0 &&
		n.now-n.lastLeaderContact < n.cfg.ElectionTimeoutMin {
		n.send(from, types.RequestVoteResp{Term: n.term})
		return
	}
	// Post-restart grace: the stickiness state above is volatile, so a
	// voter restarted inside a lease window it helped establish would
	// otherwise grant immediately (see bootGraceArm).
	if m.Term >= n.term && n.now < n.bootGraceUntil {
		n.send(from, types.RequestVoteResp{Term: n.term})
		return
	}
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
	}
	resp := types.RequestVoteResp{Term: n.term}
	if m.Term < n.term {
		n.send(from, resp)
		return
	}
	upToDate := m.LastLogTerm > n.log.Term(n.log.LastIndex()) ||
		(m.LastLogTerm == n.log.Term(n.log.LastIndex()) && m.LastLogIndex >= n.log.LastIndex())
	if (n.votedFor == types.None || n.votedFor == m.CandidateID) && upToDate {
		n.votedFor = m.CandidateID
		n.persistHardState()
		n.resetElectionTimer()
		resp.Granted = true
	}
	n.send(from, resp)
}

func (n *Node) onRequestVoteResp(from types.NodeID, m types.RequestVoteResp) {
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
		return
	}
	if n.role == types.RoleCandidate && m.Term == n.term {
		n.rec.Vote(n.now, m.Term, from, m.Granted)
	}
	if n.role != types.RoleCandidate || m.Term < n.term || !m.Granted {
		return
	}
	n.votes[from] = true
	n.maybeWinElection()
}

func (n *Node) maybeWinElection() {
	cfg := n.Config()
	if !quorum.CountReached(cfg, n.votes, quorum.ClassicSize(cfg.Size())) {
		return
	}
	n.becomeLeader()
}

func (n *Node) becomeLeader() {
	n.rec.ElectionWon(n.now, n.term, n.cfg.ID, len(n.votes))
	n.rec.RoleChange(n.now, n.term, types.RoleLeader, n.cfg.ID)
	n.role = types.RoleLeader
	n.leaderID = n.cfg.ID
	// Session clock advances are measured within one leadership; a stale
	// mark from an earlier term would double-count interim leaders' time.
	n.lastSessionClock = 0
	n.votes = nil
	// Step-up races can skip becomeFollower between leaderships; encoder
	// caches are released on every role transition so a stale image from a
	// previous term is never pinned or streamed.
	n.snapEnc.Release()
	n.appendedAt = make(map[types.Index]time.Duration)
	n.snapStreamTrace = make(map[types.NodeID]uint64)
	cfg := n.Config()
	n.progress = replica.NewTracker(replica.Config{
		MaxInflight:      n.cfg.MaxInflightAppends,
		MaxInflightBytes: n.cfg.MaxInflightBytes,
		MaxEntries:       n.cfg.MaxEntriesPerAppend,
		MaxChunk:         n.cfg.MaxSnapshotChunk,
		ResendTimeout:    n.cfg.SnapshotResendTimeout,
		MinResendTimeout: n.cfg.HeartbeatInterval,
		MaxResendTimeout: n.cfg.ElectionTimeoutMin,
	}, n.metrics)
	n.progress.Reset(cfg.Members, n.log.LastIndex()+1)
	n.recordSelfDurable()
	// The read manager shares the tracker's srtt estimates for lease
	// deration and the node's counter set for observability.
	n.readMgr = n.newReadManager()
	n.readMgr.SetMembership(cfg.Members)
	// Establish a commit point in this term (Raft-thesis no-op).
	n.leaderAppend(types.Entry{Kind: types.KindNoop})
	// Reads cannot be vouched for below this term's no-op: commitIndex may
	// understate what previous leaders committed until it commits.
	n.readFloor = n.log.LastIndex()
	// Reads issued while searching for a leader are now ours to serve.
	n.reads.Retry(n.now)
	// First heartbeat goes out immediately; subsequent ones at the tick.
	n.leaderTick()
	n.tickDeadline = n.now + n.cfg.HeartbeatInterval
}

// leaderAppend appends an entry to the leader's log (de-duplicating by
// session and proposal ID) and persists it. Replication happens at the end
// of the event (react), or at the next tick when paced.
func (n *Node) leaderAppend(e types.Entry) {
	// Session duplicate: a retry of a sequence already applied — possibly
	// under a different PID (proposer restart) and possibly below the
	// compaction boundary. Answer with the cached response, don't append.
	if !e.Session.IsZero() {
		if idx, dup := n.sessions.LookupDup(e.Session, e.SessionSeq); dup {
			n.answerProposer(e.PID, idx)
			return
		}
	}
	// A match must agree on the payload: a restarted proposer's reset
	// sequence counter can reuse the PID for a brand-new proposal, which
	// must append fresh rather than be answered with the old entry's index.
	if !e.PID.IsZero() {
		if idx := n.log.FindProposalFor(e.PID, e.Data); idx != 0 {
			if idx <= n.commitIndex {
				n.queueNotify(e.PID, idx)
			}
			return
		}
	}
	idx := n.log.LastIndex() + 1
	e = e.Clone()
	e.Term = n.term
	if err := n.log.AppendLeader(idx, e); err != nil {
		panic(fmt.Sprintf("raft %s: leader append: %v", n.cfg.ID, err))
	}
	stored, _ := n.log.Get(idx)
	n.persistEntry(stored)
	n.appendedAt[idx] = n.now
	n.rec.SpanStage(n.now, e.PID, trace.StageAppend, idx)
	if e.TraceID != 0 && n.rec != nil {
		n.rec.TraceHop(n.now, e.TraceID, trace.HopAppend, "", idx)
		n.rec.TraceAppendIndex(idx, e.TraceID)
	}
	n.recordSelfDurable()
}

func (n *Node) onClientPropose(from types.NodeID, m types.ClientPropose) {
	if n.role == types.RoleLeader {
		n.leaderAppend(m.Entry)
		return
	}
	// Redirect toward the leader if known; otherwise drop (the proposer
	// retries).
	if n.leaderID != types.None && n.leaderID != from {
		n.send(n.leaderID, m)
	}
}

// react is the event-driven leader's answer to an append, an ack, a
// durability advance or a read: advance the commit index, release reads,
// notify proposers, then send each follower what the event made sendable
// (replica.Tracker.Push). A paced leader does all of this at its tick only.
func (n *Node) react() {
	if n.cfg.Paced || n.role != types.RoleLeader {
		return
	}
	n.advanceCommit()
	rc := n.round()
	if n.readMgr.ReadRoundDue() {
		rc.ReadCtx = n.readMgr.StampRound(n.now)
	}
	// After the stamp: a single-member group confirms its round at once.
	n.reads.Flush(n.now)
	n.flushNotifications()
	n.progress.Push(n.log.ActiveConfig().Others(n.cfg.ID), n.lv, rc, n.out)
}

// leaderTick performs all periodic leader duties: commit evaluation,
// notification flush, and AppendEntries dispatch.
func (n *Node) leaderTick() {
	n.advanceCommit()
	n.reads.Flush(n.now)
	n.maybeSessionClock()
	n.flushNotifications()
	n.broadcastAppend()
}

func (n *Node) advanceCommit() {
	cfg := n.log.ActiveConfig()
	classic := quorum.ClassicSize(cfg.Size())
	for k := n.commitIndex + 1; k <= n.log.LastIndex(); k++ {
		if n.log.Term(k) != n.term {
			continue
		}
		if !n.progress.MatchQuorum(cfg, k, classic) {
			break
		}
		n.commitTo(k)
	}
}

func (n *Node) commitTo(k types.Index) {
	for i := n.commitIndex + 1; i <= k; i++ {
		e, ok := n.log.Get(i)
		if !ok {
			panic(fmt.Sprintf("raft %s: commit hole at %d", n.cfg.ID, i))
		}
		if at, ok := n.appendedAt[i]; ok {
			n.commitHist.Observe(n.now - at)
			delete(n.appendedAt, i)
		}
		n.rec.SpanStage(n.now, e.PID, trace.StageCommit, i)
		n.rec.CommitEntry(n.now, n.term, e)
		if n.applySessionCommit(e) {
			// Session duplicate (or expired-session proposal): the slot
			// commits but the entry is withheld from the state machine.
			n.commitIndex = i
			continue
		}
		n.committed = append(n.committed, e)
		n.observeCommitted(e)
		if n.role == types.RoleLeader && !e.PID.IsZero() {
			n.queueNotify(e.PID, i)
		}
	}
	n.commitIndex = k
	if n.rec != nil {
		n.rec.TraceCommitted(k)
	}
}

// applySessionCommit folds one committed entry into the session registry,
// reporting whether the entry must be withheld from the state machine (a
// duplicate, or a proposal under an expired session). The proposer is
// answered with the cached response out-of-band.
func (n *Node) applySessionCommit(e types.Entry) (skip bool) {
	switch e.Kind {
	case types.KindSessionOpen:
		n.sessions.ApplyOpen(e.Index)
		n.rec.SessionOpen(n.now, uint64(e.Index))
		return false
	case types.KindSessionExpire:
		advance, ttl, err := session.DecodeExpire(e.Data)
		if err != nil {
			panic(fmt.Sprintf("raft %s: corrupt session clock entry at %d: %v", n.cfg.ID, e.Index, err))
		}
		n.sessions.ApplyExpire(advance, ttl)
		n.rec.SessionExpire(n.now, n.sessions.Len())
		return false
	case types.KindNormal:
		if e.Session.IsZero() {
			return false
		}
		cached, dup, known := n.sessions.ApplyNormal(e.Session, e.SessionSeq, e.SessionAck, e.Index)
		if !known {
			// Session expired: with the dedup state gone this apply could
			// be a second one — reject it (resolution index 0).
			n.answerProposer(e.PID, 0)
			return true
		}
		if dup {
			n.answerProposer(e.PID, cached)
			return true
		}
		n.rec.ApplySession(n.now, e.Index, uint64(e.Session), e.SessionSeq)
		return false
	default:
		return false
	}
}

// answerProposer resolves a proposal out-of-band (session duplicate or
// rejection): locally when this site originated it, through the leader's
// notification queue otherwise.
func (n *Node) answerProposer(pid types.ProposalID, idx types.Index) {
	if pid.IsZero() {
		return
	}
	if pid.Proposer == n.cfg.ID {
		if _, ok := n.pending[pid]; ok {
			delete(n.pending, pid)
			n.rec.SpanEnd(n.now, pid, idx)
			n.resolved = append(n.resolved, types.Resolution{PID: pid, Index: idx})
		}
		return
	}
	if n.role == types.RoleLeader {
		n.notifyQueue = append(n.notifyQueue, types.Envelope{
			From: n.cfg.ID, To: pid.Proposer, Layer: types.LayerLocal,
			Msg: types.CommitNotify{PID: pid, Index: idx},
		})
	}
}

// maybeSessionClock lets the leader pace session expiry: while sessions
// exist and a TTL is configured, it periodically appends a clock entry so
// every replica advances the same deterministic clock.
func (n *Node) maybeSessionClock() {
	ttl := n.cfg.SessionTTL
	if ttl <= 0 || n.sessions.Len() == 0 {
		return
	}
	interval := ttl / 4
	if interval <= 0 {
		interval = ttl
	}
	if n.lastSessionClock != 0 && n.now < n.lastSessionClock+interval {
		return
	}
	// Carry the advance since this leader's previous clock entry, not an
	// absolute timestamp (see fastraft.maybeSessionClock): the replicated
	// clock then never stalls or jumps across leader changes or restarts.
	var advance time.Duration
	if n.lastSessionClock != 0 {
		advance = n.now - n.lastSessionClock
	}
	n.lastSessionClock = n.now
	n.leaderAppend(types.Entry{
		Kind: types.KindSessionExpire,
		Data: session.EncodeExpire(uint64(advance), uint64(ttl)),
	})
}

// observeCommitted resolves local proposals seen in the committed stream.
func (n *Node) observeCommitted(e types.Entry) {
	if e.PID.Proposer != n.cfg.ID {
		return
	}
	if _, ok := n.pending[e.PID]; ok {
		delete(n.pending, e.PID)
		n.rec.SpanEnd(n.now, e.PID, e.Index)
		n.resolved = append(n.resolved, types.Resolution{PID: e.PID, Index: e.Index})
	}
}

func (n *Node) queueNotify(pid types.ProposalID, idx types.Index) {
	if pid.Proposer == n.cfg.ID {
		// Local proposer: resolved via observeCommitted.
		return
	}
	n.notifyQueue = append(n.notifyQueue, types.Envelope{
		From: n.cfg.ID, To: pid.Proposer, Layer: types.LayerLocal,
		Msg: types.CommitNotify{PID: pid, Index: idx},
	})
}

func (n *Node) flushNotifications() {
	n.outbox = append(n.outbox, n.notifyQueue...)
	n.notifyQueue = nil
}

// logView exposes the full log to the shared dispatch layer (classic Raft
// replicates every entry; Fast Raft passes its leader-approved prefix
// instead — that accessor pair is the whole difference between the cores'
// replication).
func (n *Node) logView() replica.LogView {
	return replica.LogView{
		LastIndex:     n.log.LastIndex,
		Term:          n.log.Term,
		Entries:       n.log.Range,
		SnapshotIndex: n.log.SnapshotIndex,
	}
}

// round is the per-broadcast-round context stamped onto dispatched
// messages.
func (n *Node) round() replica.Round {
	return replica.Round{
		Term:     n.term,
		Leader:   n.cfg.ID,
		Commit:   n.commitIndex,
		Seq:      n.aeRound,
		NextHint: n.log.LastIndex() + 1,
		Now:      n.now,
	}
}

// outlet binds the shared dispatch to this node's transmission and
// recording.
func (n *Node) outlet() replica.Outlet {
	o := replica.Outlet{Send: n.send, Snapshot: n.sendSnapshotTo}
	if n.rec != nil {
		o.Dispatched = func(to types.NodeID, m types.AppendEntries) {
			n.rec.AppendDispatch(n.now, m.Term, to, m.PrevLogIndex, len(m.Entries), m.Round)
			for _, e := range m.Entries {
				n.rec.SpanStage(n.now, e.PID, trace.StageReplicate, e.Index)
			}
		}
	}
	return o
}

// broadcastAppend dispatches this round's traffic to every follower
// through the shared replication engine (replica.Tracker.Broadcast).
func (n *Node) broadcastAppend() {
	n.aeRound++
	rc := n.round()
	if n.readMgr != nil {
		// Seal the pending ReadIndex batch onto this round; a quorum of
		// acks echoing the ID confirms every read in it at once.
		rc.ReadCtx = n.readMgr.StampRound(n.now)
	}
	n.progress.Broadcast(n.Config().Others(n.cfg.ID), n.lv, rc, n.out)
}

func (n *Node) onAppendEntries(from types.NodeID, m types.AppendEntries) {
	if m.Term > n.term || (m.Term == n.term && n.role != types.RoleFollower) {
		n.becomeFollower(m.Term, m.LeaderID)
	}
	resp := types.AppendEntriesResp{Term: n.term, Round: m.Round, LastLogIndex: n.log.LastIndex()}
	// Report any partially buffered snapshot stream so a new leader can
	// continue it from our position instead of restarting at byte 0.
	resp.PendingBoundary, resp.PendingOffset = n.snapRecv.Pending()
	if m.Term < n.term {
		n.send(from, resp)
		return
	}
	// Echo the read-batch ID: a quorum of echoes confirms the leader's
	// pending reads without any log write.
	resp.ReadCtx = m.ReadCtx
	n.leaderID = m.LeaderID
	n.lastLeaderContact = n.now
	n.resetElectionTimer()
	// Consistency check. Entries at or below our snapshot boundary are
	// committed and match the leader by construction, so the check applies
	// only above it.
	if m.PrevLogIndex >= n.log.SnapshotIndex() &&
		m.PrevLogIndex > 0 && n.log.Term(m.PrevLogIndex) != m.PrevLogTerm {
		resp.Success = false
		n.send(from, resp)
		return
	}
	// Append/overwrite entries, truncating on conflict (classic Raft).
	for _, e := range m.Entries {
		if e.Index <= n.log.SnapshotIndex() {
			continue // compacted: already committed here
		}
		if have := n.log.Term(e.Index); n.log.Has(e.Index) && have == e.Term {
			continue // already matching
		}
		if n.log.Has(e.Index) {
			n.log.TruncateSuffix(e.Index - 1)
			if err := n.cfg.Storage.TruncateSuffix(e.Index - 1); err != nil {
				panic(fmt.Sprintf("raft %s: truncate storage: %v", n.cfg.ID, err))
			}
		}
		if err := n.log.AppendLeader(e.Index, e); err != nil {
			panic(fmt.Sprintf("raft %s: follower append: %v", n.cfg.ID, err))
		}
		stored, _ := n.log.Get(e.Index)
		n.persistEntry(stored)
		n.rec.TraceHop(n.now, e.TraceID, trace.HopReplicate, from, e.Index)
	}
	// Commit only what this message vouched for (Raft Fig. 2): entries up
	// to its last one match the leader's log, while anything above may be
	// a stale suffix of an earlier term. A heartbeat anchored at the match
	// index can carry a higher commit index than that.
	match := m.PrevLogIndex + types.Index(len(m.Entries))
	if m.LeaderCommit > n.commitIndex {
		k := m.LeaderCommit
		if k > match {
			k = match
		}
		if last := n.log.LastIndex(); k > last {
			k = last
		}
		if k > n.commitIndex {
			n.commitTo(k)
		}
	}
	resp.Success = true
	resp.MatchIndex = match
	resp.LastLogIndex = n.log.LastIndex()
	n.send(from, resp)
	n.maybeCompact()
}

func (n *Node) onAppendEntriesResp(from types.NodeID, m types.AppendEntriesResp) {
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
		return
	}
	if n.role != types.RoleLeader || m.Term < n.term {
		return
	}
	pr := n.progress.Ensure(from, n.log.LastIndex()+1)
	if !m.Success {
		// Back off; the follower's last-index hint converges quickly.
		pr.RejectAppend(m.LastLogIndex)
		n.rec.AppendReject(n.now, m.Term, from, m.LastLogIndex)
	} else {
		// Record only acks that advance the match (idle heartbeat echoes
		// carry no forensic signal and would churn the ring).
		if n.rec != nil && m.MatchIndex > pr.Match() {
			n.rec.AppendAck(n.now, m.Term, from, m.MatchIndex, m.Round)
		}
		n.rec.TraceAck(n.now, from, m.MatchIndex)
		pr.AckAppend(m.MatchIndex, n.now)
	}
	// Any same-term response confirms leadership at the round's dispatch
	// time — the consistency-check outcome is irrelevant to reads.
	if n.readMgr != nil && m.ReadCtx != 0 {
		n.readMgr.ObserveAck(from, m.ReadCtx, n.now)
		n.reads.Flush(n.now)
	}
	// Stream continuation: the follower holds a partial snapshot stream at
	// our boundary (from a predecessor leader); seed the transfer from its
	// buffered offset so acked chunks are never re-sent from byte 0.
	if b := m.PendingBoundary; b != 0 && b == n.log.SnapshotIndex() &&
		m.PendingOffset > 0 && pr.Match() < b {
		n.progress.SeedSnapshot(from, b, m.PendingOffset, n.now)
		n.rec.SnapResume(n.now, from, b, m.PendingOffset)
	}
}

func (n *Node) onCommitNotify(m types.CommitNotify) {
	if _, ok := n.pending[m.PID]; ok {
		delete(n.pending, m.PID)
		n.rec.SpanEnd(n.now, m.PID, m.Index)
		n.resolved = append(n.resolved, types.Resolution{PID: m.PID, Index: m.Index})
	}
}

// --- Snapshotting & log compaction -----------------------------------------

// maybeCompact snapshots and compacts when the committed suffix beyond the
// snapshot boundary reaches the configured threshold. The compaction point
// never exceeds what the application reports as applied.
func (n *Node) maybeCompact() {
	t := n.cfg.SnapshotThreshold
	if t <= 0 || n.commitIndex < n.log.SnapshotIndex()+types.Index(t) {
		return
	}
	point := n.commitIndex
	var data []byte
	if n.cfg.Snapshotter != nil {
		d, applied, err := n.cfg.Snapshotter.Snapshot()
		if err != nil {
			return // transient application failure; retry at a later tick
		}
		data = d
		if applied < point {
			point = applied
		}
	}
	// Gate on the achievable point, not just commitIndex: if the applier
	// trails commit, compacting on every small advance of applied would
	// rotate the WAL per entry instead of per threshold.
	if point < n.log.SnapshotIndex()+types.Index(t) {
		return
	}
	cfg, ci := n.log.ConfigAt(point)
	snap := types.Snapshot{
		Meta: types.SnapshotMeta{
			LastIndex:   point,
			LastTerm:    n.log.Term(point),
			Config:      cfg,
			ConfigIndex: ci,
		},
		Data: data,
		// The session registry as of the boundary rides along, so dedup
		// state survives the compaction it would otherwise be lost to.
		Sessions: n.sessionStateAt(point),
	}
	if err := n.cfg.Storage.SaveSnapshot(snap); err != nil {
		panic(fmt.Sprintf("raft %s: save snapshot: %v", n.cfg.ID, err))
	}
	if err := n.log.CompactTo(point, snap.Meta.LastTerm); err != nil {
		panic(fmt.Sprintf("raft %s: compact log: %v", n.cfg.ID, err))
	}
	if err := n.cfg.Storage.TruncatePrefix(point); err != nil {
		panic(fmt.Sprintf("raft %s: truncate storage prefix: %v", n.cfg.ID, err))
	}
	n.snap = snap
	n.rec.Compact(n.now, point, n.commitIndex)
}

// sendSnapshotTo streams the current snapshot to a follower whose log
// position fell below the compacted prefix: whole-image in one message
// when chunking is off, MaxSnapshotChunk-sized chunks otherwise. The
// tracker plans (and suppresses) transmission; false means nothing was
// sent this round (pending install).
func (n *Node) sendSnapshotTo(peer types.NodeID) bool {
	enc, check := n.snapEnc.Encode(n.snap)
	msgs := n.progress.SnapshotMessages(peer, n.snap, enc, check,
		n.term, n.cfg.ID, n.aeRound, n.now)
	for _, m := range msgs {
		b := m.Boundary
		if b == 0 {
			b = n.snap.Meta.LastIndex
		}
		if m.Offset == 0 {
			if n.rec != nil {
				n.rec.SnapStreamStart(n.now, n.term, peer, b)
			}
			// Mint one trace per stream; every chunk and the follower's
			// install share it.
			if tid := n.rec.MintTrace(); tid != 0 && n.snapStreamTrace != nil {
				n.snapStreamTrace[peer] = tid
			}
		}
		if n.snapStreamTrace != nil {
			m.Trace = n.snapStreamTrace[peer]
		}
		if n.rec != nil {
			n.rec.SnapChunk(n.now, peer, b, m.Offset, m.Done)
			n.rec.TraceHop(n.now, m.Trace, trace.HopSnapChunk, peer, b)
		}
		if m.Done {
			delete(n.snapStreamTrace, peer)
		}
		n.send(peer, m)
	}
	return len(msgs) > 0
}

// onInstallSnapshot is the follower side of snapshot transfer: whole
// images install directly; chunks are reassembled and installed on the
// final one. Every message is acknowledged with the buffered offset so
// the leader can resume without re-sending acknowledged chunks.
func (n *Node) onInstallSnapshot(from types.NodeID, m types.InstallSnapshot) {
	if m.Term > n.term || (m.Term == n.term && n.role != types.RoleFollower) {
		n.becomeFollower(m.Term, m.LeaderID)
	}
	boundary := m.Boundary
	if boundary == 0 {
		boundary = m.Snapshot.Meta.LastIndex
	}
	resp := types.InstallSnapshotReply{
		Term: n.term, Round: m.Round, LastIndex: n.commitIndex, Boundary: boundary,
	}
	if m.Term < n.term {
		n.send(from, resp)
		return
	}
	n.leaderID = m.LeaderID
	n.lastLeaderContact = n.now
	n.resetElectionTimer()
	if m.Trace != 0 {
		n.installTrace = m.Trace
		n.rec.TraceHop(n.now, m.Trace, trace.HopSnapChunk, from, boundary)
	}
	if boundary <= n.commitIndex {
		// Already have this prefix; just tell the leader where we are.
		resp.LastIndex = n.commitIndex
		n.snapRecv.Reset()
		n.send(from, resp)
		return
	}
	var snap types.Snapshot
	if !m.Snapshot.IsZero() {
		// Legacy whole-image transfer.
		snap = m.Snapshot
		n.snapRecv.Reset()
		n.installStart = n.now
	} else {
		n.metrics.Inc(replica.CounterChunksReceived)
		// Restart the install clock when a stream begins — including a new
		// (boundary, check) stream arriving over a stale partial buffer,
		// which would otherwise inherit the dead stream's start time.
		if _, buffered := n.snapRecv.Pending(); buffered == 0 ||
			boundary != n.installBoundary || m.Check != n.installCheck {
			n.installStart = n.now
			n.installBoundary, n.installCheck = boundary, m.Check
		}
		s, complete, ack := n.snapRecv.Offer(boundary, m.Check, m.Offset, m.Data, m.Done)
		resp.Offset = ack
		n.rec.SnapChunkRecv(n.now, from, boundary, ack)
		if !complete {
			n.send(from, resp) // acknowledge buffered progress
			return
		}
		snap = s
	}
	if snap.Meta.LastIndex <= n.commitIndex {
		resp.LastIndex = n.commitIndex
		n.send(from, resp)
		return
	}
	if err := n.cfg.Storage.SaveSnapshot(snap); err != nil {
		panic(fmt.Sprintf("raft %s: save installed snapshot: %v", n.cfg.ID, err))
	}
	if err := n.log.InstallSnapshot(snap.Meta); err != nil {
		panic(fmt.Sprintf("raft %s: install snapshot: %v", n.cfg.ID, err))
	}
	if err := n.cfg.Storage.TruncatePrefix(snap.Meta.LastIndex); err != nil {
		panic(fmt.Sprintf("raft %s: truncate storage prefix: %v", n.cfg.ID, err))
	}
	n.snap = snap.Clone()
	n.commitIndex = snap.Meta.LastIndex
	if err := n.sessions.Restore(snap.Sessions); err != nil {
		panic(fmt.Sprintf("raft %s: restore sessions: %v", n.cfg.ID, err))
	}
	if n.cfg.Snapshotter != nil {
		if err := n.cfg.Snapshotter.Restore(snap.Clone()); err != nil {
			panic(fmt.Sprintf("raft %s: restore state machine: %v", n.cfg.ID, err))
		}
	}
	n.metrics.Inc(replica.CounterInstalls)
	n.installHist.Observe(n.now - n.installStart)
	n.rec.SnapInstall(n.now, snap.Meta.LastIndex, n.now-n.installStart)
	n.rec.TraceHop(n.now, n.installTrace, trace.HopSnapInstall, from, snap.Meta.LastIndex)
	n.installTrace = 0
	n.installStart = 0
	resp.LastIndex = snap.Meta.LastIndex
	n.send(from, resp)
}

// sessionStateAt reconstructs the session registry image as of a snapshot
// boundary by replaying the retained entries above the previous boundary
// (the live registry reflects the commit index, which may run ahead of the
// boundary when the application applies asynchronously).
func (n *Node) sessionStateAt(boundary types.Index) []byte {
	img, err := session.StateAt(n.snap.Sessions, n.log.Range(n.log.FirstIndex(), boundary))
	if err != nil {
		panic(fmt.Sprintf("raft %s: rebuild session state: %v", n.cfg.ID, err))
	}
	return img
}

// onInstallSnapshotReply advances the leader's view of a follower that
// installed (or already had) a snapshot, or acknowledged chunk progress.
func (n *Node) onInstallSnapshotReply(from types.NodeID, m types.InstallSnapshotReply) {
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
		return
	}
	if n.role != types.RoleLeader || m.Term < n.term {
		return
	}
	done := n.progress.AckSnapshot(from, m.Boundary, m.Offset, m.LastIndex, n.now)
	if !done {
		if pr := n.progress.Get(from); pr != nil && pr.State() == replica.StateSnapshot {
			// Acknowledged progress freed window room: keep the chunk
			// pipeline moving between rounds.
			n.sendSnapshotTo(from)
		}
	} else if !n.progress.AnySnapshotStreams() {
		// Last transfer finished; drop the cached encoding.
		n.snapEnc.Release()
	}
}
