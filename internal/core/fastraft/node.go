// Package fastraft implements Fast Raft, the paper's primary contribution:
// a Raft variant that commits in two message rounds on a fast track when
// there are no concurrent proposals, falls back to a classic track on
// conflict or loss, and handles dynamic membership including silent leaves.
//
// Protocol summary (Section IV of the paper):
//
//   - Proposers broadcast entries directly to all sites at a chosen index.
//     Sites insert into the free slot (self-approved) and forward a vote —
//     the slot's occupant — to the leader.
//   - The leader tallies votes per index in possibleEntries. At each
//     heartbeat tick it runs the decide loop for k = commitIndex+1: once a
//     classic quorum has voted, the most-voted entry is decided
//     (leader-approved); if a fast quorum voted for it, it commits
//     immediately (fast track), otherwise AppendEntries replicates it and
//     it commits on a classic quorum of matchIndex (classic track). Unless
//     Config.Paced is set, the leader also decides, commits and replicates
//     as votes and acks arrive, deciding early only indices no further
//     vote can change (see react).
//   - Elections compare only leader-approved log positions; granted votes
//     carry the voter's self-approved entries so the new leader re-decides
//     (and re-commits) anything a previous leader may have committed on the
//     fast track.
//   - Membership is dynamic: join/leave requests go to the leader, which
//     serializes configuration changes one member at a time, and silent
//     leaves are detected by missed heartbeat responses.
//
// See DESIGN.md for the spec refinements this implementation pins down
// (proposer index selection, commit-prefix restriction, recovery no-ops,
// loser re-sequencing).
package fastraft

import (
	"fmt"
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

// pendingProposal tracks a locally originated proposal until it resolves.
// A queued proposal is tracked but not yet broadcast: it waits for the
// in-flight window (Config.MaxInflightProposals) to open.
type pendingProposal struct {
	entry    types.Entry
	index    types.Index
	deadline time.Duration
	queued   bool
	// size is the entry's wire encoding size, charged against
	// Config.MaxInflightProposalBytes while broadcast.
	size int
}

// Node is a Fast Raft site: a sans-io state machine driven by Step/Tick.
// It is not safe for concurrent use; hosts serialize all calls.
type Node struct {
	cfg Config

	term     types.Term
	votedFor types.NodeID
	log      *logstore.Log

	role        types.Role
	leaderID    types.NodeID
	commitIndex types.Index

	electionDeadline time.Duration
	tickDeadline     time.Duration

	// candidate state.
	votes         map[types.NodeID]bool
	recoveryVotes map[types.NodeID][]types.Entry
	// sawVoteResp notes whether the current candidacy received any
	// RequestVote response at all; lonelyElections counts consecutive
	// candidacies that received none. A site removed from the
	// configuration while absent cannot learn of its removal from its own
	// log — everyone simply ignores it — so after lonelyElectionLimit
	// silent candidacies it stops campaigning and sends join requests
	// instead (the paper: a silently removed follower "will need to send a
	// join request to return").
	sawVoteResp     bool
	lonelyElections int

	// pendingTransfer marks the next election as leadership-transfer
	// (started on a TimeoutNow order): its RequestVote carries Transfer so
	// voters skip election stickiness.
	pendingTransfer bool
	rejoining       bool

	// leader state.
	tally *quorum.Tally
	// progress is the per-peer replication engine (internal/replica): it
	// owns what used to be the nextIndex/matchIndex/fastMatch maps plus
	// append flow control and snapshot streaming state. Leader-only; nil
	// otherwise.
	progress *replica.Tracker
	aeRound  uint64
	// responded marks peers that answered since the last broadcast round;
	// missed counts consecutive unanswered rounds (silent-leave detection).
	responded map[types.NodeID]bool
	missed    map[types.NodeID]int
	// nonvoting tracks joining sites being caught up, with pendingJoin
	// recording who to notify once their configuration entry commits.
	nonvoting   map[types.NodeID]bool
	pendingJoin map[types.NodeID]bool
	// removeQueue holds members awaiting a removal configuration entry.
	removeQueue []types.NodeID
	// lastBroadcastHead is the leader-approved head as of the previous
	// broadcast round: the most a peer can have acknowledged by now. Join
	// catch-up is judged against it — judging against the live head would
	// starve joins forever under continuous proposals, because the decide
	// loop advances the head at every tick just before the check.
	lastBroadcastHead types.Index

	// proposer state. inflightProposals counts pending proposals that have
	// been broadcast, inflightProposalBytes their encoded payload bytes;
	// proposalQueue holds the PIDs waiting for the window
	// (Config.MaxInflightProposals / MaxInflightProposalBytes) in FIFO
	// order.
	proposalSeq           uint64
	pending               map[types.ProposalID]*pendingProposal
	inflightProposals     int
	inflightProposalBytes int
	proposalQueue         []types.ProposalID

	// joiner state (site not yet in the configuration).
	joinDeadline time.Duration
	joinTargets  []types.NodeID

	outbox    []types.Envelope
	committed []types.Entry
	resolved  []types.Resolution
	// changed accumulates entries inserted/overwritten since the last
	// TakeChangedEntries, for C-Raft's global state replication.
	changed []types.Entry

	// Durability gating (group-commit storage only; see internal/durable).
	// gate is nil for synchronous storage and every queue passes through.
	// The Take* drains tag each batch with the storage LSN it depends on and
	// release only the durable prefix; acts defers this node's internal
	// self-acknowledgements — its own votes and its own match index — so it
	// never counts a contribution toward an election or a commit before the
	// records behind that contribution are on disk. ReadDone is deliberately
	// not gated: read resolutions depend only on quorum state that is gated
	// at its source, and coupling them to unrelated pending writes would put
	// an fsync on the lease-read fast path.
	gate       *durable.Gate
	acts       durable.Acts
	outboxQ    durable.Queue[types.Envelope]
	committedQ durable.Queue[types.Entry]
	resolvedQ  durable.Queue[types.Resolution]
	changedQ   durable.Queue[types.Entry]

	// snap is the latest snapshot (zero if none): the recovery base loaded
	// from storage, produced by local compaction, or installed by the
	// leader. The leader ships it to followers that fell behind the
	// compacted prefix. snapEnc caches its wire encoding for chunked
	// transfers; snapRecv reassembles chunked streams received as
	// follower.
	snap     types.Snapshot
	snapEnc  replica.SnapshotEncoder
	snapRecv replica.Reassembler

	// metrics counts replication and backpressure events (see
	// internal/replica counter names); it survives role changes, as do the
	// latency histograms. commitHist observes leader-side commit latency
	// (leader approval to commit); installHist observes follower-side
	// snapshot install duration (stream start to install). appendedAt
	// tracks when the leader approved each uncommitted index (commitHist
	// input; leader only), installStart when the pending snapshot stream
	// began.
	metrics      *stats.Counters
	commitHist   *stats.TimingHist
	installHist  *stats.TimingHist
	appendedAt   map[types.Index]time.Duration
	installStart time.Duration
	// rec is the protocol flight recorder (nil = disabled; every call site
	// is a nil check). It records role/election/replication events and the
	// per-proposal lifecycle spans behind the hist.stage_* histograms.
	rec *trace.Recorder
	// lv and out bind the shared replication dispatch to this node's log,
	// transport and recorder; built once, they cost nothing per event.
	lv  replica.LogView
	out replica.Outlet
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
	// window: a site restarted with persisted state may have acknowledged
	// a lease round just before crashing, and its volatile stickiness
	// state is gone — so it refuses votes for one minimum election
	// timeout after its first post-boot activity, by which time any lease
	// it could have underwritten has expired.
	bootGraceArm   bool
	bootGraceUntil time.Duration

	// sessions is the replicated client-session registry, fed by committed
	// entries in log order (identical on every replica) and consulted at
	// apply time for exactly-once semantics. Its boundary-aligned image
	// rides in every snapshot.
	sessions *session.Registry
	// lastSessionClock is when this leader last committed a session clock
	// entry (expiry pacing).
	lastSessionClock time.Duration

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
		return nil, fmt.Errorf("fastraft: load storage: %w", err)
	}
	snap, hasSnap, err := cfg.Storage.LoadSnapshot()
	if err != nil {
		return nil, fmt.Errorf("fastraft: load snapshot: %w", err)
	}
	log, err := logstore.RestoreSnapshot(cfg.Bootstrap, snap.Meta, entries)
	if err != nil {
		return nil, fmt.Errorf("fastraft: restore log: %w", err)
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
	// Slow-op reports name the peers the node was replicating to; evaluated
	// on the consensus goroutine only when a slow proposal fires.
	n.rec.SetPeersFunc(func() []types.NodeID { return n.Config().Others(n.cfg.ID) })
	// A site with persisted consensus state may have underwritten a lease
	// before it crashed; see bootGraceArm.
	n.bootGraceArm = hs.Term > 0
	if hasSnap {
		// Snapshots cover only committed entries; resume committing above.
		n.snap = snap
		n.commitIndex = snap.Meta.LastIndex
		if err := n.sessions.Restore(snap.Sessions); err != nil {
			return nil, fmt.Errorf("fastraft: restore sessions: %w", err)
		}
		if cfg.Snapshotter != nil {
			if err := cfg.Snapshotter.Restore(snap.Clone()); err != nil {
				return nil, fmt.Errorf("fastraft: restore state machine: %w", err)
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

// IsMember reports whether this site is a voting member of its own
// configuration.
func (n *Node) IsMember() bool { return n.Config().Contains(n.cfg.ID) }

// LastIndex returns the last occupied log index.
func (n *Node) LastIndex() types.Index { return n.log.LastIndex() }

// LastLeaderIndex returns the top of the leader-approved prefix.
func (n *Node) LastLeaderIndex() types.Index { return n.log.LastLeaderIndex() }

// FirstIndex returns the first retained log index (1 when nothing has been
// compacted).
func (n *Node) FirstIndex() types.Index { return n.log.FirstIndex() }

// SnapshotIndex returns the current snapshot boundary (0 if none).
func (n *Node) SnapshotIndex() types.Index { return n.log.SnapshotIndex() }

// PendingProposals returns the number of unresolved local proposals
// (broadcast and queued alike).
func (n *Node) PendingProposals() int { return len(n.pending) }

// QueuedProposals returns the number of local proposals held back by the
// in-flight cap (Config.MaxInflightProposals), awaiting broadcast.
func (n *Node) QueuedProposals() int { return len(n.pending) - n.inflightProposals }

// Metrics returns a snapshot of the node's observability surface: the
// monotonic replication and backpressure counters (see internal/replica
// for the names), the commit-latency and snapshot-install histograms
// (hist.* keys, cumulative buckets), and point-in-time gauges
// (gauge.log_span, gauge.sessions_open, gauge.snapshot_bytes).
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

// Sessions exposes the replicated client-session registry (tests, C-Raft
// and diagnostics; callers must not mutate it).
func (n *Node) Sessions() *session.Registry { return n.sessions }

// Entry returns a copy of the log entry at idx.
func (n *Node) Entry(idx types.Index) (types.Entry, bool) { return n.log.Get(idx) }

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

// TakeChangedEntries drains the entries inserted or overwritten since the
// last call, used by C-Raft to build global state deltas. With group-commit
// storage only the durable prefix is released.
func (n *Node) TakeChangedEntries() []types.Entry {
	n.changedQ.Hold(n.gate.Tag(), n.changed)
	n.changed = nil
	return n.changedQ.Release(n.gate.Durable(), nil)
}

// SyncDone advances the durability horizon after a storage sync: deferred
// self-acknowledgements run (possibly winning an election), held outputs
// become releasable at the next Take*, and a leader re-evaluates decisions
// and commits that were waiting on its own records (an event-driven leader
// also dispatches what they made sendable; see react).
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
	n.decideLoop(false)
	if n.role != types.RoleLeader {
		return
	}
	n.advanceClassicCommit()
	if n.role != types.RoleLeader {
		return
	}
	n.reads.Flush(n.now)
}

// recordSelfDurable counts the leader's own log head toward replication
// quorums only once every record behind it is on disk. The head and term
// are captured now; by the time the records are durable the node may have
// stepped down or advanced terms, in which case the stale self-ack is
// dropped (RecordSelf is monotonic, so replaying a lower head is harmless
// but a cross-term replay would seed a fresh tracker).
func (n *Node) recordSelfDurable() {
	idx := n.log.LastLeaderIndex()
	term := n.term
	n.acts.After(n.gate, func() {
		if n.role == types.RoleLeader && n.term == term && n.progress != nil {
			n.progress.RecordSelf(n.cfg.ID, idx)
		}
	})
}

// TermStart returns the index of this leadership's first entry, its no-op
// (0 unless leading): once it has committed, every entry an earlier leader
// committed has committed on this node too.
func (n *Node) TermStart() types.Index {
	if n.role != types.RoleLeader {
		return 0
	}
	return n.readFloor
}

// HardState returns the node's persistent term and vote (C-Raft replicates
// them in global state deltas).
func (n *Node) HardState() (types.Term, types.NodeID) { return n.term, n.votedFor }

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
		if p.queued {
			// Queued proposals have no retry deadline: they broadcast when
			// a resolution opens the window, not on a timer.
			continue
		}
		add(p.deadline)
	}
	n.reads.EachDeadline(add)
	add(n.joinDeadline)
	return d
}

// armBootGrace anchors the post-restart vote-refusal window at the
// site's first post-boot activity. It doubles as the boot marker in the
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
	n.tickJoiner(now)
	n.maybeCompact()
}

// Step delivers one message.
func (n *Node) Step(now time.Duration, env types.Envelope) {
	n.now = now
	n.armBootGrace(now)
	if !n.acceptFrom(env.From, env.Msg) {
		return
	}
	switch m := env.Msg.(type) {
	case types.ProposeEntry:
		n.onProposeEntry(env.From, m)
	case types.VoteEntry:
		n.onVoteEntry(env.From, m)
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
	case types.JoinRequest:
		n.onJoinRequest(env.From, m)
	case types.JoinRedirect:
		n.onJoinRedirect(m)
	case types.JoinAccepted:
		n.onJoinAccepted(m)
	case types.LeaveRequest:
		n.onLeaveRequest(m)
	case types.ReadRequest:
		n.reads.OnReadRequest(env.From, m, n.now)
	case types.ReadReply:
		n.reads.OnReadReply(m, n.now)
	case types.TimeoutNow:
		n.onTimeoutNow(env.From, m)
	default:
		// Ignore unknown message types.
	}
	n.react()
}

// acceptFrom applies the paper's membership filter: consensus messages from
// sites outside the configuration are ignored. Join/leave traffic and
// commit notifications are exempt, as is everything while this site itself
// is not (yet) a member — a joiner must accept the leader's catch-up.
// InstallSnapshot is also exempt: it carries the authoritative membership a
// long-partitioned site's stale configuration may not reflect, and is
// term-checked like any leader message.
func (n *Node) acceptFrom(from types.NodeID, msg types.Message) bool {
	switch msg.(type) {
	case types.JoinRequest, types.JoinRedirect, types.JoinAccepted,
		types.LeaveRequest, types.CommitNotify, types.InstallSnapshot:
		return true
	}
	cfg := n.Config()
	if cfg.Size() == 0 || !cfg.Contains(n.cfg.ID) {
		return true
	}
	if cfg.Contains(from) {
		return true
	}
	// The leader additionally accepts AppendEntries responses and votes
	// from sites it is catching up (non-voting members).
	if n.role == types.RoleLeader && n.nonvoting[from] {
		return true
	}
	return false
}

func (n *Node) send(to types.NodeID, msg types.Message) {
	if to == n.cfg.ID || to == types.None {
		return
	}
	n.outbox = append(n.outbox, types.Envelope{
		From: n.cfg.ID, To: to, Layer: n.cfg.Layer, Msg: msg,
	})
}

func (n *Node) persistHardState() {
	err := n.cfg.Storage.SetHardState(storage.HardState{Term: n.term, VotedFor: n.votedFor})
	if err != nil {
		panic(fmt.Sprintf("fastraft %s: persist hard state: %v", n.cfg.ID, err))
	}
}

// persistEntry records the stored form of index idx and tracks it in the
// changed-entry stream for C-Raft.
func (n *Node) persistEntry(idx types.Index) {
	e, ok := n.log.Get(idx)
	if !ok {
		panic(fmt.Sprintf("fastraft %s: persist hole %d", n.cfg.ID, idx))
	}
	if err := n.cfg.Storage.AppendEntry(e); err != nil {
		panic(fmt.Sprintf("fastraft %s: persist entry: %v", n.cfg.ID, err))
	}
	n.changed = append(n.changed, e)
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
	n.recoveryVotes = nil
	n.tally = nil
	// Step-down fails every leader-side read before the manager goes: local
	// reads fall back to the forward path, remote origins are told to retry.
	n.reads.FailLeaderReads(n.now)
	n.readMgr = nil
	n.progress = nil
	n.snapEnc.Release()
	n.appendedAt = nil
	n.responded = nil
	n.missed = nil
	n.nonvoting = nil
	n.pendingJoin = nil
	n.removeQueue = nil
	n.tickDeadline = 0
	n.resetElectionTimer()
	n.rec.RoleChange(n.now, n.term, types.RoleFollower, n.leaderID)
}

// --- Elections -----------------------------------------------------------

// lonelyElectionLimit is how many consecutive response-less candidacies a
// site tolerates before suspecting it was removed from the configuration.
const lonelyElectionLimit = 3

func (n *Node) startElection() {
	transfer := n.pendingTransfer
	n.pendingTransfer = false
	cfg := n.Config()
	if !cfg.Contains(n.cfg.ID) {
		n.resetElectionTimer()
		return
	}
	// Account for the previous candidacy's silence.
	if n.role == types.RoleCandidate {
		if n.sawVoteResp {
			n.lonelyElections = 0
		} else {
			n.lonelyElections++
		}
	}
	if n.cfg.AutoRejoin && n.lonelyElections >= lonelyElectionLimit {
		n.rejoining = true
	}
	if n.rejoining {
		// Suspected removal: stop disrupting the group with candidacies
		// and ask to be let back in. JoinAccepted clears this state.
		n.role = types.RoleFollower
		n.resetElectionTimer()
		if n.joinDeadline == 0 || n.now >= n.joinDeadline {
			n.sendJoinRequest()
		}
		return
	}
	n.sawVoteResp = false
	n.role = types.RoleCandidate
	// Every role transition releases the snapshot-encoding cache: a
	// candidate that immediately wins would otherwise inherit (and pin)
	// its previous leadership's encoded image.
	n.snapEnc.Release()
	n.term++
	n.votedFor = n.cfg.ID
	n.persistHardState()
	n.leaderID = types.None
	n.votes = map[types.NodeID]bool{}
	n.recoveryVotes = map[types.NodeID][]types.Entry{}
	n.resetElectionTimer()
	n.rec.ElectionStart(n.now, n.term)
	n.rec.RoleChange(n.now, n.term, types.RoleCandidate, types.None)
	req := types.RequestVote{
		Term:        n.term,
		CandidateID: n.cfg.ID,
		// Fast Raft: only leader-approved entries count for up-to-dateness.
		LastLogIndex: n.log.LastLeaderIndex(),
		LastLogTerm:  n.log.LastLeaderTerm(),
		Transfer:     transfer,
	}
	for _, peer := range cfg.Others(n.cfg.ID) {
		n.send(peer, req)
	}
	// The candidate's own vote counts only once the term/vote record is on
	// disk: a crash before then would restart the site in the old term, and
	// a tallied-but-lost self-vote could elect a leader a quorum never
	// durably endorsed. With synchronous storage this runs inline.
	term := n.term
	n.acts.After(n.gate, func() {
		if n.role == types.RoleCandidate && n.term == term {
			n.votes[n.cfg.ID] = true
			n.recoveryVotes[n.cfg.ID] = n.log.SelfApproved()
			n.maybeWinElection()
		}
	})
}

// TransferLeader orders a leadership handoff to target: the leader kills
// its own read lease (and suppresses re-arming for a full election-timeout
// span, since transfer elections bypass the stickiness the lease depends
// on), then sends TimeoutNow so the target starts an election immediately.
// A lost order is harmless — this node simply keeps leading. Reports
// whether the order was sent.
func (n *Node) TransferLeader(target types.NodeID) bool {
	if n.role != types.RoleLeader || target == n.cfg.ID || !n.Config().Contains(target) {
		return false
	}
	if n.readMgr != nil {
		n.readMgr.SuppressLease(n.now + n.cfg.ElectionTimeoutMax)
	}
	n.send(target, types.TimeoutNow{Term: n.term})
	return true
}

// onTimeoutNow starts a transfer election on the leader's order: this site
// campaigns for the next term with RequestVote.Transfer set so voters skip
// election stickiness. Stale orders (lower term) are ignored.
func (n *Node) onTimeoutNow(from types.NodeID, m types.TimeoutNow) {
	if m.Term < n.term || n.role == types.RoleLeader {
		return
	}
	if !n.Config().Contains(n.cfg.ID) {
		return
	}
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
	}
	n.pendingTransfer = true
	n.startElection()
}

func (n *Node) onRequestVote(from types.NodeID, m types.RequestVote) {
	// Election stickiness (the lease-read safety premise): a follower that
	// has heard from a live leader within the minimum election timeout
	// refuses to participate in elections — it neither grants the vote nor
	// adopts the candidate's term, so a disruptive candidate cannot depose
	// a leader whose lease quorum is still fresh. The refusal is answered
	// at our own (lower) term so the candidate's lonely-election accounting
	// still sees a response.
	// Transfer elections bypass both refusals below: the old leader ordered
	// the handoff (TimeoutNow), so "a fresh leader exists" is exactly why
	// the vote must be granted, not refused. Lease safety holds because the
	// ordering leader stops extending its lease the moment it observes the
	// higher term the transfer election starts.
	if !m.Transfer {
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
	}
	if m.Term > n.term {
		// Sites that receive RequestVote immediately move to the new term.
		n.becomeFollower(m.Term, types.None)
	}
	resp := types.RequestVoteResp{Term: n.term}
	if m.Term < n.term {
		n.send(from, resp)
		return
	}
	upToDate := m.LastLogTerm > n.log.LastLeaderTerm() ||
		(m.LastLogTerm == n.log.LastLeaderTerm() && m.LastLogIndex >= n.log.LastLeaderIndex())
	if (n.votedFor == types.None || n.votedFor == m.CandidateID) && upToDate {
		n.votedFor = m.CandidateID
		n.persistHardState()
		n.resetElectionTimer()
		resp.Granted = true
		// Ship self-approved entries for the recovery algorithm.
		resp.SelfApproved = n.log.SelfApproved()
	}
	n.send(from, resp)
}

func (n *Node) onRequestVoteResp(from types.NodeID, m types.RequestVoteResp) {
	n.sawVoteResp = true
	n.lonelyElections = 0
	if n.role == types.RoleCandidate && m.Term <= n.term {
		n.rec.Vote(n.now, m.Term, from, m.Granted)
	}
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
		return
	}
	if n.role != types.RoleCandidate || m.Term < n.term || !m.Granted {
		return
	}
	n.votes[from] = true
	n.recoveryVotes[from] = types.CloneEntries(m.SelfApproved)
	n.maybeWinElection()
}

func (n *Node) maybeWinElection() {
	cfg := n.Config()
	if !quorum.CountReached(cfg, n.votes, quorum.ClassicSize(cfg.Size())) {
		return
	}
	n.becomeLeader()
}

// becomeLeader installs leader state and runs the paper's recovery
// algorithm over the self-approved entries gathered during the election.
func (n *Node) becomeLeader() {
	n.rec.ElectionWon(n.now, n.term, n.cfg.ID, len(n.votes))
	n.rec.RoleChange(n.now, n.term, types.RoleLeader, n.cfg.ID)
	n.role = types.RoleLeader
	n.leaderID = n.cfg.ID
	// Session clock entries carry advances measured from the previous
	// entry of THIS leadership; a stale mark from an earlier term would
	// double-count the interval covered by interim leaders.
	n.lastSessionClock = 0
	cfg := n.Config()
	n.tally = quorum.NewTally()
	// Step-up races can skip becomeFollower between leaderships; encoder
	// caches are released on every role transition so a stale image from a
	// previous term is never pinned or streamed.
	n.snapEnc.Release()
	n.appendedAt = make(map[types.Index]time.Duration)
	n.snapStreamTrace = make(map[types.NodeID]uint64)
	n.progress = replica.NewTracker(replica.Config{
		MaxInflight:      n.cfg.MaxInflightAppends,
		MaxInflightBytes: n.cfg.MaxInflightBytes,
		MaxEntries:       n.cfg.MaxEntriesPerAppend,
		MaxChunk:         n.cfg.MaxSnapshotChunk,
		ResendTimeout:    n.cfg.SnapshotResendTimeout,
		MinResendTimeout: n.cfg.HeartbeatInterval,
		MaxResendTimeout: n.cfg.ElectionTimeoutMin,
	}, n.metrics)
	// Paper: nextIndex initialized to the leader's last committed entry +1.
	n.progress.Reset(cfg.Members, n.commitIndex+1)
	n.responded = make(map[types.NodeID]bool)
	n.missed = make(map[types.NodeID]int)
	n.nonvoting = make(map[types.NodeID]bool)
	n.pendingJoin = make(map[types.NodeID]bool)
	// Recovery: seed possibleEntries with the received self-approved
	// entries (only indices beyond the leader-approved prefix matter).
	for voter, entries := range n.recoveryVotes {
		for _, e := range entries {
			if e.Index > n.log.LastLeaderIndex() {
				n.tally.AddVote(e.Index, voter, e)
			}
		}
	}
	n.recoveryVotes = nil
	n.votes = nil
	// The read manager shares the tracker's srtt estimates for lease
	// deration and the node's counter set for observability.
	n.readMgr = n.newReadManager()
	n.readMgr.SetMembership(cfg.Members)
	n.recoverDecide()
	// Establish a commit point in the new term (the append defers the
	// leader's own match until the entry is durable).
	n.appendLeaderEntry(types.Entry{Kind: types.KindNoop})
	// Reads cannot be vouched for below this term's no-op: commitIndex may
	// understate what previous leaders committed until it commits.
	n.readFloor = n.log.LastLeaderIndex()
	n.lastBroadcastHead = n.log.LastLeaderIndex()
	// Reads issued while searching for a leader are now ours to serve.
	n.reads.Retry(n.now)
	// First heartbeat immediately; then periodic.
	n.leaderTick()
	n.tickDeadline = n.now + n.cfg.HeartbeatInterval
}

// recoverDecide re-decides every index covered by recovered self-approved
// entries: the most-voted entry wins (any entry a fast quorum inserted is
// guaranteed to have a majority in our vote set), vote-free gaps become
// no-ops, and decided entries are re-stamped with the new term. If a fast
// quorum of recovery voters had inserted the winner at the next commit
// index, the entry commits immediately — this re-commits anything a failed
// leader committed on the fast track.
func (n *Node) recoverDecide() {
	cfg := n.Config()
	fastQ := quorum.FastSize(cfg.Size())
	maxIdx := n.tally.MaxIndex()
	for k := n.log.LastLeaderIndex() + 1; k <= maxIdx; k++ {
		d, ok := n.tally.Decide(k, cfg, n.skipDecidedAt(k))
		var e types.Entry
		if ok {
			e = d.Winner
		} else {
			e = types.Entry{Kind: types.KindNoop}
		}
		n.appendLeaderEntryAt(k, e)
		if ok {
			n.tally.NullProposal(d.Winner, k)
			for _, v := range d.WinnerVoters {
				n.progress.Ensure(v, n.commitIndex+1).RecordFastMatch(k)
			}
		}
		if !n.cfg.DisableFastTrack &&
			k == n.commitIndex+1 &&
			n.log.Term(k) == n.term &&
			n.progress.FastMatchQuorum(cfg, k, fastQ) {
			n.commitTo(k)
		}
	}
	n.tally.Clear(n.commitIndex)
}

// proposalDecided reports whether the proposal is already leader-approved
// (or committed) somewhere in the log. Self-approved copies do not count:
// they are mere insertions awaiting a decision.
func (n *Node) proposalDecided(pid types.ProposalID) bool {
	idx := n.log.FindProposal(pid)
	if idx == 0 {
		return false
	}
	if idx <= n.commitIndex {
		return true
	}
	e, ok := n.log.Get(idx)
	return ok && e.Approval == types.ApprovedLeader
}

// skipDecidedAt excludes, from the decision at index k, candidates whose
// proposal was already decided at a different index (the paper's
// duplicate-avoidance rule) or whose session sequence was already applied
// (a retry from before a restart or from below the compaction boundary).
func (n *Node) skipDecidedAt(k types.Index) func(types.Entry) bool {
	return func(e types.Entry) bool {
		if !e.Session.IsZero() {
			if _, dup := n.sessions.LookupDup(e.Session, e.SessionSeq); dup {
				return true
			}
		}
		if e.PID.IsZero() {
			return false
		}
		idx := n.log.FindProposal(e.PID)
		if idx == 0 || idx == k {
			return false
		}
		return n.proposalDecided(e.PID)
	}
}
