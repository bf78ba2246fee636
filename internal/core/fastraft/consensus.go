package fastraft

import (
	"fmt"
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/quorum"
	"github.com/hraft-io/hraft/internal/replica"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// --- Proposing -----------------------------------------------------------

// Propose submits an application entry from this site: the proposer
// broadcasts it to every configuration member at a chosen index and tracks
// it until resolution (the paper's proposal-timeout retry loop).
func (n *Node) Propose(now time.Duration, data []byte) types.ProposalID {
	return n.ProposeEntry(now, types.Entry{
		Kind: types.KindNormal,
		Data: append([]byte(nil), data...),
	})
}

// ProposeEntry submits an arbitrary entry (used by C-Raft to propose
// global-state entries). The entry's PID is assigned here.
func (n *Node) ProposeEntry(now time.Duration, e types.Entry) types.ProposalID {
	n.now = now
	n.proposalSeq++
	pid := types.ProposalID{Proposer: n.cfg.ID, Seq: n.proposalSeq}
	return n.ProposeEntryPID(now, e, pid)
}

// ProposeEntryPID submits an entry under a caller-chosen ProposalID. C-Raft
// uses deterministic batch PIDs (cluster, batch sequence) so a successor
// local leader re-proposing a batch de-duplicates against the original.
// Proposing an already-pending PID is a no-op.
//
// Proposer backpressure: with Config.MaxInflightProposals set, a proposal
// past the cap is tracked but held in a FIFO queue instead of broadcast —
// a burst can no longer spray sparse insertions across arbitrary indices.
// Queued proposals are admitted as earlier ones resolve.
func (n *Node) ProposeEntryPID(now time.Duration, e types.Entry, pid types.ProposalID) types.ProposalID {
	n.now = now
	if _, exists := n.pending[pid]; exists {
		return pid
	}
	e.PID = pid
	if e.TraceID == 0 {
		e.TraceID = n.rec.MintTrace()
	}
	p := &pendingProposal{
		entry:    e.Clone(),
		deadline: now + n.cfg.ProposalTimeout,
		size:     types.EntryWireSize(e),
	}
	n.pending[pid] = p
	n.rec.SpanStart(now, pid, n.term, e.TraceID)
	if !n.proposalWindowOpen(p) {
		p.queued = true
		n.proposalQueue = append(n.proposalQueue, pid)
		n.metrics.Inc("fastraft.proposals_queued")
		if n.byteWindowClosed(p) {
			// Attribute the queueing: the byte budget (not the count cap)
			// held this proposal back.
			n.metrics.Inc("fastraft.proposals_byte_queued")
		}
		return pid
	}
	n.admitProposal(p)
	n.react()
	return pid
}

// proposalWindowOpen applies both proposer caps: the message-count window
// (MaxInflightProposals) and the byte window (MaxInflightProposalBytes,
// entries sized at encode time).
func (n *Node) proposalWindowOpen(p *pendingProposal) bool {
	if cap := n.cfg.MaxInflightProposals; cap > 0 && n.inflightProposals >= cap {
		return false
	}
	return !n.byteWindowClosed(p)
}

// byteWindowClosed reports whether the byte budget blocks p. The first
// proposal always broadcasts so a single entry larger than the whole
// budget still makes progress.
func (n *Node) byteWindowClosed(p *pendingProposal) bool {
	cap := n.cfg.MaxInflightProposalBytes
	return cap > 0 && n.inflightProposals > 0 && n.inflightProposalBytes+p.size > cap
}

// admitProposal charges the window and broadcasts.
func (n *Node) admitProposal(p *pendingProposal) {
	n.inflightProposals++
	n.inflightProposalBytes += p.size
	n.broadcastProposal(p)
}

// resolvePending resolves a tracked local proposal, releasing its window
// slot and admitting queued proposals into the freed capacity.
func (n *Node) resolvePending(pid types.ProposalID, idx types.Index) {
	p, ok := n.pending[pid]
	if !ok {
		return
	}
	delete(n.pending, pid)
	if !p.queued {
		n.inflightProposals--
		n.inflightProposalBytes -= p.size
	}
	n.rec.SpanEnd(n.now, pid, idx)
	n.resolved = append(n.resolved, types.Resolution{PID: pid, Index: idx})
	n.admitProposals()
}

// admitProposals broadcasts queued proposals while the in-flight window —
// count and bytes — has room, in submission order.
func (n *Node) admitProposals() {
	for len(n.proposalQueue) > 0 {
		pid := n.proposalQueue[0]
		p, ok := n.pending[pid]
		if !ok || !p.queued {
			n.proposalQueue = n.proposalQueue[1:]
			continue // resolved (or already admitted) while queued
		}
		if !n.proposalWindowOpen(p) {
			return
		}
		n.proposalQueue = n.proposalQueue[1:]
		p.queued = false
		p.deadline = n.now + n.cfg.ProposalTimeout
		n.admitProposal(p)
	}
}

// broadcastProposal picks a fresh index and sends the proposal to all
// members, handling the local insert + vote inline.
//
// The index is the first slot past the leader-approved prefix that this
// proposer's own log does not already hold a different entry for. Anchoring
// at the prefix (rather than the end of the sparse log) keeps concurrent
// proposers converging on decidable indices — self-approved entries above
// the prefix are unsettled, and chasing them lets the index race ahead of
// the decide loop indefinitely. Skipping occupied slots lets proposal
// bursts pipeline instead of colliding with their own predecessors.
func (n *Node) broadcastProposal(p *pendingProposal) {
	cfg := n.Config()
	if cfg.Size() == 0 {
		return // not part of any group yet; retry later
	}
	idx := n.log.LastLeaderIndex() + 1
	if idx <= n.commitIndex {
		idx = n.commitIndex + 1
	}
	for {
		pid, ok := n.log.ProposalAt(idx)
		if !ok || pid == p.entry.PID {
			break
		}
		idx++
	}
	p.index = idx
	n.rec.SpanStage(n.now, p.entry.PID, trace.StageReplicate, idx)
	msg := types.ProposeEntry{Index: idx, Entry: p.entry.Clone()}
	for _, peer := range cfg.Others(n.cfg.ID) {
		n.send(peer, msg)
	}
	if cfg.Contains(n.cfg.ID) {
		n.handleProposeLocally(msg)
	}
}

func (n *Node) retryProposals(now time.Duration) {
	var due []types.ProposalID
	for pid, p := range n.pending {
		if !p.queued && now >= p.deadline {
			due = append(due, pid)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].Less(due[j]) })
	for _, pid := range due {
		p := n.pending[pid]
		p.deadline = now + n.cfg.ProposalTimeout
		// Re-propose at a fresh index: the old slot may have been decided
		// for a different entry. De-duplication (leader pid map + commit
		// notifications) keeps the proposal single-commit. Queued proposals
		// have never been broadcast; they wait for the window instead.
		n.broadcastProposal(p)
	}
}

// --- Receiving proposals (follower and leader alike) ----------------------

func (n *Node) onProposeEntry(from types.NodeID, m types.ProposeEntry) {
	n.handleProposeLocally(m)
	_ = from
}

// handleProposeLocally implements the paper's "when follower receives a
// proposed entry" steps, also used by the leader (which is "treated as a
// follower in this scenario").
func (n *Node) handleProposeLocally(m types.ProposeEntry) {
	pid := m.Entry.PID
	// Session duplicate: a retry of a sequence this replica already saw
	// applied — possibly under a different PID (proposer restart) and
	// possibly below the compaction boundary. Answer with the cached
	// response instead of inserting.
	if !m.Entry.Session.IsZero() {
		if idx, dup := n.sessions.LookupDup(m.Entry.Session, m.Entry.SessionSeq); dup {
			n.answerProposer(pid, idx, true)
			return
		}
	}
	// Duplicate handling by proposal ID (same-process retries). The match
	// must agree on the payload: a restarted proposer's reset sequence
	// counter can reuse the PID for a brand-new proposal, which must insert
	// fresh rather than be answered with the old entry's index.
	if existing := n.log.FindProposalFor(pid, m.Entry.Data); existing != 0 {
		if existing <= n.commitIndex {
			// Already committed: notify the proposer directly.
			n.send(pid.Proposer, types.CommitNotify{PID: pid, Index: existing})
			return
		}
		// Already inserted but uncommitted: re-vote for its current slot
		// (handles lost vote messages on re-proposals). The vote waits for
		// the insert's record to be durable; voteFor re-reads the slot at
		// release time, so voting for whatever occupies it then is safe.
		n.acts.After(n.gate, func() { n.voteFor(existing) })
		return
	}
	idx := m.Index
	if n.role == types.RoleLeader && !n.cfg.Paced && idx <= n.log.LastLeaderIndex() {
		// The slot is already decided for another entry, so no vote can
		// win it for this one. Sequence it on the classic track now, as
		// decide does with losers, instead of leaving its proposer to
		// wait out a proposal timeout.
		if !n.proposalDecided(pid) {
			n.appendLeaderEntry(m.Entry)
			n.tally.NullProposal(m.Entry, 0)
			n.metrics.Inc("fastraft.burned_slots_sequenced")
		}
		return
	}
	if idx <= n.commitIndex {
		// The slot is burned; the proposer will re-propose.
		return
	}
	if !n.log.Has(idx) {
		e := m.Entry.Clone()
		e.Term = n.term
		if err := n.log.InsertSelf(idx, e); err != nil {
			panic(fmt.Sprintf("fastraft %s: insert self: %v", n.cfg.ID, err))
		}
		n.persistEntry(idx)
		n.rec.TraceHop(n.now, e.TraceID, trace.HopReplicate, e.PID.Proposer, idx)
	}
	// A vote is a durability promise — "I hold this entry" — so with group
	// commit it is deferred until the insert's record is on disk. A follower
	// vote rides the gated outbox anyway; the leader's own vote feeding its
	// tally directly is what this defers.
	n.acts.After(n.gate, func() { n.voteFor(idx) })
}

// voteFor sends (or locally applies, on the leader) a vote for the current
// occupant of idx.
func (n *Node) voteFor(idx types.Index) {
	e, ok := n.log.Get(idx)
	if !ok {
		return
	}
	if n.role == types.RoleLeader {
		n.recordVote(n.cfg.ID, types.VoteEntry{
			Term: n.term, Index: idx, Entry: e, CommitIndex: n.commitIndex,
		})
		return
	}
	if n.leaderID == types.None {
		return // no leader known; proposal timeout will recover
	}
	n.send(n.leaderID, types.VoteEntry{
		Term: n.term, Index: idx, Entry: e, CommitIndex: n.commitIndex,
	})
}

// --- Leader: vote intake and the decide loop ------------------------------

func (n *Node) onVoteEntry(from types.NodeID, m types.VoteEntry) {
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
		return
	}
	if n.role != types.RoleLeader || m.Term < n.term {
		return
	}
	n.recordVote(from, m)
}

func (n *Node) recordVote(from types.NodeID, m types.VoteEntry) {
	pid := m.Entry.PID
	if idx := n.log.FindProposalFor(pid, m.Entry.Data); idx != 0 && idx <= n.commitIndex {
		// Voted-for proposal already committed elsewhere: tell its
		// proposer, don't tally. Payload-checked so a vote for a fresh
		// proposal under a reused PID still tallies.
		n.send(pid.Proposer, types.CommitNotify{PID: pid, Index: idx})
		return
	}
	if m.Index <= n.commitIndex {
		return // stale index
	}
	n.tally.AddVote(m.Index, from, m.Entry)
	n.rec.TraceHop(n.now, m.Entry.TraceID, trace.HopAck, from, m.Index)
	// Paper: reset the voter's nextIndex from its reported commit index so
	// AppendEntries re-converges its log with the (possibly new) leader.
	// The tracker ignores the reset while a snapshot transfer is pending —
	// re-anchoring below the boundary would restart the stream every vote.
	// An event-driven leader skips the reset for a peer that already acks
	// appends: its log has converged with ours, and re-anchoring at every
	// vote would resend the uncommitted suffix once per vote.
	if from != n.cfg.ID {
		pr := n.progress.Ensure(from, m.CommitIndex+1)
		if n.cfg.Paced || pr.State() != replica.StateReplicate {
			pr.ResetNext(m.CommitIndex + 1)
		}
	}
}

// decideLoop is the paper's "periodically run by the leader" procedure:
// while a classic quorum has voted on the next undecided index, decide the
// most-voted entry. An entry commits immediately on a fast quorum — but,
// per the paper, the fast track applies only when every earlier index has
// already committed — otherwise the entry rides the classic track
// (AppendEntries replication + matchIndex commit). Decisions pipeline ahead
// of the commit point exactly as appends do in classic Raft; the losing
// candidates at each index are re-sequenced at subsequent indices (the
// leader's free choice) so their proposers don't stall.
//
// With settled set (an event-driven leader reacting to a vote) it decides
// an index only once no further vote can change the result: every member
// voted, or one candidate holds a fast quorum. Deciding at a bare classic
// quorum would skip the fast track whenever one vote is still in flight,
// which in a 3-node group is every time.
func (n *Node) decideLoop(settled bool) {
	cfg := n.log.ActiveConfig()
	classicQ := quorum.ClassicSize(cfg.Size())
	fastQ := quorum.FastSize(cfg.Size())
	for {
		k := n.log.LastLeaderIndex() + 1
		if settled {
			if !n.tally.Settled(k, cfg, fastQ) {
				return
			}
		} else if n.tally.Voters(k, cfg) < classicQ {
			return
		}
		d, ok := n.tally.Decide(k, cfg, n.skipDecidedAt(k))
		if !ok {
			// Every candidate was a duplicate of an already decided
			// proposal; fill the slot with a no-op to keep the log dense.
			n.appendLeaderEntryAt(k, types.Entry{Kind: types.KindNoop})
			continue
		}
		n.appendLeaderEntryAt(k, d.Winner)
		if settled {
			n.metrics.Inc("fastraft.decided_settled")
		}
		n.rec.SpanStage(n.now, d.Winner.PID, trace.StageQuorum, k)
		n.tally.NullProposal(d.Winner, k)
		for _, v := range d.WinnerVoters {
			n.progress.Ensure(v, n.commitIndex+1).RecordFastMatch(k)
		}
		// Re-sequence losers on the classic track.
		for _, loser := range d.Losers {
			if !loser.PID.IsZero() && n.proposalDecided(loser.PID) {
				continue
			}
			n.appendLeaderEntry(loser)
			n.tally.NullProposal(loser, 0)
			n.metrics.Inc("fastraft.losers_resequenced")
		}
		if !n.cfg.DisableFastTrack &&
			k == n.commitIndex+1 &&
			n.log.Term(k) == n.term &&
			n.progress.FastMatchQuorum(cfg, k, fastQ) {
			n.commitTo(k)
			if n.role != types.RoleLeader {
				return // committing a config entry removed this leader
			}
			n.tally.Clear(k)
			cfg = n.log.ActiveConfig()
			classicQ = quorum.ClassicSize(cfg.Size())
			fastQ = quorum.FastSize(cfg.Size())
		}
	}
}

// appendLeaderEntry appends e at the end of the leader-approved prefix.
func (n *Node) appendLeaderEntry(e types.Entry) {
	n.appendLeaderEntryAt(n.log.LastLeaderIndex()+1, e)
}

// appendLeaderEntryAt stamps e with the current term and leader-approves it
// at idx (which must extend the prefix by exactly one; any self-approved
// occupant is replaced).
func (n *Node) appendLeaderEntryAt(idx types.Index, e types.Entry) {
	e = e.Clone()
	e.Term = n.term
	if err := n.log.AppendLeader(idx, e); err != nil {
		panic(fmt.Sprintf("fastraft %s: append leader: %v", n.cfg.ID, err))
	}
	n.persistEntry(idx)
	n.appendedAt[idx] = n.now
	n.rec.SpanStage(n.now, e.PID, trace.StageAppend, idx)
	if e.TraceID != 0 {
		n.rec.TraceHop(n.now, e.TraceID, trace.HopAppend, "", idx)
		n.rec.TraceAppendIndex(idx, e.TraceID)
	}
	n.recordSelfDurable()
	if e.Kind == types.KindConfig {
		n.onConfigChangedAsLeader()
	}
}

// --- Leader tick and events ------------------------------------------------

// react is the event-driven leader's answer to a vote, an ack, a
// durability advance, a proposal or a read: decide what is settled, advance
// the commit index, release reads, then send each peer what the event made
// sendable (replica.Tracker.Push). A paced leader does all of this at its
// tick only. Any phase can demote the node, so leadership is re-checked.
func (n *Node) react() {
	if n.cfg.Paced || n.role != types.RoleLeader {
		return
	}
	n.decideLoop(true)
	if n.role != types.RoleLeader {
		return
	}
	n.advanceClassicCommit()
	if n.role != types.RoleLeader {
		return
	}
	rc := n.round()
	if n.readMgr != nil && n.readMgr.ReadRoundDue() {
		rc.ReadCtx = n.readMgr.StampRound(n.now)
	}
	// After the stamp: a single-member group confirms its round at once.
	n.reads.Flush(n.now)
	n.progress.Push(n.appendTargets(), n.lv, rc, n.out)
}

// leaderTick performs all periodic leader duties in the paper's order:
// decide/commit evaluation, membership processing, then AppendEntries
// dispatch. Any phase can demote the node (committing a configuration that
// excludes it), so leadership is re-checked between phases.
func (n *Node) leaderTick() {
	n.decideLoop(false)
	if n.role != types.RoleLeader {
		return
	}
	n.advanceClassicCommit()
	if n.role != types.RoleLeader {
		return
	}
	n.reads.Flush(n.now)
	n.maybeSessionClock()
	n.processMembership()
	if n.role != types.RoleLeader {
		return
	}
	n.broadcastAppend()
}

// advanceClassicCommit applies the classic-track commit rule over
// matchIndex.
func (n *Node) advanceClassicCommit() {
	cfg := n.log.ActiveConfig()
	classicQ := quorum.ClassicSize(cfg.Size())
	for k := n.commitIndex + 1; k <= n.log.LastLeaderIndex(); k++ {
		if n.log.Term(k) != n.term {
			// Entries from earlier terms commit transitively once a
			// current-term entry commits.
			continue
		}
		if !n.progress.MatchQuorum(cfg, k, classicQ) {
			break
		}
		n.commitTo(k)
		if n.role != types.RoleLeader {
			return // committing a config entry removed this leader
		}
		n.tally.Clear(k)
		// A committed configuration entry changes quorum sizes from here
		// on.
		cfg = n.log.ActiveConfig()
		classicQ = quorum.ClassicSize(cfg.Size())
	}
}

func (n *Node) commitTo(k types.Index) {
	if k > n.log.LastLeaderIndex() {
		panic(fmt.Sprintf("fastraft %s: commit %d beyond leader prefix %d",
			n.cfg.ID, k, n.log.LastLeaderIndex()))
	}
	for i := n.commitIndex + 1; i <= k; i++ {
		e, ok := n.log.Get(i)
		if !ok {
			panic(fmt.Sprintf("fastraft %s: commit hole at %d", n.cfg.ID, i))
		}
		if at, ok := n.appendedAt[i]; ok {
			n.commitHist.Observe(n.now - at)
			delete(n.appendedAt, i)
		}
		n.rec.SpanStage(n.now, e.PID, trace.StageCommit, i)
		if n.cfg.Layer != types.LayerGlobal {
			// A C-Raft global instance's commit is provisional until the
			// delta externalizing it commits in the cluster's local log: a
			// local-leader crash can roll the global member back behind
			// this point. The authoritative global commit stream is the
			// replay (craft records it per site); auditing these would
			// flag that legitimate rollback as a committed-prefix breach.
			n.rec.CommitEntry(n.now, n.term, e)
		}
		if n.applySessionCommit(e) {
			// Session duplicate (or expired-session proposal): the slot
			// commits but the entry is withheld from the state machine;
			// the proposer was answered with the cached response.
			n.commitIndex = i
			continue
		}
		n.committed = append(n.committed, e)
		n.observeCommitted(e)
		if n.role == types.RoleLeader {
			if !e.PID.IsZero() && e.PID.Proposer != n.cfg.ID {
				n.send(e.PID.Proposer, types.CommitNotify{PID: e.PID, Index: i})
			}
			if e.Kind == types.KindConfig {
				n.onConfigCommittedAsLeader(e)
			}
		}
	}
	n.commitIndex = k
	n.rec.TraceCommitted(k)
}

// observeCommitted resolves local proposals and reacts to configuration
// entries that affect this site.
func (n *Node) observeCommitted(e types.Entry) {
	if e.PID.Proposer == n.cfg.ID {
		n.resolvePending(e.PID, e.Index)
	}
}

// --- Replication (AppendEntries) -------------------------------------------

// logView exposes the leader-approved prefix to the shared dispatch layer
// (Fast Raft replicates only decided entries; classic Raft passes its full
// log instead — that accessor pair is the whole difference between the
// cores' replication).
func (n *Node) logView() replica.LogView {
	return replica.LogView{
		LastIndex:     n.log.LastLeaderIndex,
		Term:          n.log.Term,
		Entries:       n.log.LeaderRange,
		SnapshotIndex: n.log.SnapshotIndex,
	}
}

// round is the per-broadcast-round context stamped onto dispatched
// messages. Paper: nextIndex for fresh peers starts at the leader's commit
// index + 1.
func (n *Node) round() replica.Round {
	return replica.Round{
		Term:     n.term,
		Leader:   n.cfg.ID,
		Commit:   n.commitIndex,
		Seq:      n.aeRound,
		NextHint: n.commitIndex + 1,
		Now:      n.now,
	}
}

// appendTargets lists the peers the leader replicates to: the other
// voting members, then the non-voting joiners it is catching up.
func (n *Node) appendTargets() []types.NodeID {
	targets := n.log.ActiveConfig().Others(n.cfg.ID)
	if len(n.nonvoting) == 0 {
		return targets
	}
	return append(targets, sortedKeys(n.nonvoting)...)
}

// outlet binds the shared dispatch to this node's transmission and
// recording.
func (n *Node) outlet() replica.Outlet {
	o := replica.Outlet{Send: n.send, Snapshot: n.sendSnapshotTo}
	if n.rec != nil {
		o.Dispatched = func(to types.NodeID, m types.AppendEntries) {
			n.rec.AppendDispatch(n.now, m.Term, to, m.PrevLogIndex, len(m.Entries), m.Round)
		}
	}
	return o
}

// broadcastAppend dispatches this round's traffic to every peer through
// the shared replication engine (replica.Tracker.Broadcast). Every peer
// gets a message, so silent-leave accounting keeps working.
func (n *Node) broadcastAppend() {
	cfg := n.Config()
	n.aeRound++
	rc := n.round()
	if n.readMgr != nil {
		// Seal the pending ReadIndex batch onto this round; a quorum of
		// acks echoing the ID confirms every read in it at once.
		rc.ReadCtx = n.readMgr.StampRound(n.now)
	}
	targets := n.appendTargets()
	for _, peer := range targets {
		// Silent-leave accounting: count rounds a voting member has left
		// unanswered.
		if cfg.Contains(peer) {
			if n.responded[peer] {
				n.missed[peer] = 0
			} else {
				n.missed[peer]++
			}
			n.responded[peer] = false
		}
	}
	n.progress.Broadcast(targets, n.lv, rc, n.out)
	n.lastBroadcastHead = n.log.LastLeaderIndex()
}

func (n *Node) onAppendEntries(from types.NodeID, m types.AppendEntries) {
	if m.Term > n.term || (m.Term == n.term && n.role != types.RoleFollower) {
		n.becomeFollower(m.Term, m.LeaderID)
	}
	resp := types.AppendEntriesResp{
		Term: n.term, Round: m.Round, LastLogIndex: n.log.LastLeaderIndex(),
	}
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
	n.lonelyElections = 0
	n.resetElectionTimer()
	// Entries at or below our snapshot boundary are committed and match the
	// leader by construction; the consistency check applies only above it.
	if m.PrevLogIndex >= n.log.SnapshotIndex() && m.PrevLogIndex > 0 &&
		(m.PrevLogIndex > n.log.LastLeaderIndex() || n.log.Term(m.PrevLogIndex) != m.PrevLogTerm) {
		// Consistency check failed; hint the leader with our prefix top.
		n.send(from, resp)
		return
	}
	for _, e := range m.Entries {
		if e.Index <= n.log.SnapshotIndex() {
			continue // compacted: already committed here
		}
		n.applyLeaderEntry(e)
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
		if top := n.log.LastLeaderIndex(); k > top {
			k = top
		}
		if k > n.commitIndex {
			n.commitTo(k)
			// Local commit advanced: held follower-local reads whose
			// confirmed index is now covered can be served.
			n.reads.Flush(n.now)
		}
	}
	resp.Success = true
	resp.MatchIndex = match
	resp.LastLogIndex = n.log.LastLeaderIndex()
	n.send(from, resp)
	n.reactToConfig()
	n.maybeCompact()
}

// applyLeaderEntry installs one leader-approved entry from AppendEntries,
// overwriting conflicting slots (Fast Raft never truncates: self-approved
// entries at other indices must survive).
func (n *Node) applyLeaderEntry(e types.Entry) {
	idx := e.Index
	if existing, ok := n.log.Get(idx); ok {
		// The in-place fast paths require PID identity, not just
		// SameProposal: a session proposal retried under a different PID is
		// the same value, but keeping the local twin would leave replicas
		// disagreeing on which PID occupies the slot.
		if existing.Approval == types.ApprovedLeader && existing.Term == e.Term &&
			existing.PID == e.PID && existing.SameProposal(e) {
			return // already applied
		}
		if existing.Approval == types.ApprovedSelf && existing.Term == e.Term &&
			existing.PID == e.PID && existing.SameProposal(e) && idx == n.log.LastLeaderIndex()+1 {
			// Same entry we self-inserted: promote in place.
			if err := n.log.PromoteToLeader(idx, e.Term); err != nil {
				panic(fmt.Sprintf("fastraft %s: promote: %v", n.cfg.ID, err))
			}
			n.persistEntry(idx)
			return
		}
		if idx <= n.commitIndex {
			// Never overwrite a committed slot; the leader cannot be
			// sending a conflicting committed entry unless the run is
			// already unsafe — surface it.
			if !existing.SameProposal(e) {
				panic(fmt.Sprintf("fastraft %s: leader overwrote committed index %d", n.cfg.ID, idx))
			}
			return
		}
		if err := n.log.OverwriteLeader(idx, e); err != nil {
			panic(fmt.Sprintf("fastraft %s: overwrite: %v", n.cfg.ID, err))
		}
		n.persistEntry(idx)
		n.rec.TraceHop(n.now, e.TraceID, trace.HopReplicate, n.leaderID, idx)
		return
	}
	if err := n.log.AppendLeader(idx, e); err != nil {
		panic(fmt.Sprintf("fastraft %s: follower append: %v", n.cfg.ID, err))
	}
	n.persistEntry(idx)
	n.rec.TraceHop(n.now, e.TraceID, trace.HopReplicate, n.leaderID, idx)
}

func (n *Node) onAppendEntriesResp(from types.NodeID, m types.AppendEntriesResp) {
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
		return
	}
	if n.role != types.RoleLeader || m.Term < n.term {
		return
	}
	n.responded[from] = true
	n.missed[from] = 0
	pr := n.progress.Ensure(from, n.commitIndex+1)
	if !m.Success {
		// Back off; the peer's last-leader-index hint converges quickly.
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
	// Stream continuation: the peer holds a partial snapshot stream at our
	// boundary (from a predecessor leader); seed the transfer from its
	// buffered offset so acked chunks are never re-sent from byte 0.
	if b := m.PendingBoundary; b != 0 && b == n.log.SnapshotIndex() &&
		m.PendingOffset > 0 && pr.Match() < b {
		n.progress.SeedSnapshot(from, b, m.PendingOffset, n.now)
		n.rec.SnapResume(n.now, from, b, m.PendingOffset)
	}
}

func (n *Node) onCommitNotify(m types.CommitNotify) {
	n.resolvePending(m.PID, m.Index)
}
