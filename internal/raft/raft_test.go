package raft

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

func newTestNode(t *testing.T, id types.NodeID, members ...types.NodeID) *Node {
	t.Helper()
	return newNode(t, false, id, members...)
}

// newPacedTestNode builds a node on the paper's round model
// (Config.Paced), for tests that step the leader tick by tick.
func newPacedTestNode(t *testing.T, id types.NodeID, members ...types.NodeID) *Node {
	t.Helper()
	return newNode(t, true, id, members...)
}

func newNode(t *testing.T, paced bool, id types.NodeID, members ...types.NodeID) *Node {
	t.Helper()
	n, err := New(Config{
		ID:        id,
		Bootstrap: types.NewConfig(members...),
		Storage:   storage.NewMemory(),
		Rand:      rand.New(rand.NewSource(int64(len(id)) + 3)),
		Paced:     paced,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func electLeader(t *testing.T, n *Node, granters ...types.NodeID) {
	t.Helper()
	n.Tick(time.Hour)
	n.TakeOutbox()
	for _, g := range granters {
		n.Step(time.Hour, types.Envelope{From: g, To: n.ID(), Layer: types.LayerLocal,
			Msg: types.RequestVoteResp{Term: n.Term(), Granted: true}})
	}
	if n.Role() != types.RoleLeader {
		t.Fatalf("not leader after grants (role %v)", n.Role())
	}
	n.TakeOutbox()
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{ID: "a", Storage: storage.NewMemory()}); err == nil {
		t.Fatal("missing Rand accepted")
	}
	cfg := Config{ID: "a", Storage: storage.NewMemory(), Rand: rand.New(rand.NewSource(1)),
		ElectionTimeoutMin: time.Second, ElectionTimeoutMax: time.Second}
	if _, err := New(cfg); err == nil {
		t.Fatal("degenerate election window accepted")
	}
}

func TestElectionTimeoutStartsCampaign(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	n.Tick(time.Hour)
	if n.Role() != types.RoleCandidate {
		t.Fatalf("role = %v", n.Role())
	}
	out := n.TakeOutbox()
	rv := 0
	for _, env := range out {
		if _, ok := env.Msg.(types.RequestVote); ok {
			rv++
		}
	}
	if rv != 2 {
		t.Fatalf("sent %d RequestVotes, want 2", rv)
	}
	if n.Term() != 1 {
		t.Fatalf("term = %d", n.Term())
	}
}

func TestVoteGrantRules(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// Grant to an up-to-date candidate.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.RequestVote{Term: 1, CandidateID: "n1"}})
	out := n.TakeOutbox()
	if len(out) != 1 || !out[0].Msg.(types.RequestVoteResp).Granted {
		t.Fatalf("vote not granted: %v", out)
	}
	// A second candidate in the same term is refused (single vote).
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.RequestVote{Term: 1, CandidateID: "n3"}})
	out = n.TakeOutbox()
	if len(out) != 1 || out[0].Msg.(types.RequestVoteResp).Granted {
		t.Fatalf("second vote granted in same term: %v", out)
	}
}

func TestVoteRefusedForStaleLog(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// Give n2 a log entry at term 2.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 2, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 2, Kind: types.KindNoop, Approval: types.ApprovedLeader},
		}}})
	n.TakeOutbox()
	// A candidate with an empty log must be refused.
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.RequestVote{Term: 3, CandidateID: "n3", LastLogIndex: 0, LastLogTerm: 0}})
	out := n.TakeOutbox()
	if len(out) != 1 || out[0].Msg.(types.RequestVoteResp).Granted {
		t.Fatalf("stale candidate granted: %v", out)
	}
}

func TestLeaderAppendsAndCommits(t *testing.T) {
	n := newPacedTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	pid := n.Propose(time.Hour, []byte("x"))
	if pid.Proposer != "n1" {
		t.Fatalf("pid = %v", pid)
	}
	// Tick dispatches AppendEntries with the no-op and the entry.
	n.Tick(n.NextDeadline())
	out := n.TakeOutbox()
	var ae types.AppendEntries
	found := false
	for _, env := range out {
		if m, ok := env.Msg.(types.AppendEntries); ok {
			ae = m
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no AppendEntries in %v", out)
	}
	if len(ae.Entries) == 0 {
		t.Fatal("AppendEntries empty")
	}
	// Acks commit at the next tick; the proposer resolution surfaces.
	for _, f := range []types.NodeID{"n2", "n3"} {
		n.Step(time.Hour, types.Envelope{From: f, To: "n1", Layer: types.LayerLocal,
			Msg: types.AppendEntriesResp{Term: n.Term(), Success: true,
				MatchIndex: n.LastIndex()}})
	}
	n.Tick(n.NextDeadline())
	if n.CommitIndex() != n.LastIndex() {
		t.Fatalf("commit = %d, last = %d", n.CommitIndex(), n.LastIndex())
	}
	res := n.TakeResolved()
	if len(res) != 1 || res[0].PID != pid {
		t.Fatalf("resolved = %v", res)
	}
}

// appendsTo returns the AppendEntries messages in out addressed to peer.
func appendsTo(out []types.Envelope, peer types.NodeID) []types.AppendEntries {
	var aes []types.AppendEntries
	for _, env := range out {
		if m, ok := env.Msg.(types.AppendEntries); ok && env.To == peer {
			aes = append(aes, m)
		}
	}
	return aes
}

// TestEventDrivenLeaderReplicatesAndCommitsOnAck: without Paced the leader
// sends a new entry when it is proposed and commits on the ack that
// completes a quorum, with no tick in between. The commit then reaches the
// followers in a heartbeat, once each, and an echo of that heartbeat
// triggers nothing.
func TestEventDrivenLeaderReplicatesAndCommitsOnAck(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	noop := n.LastIndex()
	ack := func(from types.NodeID, match types.Index) {
		n.Step(time.Hour, types.Envelope{From: from, To: "n1", Layer: types.LayerLocal,
			Msg: types.AppendEntriesResp{Term: n.Term(), Success: true, MatchIndex: match}})
	}
	// Answering the election's probes commits the no-op.
	ack("n2", noop)
	ack("n3", noop)
	if n.CommitIndex() != noop {
		t.Fatalf("commit = %d after the no-op's acks, want %d", n.CommitIndex(), noop)
	}
	n.TakeOutbox()
	n.TakeCommitted()

	pid := n.Propose(time.Hour, []byte("x"))
	out := n.TakeOutbox()
	for _, f := range []types.NodeID{"n2", "n3"} {
		aes := appendsTo(out, f)
		if len(aes) != 1 || len(aes[0].Entries) != 1 || aes[0].Entries[0].Index != noop+1 {
			t.Fatalf("append to %s on propose = %+v, want the new entry alone", f, aes)
		}
	}
	ack("n2", noop+1)
	if n.CommitIndex() != noop+1 {
		t.Fatalf("commit = %d after a quorum acked, want %d", n.CommitIndex(), noop+1)
	}
	if res := n.TakeResolved(); len(res) != 1 || res[0].PID != pid {
		t.Fatalf("resolved = %v", res)
	}
	out = n.TakeOutbox()
	for _, f := range []types.NodeID{"n2", "n3"} {
		aes := appendsTo(out, f)
		if f == "n3" {
			// n3 has not acked the entry: a heartbeat anchored at its match
			// could not let it commit the entry, so none is sent.
			if len(aes) != 0 {
				t.Fatalf("commit heartbeat to n3 before it acked: %+v", aes)
			}
			continue
		}
		if len(aes) != 1 || aes[0].LeaderCommit != noop+1 || len(aes[0].Entries) != 0 {
			t.Fatalf("commit heartbeat to %s = %+v", f, aes)
		}
	}
	// n3's ack lets it commit the entry: one heartbeat; its echo, nothing.
	ack("n3", noop+1)
	if aes := appendsTo(n.TakeOutbox(), "n3"); len(aes) != 1 || aes[0].LeaderCommit != noop+1 {
		t.Fatalf("commit heartbeat to n3 after its ack = %+v", aes)
	}
	ack("n2", noop+1)
	ack("n3", noop+1)
	if out := n.TakeOutbox(); len(out) != 0 {
		t.Fatalf("echoed heartbeats triggered %v", out)
	}
}

// TestFollowerCommitBoundedByVerifiedPrefix: a follower commits only up
// to the last index the AppendEntries vouched for (Raft Fig. 2), never
// into a suffix the leader's consistency check did not cover.
func TestFollowerCommitBoundedByVerifiedPrefix(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// A term-1 leader gave n2 entries 1..3.
	var stale []types.Entry
	for i := types.Index(1); i <= 3; i++ {
		stale = append(stale, types.Entry{Index: i, Term: 1, Kind: types.KindNormal,
			Data: []byte{byte(i)}, Approval: types.ApprovedLeader})
	}
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: stale}})
	// The term-2 leader's heartbeat is anchored at index 1, the match it
	// knows, and carries commit 3: entries 2..3 here may differ from its
	// log, so only index 1 may commit.
	n.Step(2*time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 2, LeaderID: "n3", PrevLogIndex: 1, PrevLogTerm: 1, LeaderCommit: 3}})
	if n.CommitIndex() != 1 {
		t.Fatalf("commit = %d, want 1 (the verified prefix)", n.CommitIndex())
	}
}

func TestFollowerAppendConsistencyCheck(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// AE with a prev the follower doesn't have fails.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", PrevLogIndex: 5, PrevLogTerm: 1}})
	out := n.TakeOutbox()
	if len(out) != 1 || out[0].Msg.(types.AppendEntriesResp).Success {
		t.Fatalf("inconsistent AE accepted: %v", out)
	}
	// From scratch it succeeds.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 1, Kind: types.KindNoop, Approval: types.ApprovedLeader},
		}, LeaderCommit: 1}})
	out = n.TakeOutbox()
	resp := out[0].Msg.(types.AppendEntriesResp)
	if !resp.Success || resp.MatchIndex != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if n.CommitIndex() != 1 {
		t.Fatalf("commit = %d", n.CommitIndex())
	}
}

func TestFollowerTruncatesConflicts(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// Old leader's entries at term 1.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 1, Kind: types.KindNoop, Approval: types.ApprovedLeader},
			{Index: 2, Term: 1, Kind: types.KindNormal, Approval: types.ApprovedLeader,
				PID: types.ProposalID{Proposer: "n1", Seq: 1}, Data: []byte("old")},
		}}})
	n.TakeOutbox()
	// New leader at term 2 conflicts at index 2.
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 2, LeaderID: "n3", PrevLogIndex: 1, PrevLogTerm: 1,
			Entries: []types.Entry{
				{Index: 2, Term: 2, Kind: types.KindNormal, Approval: types.ApprovedLeader,
					PID: types.ProposalID{Proposer: "n3", Seq: 1}, Data: []byte("new")},
			}}})
	n.TakeOutbox()
	e, ok := n.log.Get(2)
	if !ok || string(e.Data) != "new" || e.Term != 2 {
		t.Fatalf("conflict not resolved: %v", e)
	}
}

func TestProposalForwardingToLeader(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// Learn the leader.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1"}})
	n.TakeOutbox()
	n.Propose(time.Second, []byte("fwd"))
	out := n.TakeOutbox()
	if len(out) != 1 || out[0].To != "n1" {
		t.Fatalf("proposal not forwarded: %v", out)
	}
	if _, ok := out[0].Msg.(types.ClientPropose); !ok {
		t.Fatalf("wrong message type %T", out[0].Msg)
	}
}

func TestLeaderDedupsReproposals(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	e := types.Entry{Kind: types.KindNormal,
		PID: types.ProposalID{Proposer: "n2", Seq: 1}, Data: []byte("once")}
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.ClientPropose{Entry: e}})
	last := n.LastIndex()
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.ClientPropose{Entry: e}})
	if n.LastIndex() != last {
		t.Fatalf("duplicate appended: last %d -> %d", last, n.LastIndex())
	}
}

func TestLeaderStepsDownOnHigherTerm(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n.Term() + 5}})
	if n.Role() != types.RoleFollower {
		t.Fatalf("role = %v", n.Role())
	}
}

func TestRestartRecoversPersistentState(t *testing.T) {
	store := storage.NewMemory()
	cfg := Config{ID: "n1", Bootstrap: types.NewConfig("n1"), Storage: store,
		Rand: rand.New(rand.NewSource(1))}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Tick(time.Second) // self-elect
	n.Propose(2*time.Second, []byte("persisted"))
	n.Tick(n.NextDeadline())
	term, last := n.Term(), n.LastIndex()

	cfg.Rand = rand.New(rand.NewSource(2))
	n2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Term() != term || n2.LastIndex() != last {
		t.Fatalf("recovered term=%d last=%d, want %d/%d", n2.Term(), n2.LastIndex(), term, last)
	}
}
