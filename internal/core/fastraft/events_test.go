package fastraft

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

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

func stepVote(n *Node, from types.NodeID, k types.Index, e types.Entry) {
	n.Step(time.Hour, types.Envelope{From: from, To: n.ID(), Layer: types.LayerLocal,
		Msg: vote(k, e, n.Term(), 0)})
}

// TestEventDrivenDecidesOnceSettled: an event-driven leader decides an
// index when a vote settles it (here, the fourth of five votes is a fast
// quorum), commits it on the fast track and sends it to the followers, all
// without a tick. Three votes, a bare classic quorum, do not settle it: a
// fourth vote could still come.
func TestEventDrivenDecidesOnceSettled(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
	n := newTestNode(t, "n1", peers...)
	electLeader(t, n, "n2", "n3")
	ackLeaderLog(t, n, "n2", "n3", "n4", "n5")
	e := proposal("n5", 1)
	k := n.LastLeaderIndex() + 1
	n.Step(time.Hour, types.Envelope{From: "n5", To: "n1", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: k, Entry: e}})
	stepVote(n, "n2", k, e)
	stepVote(n, "n3", k, e)
	if n.LastLeaderIndex() >= k {
		t.Fatal("decided on a classic quorum before the tick")
	}
	n.TakeOutbox()
	stepVote(n, "n4", k, e)
	if n.CommitIndex() < k {
		t.Fatalf("fast quorum settled index %d but commit = %d", k, n.CommitIndex())
	}
	out := n.TakeOutbox()
	for _, f := range peers[1:] {
		aes := appendsTo(out, f)
		if len(aes) != 1 || len(aes[0].Entries) != 1 || !aes[0].Entries[0].SameProposal(e) ||
			aes[0].LeaderCommit < k {
			t.Fatalf("append to %s after the deciding vote = %+v", f, aes)
		}
	}
}

// TestEventDrivenSplitVoteResequencesLoser: in a 3-node group, two
// proposals race for one slot. Once every member voted the slot is
// settled: the leader decides the winner and sequences the loser right
// behind it on the classic track, without a tick.
func TestEventDrivenSplitVoteResequencesLoser(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	ackLeaderLog(t, n, "n2", "n3")
	e, f := proposal("n2", 1), proposal("n3", 1)
	k := n.LastLeaderIndex() + 1
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: k, Entry: e}})
	stepVote(n, "n2", k, e)
	stepVote(n, "n3", k, f)
	won, ok := n.Entry(k)
	if !ok || won.Approval != types.ApprovedLeader || !won.SameProposal(e) {
		t.Fatalf("slot %d = %+v, want e decided", k, won)
	}
	lost, ok := n.Entry(k + 1)
	if !ok || lost.Approval != types.ApprovedLeader || !lost.SameProposal(f) {
		t.Fatalf("slot %d = %+v, want f sequenced behind e", k+1, lost)
	}
	if aes := appendsTo(n.TakeOutbox(), "n3"); len(aes) != 1 || len(aes[0].Entries) != 2 {
		t.Fatalf("append to n3 = %+v, want both entries", aes)
	}
}

// TestEventDrivenBurnedSlotSequencedOnArrival: a proposal that reaches
// the leader for a slot it already decided for another entry is sequenced
// on the classic track at once, instead of waiting for its proposer's
// timeout. A paced leader leaves it to the timeout, as the paper does.
func TestEventDrivenBurnedSlotSequencedOnArrival(t *testing.T) {
	for _, paced := range []bool{false, true} {
		cfg := testConfig("n1", "n1", "n2", "n3")
		cfg.Paced = paced
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		electLeader(t, n, "n2", "n3")
		ackLeaderLog(t, n, "n2", "n3")
		burned := n.LastLeaderIndex() // holds the election no-op
		g := proposal("n3", 7)
		n.Step(time.Hour, types.Envelope{From: "n3", To: "n1", Layer: types.LayerLocal,
			Msg: types.ProposeEntry{Index: burned, Entry: g}})
		got, ok := n.Entry(burned + 1)
		if paced {
			if ok {
				t.Fatalf("paced leader sequenced the burned-slot proposal: %+v", got)
			}
			continue
		}
		if !ok || got.Approval != types.ApprovedLeader || !got.SameProposal(g) {
			t.Fatalf("slot %d = %+v (ok=%v), want g sequenced", burned+1, got, ok)
		}
		// A retry of the same proposal is a duplicate, not a second copy.
		n.Step(time.Hour, types.Envelope{From: "n3", To: "n1", Layer: types.LayerLocal,
			Msg: types.ProposeEntry{Index: burned, Entry: g}})
		if n.LastLeaderIndex() != burned+1 {
			t.Fatalf("retry appended again: last leader index %d", n.LastLeaderIndex())
		}
	}
}

// TestFollowerCommitBoundedByVerifiedPrefix: a follower commits only up
// to the last index the AppendEntries vouched for (Raft Fig. 2), never
// into a suffix the leader's consistency check did not cover.
func TestFollowerCommitBoundedByVerifiedPrefix(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
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

// TestFreeSlotScanDoesNotAllocate pins the proposer's free-slot scan: it
// steps over the slots its own earlier, undecided proposals occupy without
// copying them, so a proposal's allocations do not grow with the number of
// occupied slots (or their payload size).
func TestFreeSlotScanDoesNotAllocate(t *testing.T) {
	allocs := func(occupied int) float64 {
		n := newTestNode(t, "n1", "n1", "n2", "n3")
		payload := make([]byte, 1024)
		for i := 0; i < occupied; i++ {
			n.Propose(time.Second, payload)
		}
		n.TakeOutbox()
		return testing.AllocsPerRun(20, func() {
			n.Propose(time.Second, payload)
			n.TakeOutbox()
		})
	}
	few, many := allocs(8), allocs(256)
	if many > few {
		t.Fatalf("a proposal past 256 occupied slots allocates %.0f times, past 8 %.0f", many, few)
	}
}
