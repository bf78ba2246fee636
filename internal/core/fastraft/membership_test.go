package fastraft

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// drainFor collects all envelopes of a given message type from an outbox.
func envelopesOf[T types.Message](out []types.Envelope) []types.Envelope {
	var hits []types.Envelope
	for _, env := range out {
		if _, ok := env.Msg.(T); ok {
			hits = append(hits, env)
		}
	}
	return hits
}

func TestJoinRequestRedirectedToLeader(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1"}})
	n.TakeOutbox()
	n.Step(time.Second, types.Envelope{From: "n9", To: "n2", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "n9"}})
	out := envelopesOf[types.JoinRedirect](n.TakeOutbox())
	if len(out) != 1 || out[0].To != "n9" {
		t.Fatalf("redirect = %v", out)
	}
	if out[0].Msg.(types.JoinRedirect).Leader != "n1" {
		t.Fatalf("redirect leader = %v", out[0].Msg)
	}
}

// TestJoinFullFlow drives the leader through the paper's join protocol:
// catch-up as a non-voting member, configuration entry once caught up,
// JoinAccepted once the configuration commits.
//
// The node is paced: the test steps the leader through the paper's
// tick-by-tick protocol. An event-driven leader starts the catch-up as
// soon as the request arrives.
func TestJoinFullFlow(t *testing.T) {
	cfg := testConfig("n1", "n1", "n2", "n3")
	cfg.Paced = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	electLeader(t, n, "n2", "n3")
	ackLeaderLog(t, n, "n2", "n3")

	n.Step(time.Hour, types.Envelope{From: "n9", To: "n1", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "n9"}})
	// Next tick: AppendEntries must now include the joiner (catch-up), and
	// a duplicate request is ignored meanwhile.
	n.Step(time.Hour, types.Envelope{From: "n9", To: "n1", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "n9"}})
	n.Tick(n.NextDeadline())
	aes := envelopesOf[types.AppendEntries](n.TakeOutbox())
	toJoiner := 0
	for _, env := range aes {
		if env.To == "n9" {
			toJoiner++
		}
	}
	if toJoiner != 1 {
		t.Fatalf("catch-up AppendEntries to joiner = %d, want 1", toJoiner)
	}
	// The joiner must not be a voting member yet.
	if n.Config().Contains("n9") {
		t.Fatal("joiner voting before catch-up")
	}
	// The joiner acks everything: next tick the leader proposes the
	// configuration including it.
	n.Step(time.Hour, types.Envelope{From: "n9", To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n.Term(), Success: true,
			MatchIndex: n.LastLeaderIndex()}})
	n.Tick(n.NextDeadline())
	if !n.Config().Contains("n9") {
		t.Fatal("configuration entry with joiner not appended")
	}
	cfgIdx := n.LastLeaderIndex()
	// Old members ack the config entry; on commit the joiner is notified.
	for _, f := range []types.NodeID{"n2", "n3"} {
		n.Step(time.Hour, types.Envelope{From: f, To: "n1", Layer: types.LayerLocal,
			Msg: types.AppendEntriesResp{Term: n.Term(), Success: true, MatchIndex: cfgIdx}})
	}
	n.Tick(n.NextDeadline())
	if n.CommitIndex() < cfgIdx {
		t.Fatalf("config entry uncommitted (commit=%d idx=%d)", n.CommitIndex(), cfgIdx)
	}
	accepted := envelopesOf[types.JoinAccepted](n.TakeOutbox())
	if len(accepted) != 1 || accepted[0].To != "n9" {
		t.Fatalf("JoinAccepted = %v", accepted)
	}
}

func TestLeaveRequestShrinksConfiguration(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	ackLeaderLog(t, n, "n2", "n3")
	n.Step(time.Hour, types.Envelope{From: "n3", To: "n1", Layer: types.LayerLocal,
		Msg: types.LeaveRequest{Site: "n3"}})
	n.Tick(n.NextDeadline())
	if n.Config().Contains("n3") {
		t.Fatal("configuration still contains the leaver")
	}
	// Quorum of the new 2-member config = 2: n2's ack commits it.
	idx := n.LastLeaderIndex()
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n.Term(), Success: true, MatchIndex: idx}})
	n.Tick(n.NextDeadline())
	if n.CommitIndex() < idx {
		t.Fatalf("leave config uncommitted (commit=%d idx=%d)", n.CommitIndex(), idx)
	}
}

// TestSilentLeaveDetection verifies the member-timeout mechanism: after
// MemberTimeoutRounds heartbeat rounds without a response, the leader
// proposes a configuration excluding the silent follower.
func TestSilentLeaveDetection(t *testing.T) {
	cfg := testConfig("n1", "n1", "n2", "n3")
	cfg.MemberTimeoutRounds = 3
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	electLeader(t, n, "n2", "n3")
	ackLeaderLog(t, n, "n2", "n3")
	// n2 keeps responding, n3 goes silent.
	for round := 0; round < 5; round++ {
		n.Tick(n.NextDeadline())
		n.TakeOutbox()
		n.Step(n.NextDeadline(), types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
			Msg: types.AppendEntriesResp{Term: n.Term(), Success: true,
				MatchIndex: n.LastLeaderIndex()}})
	}
	if n.Config().Contains("n3") {
		t.Fatal("silent leaver still in the configuration")
	}
	if !n.Config().Contains("n2") {
		t.Fatal("responsive member wrongly removed")
	}
}

func TestSilentLeaveRequiresConsecutiveMisses(t *testing.T) {
	cfg := testConfig("n1", "n1", "n2", "n3")
	cfg.MemberTimeoutRounds = 3
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	electLeader(t, n, "n2", "n3")
	ackLeaderLog(t, n, "n2", "n3")
	// n3 misses two rounds, responds, misses two more: never removed.
	for phase := 0; phase < 3; phase++ {
		for round := 0; round < 2; round++ {
			n.Tick(n.NextDeadline())
			n.TakeOutbox()
			n.Step(n.NextDeadline(), types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
				Msg: types.AppendEntriesResp{Term: n.Term(), Success: true,
					MatchIndex: n.LastLeaderIndex()}})
		}
		n.Step(n.NextDeadline(), types.Envelope{From: "n3", To: "n1", Layer: types.LayerLocal,
			Msg: types.AppendEntriesResp{Term: n.Term(), Success: true,
				MatchIndex: n.LastLeaderIndex()}})
	}
	if !n.Config().Contains("n3") {
		t.Fatal("intermittently responsive member removed")
	}
}

// TestConfigChangesSerialize checks the paper's one-at-a-time rule: with
// two pending joins, the second configuration entry only appears after the
// first commits.
func TestConfigChangesSerialize(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	ackLeaderLog(t, n, "n2", "n3")
	for _, j := range []types.NodeID{"n8", "n9"} {
		n.Step(time.Hour, types.Envelope{From: j, To: "n1", Layer: types.LayerLocal,
			Msg: types.JoinRequest{Site: j}})
		n.Step(time.Hour, types.Envelope{From: j, To: "n1", Layer: types.LayerLocal,
			Msg: types.AppendEntriesResp{Term: n.Term(), Success: true,
				MatchIndex: n.LastLeaderIndex()}})
	}
	n.Tick(n.NextDeadline())
	cfg := n.Config()
	joined := 0
	if cfg.Contains("n8") {
		joined++
	}
	if cfg.Contains("n9") {
		joined++
	}
	if joined != 1 {
		t.Fatalf("%d joiners admitted in one step, want exactly 1 (config %v)", joined, cfg)
	}
	// Commit the first change; the second follows at a later tick.
	idx := n.LastLeaderIndex()
	for _, f := range []types.NodeID{"n2", "n3"} {
		n.Step(time.Hour, types.Envelope{From: f, To: "n1", Layer: types.LayerLocal,
			Msg: types.AppendEntriesResp{Term: n.Term(), Success: true, MatchIndex: idx}})
	}
	n.Tick(n.NextDeadline())
	// The second joiner needs a fresh caught-up matchIndex after the first
	// config committed.
	second := "n9"
	if n.Config().Contains("n9") {
		second = "n8"
	}
	n.Step(time.Hour, types.Envelope{From: types.NodeID(second), To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n.Term(), Success: true,
			MatchIndex: n.LastLeaderIndex()}})
	n.Tick(n.NextDeadline())
	if !n.Config().Contains(types.NodeID(second)) {
		t.Fatalf("second joiner never admitted (config %v)", n.Config())
	}
}

// TestJoinerAcceptsCatchUpFromScratch verifies the joiner side: an empty
// node outside any configuration accepts the leader's AppendEntries and
// becomes a member once it sees the configuration entry containing it.
func TestJoinerAcceptsCatchUpFromScratch(t *testing.T) {
	joiner, err := New(Config{
		ID:        "n9",
		Bootstrap: types.NewConfig(), // no membership yet
		Storage:   storage.NewMemory(),
		Rand:      rand.New(rand.NewSource(9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	joiner.Join(time.Second, []types.NodeID{"n1", "n2"})
	out := envelopesOf[types.JoinRequest](joiner.TakeOutbox())
	if len(out) != 2 {
		t.Fatalf("join requests = %v", out)
	}
	newCfg := types.NewConfig("n1", "n2", "n3", "n9")
	entries := []types.Entry{
		{Index: 1, Term: 1, Kind: types.KindNoop, Approval: types.ApprovedLeader},
		{Index: 2, Term: 1, Kind: types.KindConfig, Approval: types.ApprovedLeader,
			Config: &newCfg},
	}
	joiner.Step(2*time.Second, types.Envelope{From: "n1", To: "n9", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: entries, LeaderCommit: 2}})
	if !joiner.IsMember() {
		t.Fatalf("joiner not a member after config entry (config %v)", joiner.Config())
	}
	if joiner.CommitIndex() != 2 {
		t.Fatalf("joiner commit = %d", joiner.CommitIndex())
	}
	joiner.Step(3*time.Second, types.Envelope{From: "n1", To: "n9", Layer: types.LayerLocal,
		Msg: types.JoinAccepted{ConfigIndex: 2}})
	// Join retries must stop.
	if d := joiner.NextDeadline(); d != 0 {
		joiner.Tick(d)
		if len(envelopesOf[types.JoinRequest](joiner.TakeOutbox())) != 0 {
			t.Fatal("joiner still re-sending join requests after acceptance")
		}
	}
}

// TestAutoRejoinAfterFalseRemoval: a live member that discovers it was
// removed (silent-leave misdetection) must send a join request to return.
func TestAutoRejoinAfterFalseRemoval(t *testing.T) {
	n := newTestNode(t, "n3", "n1", "n2", "n3")
	// Config excluding n3 arrives from the leader.
	without := types.NewConfig("n1", "n2")
	n.Step(time.Second, types.Envelope{From: "n1", To: "n3", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 1, Kind: types.KindConfig, Approval: types.ApprovedLeader,
				Config: &without},
		}, LeaderCommit: 1}})
	n.TakeOutbox()
	if n.IsMember() {
		t.Fatal("still a member")
	}
	// The next tick triggers the auto-rejoin.
	n.Tick(n.NextDeadline())
	joins := envelopesOf[types.JoinRequest](n.TakeOutbox())
	if len(joins) == 0 {
		t.Fatal("no auto-rejoin request sent")
	}
}

// TestRemovedNodeDoesNotCampaign: once removed from the configuration, a
// node must not start elections (the paper ignores non-member messages, so
// a removed campaigner could otherwise disrupt the group).
func TestRemovedNodeDoesNotCampaign(t *testing.T) {
	n := newTestNode(t, "n3", "n1", "n2", "n3")
	without := types.NewConfig("n1", "n2")
	n.Step(time.Second, types.Envelope{From: "n1", To: "n3", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 1, Kind: types.KindConfig, Approval: types.ApprovedLeader,
				Config: &without},
		}, LeaderCommit: 1}})
	n.TakeOutbox()
	term := n.Term()
	n.Tick(time.Hour) // election timeout expires
	if n.Role() != types.RoleFollower {
		t.Fatalf("removed node campaigned: role=%v", n.Role())
	}
	if n.Term() != term {
		t.Fatalf("removed node bumped its term: %d -> %d", term, n.Term())
	}
}
