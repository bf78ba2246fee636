package replica

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

func newTestTracker(maxChunk int) *Tracker {
	return NewTracker(Config{
		MaxInflight:   2,
		MaxChunk:      maxChunk,
		ResendTimeout: time.Second,
	}, nil)
}

func TestProgressProbeToReplicate(t *testing.T) {
	tr := newTestTracker(0)
	tr.Reset([]types.NodeID{"a", "b"}, 5)
	p := tr.Get("a")
	if p.State() != StateProbe || p.Next() != 5 {
		t.Fatalf("fresh progress = %v, want probe next=5", p)
	}
	// Probe sends do not advance Next.
	p.SentAppend(4, 3, 3*10, 0)
	if p.Next() != 5 {
		t.Fatalf("probe send advanced Next to %d", p.Next())
	}
	if !p.AckAppend(7, 0) {
		t.Fatal("ack did not advance match")
	}
	if p.State() != StateReplicate || p.Match() != 7 || p.Next() != 8 {
		t.Fatalf("after ack: %v, want replicate match=7 next=8", p)
	}
}

func TestProgressReplicateWindow(t *testing.T) {
	tr := newTestTracker(0)
	tr.Reset([]types.NodeID{"a"}, 1)
	p := tr.Get("a")
	p.AckAppend(0, 0) // flip to replicate without moving match
	if p.State() != StateReplicate {
		t.Fatalf("state = %v", p.State())
	}
	if !p.CanAppend() {
		t.Fatal("empty window should allow appends")
	}
	p.SentAppend(0, 3, 3*10, 0) // entries 1..3
	if p.Next() != 4 {
		t.Fatalf("optimistic Next = %d, want 4", p.Next())
	}
	p.SentAppend(3, 2, 2*10, 0) // entries 4..5
	if p.CanAppend() {
		t.Fatal("window of 2 should be full after two sends")
	}
	p.AckAppend(3, 0)
	if !p.CanAppend() {
		t.Fatal("ack should free the window")
	}
	if p.Next() != 6 {
		t.Fatalf("Next regressed to %d", p.Next())
	}
}

// TestRecoverStallRetransmitsLostWindow pins the lost-window escape
// hatch: when a full inflight window goes a resend timeout without ack
// progress (appends or acks dropped), the peer falls back to probing from
// Match+1 so the entries are retransmitted — replication must never stall
// permanently behind a full window.
func TestRecoverStallRetransmitsLostWindow(t *testing.T) {
	tr := newTestTracker(0) // window 2, resend timeout 1s
	tr.Reset([]types.NodeID{"a"}, 1)
	p := tr.Get("a")
	p.AckAppend(4, 0) // replicate, match=4
	p.SentAppend(4, 3, 3*10, 0)
	p.SentAppend(7, 3, 3*10, 0) // window full, entries 5..10 in flight (and lost)
	if p.CanAppend() {
		t.Fatal("window should be full")
	}
	// First blocked round arms the timer; before the timeout nothing fires.
	if tr.RecoverStall("a", time.Millisecond) {
		t.Fatal("stall recovery fired on the arming round")
	}
	if tr.RecoverStall("a", 500*time.Millisecond) {
		t.Fatal("stall recovery fired before the timeout")
	}
	// Past the timeout: fall back to probing from Match+1.
	if !tr.RecoverStall("a", time.Millisecond+time.Second) {
		t.Fatal("stall recovery did not fire after the timeout")
	}
	if p.State() != StateProbe || p.Next() != 5 || !p.CanAppend() {
		t.Fatalf("after recovery: %v, want probe next=5 sendable", p)
	}
	if tr.Counters().Get(CounterStallsRecovered) != 1 {
		t.Fatal("stall recovery not counted")
	}
	// Ack progress disarms a pending stall timer.
	p.AckAppend(5, 0)
	p.SentAppend(5, 3, 3*10, 0)
	p.SentAppend(8, 3, 3*10, 0)
	tr.RecoverStall("a", 2*time.Second) // arms
	p.AckAppend(8, 0)                   // progress frees the window
	if tr.RecoverStall("a", 4*time.Second) && p.State() == StateProbe {
		t.Fatal("stall recovery fired despite ack progress")
	}
}

// TestAckSnapshotRegressionResumesFromFollower pins the receiver-reset
// case: a follower that restarted (or discarded a corrupt stream)
// mid-transfer acks an offset below the leader's cursor; the leader must
// resume from the follower's actual position instead of wedging on a
// monotonic ack.
func TestAckSnapshotRegressionResumesFromFollower(t *testing.T) {
	tr := newTestTracker(10)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.PlanSnapshot("a", 50, 40, 0) // chunks at 0, 10 in flight
	tr.AckSnapshot("a", 50, 20, 0, time.Millisecond)
	tr.PlanSnapshot("a", 50, 40, time.Millisecond) // chunks at 20, 30
	// The follower restarts: its buffer is empty, it acks offset 0.
	tr.AckSnapshot("a", 50, 0, 0, 2*time.Millisecond)
	plan := tr.PlanSnapshot("a", 50, 40, 2*time.Millisecond)
	if len(plan) == 0 || plan[0].Offset != 0 {
		t.Fatalf("post-regression plan = %+v, want resend from offset 0", plan)
	}
}

func TestProgressRejectBacksOffToProbe(t *testing.T) {
	tr := newTestTracker(0)
	tr.Reset([]types.NodeID{"a"}, 10)
	p := tr.Get("a")
	p.AckAppend(9, 0)
	p.SentAppend(9, 4, 4*10, 0) // next=14
	p.RejectAppend(2)           // follower's log ends at 2
	if p.State() != StateProbe {
		t.Fatalf("state = %v, want probe", p.State())
	}
	if p.Next() != 3 {
		t.Fatalf("Next = %d, want hint+1 = 3", p.Next())
	}
	if !p.CanAppend() {
		t.Fatal("probe after reject must be able to send")
	}
}

func TestResetNextIgnoredDuringSnapshot(t *testing.T) {
	tr := newTestTracker(0)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.PlanSnapshot("a", 50, 100, 0)
	p := tr.Get("a")
	if p.State() != StateSnapshot {
		t.Fatalf("state = %v", p.State())
	}
	p.ResetNext(3) // vote rule must not restart the transfer
	if p.State() != StateSnapshot || p.PendingSnapshot() != 50 {
		t.Fatalf("vote reset disturbed the snapshot transfer: %v", p)
	}
}

func TestUnchunkedSnapshotSuppressionAndResend(t *testing.T) {
	tr := newTestTracker(0)
	tr.Reset([]types.NodeID{"a"}, 1)
	first := tr.PlanSnapshot("a", 50, 1000, 0)
	if len(first) != 1 || !first[0].Full || !first[0].Done {
		t.Fatalf("first plan = %+v, want one full send", first)
	}
	// Subsequent rounds before the timeout are suppressed.
	for now := 100 * time.Millisecond; now < time.Second; now += 100 * time.Millisecond {
		if got := tr.PlanSnapshot("a", 50, 1000, now); len(got) != 0 {
			t.Fatalf("suppressed round at %v produced %+v", now, got)
		}
	}
	if got := tr.Counters().Get(CounterPendingRounds); got == 0 {
		t.Fatal("pending rounds not counted")
	}
	// Past the timeout the full snapshot goes out again.
	again := tr.PlanSnapshot("a", 50, 1000, time.Second)
	if len(again) != 1 || !again[0].Full {
		t.Fatalf("post-timeout plan = %+v, want full resend", again)
	}
	if tr.Counters().Get(CounterFullResent) != 1 {
		t.Fatal("full resend not counted")
	}
	// Completion via reply.
	if !tr.AckSnapshot("a", 50, 0, 50, time.Second) {
		t.Fatal("install reply did not complete the transfer")
	}
	p := tr.Get("a")
	if p.State() != StateProbe || p.Match() != 50 || p.Next() != 51 {
		t.Fatalf("after completion: %v", p)
	}
}

func TestChunkedSnapshotWindowAndAcks(t *testing.T) {
	tr := newTestTracker(10) // chunk=10, window=2 chunks
	tr.Reset([]types.NodeID{"a"}, 1)
	plan := tr.PlanSnapshot("a", 50, 35, 0)
	if len(plan) != 2 {
		t.Fatalf("initial plan = %+v, want 2 chunks", plan)
	}
	if plan[0].Offset != 0 || plan[0].Len != 10 || plan[1].Offset != 10 || plan[1].Len != 10 {
		t.Fatalf("chunk layout wrong: %+v", plan)
	}
	// Window full: nothing more until an ack.
	if more := tr.PlanSnapshot("a", 50, 35, time.Millisecond); len(more) != 0 {
		t.Fatalf("window-full plan produced %+v", more)
	}
	// Peer acks the first chunk; one more chunk fits the window.
	tr.AckSnapshot("a", 50, 10, 0, 2*time.Millisecond)
	more := tr.PlanSnapshot("a", 50, 35, 2*time.Millisecond)
	if len(more) != 1 || more[0].Offset != 20 || more[0].Len != 10 {
		t.Fatalf("post-ack plan = %+v", more)
	}
	// Ack everything; the final short chunk carries Done.
	tr.AckSnapshot("a", 50, 20, 0, 3*time.Millisecond)
	tr.AckSnapshot("a", 50, 30, 0, 3*time.Millisecond)
	tail := tr.PlanSnapshot("a", 50, 35, 3*time.Millisecond)
	if len(tail) != 1 || tail[0].Offset != 30 || tail[0].Len != 5 || !tail[0].Done {
		t.Fatalf("tail plan = %+v", tail)
	}
	if !tr.AckSnapshot("a", 50, 35, 50, 4*time.Millisecond) {
		t.Fatal("install not completed")
	}
}

func TestChunkedSnapshotTimeoutRewindsToAck(t *testing.T) {
	tr := newTestTracker(10)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.PlanSnapshot("a", 50, 40, 0) // sends chunks at 0 and 10
	tr.AckSnapshot("a", 50, 10, 0, time.Millisecond)
	tr.PlanSnapshot("a", 50, 40, time.Millisecond) // sends chunk at 20
	// No further acks: after the resend timeout, transmission rewinds to
	// the acked offset (10), not to zero.
	plan := tr.PlanSnapshot("a", 50, 40, time.Millisecond+time.Second)
	if len(plan) == 0 || plan[0].Offset != 10 {
		t.Fatalf("post-timeout plan = %+v, want resend from offset 10", plan)
	}
	if tr.Counters().Get(CounterChunksResent) == 0 {
		t.Fatal("chunk resend not counted")
	}
}

func TestSnapshotBoundaryMoveRestartsStream(t *testing.T) {
	tr := newTestTracker(10)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.PlanSnapshot("a", 50, 40, 0)
	tr.AckSnapshot("a", 50, 10, 0, time.Millisecond)
	// Leader compacted again: new boundary restarts from offset 0.
	plan := tr.PlanSnapshot("a", 80, 60, 2*time.Millisecond)
	if len(plan) == 0 || plan[0].Offset != 0 || plan[0].Boundary != 80 {
		t.Fatalf("restarted plan = %+v", plan)
	}
}

func TestTrackerQuorums(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c", "d", "e")
	tr := newTestTracker(0)
	tr.Reset(cfg.Members, 1)
	tr.RecordSelf("a", 10)
	tr.Get("b").AckAppend(10, 0)
	tr.Get("c").AckAppend(9, 0)
	if !tr.MatchQuorum(cfg, 9, 3) {
		t.Fatal("match quorum at 9 should hold (a,b,c)")
	}
	if tr.MatchQuorum(cfg, 10, 3) {
		t.Fatal("match quorum at 10 should not hold (only a,b)")
	}
}

func TestTrackerFastMatchQuorum(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c")
	tr := newTestTracker(0)
	tr.Reset(cfg.Members, 1)
	tr.RecordSelf("a", 4)
	tr.Get("b").RecordFastMatch(4)
	tr.Get("c").RecordFastMatch(3)
	if !tr.FastMatchQuorum(cfg, 4, 2) {
		t.Fatal("fast quorum of 2 at index 4 should hold")
	}
	if tr.FastMatchQuorum(cfg, 4, 3) {
		t.Fatal("fast quorum of 3 at index 4 should not hold")
	}
}

func TestReassemblerInOrderAndDuplicates(t *testing.T) {
	snap := types.Snapshot{
		Meta: types.SnapshotMeta{LastIndex: 7, LastTerm: 2, Config: types.NewConfig("a", "b")},
		Data: []byte("hello world state"),
	}
	enc := types.EncodeSnapshot(snap)
	var r Reassembler
	mid := len(enc) / 2
	if _, done, ack := r.Offer(7, 0, 0, enc[:mid], false); done || ack != uint64(mid) {
		t.Fatalf("first chunk: done=%v ack=%d", done, ack)
	}
	// Duplicate of the first chunk: ignored, ack unchanged.
	if _, done, ack := r.Offer(7, 0, 0, enc[:mid], false); done || ack != uint64(mid) {
		t.Fatalf("duplicate chunk: done=%v ack=%d", done, ack)
	}
	got, done, _ := r.Offer(7, 0, uint64(mid), enc[mid:], true)
	if !done {
		t.Fatal("stream did not complete")
	}
	if got.Meta.LastIndex != 7 || string(got.Data) != string(snap.Data) {
		t.Fatalf("reassembled snapshot mismatch: %v", got)
	}
}

func TestReassemblerGapDropsAndAcksPrefix(t *testing.T) {
	snap := types.Snapshot{Meta: types.SnapshotMeta{LastIndex: 3, LastTerm: 1}, Data: []byte("0123456789")}
	enc := types.EncodeSnapshot(snap)
	var r Reassembler
	third := len(enc) / 3
	r.Offer(3, 0, 0, enc[:third], false)
	// Chunk 3 arrives before chunk 2 (reorder): dropped, ack stays at the
	// contiguous prefix.
	_, done, ack := r.Offer(3, 0, uint64(2*third), enc[2*third:], true)
	if done || ack != uint64(third) {
		t.Fatalf("gap offer: done=%v ack=%d want ack=%d", done, ack, third)
	}
	// The leader resends from the ack point; stream completes.
	r.Offer(3, 0, uint64(third), enc[third:2*third], false)
	got, done, _ := r.Offer(3, 0, uint64(2*third), enc[2*third:], true)
	if !done || string(got.Data) != "0123456789" {
		t.Fatalf("completion after resend failed: done=%v got=%v", done, got)
	}
}

func TestReassemblerRestartsOnNewStream(t *testing.T) {
	snap := types.Snapshot{Meta: types.SnapshotMeta{LastIndex: 9, LastTerm: 1}, Data: []byte("abcdef")}
	enc := types.EncodeSnapshot(snap)
	var r Reassembler
	r.Offer(5, 0, 0, []byte("stale partial"), false)
	// A new (boundary, checksum) stream resets the buffer.
	got, done, _ := r.Offer(9, 0, 0, enc, true)
	if !done || got.Meta.LastIndex != 9 {
		t.Fatalf("new stream did not restart cleanly: done=%v got=%v", done, got)
	}
}

func TestReassemblerCorruptStreamResets(t *testing.T) {
	var r Reassembler
	_, done, ack := r.Offer(4, 0, 0, []byte{0xff, 0xff, 0xff}, true)
	if done {
		t.Fatal("corrupt stream reported complete")
	}
	if ack != 0 {
		t.Fatalf("corrupt stream acked %d, want 0 (restart)", ack)
	}
}

// --- Unified dispatch, byte budget, adaptive RTO, continuation --------------

// testLogView builds a LogView over a dense entry slice starting at index 1
// with snapIdx as the compaction boundary.
func testLogView(entries []types.Entry, snapIdx types.Index) LogView {
	return LogView{
		LastIndex: func() types.Index { return types.Index(len(entries)) },
		Term: func(i types.Index) types.Term {
			if i == 0 || int(i) > len(entries) {
				return 0
			}
			return entries[i-1].Term
		},
		Entries: func(lo, hi types.Index) []types.Entry {
			if lo < 1 {
				lo = 1
			}
			if int(hi) > len(entries) {
				hi = types.Index(len(entries))
			}
			if lo > hi {
				return nil
			}
			return entries[lo-1 : hi]
		},
		SnapshotIndex: func() types.Index { return snapIdx },
	}
}

func denseEntries(n int, payload int) []types.Entry {
	out := make([]types.Entry, n)
	for i := range out {
		out[i] = types.Entry{
			Index: types.Index(i + 1), Term: 1, Kind: types.KindNormal,
			Data: make([]byte, payload),
		}
	}
	return out
}

// TestAppendMessagesByteBudget pins the byte window: a catch-up batch is
// trimmed to the budget, the window refuses further appends until acks
// free bytes, and BytesInFlight never exceeds the budget (only an entry
// larger than the whole budget may, sent alone into an empty window).
func TestAppendMessagesByteBudget(t *testing.T) {
	entries := denseEntries(10, 100) // ~110 encoded bytes each
	lv := testLogView(entries, 0)
	perEntry := types.EntryWireSize(entries[0])
	budget := 3 * perEntry // room for exactly 3 entries
	tr := NewTracker(Config{MaxInflight: 100, MaxInflightBytes: budget, ResendTimeout: time.Second}, nil)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.Get("a").AckAppend(0, 0) // replicate state

	rc := Round{Term: 1, Leader: "l", Commit: 0, Seq: 1, NextHint: 1, Now: 0}
	msgs, snap := tr.AppendMessages("a", lv, rc)
	if snap || len(msgs) != 1 {
		t.Fatalf("plan = %v msgs, snapshot=%v", len(msgs), snap)
	}
	if got := len(msgs[0].Entries); got != 3 {
		t.Fatalf("budgeted batch carried %d entries, want 3", got)
	}
	if bif := tr.Get("a").BytesInFlight(); bif > budget {
		t.Fatalf("BytesInFlight %d exceeds budget %d", bif, budget)
	}
	if tr.Counters().Get(CounterBytesThrottled) == 0 {
		t.Fatal("byte throttling not counted")
	}
	// Window full: next round downgrades to a heartbeat.
	msgs, snap = tr.AppendMessages("a", lv, Round{Term: 1, Leader: "l", Seq: 2, NextHint: 1, Now: 0})
	if snap || len(msgs) != 1 || len(msgs[0].Entries) != 0 {
		t.Fatalf("full window round = %+v, want bare heartbeat", msgs)
	}
	// Acks free the window; the next batch ships.
	tr.Get("a").AckAppend(3, time.Millisecond)
	if bif := tr.Get("a").BytesInFlight(); bif != 0 {
		t.Fatalf("BytesInFlight after full ack = %d", bif)
	}
	msgs, _ = tr.AppendMessages("a", lv, Round{Term: 1, Leader: "l", Seq: 3, NextHint: 1, Now: time.Millisecond})
	if len(msgs) != 1 || len(msgs[0].Entries) != 3 || msgs[0].PrevLogIndex != 3 {
		t.Fatalf("post-ack batch = %+v", msgs)
	}
}

// TestAppendMessagesOversizedEntryProgresses: one entry larger than the
// entire budget must still ship (alone), or replication would wedge.
func TestAppendMessagesOversizedEntryProgresses(t *testing.T) {
	entries := denseEntries(3, 4096)
	lv := testLogView(entries, 0)
	tr := NewTracker(Config{MaxInflightBytes: 64, ResendTimeout: time.Second}, nil)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.Get("a").AckAppend(0, 0)
	msgs, _ := tr.AppendMessages("a", lv, Round{Term: 1, Leader: "l", Seq: 1, NextHint: 1})
	if len(msgs) != 1 || len(msgs[0].Entries) != 1 {
		t.Fatalf("oversized entry did not ship alone: %+v", msgs)
	}
}

// TestAppendMessagesSignalsSnapshot: a peer whose Next fell below the
// compaction boundary is reported as needing a snapshot, not appends.
func TestAppendMessagesSignalsSnapshot(t *testing.T) {
	entries := denseEntries(10, 10)
	lv := testLogView(entries, 5)
	tr := NewTracker(Config{ResendTimeout: time.Second}, nil)
	tr.Reset([]types.NodeID{"a"}, 3) // next=3 <= snapIdx=5
	if _, snap := tr.AppendMessages("a", lv, Round{Term: 1, Leader: "l", Seq: 1, NextHint: 3}); !snap {
		t.Fatal("peer below the boundary not flagged for snapshot")
	}
}

// TestHeartbeatMessageAnchorsAtMatch mirrors the cores' old sendHeartbeat.
func TestHeartbeatMessageAnchorsAtMatch(t *testing.T) {
	entries := denseEntries(10, 10)
	lv := testLogView(entries, 2)
	tr := NewTracker(Config{ResendTimeout: time.Second}, nil)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.Get("a").AckAppend(7, 0)
	hb := tr.HeartbeatMessage("a", lv, Round{Term: 1, Leader: "l", Seq: 4})
	if hb.PrevLogIndex != 7 || len(hb.Entries) != 0 || hb.Round != 4 {
		t.Fatalf("heartbeat = %+v, want anchored at match 7", hb)
	}
	// Untracked peer: anchored at the snapshot boundary.
	hb = tr.HeartbeatMessage("zz", lv, Round{Term: 1, Leader: "l", Seq: 4})
	if hb.PrevLogIndex != 2 {
		t.Fatalf("untracked heartbeat anchored at %d, want boundary 2", hb.PrevLogIndex)
	}
}

// TestAdaptiveResendTimeout pins the EWMA RTO: before samples the static
// timeout applies; after acks at a measured round trip the timeout tracks
// srtt+4*rttvar, clamped to the configured window.
func TestAdaptiveResendTimeout(t *testing.T) {
	cfg := Config{
		ResendTimeout:    400 * time.Millisecond,
		MinResendTimeout: 100 * time.Millisecond,
		MaxResendTimeout: 300 * time.Millisecond,
	}
	tr := NewTracker(cfg, nil)
	tr.Reset([]types.NodeID{"a"}, 1)
	p := tr.Get("a")
	if got := tr.ResendAfter("a"); got != 400*time.Millisecond {
		t.Fatalf("pre-sample RTO = %v, want static 400ms", got)
	}
	// Fast link: 2ms round trips. RTO = srtt+4var clamps up to the floor.
	p.AckAppend(0, 0)
	for i := 0; i < 8; i++ {
		now := time.Duration(i) * 10 * time.Millisecond
		p.SentAppend(types.Index(i), 1, 10, now)
		p.AckAppend(types.Index(i)+1, now+2*time.Millisecond)
	}
	if got := tr.ResendAfter("a"); got != cfg.MinResendTimeout {
		t.Fatalf("fast-link RTO = %v, want clamped to %v", got, cfg.MinResendTimeout)
	}
	if rtt := p.RTT(); rtt > 3*time.Millisecond || rtt == 0 {
		t.Fatalf("srtt = %v, want ~2ms", rtt)
	}
	// Slow link: a second peer observing 500ms round trips clamps to the
	// ceiling.
	tr.Reset([]types.NodeID{"b"}, 1)
	q := tr.Get("b")
	q.AckAppend(0, 0)
	for i := 0; i < 8; i++ {
		now := time.Duration(i) * time.Second
		q.SentAppend(types.Index(i), 1, 10, now)
		q.AckAppend(types.Index(i)+1, now+500*time.Millisecond)
	}
	if got := tr.ResendAfter("b"); got != cfg.MaxResendTimeout {
		t.Fatalf("slow-link RTO = %v, want clamped to %v", got, cfg.MaxResendTimeout)
	}
}

// TestSeedSnapshotContinuesStream pins leader-change continuation: a new
// leader seeded with the follower's acked offset plans chunks from there,
// never re-sending the prefix, and counts the resumption.
func TestSeedSnapshotContinuesStream(t *testing.T) {
	tr := NewTracker(Config{MaxInflight: 2, MaxChunk: 10, ResendTimeout: time.Second}, nil)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.SeedSnapshot("a", 50, 20, time.Millisecond)
	p := tr.Get("a")
	if p.State() != StateSnapshot || p.PendingSnapshot() != 50 {
		t.Fatalf("seeded progress = %v", p)
	}
	if acked, cursor := p.SnapshotCursor(); acked != 20 || cursor != 20 {
		t.Fatalf("seeded cursor = (%d, %d), want (20, 20)", acked, cursor)
	}
	plan := tr.PlanSnapshot("a", 50, 45, 2*time.Millisecond)
	if len(plan) == 0 {
		t.Fatal("no chunks planned after seeding")
	}
	for _, ch := range plan {
		if ch.Offset < 20 {
			t.Fatalf("continuation re-sent acked chunk at offset %d", ch.Offset)
		}
	}
	if tr.Counters().Get(CounterStreamsResumed) != 1 {
		t.Fatal("stream resumption not counted")
	}
	// Seeding again while streaming folds in as an ack, not a restart.
	tr.SeedSnapshot("a", 50, 30, 3*time.Millisecond)
	if tr.Counters().Get(CounterStreamsResumed) != 1 {
		t.Fatal("repeat seed double-counted")
	}
	if acked, _ := p.SnapshotCursor(); acked != 30 {
		t.Fatalf("repeat seed did not fold in ack: acked=%d", acked)
	}
	// Unchunked trackers ignore seeding (offset continuation is meaningless).
	tr2 := NewTracker(Config{ResendTimeout: time.Second}, nil)
	tr2.Reset([]types.NodeID{"a"}, 1)
	tr2.SeedSnapshot("a", 50, 20, 0)
	if tr2.Get("a").State() == StateSnapshot {
		t.Fatal("unchunked tracker accepted a seed")
	}
}

// TestReassemblerContinuesAcrossSenders pins the follower half of
// continuation: a new sender shipping the same (boundary, checksum) stream
// extends the existing buffer; a divergent checksum restarts it.
func TestReassemblerContinuesAcrossSenders(t *testing.T) {
	snap := types.Snapshot{
		Meta: types.SnapshotMeta{LastIndex: 7, LastTerm: 2, Config: types.NewConfig("a", "b")},
		Data: []byte("carried across a leader change"),
	}
	enc := types.EncodeSnapshot(snap)
	const check = 12345
	var r Reassembler
	mid := len(enc) / 2
	if _, _, ack := r.Offer(7, check, 0, enc[:mid], false); ack != uint64(mid) {
		t.Fatalf("first half acked %d", ack)
	}
	if b, off := r.Pending(); b != 7 || off != uint64(mid) {
		t.Fatalf("Pending = (%d, %d), want (7, %d)", b, off, mid)
	}
	// New leader, same content: the stream continues mid-offset.
	got, done, _ := r.Offer(7, check, uint64(mid), enc[mid:], true)
	if !done || got.Meta.LastIndex != 7 || string(got.Data) != string(snap.Data) {
		t.Fatalf("cross-sender continuation failed: done=%v got=%v", done, got)
	}
	if b, off := r.Pending(); b != 0 || off != 0 {
		t.Fatalf("Pending after completion = (%d, %d)", b, off)
	}
	// Divergent checksum: buffer restarts rather than mixing encodings.
	r.Offer(9, 111, 0, []byte("old-enc"), false)
	if _, _, ack := r.Offer(9, 222, 0, enc[:3], false); ack != 3 {
		t.Fatalf("divergent-check restart acked %d, want 3", ack)
	}
}

// TestSeedSnapshotBeyondEncodingRestarts pins the divergent-continuation
// guard: a follower's buffered offset at or beyond this leader's whole
// encoding can only belong to a different (longer) encoding of the same
// boundary — planning must restart from byte 0 instead of sending nothing
// forever.
func TestSeedSnapshotBeyondEncodingRestarts(t *testing.T) {
	tr := NewTracker(Config{MaxInflight: 2, MaxChunk: 10, ResendTimeout: time.Second}, nil)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.SeedSnapshot("a", 50, 100, time.Millisecond)          // follower buffered 100 bytes...
	plan := tr.PlanSnapshot("a", 50, 40, 2*time.Millisecond) // ...our encoding is 40
	if len(plan) == 0 || plan[0].Offset != 0 {
		t.Fatalf("divergent continuation plan = %+v, want restart from offset 0", plan)
	}
	// Offset exactly at our length is equally impossible to ack: restart.
	tr.Reset([]types.NodeID{"b"}, 1)
	tr.SeedSnapshot("b", 50, 40, time.Millisecond)
	plan = tr.PlanSnapshot("b", 50, 40, 2*time.Millisecond)
	if len(plan) == 0 || plan[0].Offset != 0 {
		t.Fatalf("at-length continuation plan = %+v, want restart from offset 0", plan)
	}
}

// collect is an Outlet that records every AppendEntries it is handed.
func collect(sent *[]types.AppendEntries) Outlet {
	return Outlet{
		Send: func(_ types.NodeID, m types.Message) {
			*sent = append(*sent, m.(types.AppendEntries))
		},
		Snapshot: func(types.NodeID) bool { return false },
	}
}

// TestPushSendsOnlyWhatTheEventMadeSendable pins the event-driven
// dispatch: new entries go out at once; a commit-only heartbeat goes out
// only when it lets the peer commit more than before, so answering it
// triggers nothing and the exchange cannot ping-pong; a read round
// reaches the peer regardless.
func TestPushSendsOnlyWhatTheEventMadeSendable(t *testing.T) {
	entries := denseEntries(3, 10)
	tr := NewTracker(Config{MaxInflight: 100}, nil)
	tr.Reset([]types.NodeID{"a"}, 1)
	tr.Get("a").AckAppend(0, 0) // replicate state
	targets := []types.NodeID{"a"}
	var sent []types.AppendEntries
	o := collect(&sent)

	tr.Push(targets, testLogView(entries[:2], 0), Round{Term: 1, Leader: "l", NextHint: 1}, o)
	if len(sent) != 1 || len(sent[0].Entries) != 2 {
		t.Fatalf("new entries push = %+v", sent)
	}
	// Nothing new, commit unchanged: nothing to send.
	sent = nil
	tr.Push(targets, testLogView(entries[:2], 0), Round{Term: 1, Leader: "l", NextHint: 1}, o)
	if len(sent) != 0 {
		t.Fatalf("idle push sent %+v", sent)
	}
	// Commit moved to 2 before the peer acked: a heartbeat anchored at its
	// match (0) could not let it commit anything, so none goes out.
	tr.Push(targets, testLogView(entries[:2], 0), Round{Term: 1, Leader: "l", Commit: 2, NextHint: 1}, o)
	if len(sent) != 0 {
		t.Fatalf("commit heartbeat before the ack = %+v", sent)
	}
	// The ack makes the commit deliverable: exactly one heartbeat, and
	// pushing again (its echo) sends nothing.
	tr.Get("a").AckAppend(2, time.Millisecond)
	for i := 0; i < 2; i++ {
		tr.Push(targets, testLogView(entries[:2], 0), Round{Term: 1, Leader: "l", Commit: 2, NextHint: 1}, o)
	}
	if len(sent) != 1 || len(sent[0].Entries) != 0 || sent[0].LeaderCommit != 2 || sent[0].PrevLogIndex != 2 {
		t.Fatalf("commit heartbeats after the ack = %+v", sent)
	}
	// A read round reaches the peer even with nothing else to say.
	sent = nil
	tr.Push(targets, testLogView(entries[:2], 0), Round{Term: 1, Leader: "l", Commit: 2, NextHint: 1, ReadCtx: 7}, o)
	if len(sent) != 1 || sent[0].ReadCtx != 7 {
		t.Fatalf("read round push = %+v", sent)
	}
}

// TestPushProbesOncePerResponse: a probing peer gets one append per
// response, not one per event, and a heartbeat round that finds the probe
// unanswered re-probes without entries (event-driven leaders) or with
// them (paced leaders, which send entries only at their rounds).
func TestPushProbesOncePerResponse(t *testing.T) {
	entries := denseEntries(3, 10)
	lv := testLogView(entries, 0)
	tr := NewTracker(Config{MaxInflight: 100}, nil)
	tr.Reset([]types.NodeID{"a"}, 1)
	rc := Round{Term: 1, Leader: "l", NextHint: 1}
	// Heartbeat rounds alone (a paced leader) re-probe with entries.
	for i := 0; i < 2; i++ {
		if msgs, _ := tr.AppendMessages("a", lv, rc); len(msgs) != 1 || len(msgs[0].Entries) != 3 {
			t.Fatalf("heartbeat probe %d without a pushed probe = %+v, want 3 entries", i, msgs)
		}
	}
	var sent []types.AppendEntries
	o := collect(&sent)
	tr.Push([]types.NodeID{"a"}, lv, rc, o)
	tr.Push([]types.NodeID{"a"}, lv, rc, o)
	if len(sent) != 1 || len(sent[0].Entries) != 3 {
		t.Fatalf("probes before a response = %+v", sent)
	}
	// While the pushed probe is unanswered the heartbeat re-probes bare.
	if msgs, _ := tr.AppendMessages("a", lv, rc); len(msgs) != 1 || len(msgs[0].Entries) != 0 {
		t.Fatalf("heartbeat re-probe = %+v, want no entries", msgs)
	}
	// A rejection answers the probe: the next event probes again.
	tr.Get("a").RejectAppend(0)
	sent = nil
	tr.Push([]types.NodeID{"a"}, lv, rc, o)
	if len(sent) != 1 || len(sent[0].Entries) != 3 {
		t.Fatalf("probe after the rejection = %+v", sent)
	}
}
