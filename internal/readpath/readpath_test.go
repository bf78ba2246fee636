package readpath

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/types"
)

func newTestManager(rtt func(types.NodeID) time.Duration) (*Manager, *stats.Counters) {
	c := stats.NewCounters()
	m := NewManager(Config{
		Self:      "n1",
		LeaseBase: 300 * time.Millisecond,
		RTT:       rtt,
	}, c)
	m.SetMembership([]types.NodeID{"n1", "n2", "n3"})
	return m, c
}

func TestBatchConfirmAndRelease(t *testing.T) {
	m, c := newTestManager(nil)
	m.Add(1, 10)
	m.Add(2, 12)
	ctx := m.StampRound(0)
	if ctx == 0 {
		t.Fatal("round not stamped")
	}
	// One follower ack + the implicit self ack = quorum of 2/3.
	m.ObserveAck("n2", ctx, 0)
	if got := c.Get(CounterBatchesConfirmed); got != 1 {
		t.Fatalf("batches_confirmed = %d, want 1", got)
	}
	// Release gates on the commit index reaching each read's record.
	done := m.Release(10)
	if len(done) != 1 || done[0].Token != 1 || done[0].Index != 10 || !done[0].OK {
		t.Fatalf("release at 10 = %+v", done)
	}
	done = m.Release(12)
	if len(done) != 1 || done[0].Token != 2 {
		t.Fatalf("release at 12 = %+v", done)
	}
	if got := c.Get(CounterReadBatches); got != 1 {
		t.Fatalf("read_batches = %d, want 1 (both reads in one batch)", got)
	}
}

func TestSingleMemberConfirmsOnStamp(t *testing.T) {
	c := stats.NewCounters()
	m := NewManager(Config{Self: "n1", LeaseBase: 300 * time.Millisecond}, c)
	m.SetMembership([]types.NodeID{"n1"})
	m.Add(1, 4)
	// With no peers, ObserveAck never fires: the leader's implicit
	// self-ack must confirm the batch at stamp time, or single-member
	// clusters could never serve a ReadIndex read.
	m.StampRound(10 * time.Millisecond)
	if got := c.Get(CounterBatchesConfirmed); got != 1 {
		t.Fatalf("batches_confirmed = %d, want 1 (self-quorum)", got)
	}
	if done := m.Release(4); len(done) != 1 || done[0].Token != 1 || !done[0].OK {
		t.Fatalf("read not released on single-member cluster: %+v", done)
	}
	if !m.LeaseValid(300 * time.Millisecond) {
		t.Fatal("self-confirmed round did not extend the lease")
	}
}

func TestLaterAckConfirmsEarlierBatches(t *testing.T) {
	m, _ := newTestManager(nil)
	m.Add(1, 5)
	b1 := m.StampRound(0)
	m.Add(2, 6)
	b2 := m.StampRound(50 * time.Millisecond)
	if b2 <= b1 {
		t.Fatalf("batch ids not monotonic: %d then %d", b1, b2)
	}
	// An ack echoing the later round proves leadership at its dispatch
	// time, which covers the earlier batch too.
	m.ObserveAck("n3", b2, 0)
	done := m.Release(6)
	if len(done) != 2 {
		t.Fatalf("want both reads released, got %+v", done)
	}
}

func TestNonMemberAcksIgnored(t *testing.T) {
	m, c := newTestManager(nil)
	m.Add(1, 5)
	ctx := m.StampRound(0)
	m.ObserveAck("joiner", ctx, 0) // non-voting: must not count
	if got := c.Get(CounterBatchesConfirmed); got != 0 {
		t.Fatalf("non-member ack confirmed a batch")
	}
	if done := m.Release(100); len(done) != 0 {
		t.Fatalf("read released without quorum: %+v", done)
	}
}

func TestLeaseExtendAndDerate(t *testing.T) {
	rtt := func(id types.NodeID) time.Duration {
		if id == "n2" {
			return 40 * time.Millisecond
		}
		return 0
	}
	m, _ := newTestManager(rtt)
	sent := 100 * time.Millisecond
	ctx := m.StampRound(sent)
	m.ObserveAck("n2", ctx, 0)
	// Lease = sentAt + LeaseBase - max srtt among ackers = 100 + 300 - 40.
	want := sent + 300*time.Millisecond - 40*time.Millisecond
	if got := m.LeaseUntil(); got != want {
		t.Fatalf("lease until %v, want %v", got, want)
	}
	if !m.LeaseValid(want - time.Millisecond) {
		t.Fatal("lease should be valid just before expiry")
	}
	if m.LeaseValid(want) {
		t.Fatal("lease valid at expiry")
	}
}

func TestLeaseAnchorsAtDispatchTime(t *testing.T) {
	m, _ := newTestManager(nil)
	ctx := m.StampRound(0)
	// The ack arrives late; the lease still counts from dispatch (time 0),
	// not from the ack.
	m.ObserveAck("n2", ctx, 0)
	if got := m.LeaseUntil(); got != 300*time.Millisecond {
		t.Fatalf("lease until %v, want %v (anchored at dispatch)", got, 300*time.Millisecond)
	}
}

func TestBatchExpiryReArmsReadsAndRevokesLease(t *testing.T) {
	m, c := newTestManager(nil)
	// Establish a lease first.
	ctx := m.StampRound(0)
	m.ObserveAck("n2", ctx, 0)
	if !m.LeaseValid(50 * time.Millisecond) {
		t.Fatal("lease not established")
	}
	m.Add(1, 7)
	m.StampRound(20 * time.Millisecond)
	// No quorum for a full expiry window: the next stamp rolls the read
	// into the new batch and revokes the lease.
	next := m.StampRound(20*time.Millisecond + 300*time.Millisecond)
	if got := c.Get(CounterBatchesExpired); got == 0 {
		t.Fatal("expired batch not counted")
	}
	if m.LeaseValid(330 * time.Millisecond) {
		t.Fatal("lease survived a missed quorum")
	}
	// The re-armed read confirms under the new batch.
	m.ObserveAck("n3", next, 0)
	if done := m.Release(7); len(done) != 1 || done[0].Token != 1 {
		t.Fatalf("re-armed read not released: %+v", done)
	}
}

func TestMembershipChangeRevokesAndReArms(t *testing.T) {
	m, c := newTestManager(nil)
	ctx := m.StampRound(0)
	m.ObserveAck("n2", ctx, 0)
	m.Add(1, 9)
	m.StampRound(10 * time.Millisecond)
	m.SetMembership([]types.NodeID{"n1", "n2", "n3", "n4", "n5"})
	if m.LeaseValid(20 * time.Millisecond) {
		t.Fatal("lease survived a membership change")
	}
	if got := c.Get(CounterLeaseRevokes); got == 0 {
		t.Fatal("revocation not counted")
	}
	// Old acks must not count toward the new configuration's quorum.
	next := m.StampRound(30 * time.Millisecond)
	m.ObserveAck("n2", next, 0)
	if done := m.Release(9); len(done) != 0 {
		t.Fatalf("read released on sub-quorum (2/5): %+v", done)
	}
	m.ObserveAck("n4", next, 0)
	if done := m.Release(9); len(done) != 1 {
		t.Fatalf("read not released on 3/5 quorum: %+v", done)
	}
}

func TestFailAll(t *testing.T) {
	m, c := newTestManager(nil)
	m.Add(1, 5)
	m.StampRound(0)
	m.Add(2, 6)
	if got := m.PendingReads(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	done := m.FailAll()
	if len(done) != 2 {
		t.Fatalf("failed %d reads, want 2", len(done))
	}
	for _, d := range done {
		if d.OK {
			t.Fatalf("FailAll produced OK read: %+v", d)
		}
	}
	if got := c.Get(CounterReadsFailed); got != 2 {
		t.Fatalf("reads_failed = %d, want 2", got)
	}
	if m.PendingReads() != 0 {
		t.Fatal("reads still tracked after FailAll")
	}
}

// TestReadRoundDueOnlyWithoutReadRoundInFlight: a registered read makes a
// round due unless a stamped round already carries reads; lease-only
// rounds do not hold it back, and a confirmation frees the next one.
func TestReadRoundDueOnlyWithoutReadRoundInFlight(t *testing.T) {
	m, _ := newTestManager(nil)
	if m.ReadRoundDue() {
		t.Fatal("round due with no reads")
	}
	m.StampRound(0) // a lease-only round in flight
	m.Add(1, 10)
	if !m.ReadRoundDue() {
		t.Fatal("a lease-only round held a read back")
	}
	ctx := m.StampRound(0)
	m.Add(2, 10)
	if m.ReadRoundDue() {
		t.Fatal("round due while a read round is in flight")
	}
	m.ObserveAck("n2", ctx, time.Millisecond)
	if !m.ReadRoundDue() {
		t.Fatal("round not due after the read round confirmed")
	}
}
