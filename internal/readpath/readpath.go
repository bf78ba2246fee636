// Package readpath is the leader-side linearizable read engine shared by
// every consensus core (classic Raft, Fast Raft, and through Fast Raft
// both C-Raft levels). It serves reads without writing log entries, in two
// modes behind one mechanism:
//
//   - ReadIndex: the leader records its commit index for the read, then
//     confirms it still leads with one heartbeat exchange. All reads
//     registered between two broadcast rounds batch under a single
//     read-batch ID (ReadCtx) that piggybacks on the round's AppendEntries
//     messages (an event-driven leader sends a round as soon as reads
//     wait and no read round is in flight; see ReadRoundDue); a quorum of
//     responses echoing a ReadCtx at or above a batch's ID confirms every
//     read in it at once — N concurrent reads cost one confirmation round
//     (two when a read round is already in flight), not N. A confirmed read is released to
//     the caller once the commit index reaches its recorded index.
//
//   - Lease: a confirmed round also extends a leader lease. While the
//     lease is valid, reads are served immediately from the current commit
//     index with no round at all. The lease window is conservative: it
//     starts at the instant the confirming round was DISPATCHED (not when
//     its acks arrived) and extends for the minimum election timeout minus
//     the largest smoothed RTT observed among the acking quorum — the
//     tracker's srtt data doubles as the bound on clock skew and
//     scheduling delay between leader and followers. The lease is revoked
//     on step-down (the manager is leader-only state, discarded like the
//     replica tracker), on any membership change (quorum shape changed),
//     and on a missed quorum (a batch expiring unconfirmed).
//
// Safety of the lease additionally depends on election stickiness:
// followers must refuse to grant votes while they have heard from a live
// leader within the minimum election timeout (the cores implement this in
// their RequestVote handlers). With stickiness, any successful election
// needs a voter from the acking quorum whose election timer expired — at
// least LeaseBase after it acknowledged our round — so no conflicting
// leader can commit inside the derated window.
//
// Everything here is sans-io and deterministic: the cores decide when
// rounds happen and own message transmission; this package decides when a
// read may be served and at which index.
package readpath

import (
	"time"

	"github.com/hraft-io/hraft/internal/quorum"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Counter names emitted by the manager (exposed through Node.Metrics).
const (
	// CounterReads counts reads registered for ReadIndex confirmation.
	CounterReads = "readpath.reads_index"
	// CounterLeaseReads counts reads served clock-free from a valid lease
	// (incremented by the cores, which own the lease fast path).
	CounterLeaseReads = "readpath.reads_lease"
	// CounterStaleReads counts reads served from the local commit index
	// with no confirmation (incremented by the cores).
	CounterStaleReads = "readpath.reads_stale"
	// CounterForwarded counts reads forwarded to the leader (incremented by
	// the cores on the follower side).
	CounterForwarded = "readpath.reads_forwarded"
	// CounterReadBatches counts confirmation batches that carried at least
	// one read (the batching collapse metric: N concurrent reads should
	// move this by 1).
	CounterReadBatches = "readpath.read_batches"
	// CounterBatchesConfirmed counts batches confirmed by a quorum of
	// heartbeat acks (including read-free lease-extension rounds).
	CounterBatchesConfirmed = "readpath.batches_confirmed"
	// CounterBatchesExpired counts batches that went a full expiry window
	// without quorum; their reads re-arm into the next round and the lease
	// is revoked (the missed-quorum revocation trigger).
	CounterBatchesExpired = "readpath.batches_expired"
	// CounterLeaseExtends counts lease extensions from confirmed rounds.
	CounterLeaseExtends = "readpath.lease_extends"
	// CounterLeaseRevokes counts lease revocations (step-down aside, which
	// discards the manager wholesale).
	CounterLeaseRevokes = "readpath.lease_revokes"
	// CounterReadsFailed counts reads failed back to their callers
	// (step-down with reads in flight).
	CounterReadsFailed = "readpath.reads_failed"
	// CounterFollowerReads counts follower-local reads served from the
	// receiving node's state machine after its commit index covered the
	// leader-confirmed index (incremented on the origin side).
	CounterFollowerReads = "readpath.reads_follower_local"
)

// Config parametrizes a Manager.
type Config struct {
	// Self is the leader's own identity (its ack is implicit).
	Self types.NodeID
	// LeaseBase is the minimum election timeout: the undiscounted lease
	// window, and the default batch expiry.
	LeaseBase time.Duration
	// RTT reports the smoothed acknowledgment round trip for a peer (0 =
	// no estimate); the manager derates the lease window by the largest
	// estimate among the acking quorum. Nil = no deration.
	RTT func(types.NodeID) time.Duration
	// ExpireAfter is how long a batch may wait for quorum before its reads
	// re-arm and the lease is revoked (0 = LeaseBase).
	ExpireAfter time.Duration
	// Recorder receives read-batch stamp/confirm flight-recorder events
	// (nil disables recording).
	Recorder *trace.Recorder
}

// read is one registered read awaiting confirmation and apply.
type read struct {
	token uint64
	index types.Index
}

// batch is one stamped confirmation round.
type batch struct {
	id     uint64
	sentAt time.Duration
	reads  []read
}

// Done resolves one read: the caller may serve it once the state machine
// has applied through Index.
type Done struct {
	// Token is the core's read token.
	Token uint64
	// Index is the linearization index.
	Index types.Index
	// OK is false when the read failed (step-down) and must be retried.
	OK bool
}

// Manager tracks read batches and the leader lease for one leadership. It
// is created at election win alongside the replica tracker and discarded
// on step-down; the counter set outlives it.
type Manager struct {
	cfg        Config
	members    map[types.NodeID]struct{}
	quorum     int
	acked      map[types.NodeID]uint64 // highest ReadCtx echoed per member
	nextCtx    uint64
	unstamped  []read  // registered since the last round
	batches    []batch // stamped, unconfirmed, ascending by id
	confirmed  []read  // confirmed, awaiting commitIndex >= index
	leaseUntil time.Duration
	// suppressUntil blocks lease extensions while a leadership transfer is
	// in flight (see SuppressLease).
	suppressUntil time.Duration
	counters      *stats.Counters
}

// NewManager builds a manager. counters may be shared with the owning node
// (nil allocates a private set).
func NewManager(cfg Config, counters *stats.Counters) *Manager {
	if cfg.ExpireAfter <= 0 {
		cfg.ExpireAfter = cfg.LeaseBase
	}
	if counters == nil {
		counters = stats.NewCounters()
	}
	m := &Manager{
		cfg:      cfg,
		acked:    make(map[types.NodeID]uint64),
		counters: counters,
	}
	m.SetMembership(nil)
	return m
}

// SetMembership installs the voting membership the quorum is counted over.
// Any membership change revokes the lease and re-arms in-flight batches:
// the old quorum shape cannot vouch for the new configuration.
func (m *Manager) SetMembership(members []types.NodeID) {
	m.members = make(map[types.NodeID]struct{}, len(members))
	for _, id := range members {
		m.members[id] = struct{}{}
	}
	m.quorum = quorum.ClassicSize(len(members))
	m.acked = make(map[types.NodeID]uint64)
	// Re-arm every stamped batch: its acks were counted against the old
	// configuration. The reads keep their recorded indices (still correct —
	// a later confirmation proves an index current a fortiori).
	for _, b := range m.batches {
		m.unstamped = append(m.unstamped, b.reads...)
	}
	m.batches = nil
	m.RevokeLease()
}

// Add registers a read for ReadIndex confirmation: it joins the batch
// stamped onto the next broadcast round, recorded at the given
// linearization index.
func (m *Manager) Add(token uint64, index types.Index) {
	m.unstamped = append(m.unstamped, read{token: token, index: index})
	m.counters.Inc(CounterReads)
}

// PendingReads returns the number of reads awaiting confirmation or apply
// (tests and diagnostics).
func (m *Manager) PendingReads() int {
	n := len(m.unstamped) + len(m.confirmed)
	for _, b := range m.batches {
		n += len(b.reads)
	}
	return n
}

// ReadRoundDue reports whether reads wait for a round and none of the
// stamped rounds carries reads: an event-driven leader then stamps a round
// and sends it at once instead of waiting for the heartbeat. Reads that
// register while a read round is in flight join the next one, which the
// leader stamps when that round confirms, so concurrent reads still share
// rounds.
func (m *Manager) ReadRoundDue() bool {
	if len(m.unstamped) == 0 {
		return false
	}
	for _, b := range m.batches {
		if len(b.reads) > 0 {
			return false
		}
	}
	return true
}

// StampRound seals the pending reads into a new batch dispatched now and
// returns the batch ID to piggyback on the round's AppendEntries messages.
// Every round gets an ID even with no reads pending — its confirmation
// extends the lease for free. Expired batches (no quorum within
// ExpireAfter) re-arm their reads into this round and revoke the lease.
func (m *Manager) StampRound(now time.Duration) uint64 {
	// Missed quorum: roll expired batches' reads into the new round.
	for len(m.batches) > 0 && now >= m.batches[0].sentAt+m.cfg.ExpireAfter {
		expired := m.batches[0]
		m.batches = m.batches[1:]
		m.unstamped = append(expired.reads, m.unstamped...)
		m.counters.Inc(CounterBatchesExpired)
		if m.leaseUntil != 0 {
			m.RevokeLease()
			// Recorded here rather than inside RevokeLease: this is the
			// only revocation site with a clock (SetMembership has none,
			// and step-down discards the manager without calling it).
			m.cfg.Recorder.LeaseRevoke(now, m.cfg.Self)
		}
	}
	m.nextCtx++
	b := batch{id: m.nextCtx, sentAt: now}
	if len(m.unstamped) > 0 {
		b.reads = m.unstamped
		m.unstamped = nil
		m.counters.Inc(CounterReadBatches)
		m.cfg.Recorder.ReadStamp(now, b.id, len(b.reads))
	}
	m.batches = append(m.batches, b)
	// On a single-member cluster the leader's implicit self-ack already is
	// the quorum: confirm immediately, or no ObserveAck would ever fire.
	m.confirmFront(now)
	return b.id
}

// ObserveAck folds one member's heartbeat acknowledgment echoing ctx into
// the batch state. The caller has already verified the response is from
// its own term. Confirmed batches move their reads to the release queue
// and extend the lease — anchored at the batch's dispatch time, not at
// now (which only timestamps flight-recorder events); call Release
// afterwards to collect releasable reads.
func (m *Manager) ObserveAck(from types.NodeID, ctx uint64, now time.Duration) {
	if ctx == 0 {
		return
	}
	if _, ok := m.members[from]; !ok {
		return
	}
	if ctx > m.acked[from] {
		m.acked[from] = ctx
	}
	m.confirmFront(now)
}

// confirmFront confirms leading batches while the quorum covers them (an
// ack for a later batch covers every earlier one, so confirmation is
// always in order).
func (m *Manager) confirmFront(now time.Duration) {
	for len(m.batches) > 0 && m.ackCount(m.batches[0].id) >= m.quorum {
		b := m.batches[0]
		m.batches = m.batches[1:]
		m.confirmed = append(m.confirmed, b.reads...)
		m.counters.Inc(CounterBatchesConfirmed)
		if len(b.reads) > 0 {
			m.cfg.Recorder.ReadConfirm(now, b.id)
		}
		m.extendLease(now, b)
	}
}

// ackCount counts members whose highest echoed ctx covers the batch,
// including the leader itself.
func (m *Manager) ackCount(id uint64) int {
	n := 0
	if _, ok := m.members[m.cfg.Self]; ok {
		n++ // the leader's own ack is implicit
	}
	for peer, ctx := range m.acked {
		if peer != m.cfg.Self && ctx >= id {
			n++
		}
	}
	return n
}

// extendLease pushes the lease out from the confirmed batch's dispatch
// time: sentAt + LeaseBase - (largest srtt among the acking quorum). The
// srtt deration is the clock-skew/delivery-delay margin — with no samples
// the full window applies, which is correct on the deterministic simulator
// and conservative enough for same-order drift in real deployments.
func (m *Manager) extendLease(now time.Duration, b batch) {
	if now < m.suppressUntil {
		// A leadership transfer is in flight: heartbeat acks arriving
		// between the TimeoutNow order and the successor's election must
		// not re-arm the lease, or a stale read could be served after the
		// successor commits (see Node.TransferLeader).
		return
	}
	margin := time.Duration(0)
	if m.cfg.RTT != nil {
		for peer, ctx := range m.acked {
			if peer == m.cfg.Self || ctx < b.id {
				continue
			}
			if r := m.cfg.RTT(peer); r > margin {
				margin = r
			}
		}
	}
	window := m.cfg.LeaseBase - margin
	if window <= 0 {
		return
	}
	if until := b.sentAt + window; until > m.leaseUntil {
		m.leaseUntil = until
		m.counters.Inc(CounterLeaseExtends)
		m.cfg.Recorder.LeaseExtend(now, m.cfg.Self, until)
	}
}

// LeaseValid reports whether lease reads may be served at now.
func (m *Manager) LeaseValid(now time.Duration) bool {
	return m.leaseUntil != 0 && now < m.leaseUntil
}

// LeaseUntil returns the lease expiry instant (0 = no lease); tests and
// diagnostics.
func (m *Manager) LeaseUntil() time.Duration { return m.leaseUntil }

// RevokeLease drops the lease immediately (membership change, missed
// quorum; step-down discards the whole manager instead).
func (m *Manager) RevokeLease() {
	if m.leaseUntil != 0 {
		m.counters.Inc(CounterLeaseRevokes)
	}
	m.leaseUntil = 0
}

// SuppressLease revokes the lease and refuses extensions until the given
// instant. Leadership transfer uses it to keep the window between the
// TimeoutNow order and the successor's election lease-free: transfer
// elections bypass the stickiness that normally guarantees no rival leader
// exists inside a lease window.
func (m *Manager) SuppressLease(until time.Duration) {
	m.RevokeLease()
	if until > m.suppressUntil {
		m.suppressUntil = until
	}
}

// Release pops every confirmed read whose linearization index the commit
// index has reached. The cores call it after commit advancement and after
// folding acks.
func (m *Manager) Release(commitIndex types.Index) []Done {
	var out []Done
	kept := m.confirmed[:0]
	for _, r := range m.confirmed {
		if r.index <= commitIndex {
			out = append(out, Done{Token: r.token, Index: r.index, OK: true})
		} else {
			kept = append(kept, r)
		}
	}
	m.confirmed = kept
	return out
}

// FailAll fails every read still tracked (unstamped, in-flight and
// confirmed-but-unapplied alike) — the step-down path, where the deposed
// leader can no longer vouch for any index. The caller forwards the
// failures so origins retry against the new leader.
func (m *Manager) FailAll() []Done {
	var out []Done
	fail := func(rs []read) {
		for _, r := range rs {
			out = append(out, Done{Token: r.token, OK: false})
		}
	}
	fail(m.unstamped)
	for _, b := range m.batches {
		fail(b.reads)
	}
	fail(m.confirmed)
	m.unstamped, m.batches, m.confirmed = nil, nil, nil
	m.counters.Add(CounterReadsFailed, uint64(len(out)))
	return out
}
