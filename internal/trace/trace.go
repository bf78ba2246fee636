// Package trace is the protocol flight recorder shared by every consensus
// core: a fixed-size ring buffer of typed protocol events (role
// transitions, election rounds, append dispatch and acknowledgment,
// snapshot streams, read batches, sessions, C-Raft batch hops) with
// monotonic sequence numbers, plus per-proposal lifecycle spans that stamp
// each stage a proposal passes through (propose → append → replicate →
// quorum → commit → apply) and fold the stage latencies into
// "hist.stage_*" histograms.
//
// The recorder exists for forensics under dynamic networks: when a harness
// test fails under an adversarial schedule, aggregate counters say *how
// often* things happened but not *which* election interrupted *which*
// append round in what order. Rings from several nodes merge into one
// time-ordered narrative (Merge/Format), which is exactly what the harness
// dumps on failure.
//
// A nil *Recorder is the disabled recorder: every method is nil-safe and
// returns immediately, so cores thread an untyped nil through their config
// and the hot path pays one nil check — no allocation, no lock. The
// enabled path takes one small mutex per event (the ring must tolerate a
// concurrent Snapshot from outside the consensus goroutine).
package trace

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/types"
)

// EventType discriminates ring events.
type EventType uint8

// Event types. Arg/Arg2 carry type-specific payloads documented per
// constant.
const (
	// EvRoleChange: node changed role. Arg = role (types.Role), Peer = the
	// leader it follows (if any).
	EvRoleChange EventType = iota + 1
	// EvElectionStart: node started an election at Term.
	EvElectionStart
	// EvVote: node received a vote response. Peer = voter, Arg = 1 granted
	// / 0 refused.
	EvVote
	// EvElectionWon: node won the election at Term. Arg = votes counted.
	EvElectionWon
	// EvAppendDispatch: leader sent AppendEntries to Peer. Index = prev log
	// index anchor, Arg = entry count, Arg2 = heartbeat round.
	EvAppendDispatch
	// EvAppendAck: Peer acknowledged appends up to Index. Arg2 = round.
	EvAppendAck
	// EvAppendReject: Peer failed the consistency check; Index = its
	// last-index hint.
	EvAppendReject
	// EvSnapStreamStart: leader started streaming its snapshot (boundary
	// Index) to Peer.
	EvSnapStreamStart
	// EvSnapChunk: leader sent one snapshot chunk to Peer. Index =
	// boundary, Arg = byte offset, Arg2 = 1 on the final chunk.
	EvSnapChunk
	// EvSnapChunkRecv: follower buffered a chunk from Peer. Index =
	// boundary, Arg = acknowledged contiguous bytes.
	EvSnapChunkRecv
	// EvSnapResume: leader continued a predecessor's stream to Peer from
	// byte Arg (boundary Index).
	EvSnapResume
	// EvSnapInstall: follower installed a snapshot at boundary Index.
	// Arg = install duration in microseconds.
	EvSnapInstall
	// EvReadStamp: leader sealed a read batch onto a broadcast round.
	// Arg = batch ID (ReadCtx), Arg2 = reads in the batch.
	EvReadStamp
	// EvReadConfirm: a quorum of acks confirmed batch Arg.
	EvReadConfirm
	// EvReadServe: a read resolved. Arg = read token, Index = its
	// linearization index, Arg2 = 0 failed / 1 ok.
	EvReadServe
	// EvSessionOpen: a session-open entry applied; Arg = session ID.
	EvSessionOpen
	// EvSessionExpire: a session clock entry applied; Arg = live sessions
	// after expiry.
	EvSessionExpire
	// EvBatchPropose: C-Raft packed locally committed entries into a global
	// batch. PID = the batch's proposal, Arg = entry count.
	EvBatchPropose
	// EvGlobalOrder: C-Raft observed a batch committed in the global order.
	// Arg = era, Arg2 = sequence within the era.
	EvGlobalOrder
	// EvReplay: C-Raft replayed a globally ordered batch into the local
	// delivery stream. Arg = era, Arg2 = sequence.
	EvReplay
	// EvStage: a proposal lifecycle span stamped a stage. PID = the
	// proposal, Arg = stage (Stage), Index = log index when known.
	EvStage
	// EvSlowOp: a proposal exceeded the slow-op threshold. PID = the
	// proposal, Index = commit index, Arg = total microseconds.
	EvSlowOp
	// EvBoot: the instance (re)started from durable state. Term = the
	// restored term, Index = the restored commit index (the snapshot
	// boundary when one was restored). The epoch marker: per-node
	// commit/apply monotonicity restarts here, because a rebooted node
	// legitimately recommits from its snapshot boundary.
	EvBoot
	// EvCommitEntry: the commit index covered the entry at Index. Arg = a
	// 64-bit digest of the entry's identity (EntryDigest) — the cross-node
	// committed-prefix agreement key.
	EvCommitEntry
	// EvApplySession: a session-scoped entry applied (not a duplicate).
	// Index = log index, Arg = session ID, Arg2 = session sequence.
	EvApplySession
	// EvLeaseExtend: the leader extended its serving lease. Peer = the
	// leaseholder identity (the cluster at the C-Raft global level), Arg =
	// the lease deadline in nanoseconds of node-monotonic time.
	EvLeaseExtend
	// EvLeaseRevoke: the leader dropped its lease. Peer = the holder.
	EvLeaseRevoke
	// EvCompact: the log was compacted. Index = the new snapshot boundary,
	// Arg = the commit index at compaction time (the boundary must never
	// exceed it).
	EvCompact
	// EvFsyncBatch: one group-commit batch became durable. Arg = records
	// in the batch, Arg2 = bytes written. Its distribution also feeds the
	// hist.fsync_batch_size histogram, and the batch's write+fsync time
	// the hist.fsync_duration one.
	EvFsyncBatch
	// EvTraceHop: a sampled proposal/read/snapshot crossed a protocol hop
	// on this node. Trace = the trace ID, Arg = the hop kind (HopKind),
	// Peer = the other party when the hop has one, Index = the log
	// position involved. Hops are the cross-node glue: each node a traced
	// operation touches records them into its own ring, and
	// AssembleTraces stitches the merged rings back into one causal tree.
	EvTraceHop
)

// evMaxType is the highest defined event type (decode tables).
const evMaxType = EvTraceHop

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EvRoleChange:
		return "role"
	case EvElectionStart:
		return "election.start"
	case EvVote:
		return "election.vote"
	case EvElectionWon:
		return "election.won"
	case EvAppendDispatch:
		return "append.dispatch"
	case EvAppendAck:
		return "append.ack"
	case EvAppendReject:
		return "append.reject"
	case EvSnapStreamStart:
		return "snap.stream"
	case EvSnapChunk:
		return "snap.chunk"
	case EvSnapChunkRecv:
		return "snap.recv"
	case EvSnapResume:
		return "snap.resume"
	case EvSnapInstall:
		return "snap.install"
	case EvReadStamp:
		return "read.stamp"
	case EvReadConfirm:
		return "read.confirm"
	case EvReadServe:
		return "read.serve"
	case EvSessionOpen:
		return "session.open"
	case EvSessionExpire:
		return "session.expire"
	case EvBatchPropose:
		return "craft.batch"
	case EvGlobalOrder:
		return "craft.global_order"
	case EvReplay:
		return "craft.replay"
	case EvStage:
		return "stage"
	case EvSlowOp:
		return "slow_op"
	case EvBoot:
		return "boot"
	case EvCommitEntry:
		return "commit.entry"
	case EvApplySession:
		return "session.apply"
	case EvLeaseExtend:
		return "lease.extend"
	case EvLeaseRevoke:
		return "lease.revoke"
	case EvCompact:
		return "compact"
	case EvFsyncBatch:
		return "fsync.batch"
	case EvTraceHop:
		return "trace.hop"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// HopKind names the protocol hop an EvTraceHop event records.
type HopKind uint8

// Hop kinds. The per-stage EvStage events (origin node) and EvCommitEntry
// (every node, trace-stamped) carry the rest of the journey; these cover
// the transitions the span machinery cannot see because they happen on
// nodes that never opened the span.
const (
	// HopForward: a non-leader forwarded the proposal to Peer (the leader).
	HopForward HopKind = iota + 1
	// HopAppend: the leader appended the traced entry at Index.
	HopAppend
	// HopReplicate: a follower appended the traced entry at Index into its
	// own log (received from Peer when known).
	HopReplicate
	// HopAck: Peer acknowledged replication of the traced entry at Index
	// back to the leader.
	HopAck
	// HopReadForward: a follower forwarded the traced read to Peer.
	HopReadForward
	// HopReadServe: the read resolved at linearization Index (Arg2-free;
	// the companion EvReadServe event carries ok/failed).
	HopReadServe
	// HopBatch: C-Raft packed the traced entry into a global batch.
	HopBatch
	// HopGlobalOrder: the traced batch committed in the global order at
	// Index (the global log index).
	HopGlobalOrder
	// HopReplay: C-Raft replayed the traced entry out of a globally
	// ordered batch into the local delivery stream.
	HopReplay
	// HopSnapChunk: a snapshot chunk of the traced stream arrived from
	// Peer (Index = boundary).
	HopSnapChunk
	// HopSnapInstall: the traced snapshot stream installed at boundary
	// Index.
	HopSnapInstall
)

// String names the hop kind.
func (h HopKind) String() string {
	switch h {
	case HopForward:
		return "forward"
	case HopAppend:
		return "append"
	case HopReplicate:
		return "replicate"
	case HopAck:
		return "ack"
	case HopReadForward:
		return "read.forward"
	case HopReadServe:
		return "read.serve"
	case HopBatch:
		return "batch"
	case HopGlobalOrder:
		return "global_order"
	case HopReplay:
		return "replay"
	case HopSnapChunk:
		return "snap.chunk"
	case HopSnapInstall:
		return "snap.install"
	default:
		return fmt.Sprintf("hop(%d)", uint8(h))
	}
}

// eventTypeNames maps the wire names String/MarshalJSON emit back to
// event types, for decoding offline dumps.
var eventTypeNames = func() map[string]EventType {
	m := make(map[string]EventType, int(evMaxType))
	for t := EvRoleChange; t <= evMaxType; t++ {
		m[t.String()] = t
	}
	return m
}()

// Event is one recorded protocol event. Events are fixed-size values: the
// ring pre-allocates its storage and recording never allocates.
type Event struct {
	// Seq orders events within one ring (monotonic, never reused).
	Seq uint64 `json:"seq"`
	// At is the node's monotonic (virtual on the simulator) time.
	At time.Duration `json:"at"`
	// Node labels the recording instance ("n1", "n1/global", ...).
	Node string `json:"node"`
	// Group names the log this instance participates in ("" = the flat
	// cluster log; C-Raft stamps "local/<cluster>" and "global"), so
	// merged dumps stay self-describing for group-scoped invariants.
	Group string `json:"group,omitempty"`
	// Type discriminates the event.
	Type EventType `json:"type"`
	// Term is the recording node's term at the event.
	Term types.Term `json:"term,omitempty"`
	// Peer is the other party, when the event has one.
	Peer types.NodeID `json:"peer,omitempty"`
	// Index is the log position involved, when the event has one.
	Index types.Index `json:"index,omitempty"`
	// PID is the proposal involved, when the event has one.
	PID types.ProposalID `json:"pid,omitempty"`
	// Trace is the sampled trace ID this event belongs to (0 = untraced).
	// Stamped on EvTraceHop always, and on EvStage/EvSlowOp/EvCommitEntry/
	// EvReadServe when the operation was sampled.
	Trace uint64 `json:"trace,omitempty"`
	// Arg and Arg2 carry type-specific payloads (see the EventType docs).
	Arg  uint64 `json:"arg,omitempty"`
	Arg2 uint64 `json:"arg2,omitempty"`
}

// MarshalJSON renders the event type by name ("role", "append.ack", ...)
// and omits zero proposal IDs, keeping the debug-endpoint JSON
// self-describing without a decoder ring.
func (e Event) MarshalJSON() ([]byte, error) {
	type alias Event // sheds the method, avoiding recursion
	aux := struct {
		alias
		Type string            `json:"type"`
		PID  *types.ProposalID `json:"pid,omitempty"`
	}{alias: alias(e), Type: e.Type.String()}
	if !e.PID.IsZero() {
		aux.PID = &e.PID
	}
	return json.Marshal(aux)
}

// UnmarshalJSON decodes the MarshalJSON form (event type by name), so
// offline tools can replay dumped traces.
func (e *Event) UnmarshalJSON(data []byte) error {
	type alias Event // sheds the methods, avoiding recursion
	aux := struct {
		*alias
		Type string `json:"type"`
	}{alias: (*alias)(e)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	t, ok := eventTypeNames[aux.Type]
	if !ok {
		return fmt.Errorf("trace: unknown event type %q", aux.Type)
	}
	e.Type = t
	return nil
}

// String renders the event as one human-readable line (without the node
// label and timestamp, which Format prepends).
func (e Event) String() string {
	switch e.Type {
	case EvRoleChange:
		s := fmt.Sprintf("-> %s term=%d", types.Role(e.Arg), e.Term)
		if e.Peer != types.None {
			s += fmt.Sprintf(" leader=%s", e.Peer)
		}
		return s
	case EvElectionStart:
		return fmt.Sprintf("election started term=%d", e.Term)
	case EvVote:
		verdict := "refused"
		if e.Arg == 1 {
			verdict = "granted"
		}
		return fmt.Sprintf("vote %s by %s term=%d", verdict, e.Peer, e.Term)
	case EvElectionWon:
		return fmt.Sprintf("election won term=%d votes=%d", e.Term, e.Arg)
	case EvAppendDispatch:
		return fmt.Sprintf("append -> %s prev=%d entries=%d round=%d", e.Peer, e.Index, e.Arg, e.Arg2)
	case EvAppendAck:
		return fmt.Sprintf("ack <- %s match=%d round=%d", e.Peer, e.Index, e.Arg2)
	case EvAppendReject:
		return fmt.Sprintf("reject <- %s hint=%d", e.Peer, e.Index)
	case EvSnapStreamStart:
		return fmt.Sprintf("snapshot stream -> %s boundary=%d", e.Peer, e.Index)
	case EvSnapChunk:
		done := ""
		if e.Arg2 == 1 {
			done = " done"
		}
		return fmt.Sprintf("snapshot chunk -> %s boundary=%d off=%d%s", e.Peer, e.Index, e.Arg, done)
	case EvSnapChunkRecv:
		return fmt.Sprintf("snapshot chunk <- %s boundary=%d acked=%d", e.Peer, e.Index, e.Arg)
	case EvSnapResume:
		return fmt.Sprintf("snapshot resume -> %s boundary=%d off=%d", e.Peer, e.Index, e.Arg)
	case EvSnapInstall:
		return fmt.Sprintf("snapshot installed boundary=%d took=%s", e.Index, time.Duration(e.Arg)*time.Microsecond)
	case EvReadStamp:
		return fmt.Sprintf("read batch stamped ctx=%d reads=%d", e.Arg, e.Arg2)
	case EvReadConfirm:
		return fmt.Sprintf("read batch confirmed ctx=%d", e.Arg)
	case EvReadServe:
		if e.Arg2 == 0 {
			return fmt.Sprintf("read failed token=%d", e.Arg)
		}
		return fmt.Sprintf("read served token=%d index=%d", e.Arg, e.Index)
	case EvSessionOpen:
		return fmt.Sprintf("session opened id=%d", e.Arg)
	case EvSessionExpire:
		return fmt.Sprintf("session clock applied live=%d", e.Arg)
	case EvBatchPropose:
		return fmt.Sprintf("batch proposed %s entries=%d", e.PID, e.Arg)
	case EvGlobalOrder:
		return fmt.Sprintf("batch ordered globally era=%d seq=%d", e.Arg, e.Arg2)
	case EvReplay:
		return fmt.Sprintf("batch replayed era=%d seq=%d", e.Arg, e.Arg2)
	case EvStage:
		return fmt.Sprintf("%s %s index=%d term=%d", Stage(e.Arg), e.PID, e.Index, e.Term)
	case EvSlowOp:
		return fmt.Sprintf("SLOW %s index=%d term=%d total=%s", e.PID, e.Index, e.Term, time.Duration(e.Arg)*time.Microsecond)
	case EvBoot:
		return fmt.Sprintf("boot term=%d commit=%d", e.Term, e.Index)
	case EvCommitEntry:
		return fmt.Sprintf("committed index=%d digest=%016x", e.Index, e.Arg)
	case EvApplySession:
		return fmt.Sprintf("session apply index=%d session=%d seq=%d", e.Index, e.Arg, e.Arg2)
	case EvLeaseExtend:
		return fmt.Sprintf("lease extended holder=%s until=%s", e.Peer, time.Duration(e.Arg))
	case EvLeaseRevoke:
		return fmt.Sprintf("lease revoked holder=%s", e.Peer)
	case EvCompact:
		return fmt.Sprintf("compacted boundary=%d commit=%d", e.Index, e.Arg)
	case EvFsyncBatch:
		return fmt.Sprintf("fsync batch records=%d bytes=%d", e.Arg, e.Arg2)
	case EvTraceHop:
		s := fmt.Sprintf("hop %s trace=%016x", HopKind(e.Arg), e.Trace)
		if e.Peer != types.None {
			s += fmt.Sprintf(" peer=%s", e.Peer)
		}
		if e.Index != 0 {
			s += fmt.Sprintf(" index=%d", e.Index)
		}
		return s
	default:
		return e.Type.String()
	}
}

// Stage is one step of a proposal's lifecycle, in canonical order.
type Stage uint8

// Lifecycle stages. Protocols stamp the subset they pass through; the
// histogram for a stage measures the time since the previous *stamped*
// stage (Fast Raft's proposer broadcast can put replicate before append —
// negative gaps clamp to zero).
const (
	// StagePropose: the proposal entered the system.
	StagePropose Stage = iota
	// StageAppend: the entry reached the leader's log.
	StageAppend
	// StageReplicate: the entry (or proposal) was dispatched to peers.
	StageReplicate
	// StageQuorum: the decide/commit rule first covered the entry.
	StageQuorum
	// StageCommit: the commit index reached the entry.
	StageCommit
	// StageApply: the entry was released to the application.
	StageApply
	numStages
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StagePropose:
		return "propose"
	case StageAppend:
		return "append"
	case StageReplicate:
		return "replicate"
	case StageQuorum:
		return "quorum"
	case StageCommit:
		return "commit"
	case StageApply:
		return "apply"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// histNames are the flat metric names the stage histograms merge under
// (rendered by the public MetricsHandler as hraft_hist_stage_*_seconds).
var histNames = [numStages]string{
	"hist.stage_propose", // propose -> first subsequent stamp (queueing)
	"hist.stage_append",
	"hist.stage_replicate",
	"hist.stage_quorum",
	"hist.stage_commit",
	"hist.stage_apply",
}

// span accumulates the stage stamps of one proposal. stamped bit i covers
// Stage(i).
type span struct {
	at      [numStages]time.Duration
	stamped uint8
	term    types.Term
	// trace is the sampled trace ID bound at SpanStart (0 = unsampled);
	// every EvStage/EvSlowOp event the span emits carries it.
	trace uint64
}

// defaultSize is the ring capacity when Config.Size is unset: enough to
// hold several election cycles of a busy five-node cluster.
const defaultSize = 4096

// defaultSpanCap bounds the live proposal spans tracked per recorder;
// beyond it new proposals go unspanned (ring events still record).
const defaultSpanCap = 4096

// ring is the shared event storage behind one or more Recorder labels. One
// mutex guards everything — events, spans and histograms — because the
// writers (the consensus goroutine) and readers (debug endpoints, harness
// dumps) are different goroutines. Sinks live on the ring so a sink
// attached through any label observes every label sharing it.
type ring struct {
	mu    sync.Mutex
	buf   []Event
	seq   uint64
	sinks []func(Event)
	// mints counts MintTrace calls across every recorder sharing the ring
	// (the deterministic every-Nth sampler state).
	mints uint64
	// dropped accumulates events an incremental reader (SnapshotSince)
	// lost to ring wraparound; lastDropped is the most recent gap — the
	// counter/gauge pair behind trace.events_dropped.
	dropped     uint64
	lastDropped uint64
	// rolling holds the per-group sliding-window aggregates over completed
	// proposal spans (rate/p50/p99 for the live /debug/hraft/top plane),
	// keyed by the recorder group label at span end.
	rolling map[string]*stats.Rolling
}

// Config parametrizes a Recorder.
type Config struct {
	// Node labels this recorder's events ("n1"; C-Raft derives "n1/global"
	// etc. via Derive).
	Node string
	// Group names the log this recorder's instance participates in
	// (stamped on every event; see Event.Group). Usually left empty and
	// set later via SetGroup by the owning core.
	Group string
	// Size is the ring capacity in events (0 = the HRAFT_TRACE_RING
	// environment variable, or 4096 when that is unset too).
	Size int
	// SlowOp, when non-zero, logs any proposal whose propose→apply span
	// meets the threshold through Logger, naming the proposal, term, index,
	// peers and the per-stage breakdown.
	SlowOp time.Duration
	// Logger receives slow-op reports (nil = slog.Default()).
	Logger *slog.Logger
	// SampleRate enables wire-propagated causal tracing: every SampleRate-th
	// proposal/read minted through this recorder gets a TraceID that rides
	// the wire (codec v8) and is recorded as hop events on every node it
	// touches. 0 disables sampling (no trace context on the wire); 1
	// samples everything. The sampler is a deterministic counter, not a
	// random draw, so simulated runs trace reproducibly.
	SampleRate int
}

// Recorder records protocol events into a ring and tracks proposal
// lifecycle spans. The zero-value pointer (nil) is the disabled recorder:
// every method no-ops. Construct with New; share the ring across layers
// with Derive.
type Recorder struct {
	r     *ring
	label string
	group string
	slow  time.Duration
	log   *slog.Logger
	// peersFn, when set, names the current peer set in slow-op reports
	// (evaluated only on the slow path).
	peersFn func() []types.NodeID

	// sampleEvery is the mint period (Config.SampleRate; 0 = minting off).
	sampleEvery uint64
	// labelHash seeds minted trace IDs so two origins minting the same
	// counter value still produce distinct IDs.
	labelHash uint64
	// traced tracks the leader-side sampled entries awaiting per-peer
	// replication acks (HopAck attribution); bounded by tracedCap.
	traced []tracedEntry

	spans    map[types.ProposalID]*span
	spanFIFO []types.ProposalID
	hists    [numStages]*stats.TimingHist
	total    *stats.TimingHist
	// fsyncSize distributes group-commit batch sizes (records per fsync)
	// and fsyncDur the time each batch's write and fsync took; applyLag
	// distributes commit→apply hand-off delay through the runtime's apply
	// pipeline.
	fsyncSize *stats.SizeHist
	fsyncDur  *stats.TimingHist
	applyLag  *stats.TimingHist
}

// New builds an enabled recorder.
func New(cfg Config) *Recorder {
	size := cfg.Size
	if size <= 0 {
		size = RingSizeFromEnv()
	}
	if size <= 0 {
		size = defaultSize
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	rec := &Recorder{
		r:           &ring{buf: make([]Event, size), rolling: make(map[string]*stats.Rolling)},
		label:       cfg.Node,
		group:       cfg.Group,
		slow:        cfg.SlowOp,
		log:         logger,
		spans:       make(map[types.ProposalID]*span),
		labelHash:   fnvString(cfg.Node),
		sampleEvery: uint64(max(cfg.SampleRate, 0)),
	}
	rec.initHists()
	return rec
}

// fnvString is FNV-1a over a string (trace-ID seeding).
func fnvString(s string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// RingSizeFromEnv returns the ring capacity requested through the
// HRAFT_TRACE_RING environment variable (0 = unset or invalid). Long
// torture-style runs raise it so the pre-violation window is not lost to
// ring wraparound at the 4096-event default.
func RingSizeFromEnv() int {
	v := os.Getenv("HRAFT_TRACE_RING")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0
	}
	return n
}

func (r *Recorder) initHists() {
	for i := range r.hists {
		r.hists[i] = stats.NewTimingHist(histNames[i], stats.DefaultLatencyBounds()...)
	}
	r.total = stats.NewTimingHist("hist.stage_total", stats.DefaultLatencyBounds()...)
	r.fsyncSize = stats.NewSizeHist("hist.fsync_batch_size", stats.DefaultSizeBounds()...)
	r.fsyncDur = stats.NewTimingHist("hist.fsync_duration", stats.DefaultLatencyBounds()...)
	r.applyLag = stats.NewTimingHist("hist.apply_lag", stats.DefaultLatencyBounds()...)
}

// Derive returns a recorder sharing this one's ring (and sequence space)
// under a different node label, with its own span tracking and stage
// histograms — how C-Raft gives its local, global and coordination layers
// one interleaved event narrative. Nil-safe: deriving from the disabled
// recorder stays disabled.
func (r *Recorder) Derive(label string) *Recorder {
	if r == nil {
		return nil
	}
	d := &Recorder{
		r:           r.r,
		label:       label,
		group:       r.group,
		slow:        r.slow,
		log:         r.log,
		spans:       make(map[types.ProposalID]*span),
		labelHash:   fnvString(label),
		sampleEvery: r.sampleEvery,
	}
	d.initHists()
	return d
}

// SetGroup names the log group stamped on this recorder's subsequent
// events (see Event.Group). The owning core calls it once at construction;
// nil-safe.
func (r *Recorder) SetGroup(group string) {
	if r == nil {
		return
	}
	r.r.mu.Lock()
	r.group = group
	r.r.mu.Unlock()
}

// Group returns the recorder's log-group tag ("" when disabled or untagged).
func (r *Recorder) Group() string {
	if r == nil {
		return ""
	}
	return r.group
}

// Attach subscribes fn to every event recorded into this recorder's ring —
// including events from recorders Derive'd from it, which share the ring.
// fn runs synchronously under the ring lock, in recording order: it must
// be fast and must not call back into any recorder sharing the ring.
// Nil-safe (attaching to the disabled recorder is a no-op).
func (r *Recorder) Attach(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.r.mu.Lock()
	r.r.sinks = append(r.r.sinks, fn)
	r.r.mu.Unlock()
}

// Label returns the recorder's node label ("" when disabled).
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// SetPeersFunc installs the callback naming the current peer set in
// slow-op reports. Evaluated only when a slow op fires.
func (r *Recorder) SetPeersFunc(f func() []types.NodeID) {
	if r == nil {
		return
	}
	r.r.mu.Lock()
	r.peersFn = f
	r.r.mu.Unlock()
}

// record appends one event under the lock. Callers fill everything but
// Seq, Node and Group. The deferred unlock matters: a strict-mode audit
// sink may panic out of recordLocked, and the ring must stay usable for
// the post-mortem dump.
func (r *Recorder) record(e Event) {
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	r.recordLocked(e)
}

func (r *Recorder) recordLocked(e Event) {
	e.Seq = r.r.seq
	e.Node = r.label
	e.Group = r.group
	r.r.buf[r.r.seq%uint64(len(r.r.buf))] = e
	r.r.seq++
	for _, fn := range r.r.sinks {
		fn(e)
	}
}

// Snapshot copies the ring's retained events in recording order (oldest
// first). Safe to call from any goroutine; nil-safe (returns nil).
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	n := uint64(len(r.r.buf))
	if r.r.seq <= n {
		return append([]Event(nil), r.r.buf[:r.r.seq]...)
	}
	out := make([]Event, 0, n)
	start := r.r.seq % n
	out = append(out, r.r.buf[start:]...)
	out = append(out, r.r.buf[:start]...)
	return out
}

// SnapshotSince returns the retained events with Seq >= since, oldest
// first, plus the number of events the ring overwrote past the caller's
// cursor (0 when the cursor is still inside the retained window). The
// drop count also feeds the cumulative trace.events_dropped counter and
// its last-gap gauge, so silent wraparound shows up in Metrics() and
// Prometheus. Pollers resume with since = lastEvent.Seq+1. Nil-safe.
func (r *Recorder) SnapshotSince(since uint64) ([]Event, uint64) {
	if r == nil {
		return nil, 0
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	n := uint64(len(r.r.buf))
	var floor uint64
	if r.r.seq > n {
		floor = r.r.seq - n
	}
	var dropped uint64
	if since < floor {
		dropped = floor - since
		r.r.dropped += dropped
		r.r.lastDropped = dropped
		since = floor
	}
	if since >= r.r.seq {
		return nil, dropped
	}
	out := make([]Event, 0, r.r.seq-since)
	for s := since; s < r.r.seq; s++ {
		out = append(out, r.r.buf[s%n])
	}
	return out, dropped
}

// Tail returns the newest k retained events, oldest first.
func (r *Recorder) Tail(k int) []Event {
	s := r.Snapshot()
	if len(s) > k {
		s = s[len(s)-k:]
	}
	return s
}

// Len returns the number of events recorded so far (including overwritten
// ones); tests and diagnostics.
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	return r.r.seq
}

// MergeMetrics folds the recorder's stage histograms into a flat counter
// snapshot under prefix (the scheme TimingHist.MergeInto documents), so
// node Metrics() maps pick them up with no extra rendering code. Nil-safe.
func (r *Recorder) MergeMetrics(dst map[string]uint64, prefix string) {
	if r == nil {
		return
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	for _, h := range r.hists {
		if h.Count() > 0 {
			h.MergeInto(dst, prefix)
		}
	}
	if r.total.Count() > 0 {
		r.total.MergeInto(dst, prefix)
	}
	if r.fsyncSize.Count() > 0 {
		r.fsyncSize.MergeInto(dst, prefix)
		r.fsyncDur.MergeInto(dst, prefix)
	}
	if r.applyLag.Count() > 0 {
		r.applyLag.MergeInto(dst, prefix)
	}
	if r.r.dropped > 0 {
		dst[prefix+"trace.events_dropped"] = r.r.dropped
		dst[prefix+"trace.gauge.events_dropped_last"] = r.r.lastDropped
	}
}

// --- Typed record methods (all nil-safe) ------------------------------------

// RoleChange records a role transition.
func (r *Recorder) RoleChange(now time.Duration, term types.Term, role types.Role, leader types.NodeID) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvRoleChange, Term: term, Arg: uint64(role), Peer: leader})
}

// ElectionStart records the start of an election round.
func (r *Recorder) ElectionStart(now time.Duration, term types.Term) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvElectionStart, Term: term})
}

// Vote records a vote response from peer.
func (r *Recorder) Vote(now time.Duration, term types.Term, peer types.NodeID, granted bool) {
	if r == nil {
		return
	}
	var g uint64
	if granted {
		g = 1
	}
	r.record(Event{At: now, Type: EvVote, Term: term, Peer: peer, Arg: g})
}

// ElectionWon records an election win with the counted votes. self is the
// winner's protocol identity (at the C-Raft global level that is the
// cluster, not the site) — the key election-safety auditing compares on,
// since two sites of one cluster may legitimately win the same global
// term.
func (r *Recorder) ElectionWon(now time.Duration, term types.Term, self types.NodeID, votes int) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvElectionWon, Term: term, Peer: self, Arg: uint64(votes)})
}

// AppendDispatch records one AppendEntries transmission to peer.
func (r *Recorder) AppendDispatch(now time.Duration, term types.Term, peer types.NodeID, prev types.Index, entries int, round uint64) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvAppendDispatch, Term: term, Peer: peer, Index: prev, Arg: uint64(entries), Arg2: round})
}

// AppendAck records a successful append acknowledgment from peer.
func (r *Recorder) AppendAck(now time.Duration, term types.Term, peer types.NodeID, match types.Index, round uint64) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvAppendAck, Term: term, Peer: peer, Index: match, Arg2: round})
}

// AppendReject records a failed consistency check from peer.
func (r *Recorder) AppendReject(now time.Duration, term types.Term, peer types.NodeID, hint types.Index) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvAppendReject, Term: term, Peer: peer, Index: hint})
}

// SnapStreamStart records the start of a snapshot stream to peer.
func (r *Recorder) SnapStreamStart(now time.Duration, term types.Term, peer types.NodeID, boundary types.Index) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvSnapStreamStart, Term: term, Peer: peer, Index: boundary})
}

// SnapChunk records one snapshot chunk (or full-image) transmission.
func (r *Recorder) SnapChunk(now time.Duration, peer types.NodeID, boundary types.Index, offset uint64, done bool) {
	if r == nil {
		return
	}
	var d uint64
	if done {
		d = 1
	}
	r.record(Event{At: now, Type: EvSnapChunk, Peer: peer, Index: boundary, Arg: offset, Arg2: d})
}

// SnapChunkRecv records a buffered chunk on the follower side.
func (r *Recorder) SnapChunkRecv(now time.Duration, from types.NodeID, boundary types.Index, acked uint64) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvSnapChunkRecv, Peer: from, Index: boundary, Arg: acked})
}

// SnapResume records a continued predecessor stream.
func (r *Recorder) SnapResume(now time.Duration, peer types.NodeID, boundary types.Index, offset uint64) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvSnapResume, Peer: peer, Index: boundary, Arg: offset})
}

// SnapInstall records a completed snapshot install.
func (r *Recorder) SnapInstall(now time.Duration, boundary types.Index, took time.Duration) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvSnapInstall, Index: boundary, Arg: uint64(took / time.Microsecond)})
}

// ReadStamp records a read batch sealed onto a broadcast round.
func (r *Recorder) ReadStamp(now time.Duration, ctx uint64, reads int) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvReadStamp, Arg: ctx, Arg2: uint64(reads)})
}

// ReadConfirm records a batch confirmed by quorum.
func (r *Recorder) ReadConfirm(now time.Duration, ctx uint64) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvReadConfirm, Arg: ctx})
}

// ReadServe records a read resolution. tid is the read's sampled trace ID
// (0 = unsampled).
func (r *Recorder) ReadServe(now time.Duration, token uint64, index types.Index, ok bool, tid uint64) {
	if r == nil {
		return
	}
	var o uint64
	if ok {
		o = 1
	}
	r.record(Event{At: now, Type: EvReadServe, Arg: token, Index: index, Trace: tid, Arg2: o})
}

// SessionOpen records a session registration apply.
func (r *Recorder) SessionOpen(now time.Duration, id uint64) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvSessionOpen, Arg: id})
}

// SessionExpire records a session clock apply with the surviving count.
func (r *Recorder) SessionExpire(now time.Duration, live int) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvSessionExpire, Arg: uint64(live)})
}

// BatchPropose records a C-Raft global batch proposal.
func (r *Recorder) BatchPropose(now time.Duration, pid types.ProposalID, entries int) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvBatchPropose, PID: pid, Arg: uint64(entries)})
}

// GlobalOrder records a batch committed in the global order.
func (r *Recorder) GlobalOrder(now time.Duration, era, seq uint64) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvGlobalOrder, Arg: era, Arg2: seq})
}

// Replay records a globally ordered batch replayed locally.
func (r *Recorder) Replay(now time.Duration, era, seq uint64) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvReplay, Arg: era, Arg2: seq})
}

// Boot records a (re)start from durable state: the epoch marker that
// resets per-node monotonicity auditing (a rebooted node recommits from
// its snapshot boundary).
func (r *Recorder) Boot(now time.Duration, term types.Term, commit types.Index) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvBoot, Term: term, Index: commit})
}

// CommitEntry records the commit index covering e, keyed by the entry's
// identity digest so committed-prefix agreement is checkable across nodes
// and offline.
func (r *Recorder) CommitEntry(now time.Duration, term types.Term, e types.Entry) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvCommitEntry, Term: term, Index: e.Index, PID: e.PID, Trace: e.TraceID, Arg: EntryDigest(e)})
}

// ApplySession records a non-duplicate session-scoped apply.
func (r *Recorder) ApplySession(now time.Duration, index types.Index, session, seq uint64) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvApplySession, Index: index, Arg: session, Arg2: seq})
}

// LeaseExtend records the serving lease pushed out to until. self is the
// leaseholder's protocol identity (the cluster at the C-Raft global
// level).
func (r *Recorder) LeaseExtend(now time.Duration, self types.NodeID, until time.Duration) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvLeaseExtend, Peer: self, Arg: uint64(until)})
}

// LeaseRevoke records the lease dropped before its deadline.
func (r *Recorder) LeaseRevoke(now time.Duration, self types.NodeID) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvLeaseRevoke, Peer: self})
}

// Compact records a log compaction: boundary must never exceed the commit
// index at compaction time.
func (r *Recorder) Compact(now time.Duration, boundary types.Index, commit types.Index) {
	if r == nil {
		return
	}
	r.record(Event{At: now, Type: EvCompact, Index: boundary, Arg: uint64(commit)})
}

// FsyncBatch records one durable group-commit batch (records and bytes it
// carried, and how long its write and fsync took) and feeds the batch-size
// and fsync-duration histograms. Unlike the span methods it is called from
// the storage flush goroutine, so the histogram updates share the ring
// lock.
func (r *Recorder) FsyncBatch(now time.Duration, records, bytes int, took time.Duration) {
	if r == nil {
		return
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	r.fsyncSize.Observe(uint64(records))
	r.fsyncDur.Observe(took)
	r.recordLocked(Event{At: now, Type: EvFsyncBatch, Arg: uint64(records), Arg2: uint64(bytes)})
}

// ApplyLag feeds the commit→apply pipeline delay histogram (no ring event:
// it fires once per delivered commit batch and would drown the narrative).
func (r *Recorder) ApplyLag(d time.Duration) {
	if r == nil {
		return
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	r.applyLag.Observe(d)
}

// EntryDigest summarizes an entry's identity as a 64-bit FNV-1a digest
// over (Kind, PID, Session, SessionSeq, Data) — the same identity notion
// the harness SafetyChecker compares, so two nodes committing different
// values at one index digest apart. Term and Approval are excluded: they
// are leader-stamped bookkeeping, not proposal identity.
func EntryDigest(e types.Entry) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	byteIn := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	wordIn := func(v uint64) {
		for i := 0; i < 8; i++ {
			byteIn(byte(v >> (8 * i)))
		}
	}
	byteIn(byte(e.Kind))
	for i := 0; i < len(e.PID.Proposer); i++ {
		byteIn(e.PID.Proposer[i])
	}
	wordIn(e.PID.Seq)
	wordIn(uint64(e.Session))
	wordIn(e.SessionSeq)
	for _, b := range e.Data {
		byteIn(b)
	}
	return h
}

// --- Wire-propagated causal tracing ------------------------------------------

// tracedEntry is one leader-side sampled entry awaiting per-peer
// replication acks, so classic-Raft AppendEntriesResp messages (which name
// only a match index, not the entries) attribute HopAck events to the
// right trace.
type tracedEntry struct {
	index types.Index
	tid   uint64
	acked map[types.NodeID]bool
}

// tracedCap bounds the leader-side traced-entry table; sampled entries are
// sparse by construction, so overflow means a stuck window — drop oldest.
const tracedCap = 256

// MintTrace draws the next trace ID from the deterministic every-Nth
// sampler: 0 (unsampled — no wire bytes, no hop events) unless this is the
// SampleRate-th mint since the last sampled one. IDs mix the recorder's
// label hash with a ring-wide counter, so concurrent origins never
// collide. Nil-safe: the disabled recorder never samples.
func (r *Recorder) MintTrace() uint64 {
	if r == nil || r.sampleEvery == 0 {
		return 0
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	r.r.mints++
	if r.r.mints%r.sampleEvery != 0 {
		return 0
	}
	const prime = 1099511628211
	id := (r.labelHash ^ r.r.mints) * prime
	if id == 0 {
		id = prime
	}
	return id
}

// Sampling reports whether this recorder mints trace IDs at all — the
// cores use it to skip per-entry bookkeeping entirely when tracing is off.
func (r *Recorder) Sampling() bool {
	return r != nil && r.sampleEvery > 0
}

// TraceHop records one hop of a sampled operation's journey across the
// cluster. No-op when tid is 0 (the unsampled fast path costs one compare)
// or the recorder is disabled.
func (r *Recorder) TraceHop(now time.Duration, tid uint64, hop HopKind, peer types.NodeID, index types.Index) {
	if r == nil || tid == 0 {
		return
	}
	r.record(Event{At: now, Type: EvTraceHop, Trace: tid, Arg: uint64(hop), Peer: peer, Index: index})
}

// TraceAppendIndex registers a sampled entry the leader just appended at
// index, so subsequent per-peer acks attribute to its trace (TraceAck).
// No-op for tid 0.
func (r *Recorder) TraceAppendIndex(index types.Index, tid uint64) {
	if r == nil || tid == 0 {
		return
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	for i := range r.traced {
		if r.traced[i].index == index {
			r.traced[i].tid = tid
			return
		}
	}
	if len(r.traced) >= tracedCap {
		r.traced = r.traced[1:]
	}
	r.traced = append(r.traced, tracedEntry{index: index, tid: tid, acked: make(map[types.NodeID]bool)})
}

// TraceAck records a HopAck for every registered traced entry the peer's
// acknowledged match index newly covers (each peer acks each traced entry
// once).
func (r *Recorder) TraceAck(now time.Duration, peer types.NodeID, match types.Index) {
	if r == nil || len(r.traced) == 0 {
		return
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	for i := range r.traced {
		t := &r.traced[i]
		if t.index > match || t.acked[peer] {
			continue
		}
		t.acked[peer] = true
		r.recordLocked(Event{At: now, Type: EvTraceHop, Trace: t.tid, Arg: uint64(HopAck), Peer: peer, Index: t.index})
	}
}

// TraceCommitted retires traced entries the commit index has covered (their
// replication story is complete; later acks are catch-up noise).
func (r *Recorder) TraceCommitted(commit types.Index) {
	if r == nil || len(r.traced) == 0 {
		return
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	kept := r.traced[:0]
	for _, t := range r.traced {
		if t.index > commit {
			kept = append(kept, t)
		}
	}
	r.traced = kept
}

// --- Live sliding-window aggregates ------------------------------------------

// LiveStats snapshots the per-group sliding-window proposal aggregates
// (rate, p50, p99 over the last stats.RollingWindow) across every recorder
// sharing this ring. Keys are group labels ("" = the flat cluster log).
// Nil-safe (returns nil).
func (r *Recorder) LiveStats(now time.Duration) map[string]stats.RollingSnapshot {
	if r == nil {
		return nil
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	if len(r.r.rolling) == 0 {
		return nil
	}
	out := make(map[string]stats.RollingSnapshot, len(r.r.rolling))
	for g, roll := range r.r.rolling {
		out[g] = roll.Snapshot(now)
	}
	return out
}

// observeRollingLocked feeds one completed proposal span into the group's
// sliding window. Caller holds the ring lock.
func (r *Recorder) observeRollingLocked(now, total time.Duration) {
	if r.r.rolling == nil {
		return
	}
	roll, ok := r.r.rolling[r.group]
	if !ok {
		roll = stats.NewRolling()
		r.r.rolling[r.group] = roll
	}
	roll.Observe(now, total)
}

// --- Proposal lifecycle spans ------------------------------------------------

// SpanStart opens a lifecycle span for pid, stamping StagePropose. tid
// binds the proposal's sampled trace ID (0 = unsampled) to every stage
// event the span emits. A full span table drops the oldest span (its
// proposal is likely stuck or forgotten) rather than the new one.
func (r *Recorder) SpanStart(now time.Duration, pid types.ProposalID, term types.Term, tid uint64) {
	if r == nil || pid.IsZero() {
		return
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	if _, ok := r.spans[pid]; ok {
		return // re-propose under the same PID: keep the original stamps
	}
	for len(r.spans) >= defaultSpanCap && len(r.spanFIFO) > 0 {
		victim := r.spanFIFO[0]
		r.spanFIFO = r.spanFIFO[1:]
		delete(r.spans, victim)
	}
	sp := &span{term: term, trace: tid}
	sp.at[StagePropose] = now
	sp.stamped = 1 << StagePropose
	r.spans[pid] = sp
	r.spanFIFO = append(r.spanFIFO, pid)
	r.recordLocked(Event{At: now, Type: EvStage, Term: term, PID: pid, Trace: tid, Arg: uint64(StagePropose)})
}

// SpanStage stamps a lifecycle stage on pid's span (first stamp wins;
// unknown spans no-op, so followers never accumulate state for proposals
// they merely replicate).
func (r *Recorder) SpanStage(now time.Duration, pid types.ProposalID, stage Stage, index types.Index) {
	if r == nil || pid.IsZero() {
		return
	}
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	sp, ok := r.spans[pid]
	if !ok || sp.stamped&(1<<stage) != 0 {
		return
	}
	sp.at[stage] = now
	sp.stamped |= 1 << stage
	r.recordLocked(Event{At: now, Type: EvStage, Term: sp.term, PID: pid, Trace: sp.trace, Index: index, Arg: uint64(stage)})
}

// SpanEnd stamps StageApply, folds the stage gaps into the hist.stage_*
// histograms, emits the slow-op report when the total crosses the
// threshold, and forgets the span.
func (r *Recorder) SpanEnd(now time.Duration, pid types.ProposalID, index types.Index) {
	if r == nil || pid.IsZero() {
		return
	}
	slow, peers, term, stamps, stamped, total, tid := r.spanEndLocked(now, pid, index)
	if !slow {
		return
	}
	attrs := []any{
		"node", r.label,
		"proposal", pid.String(),
		"term", uint64(term),
		"index", uint64(index),
		"total", total,
	}
	if tid != 0 {
		attrs = append(attrs, "trace", fmt.Sprintf("%016x", tid))
	}
	p := stamps[StagePropose]
	for s := StageAppend; s < numStages; s++ {
		if stamped&(1<<s) == 0 {
			continue
		}
		gap := stamps[s] - p
		if gap < 0 {
			gap = 0
		}
		attrs = append(attrs, s.String(), gap)
		if stamps[s] > p {
			p = stamps[s]
		}
	}
	if len(peers) > 0 {
		names := make([]string, len(peers))
		for i, id := range peers {
			names[i] = string(id)
		}
		attrs = append(attrs, "peers", strings.Join(names, ","))
	}
	r.log.Warn("hraft: slow proposal", attrs...)
}

// spanEndLocked is SpanEnd's under-lock half: it folds the span into the
// histograms and reports whether a slow-op log line is due. The deferred
// unlock keeps the ring usable if a strict-mode audit sink panics out of
// recordLocked.
func (r *Recorder) spanEndLocked(now time.Duration, pid types.ProposalID, index types.Index) (slow bool, peers []types.NodeID, term types.Term, stamps [numStages]time.Duration, stamped uint8, total time.Duration, tid uint64) {
	r.r.mu.Lock()
	defer r.r.mu.Unlock()
	sp, ok := r.spans[pid]
	if !ok {
		return
	}
	delete(r.spans, pid)
	sp.at[StageApply] = now
	sp.stamped |= 1 << StageApply
	r.recordLocked(Event{At: now, Type: EvStage, Term: sp.term, PID: pid, Trace: sp.trace, Index: index, Arg: uint64(StageApply)})

	// Stage gap = time since the previous stamped stage, clamped at zero
	// (Fast Raft's proposer broadcast can stamp replicate before append).
	prev := sp.at[StagePropose]
	for s := StageAppend; s < numStages; s++ {
		if sp.stamped&(1<<s) == 0 {
			continue
		}
		gap := sp.at[s] - prev
		if gap < 0 {
			gap = 0
		}
		r.hists[s].Observe(gap)
		if sp.at[s] > prev {
			prev = sp.at[s]
		}
	}
	total = now - sp.at[StagePropose]
	r.total.Observe(total)
	r.observeRollingLocked(now, total)

	slow = r.slow > 0 && total >= r.slow
	if slow {
		r.recordLocked(Event{At: now, Type: EvSlowOp, Term: sp.term, PID: pid, Trace: sp.trace, Index: index, Arg: uint64(total / time.Microsecond)})
		if r.peersFn != nil {
			peers = r.peersFn()
		}
	}
	return slow, peers, sp.term, sp.at, sp.stamped, total, sp.trace
}

// SpanAbandon forgets a span without observing it (proposal failed or the
// node stepped down with it unresolved).
func (r *Recorder) SpanAbandon(pid types.ProposalID) {
	if r == nil || pid.IsZero() {
		return
	}
	r.r.mu.Lock()
	delete(r.spans, pid)
	r.r.mu.Unlock()
}

// --- Merging & formatting ----------------------------------------------------

// Merge combines event snapshots from several recorders into one sequence
// ordered by time (ties: node label, then sequence number), the shape the
// harness dumps when a test fails.
func Merge(snapshots ...[]Event) []Event {
	var out []Event
	for _, s := range snapshots {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}

// FormatJSONL renders events as JSON lines (one event object per line) —
// the machine-readable dump shape ParseEvents reads back.
func FormatJSONL(events []Event) ([]byte, error) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return nil, err
		}
	}
	return []byte(b.String()), nil
}

// ParseEvents decodes a dumped trace in any of the shapes the tooling
// produces: JSON lines (the harness .jsonl artifact), a JSON array, or a
// {"events": [...]} object (the /debug/hraft/trace?format=json response).
func ParseEvents(data []byte) ([]Event, error) {
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return nil, nil
	}
	switch trimmed[0] {
	case '[':
		var out []Event
		if err := json.Unmarshal([]byte(trimmed), &out); err != nil {
			return nil, err
		}
		return out, nil
	case '{':
		// One object per line (JSONL), or a single wrapper object.
		if i := strings.IndexByte(trimmed, '\n'); i < 0 {
			var wrapper struct {
				Events []Event `json:"events"`
			}
			if err := json.Unmarshal([]byte(trimmed), &wrapper); err == nil && wrapper.Events != nil {
				return wrapper.Events, nil
			}
			var one Event
			if err := json.Unmarshal([]byte(trimmed), &one); err != nil {
				return nil, err
			}
			return []Event{one}, nil
		}
		var out []Event
		for ln, line := range strings.Split(trimmed, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			var e Event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
			out = append(out, e)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("trace: unrecognized dump format (want JSON lines, array, or object)")
	}
}

// Format renders events one per line: timestamp, node label, description.
func Format(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%12s %-12s %-18s %s\n", e.At, e.Node, e.Type, e)
	}
	return b.String()
}
