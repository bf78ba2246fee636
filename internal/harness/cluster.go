package harness

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/core/fastraft"
	"github.com/hraft-io/hraft/internal/raft"
	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Kind selects the consensus implementation a cluster runs.
type Kind int

const (
	// KindRaft runs the classic Raft baseline.
	KindRaft Kind = iota + 1
	// KindFastRaft runs Fast Raft.
	KindFastRaft
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRaft:
		return "raft"
	case KindFastRaft:
		return "fastraft"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AuditMode selects how a cluster runs the online safety auditor.
type AuditMode int

const (
	// AuditStrict (the zero value: every harness test audits by default)
	// attaches the auditor to every node's event stream and panics on the
	// first invariant violation, with the violating event window in the
	// report — the failing test points at the exact breach.
	AuditStrict AuditMode = iota
	// AuditRecord attaches the auditor but only collects violations, for
	// tests that seed deliberate violations and inspect the report.
	AuditRecord
	// AuditOff disables auditing (benchmarks pin the recorder-free path).
	AuditOff
)

// Options configures a simulated flat cluster.
type Options struct {
	// Kind selects the protocol.
	Kind Kind
	// Nodes are the initial voting members.
	Nodes []types.NodeID
	// Seed drives all randomness in the run.
	Seed int64
	// Topology is the latency model (nil = single region).
	Topology *simnet.Topology
	// LossProb is the per-message drop probability.
	LossProb float64
	// DupProb is the per-message duplication probability.
	DupProb float64
	// HeartbeatInterval is the leader tick period (0 = paper default).
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound election timeouts (0 = derived).
	ElectionTimeoutMin time.Duration
	// ElectionTimeoutMax must exceed ElectionTimeoutMin when set.
	ElectionTimeoutMax time.Duration
	// ProposalTimeout is the proposer retry period (0 = derived).
	ProposalTimeout time.Duration
	// MemberTimeoutRounds is Fast Raft's silent-leave threshold.
	MemberTimeoutRounds int
	// SnapshotThreshold enables snapshotting + log compaction once this
	// many entries commit beyond the last snapshot (0 = disabled).
	SnapshotThreshold int
	// Snapshotter, when set, gives each node incarnation its application
	// snapshotter (nil = none: snapshots carry no application data).
	Snapshotter func(id types.NodeID) types.Snapshotter
	// MaxEntriesPerAppend caps AppendEntries payloads (0 = unlimited).
	MaxEntriesPerAppend int
	// MaxInflightAppends bounds outstanding AppendEntries per follower
	// (0 = replica default).
	MaxInflightAppends int
	// MaxInflightBytes bounds outstanding encoded entry bytes per follower
	// (0 = replica default, 1 MiB).
	MaxInflightBytes int
	// MaxSnapshotChunk streams InstallSnapshot in chunks of at most this
	// many payload bytes (0 = whole snapshot in one message).
	MaxSnapshotChunk int
	// MaxInflightProposals caps unresolved broadcast proposals per node
	// (Fast Raft only; 0 = unlimited).
	MaxInflightProposals int
	// MaxInflightProposalBytes bounds the encoded payload bytes of
	// broadcast-but-unresolved proposals per node (Fast Raft only; 0 =
	// unlimited).
	MaxInflightProposalBytes int
	// SessionTTL expires idle client sessions (0 = no expiry).
	SessionTTL time.Duration
	// DisableFastTrack forces Fast Raft onto the classic track (ablation).
	DisableFastTrack bool
	// Paced runs every leader on the paper's round model: decisions,
	// commits, replication and read rounds only at the heartbeat tick (see
	// fastraft.Config.Paced). The paper figures and ablations run paced.
	Paced bool
	// Trace equips every node with a flight recorder; recorders survive
	// Crash/Restart so a node's ring spans its whole simulated lifetime.
	// Dump with MergedTrace or DumpTraceOnFailure.
	Trace bool
	// TraceRing overrides the per-node recorder ring capacity (0 = the
	// trace package default, or $HRAFT_TRACE_RING when set).
	TraceRing int
	// TraceSample samples every Nth proposal/read with a wire-propagated
	// trace ID (0 = no sampling); requires Trace.
	TraceSample int
	// Audit selects the safety-auditor mode; the zero value is strict
	// auditing, so every cluster is audited unless a test opts out.
	Audit AuditMode
	// GroupCommit runs every node on group-commit storage: mutations are
	// acknowledged immediately but buffer until a virtual-time fsync window
	// closes, and a Crash loses whatever had not synced — exactly like a
	// real machine losing its page cache. The cores' durability gates
	// (internal/durable) must therefore hold outputs correctly, which the
	// strict auditor checks across crash-restart.
	GroupCommit bool
	// SyncWindow is the virtual-time group-commit flush interval
	// (0 = 2ms, matching storage.WALOptions).
	SyncWindow time.Duration
}

// Host binds one consensus node to the simulated network, keeping its
// stable storage across restarts.
type Host struct {
	c       *Cluster
	id      types.NodeID
	machine Machine
	store   *storage.Memory
	// gstore wraps store with deferred durability when Options.GroupCommit
	// is set (nil otherwise); syncTimer is the armed fsync-window close.
	gstore    *storage.GroupedMemory
	syncTimer *simnet.Timer
	// bootstrap is the node's static initial configuration, reused on
	// restarts (the stable-storage log takes precedence once it contains
	// configuration entries).
	bootstrap types.Config
	alive     bool
	wake      *simnet.Timer
	// rec is the node's flight recorder (nil unless Options.Trace); it is
	// reused across Crash/Restart so one ring spans the node's lifetime.
	rec *trace.Recorder

	proposeStart map[types.ProposalID]time.Duration
	// resolved records the resolution index of every tracked proposal, so
	// tests can await and inspect outcomes (0 = session-rejected).
	resolved map[types.ProposalID]types.Index
	// readDone records the resolution of every tracked read.
	readDone map[uint64]types.ReadDone
	// OnResolve, when set, observes each local proposal resolution.
	OnResolve func(pid types.ProposalID, at, latency time.Duration)
	// OnCommit, when set, observes every entry this node applies (the
	// state-machine view: session duplicates never appear here).
	OnCommit func(e types.Entry)
}

// ReadResult returns the resolution of a tracked read, if it resolved.
func (h *Host) ReadResult(token uint64) (types.ReadDone, bool) {
	d, ok := h.readDone[token]
	return d, ok
}

// Resolved returns the resolution index of a tracked proposal, if it
// resolved (ok=false while still pending).
func (h *Host) Resolved(pid types.ProposalID) (types.Index, bool) {
	idx, ok := h.resolved[pid]
	return idx, ok
}

// ID returns the hosted node's identity.
func (h *Host) ID() types.NodeID { return h.id }

// storage returns the store machines are built over: the group-commit
// wrapper when enabled, the plain synchronous Memory otherwise.
func (h *Host) storage() storage.Storage {
	if h.gstore != nil {
		return h.gstore
	}
	return h.store
}

// Machine returns the hosted state machine.
func (h *Host) Machine() Machine { return h.machine }

// Alive reports whether the host is running.
func (h *Host) Alive() bool { return h.alive }

// Cluster simulates a flat Raft or Fast Raft cluster.
type Cluster struct {
	opts Options
	// Sched is the virtual-time scheduler.
	Sched *simnet.Scheduler
	// Net is the simulated network.
	Net *simnet.Network
	// Safety accumulates invariant violations.
	Safety *SafetyChecker
	// Latencies collects every proposal resolution in the run.
	Latencies *stats.Series
	// Timeline records leadership changes, configuration changes and
	// churn events for scenario output.
	Timeline *Timeline
	// Audit is the streaming safety auditor attached to every node's
	// recorder (nil when Options.Audit is AuditOff).
	Audit *audit.Auditor

	hosts map[types.NodeID]*Host
	rng   *rand.Rand
}

// NewCluster builds and starts a cluster (nodes begin as followers with
// randomized election timers).
func NewCluster(opts Options) (*Cluster, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("harness: cluster needs nodes")
	}
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched, opts.Topology, opts.Seed)
	net.LossProb = opts.LossProb
	net.DupProb = opts.DupProb
	c := &Cluster{
		opts:      opts,
		Sched:     sched,
		Net:       net,
		Safety:    NewSafetyChecker(),
		Latencies: &stats.Series{},
		Timeline:  NewTimeline(),
		hosts:     make(map[types.NodeID]*Host),
		rng:       rand.New(rand.NewSource(opts.Seed + 1)),
	}
	c.Audit = newAuditor(opts.Audit)
	bootstrap := types.NewConfig(opts.Nodes...)
	for _, id := range opts.Nodes {
		if _, err := c.addHost(id, bootstrap); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// addHost creates, registers and schedules a host.
func (c *Cluster) addHost(id types.NodeID, bootstrap types.Config) (*Host, error) {
	h := &Host{
		c:            c,
		id:           id,
		store:        storage.NewMemory(),
		bootstrap:    bootstrap.Clone(),
		proposeStart: make(map[types.ProposalID]time.Duration),
		resolved:     make(map[types.ProposalID]types.Index),
		readDone:     make(map[uint64]types.ReadDone),
	}
	if c.opts.GroupCommit {
		h.gstore = storage.NewGroupedMemory(h.store)
	}
	if c.opts.Trace || c.Audit != nil {
		h.rec = trace.New(trace.Config{Node: string(id), Size: c.opts.TraceRing, SampleRate: c.opts.TraceSample})
		c.Audit.AttachTo(h.rec)
	}
	m, err := c.makeMachine(id, bootstrap, h.storage(), h.rec)
	if err != nil {
		return nil, err
	}
	h.machine = m
	h.alive = true
	c.hosts[id] = h
	c.Net.Register(id, func(env types.Envelope) {
		if !h.alive {
			return
		}
		h.machine.Step(c.Sched.Now(), env)
		c.drain(h)
	})
	c.drain(h)
	return h, nil
}

func (c *Cluster) makeMachine(id types.NodeID, bootstrap types.Config, store storage.Storage, rec *trace.Recorder) (Machine, error) {
	nodeRand := rand.New(rand.NewSource(c.rng.Int63()))
	var snapshotter types.Snapshotter
	if c.opts.Snapshotter != nil {
		snapshotter = c.opts.Snapshotter(id)
	}
	switch c.opts.Kind {
	case KindRaft:
		return raft.New(raft.Config{
			ID:                  id,
			Bootstrap:           bootstrap,
			Storage:             store,
			HeartbeatInterval:   c.opts.HeartbeatInterval,
			ElectionTimeoutMin:  c.opts.ElectionTimeoutMin,
			ElectionTimeoutMax:  c.opts.ElectionTimeoutMax,
			ProposalTimeout:     c.opts.ProposalTimeout,
			SnapshotThreshold:   c.opts.SnapshotThreshold,
			Snapshotter:         snapshotter,
			MaxEntriesPerAppend: c.opts.MaxEntriesPerAppend,
			MaxInflightAppends:  c.opts.MaxInflightAppends,
			MaxInflightBytes:    c.opts.MaxInflightBytes,
			MaxSnapshotChunk:    c.opts.MaxSnapshotChunk,
			SessionTTL:          c.opts.SessionTTL,
			Paced:               c.opts.Paced,
			Rand:                nodeRand,
			Recorder:            rec,
		})
	case KindFastRaft:
		return fastraft.New(fastraft.Config{
			ID:                       id,
			Bootstrap:                bootstrap,
			Storage:                  store,
			HeartbeatInterval:        c.opts.HeartbeatInterval,
			ElectionTimeoutMin:       c.opts.ElectionTimeoutMin,
			ElectionTimeoutMax:       c.opts.ElectionTimeoutMax,
			ProposalTimeout:          c.opts.ProposalTimeout,
			MemberTimeoutRounds:      c.opts.MemberTimeoutRounds,
			SnapshotThreshold:        c.opts.SnapshotThreshold,
			Snapshotter:              snapshotter,
			MaxEntriesPerAppend:      c.opts.MaxEntriesPerAppend,
			MaxInflightAppends:       c.opts.MaxInflightAppends,
			MaxInflightBytes:         c.opts.MaxInflightBytes,
			MaxSnapshotChunk:         c.opts.MaxSnapshotChunk,
			MaxInflightProposals:     c.opts.MaxInflightProposals,
			MaxInflightProposalBytes: c.opts.MaxInflightProposalBytes,
			SessionTTL:               c.opts.SessionTTL,
			DisableFastTrack:         c.opts.DisableFastTrack,
			Paced:                    c.opts.Paced,
			Rand:                     nodeRand,
			Recorder:                 rec,
		})
	default:
		return nil, fmt.Errorf("harness: unknown kind %v", c.opts.Kind)
	}
}

// drain flushes a host's outputs into the network, the safety checker and
// the latency collectors, then reschedules its wake-up timer.
func (c *Cluster) drain(h *Host) {
	now := c.Sched.Now()
	for _, env := range h.machine.TakeOutbox() {
		c.Net.Send(env)
	}
	for _, e := range h.machine.TakeCommitted() {
		c.Safety.RecordCommit("", h.id, e)
		if h.OnCommit != nil {
			h.OnCommit(e)
		}
		if e.Kind == types.KindConfig && e.Config != nil && h.machine.Role() == types.RoleLeader {
			c.Timeline.ObserveConfig(now, "", h.id, *e.Config)
		}
	}
	if h.machine.Role() == types.RoleLeader {
		c.Safety.RecordLeader("", h.machine.Term(), h.id)
		c.Timeline.ObserveLeader(now, "", h.machine.Term(), h.id)
	}
	for _, res := range h.machine.TakeResolved() {
		h.resolved[res.PID] = res.Index
		start, ok := h.proposeStart[res.PID]
		if !ok {
			continue
		}
		delete(h.proposeStart, res.PID)
		lat := now - start
		c.Latencies.Add(now, lat)
		if h.OnResolve != nil {
			h.OnResolve(res.PID, now, lat)
		}
	}
	for _, d := range h.machine.TakeReadDone() {
		h.readDone[d.ID] = d
	}
	c.schedule(h)
	c.armSync(h)
}

// syncWindow is the virtual-time group-commit flush interval.
func (c *Cluster) syncWindow() time.Duration {
	if c.opts.SyncWindow > 0 {
		return c.opts.SyncWindow
	}
	return 2 * time.Millisecond
}

// armSync schedules the fsync-window close for a host with unsynced
// buffered mutations; when it fires the buffered records become durable
// and the machine's gated outputs release.
func (c *Cluster) armSync(h *Host) {
	if h.gstore == nil || !h.alive || !h.gstore.Pending() || h.syncTimer != nil {
		return
	}
	h.syncTimer = c.Sched.At(c.Sched.Now()+c.syncWindow(), func() {
		h.syncTimer = nil
		if !h.alive {
			return
		}
		if err := h.gstore.Sync(); err != nil {
			panic(fmt.Sprintf("harness: sync %s: %v", h.id, err))
		}
		h.machine.SyncDone(c.Sched.Now(), h.gstore.DurableLSN())
		c.drain(h)
	})
}

// schedule re-arms the host's wake timer from the machine's next deadline.
func (c *Cluster) schedule(h *Host) {
	if h.wake != nil {
		h.wake.Cancel()
		h.wake = nil
	}
	if !h.alive {
		return
	}
	d := h.machine.NextDeadline()
	if d == 0 {
		return
	}
	h.wake = c.Sched.At(d, func() {
		if !h.alive {
			return
		}
		h.machine.Tick(c.Sched.Now())
		c.drain(h)
	})
}

// Host returns the host for id (nil if unknown).
func (c *Cluster) Host(id types.NodeID) *Host { return c.hosts[id] }

// Hosts returns all hosts.
func (c *Cluster) Hosts() map[types.NodeID]*Host { return c.hosts }

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d time.Duration) {
	c.Sched.RunUntil(c.Sched.Now() + d)
}

// RunUntil steps the simulation until cond holds or virtual time passes
// deadline; it reports whether cond held.
func (c *Cluster) RunUntil(cond func() bool, deadline time.Duration) bool {
	for {
		if cond() {
			return true
		}
		if c.Sched.Now() > deadline {
			return false
		}
		if !c.Sched.Step() {
			return cond()
		}
	}
}

// Leader returns the alive leader with the highest term, if any.
func (c *Cluster) Leader() (*Host, bool) {
	var best *Host
	for _, h := range c.hosts {
		if !h.alive || h.machine.Role() != types.RoleLeader {
			continue
		}
		if best == nil || h.machine.Term() > best.machine.Term() {
			best = h
		}
	}
	return best, best != nil
}

// WaitForLeader runs until some node is leader, up to the deadline.
func (c *Cluster) WaitForLeader(deadline time.Duration) (types.NodeID, bool) {
	ok := c.RunUntil(func() bool {
		_, ok := c.Leader()
		return ok
	}, deadline)
	if !ok {
		return types.None, false
	}
	h, _ := c.Leader()
	return h.id, true
}

// Propose submits a payload from the given node, recording its start time
// for latency measurement.
func (c *Cluster) Propose(id types.NodeID, data []byte) (types.ProposalID, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return types.ProposalID{}, fmt.Errorf("harness: node %s not running", id)
	}
	now := c.Sched.Now()
	pid := h.machine.Propose(now, data)
	h.proposeStart[pid] = now
	c.drain(h)
	return pid, nil
}

// Read registers a read on the given node under the given consistency
// mode (0 = linearizable); await its linearization index with AwaitRead.
func (c *Cluster) Read(id types.NodeID, consistency types.ReadConsistency) (uint64, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return 0, fmt.Errorf("harness: node %s not running", id)
	}
	token := h.machine.Read(c.Sched.Now(), consistency)
	c.drain(h)
	return token, nil
}

// AwaitRead runs the simulation until the read tracked on node id
// resolves, returning its outcome.
func (c *Cluster) AwaitRead(id types.NodeID, token uint64, deadline time.Duration) (types.ReadDone, bool) {
	h := c.hosts[id]
	if h == nil {
		return types.ReadDone{}, false
	}
	ok := c.RunUntil(func() bool {
		_, done := h.readDone[token]
		return done
	}, deadline)
	if !ok {
		return types.ReadDone{}, false
	}
	return h.readDone[token], true
}

// OpenSession proposes a client-session registration from the given node;
// the returned proposal resolves with the new session's ID (await it with
// AwaitResolution).
func (c *Cluster) OpenSession(id types.NodeID) (types.ProposalID, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return types.ProposalID{}, fmt.Errorf("harness: node %s not running", id)
	}
	now := c.Sched.Now()
	var pid types.ProposalID
	switch m := h.machine.(type) {
	case *fastraft.Node:
		pid = m.OpenSession(now)
	case *raft.Node:
		pid = m.OpenSession(now)
	default:
		return types.ProposalID{}, fmt.Errorf("harness: %T does not support sessions", h.machine)
	}
	h.proposeStart[pid] = now
	c.drain(h)
	return pid, nil
}

// ProposeSession submits a payload under (sid, seq) from the given node.
func (c *Cluster) ProposeSession(id types.NodeID, sid types.SessionID, seq uint64, data []byte) (types.ProposalID, error) {
	return c.ProposeSessionAck(id, sid, seq, 0, data)
}

// ProposeSessionAck submits a payload under (sid, seq) carrying the
// client's retry floor ack (0 = none).
func (c *Cluster) ProposeSessionAck(id types.NodeID, sid types.SessionID, seq, ack uint64, data []byte) (types.ProposalID, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return types.ProposalID{}, fmt.Errorf("harness: node %s not running", id)
	}
	now := c.Sched.Now()
	var pid types.ProposalID
	switch m := h.machine.(type) {
	case *fastraft.Node:
		pid = m.ProposeSession(now, sid, seq, ack, data)
	case *raft.Node:
		pid = m.ProposeSession(now, sid, seq, ack, data)
	default:
		return types.ProposalID{}, fmt.Errorf("harness: %T does not support sessions", h.machine)
	}
	h.proposeStart[pid] = now
	c.drain(h)
	return pid, nil
}

// AwaitResolution runs the simulation until the proposal tracked on node id
// resolves, returning its resolution index (0 = session-rejected).
func (c *Cluster) AwaitResolution(id types.NodeID, pid types.ProposalID, deadline time.Duration) (types.Index, bool) {
	h := c.hosts[id]
	if h == nil {
		return 0, false
	}
	ok := c.RunUntil(func() bool {
		_, done := h.resolved[pid]
		return done
	}, deadline)
	if !ok {
		return 0, false
	}
	return h.resolved[pid], true
}

// Crash stops a node without warning (also used for silent leaves); its
// stable storage is preserved for Restart.
func (c *Cluster) Crash(id types.NodeID) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return
	}
	h.alive = false
	if h.wake != nil {
		h.wake.Cancel()
		h.wake = nil
	}
	if h.syncTimer != nil {
		h.syncTimer.Cancel()
		h.syncTimer = nil
	}
	if h.gstore != nil {
		// Power loss: everything inside the open fsync window is gone.
		h.gstore.Crash()
	}
	c.Net.Unregister(id)
	c.Audit.NodeDown(string(id))
	c.Timeline.Crash(c.Sched.Now(), id)
}

// Restart brings a crashed node back from its stable storage.
func (c *Cluster) Restart(id types.NodeID) error {
	h := c.hosts[id]
	if h == nil {
		return fmt.Errorf("harness: unknown node %s", id)
	}
	if h.alive {
		return fmt.Errorf("harness: node %s already running", id)
	}
	m, err := c.makeMachine(id, h.bootstrap, h.storage(), h.rec)
	if err != nil {
		return err
	}
	h.machine = m
	h.alive = true
	h.proposeStart = make(map[types.ProposalID]time.Duration)
	h.resolved = make(map[types.ProposalID]types.Index)
	h.readDone = make(map[uint64]types.ReadDone)
	c.Net.Register(id, func(env types.Envelope) {
		if !h.alive {
			return
		}
		h.machine.Step(c.Sched.Now(), env)
		c.drain(h)
	})
	c.Timeline.Restart(c.Sched.Now(), id)
	c.drain(h)
	return nil
}

// AddNode starts a brand-new Fast Raft site and has it join via the given
// contacts (the paper's join protocol).
func (c *Cluster) AddNode(id types.NodeID, contacts []types.NodeID) (*Host, error) {
	if c.opts.Kind != KindFastRaft {
		return nil, fmt.Errorf("harness: AddNode requires Fast Raft")
	}
	if _, exists := c.hosts[id]; exists {
		return nil, fmt.Errorf("harness: node %s already exists", id)
	}
	h, err := c.addHost(id, types.NewConfig())
	if err != nil {
		return nil, err
	}
	fr, ok := h.machine.(*fastraft.Node)
	if !ok {
		return nil, fmt.Errorf("harness: unexpected machine type %T", h.machine)
	}
	fr.Join(c.Sched.Now(), contacts)
	c.drain(h)
	return h, nil
}

// Leave announces a graceful leave from the given Fast Raft site.
func (c *Cluster) Leave(id types.NodeID) error {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return fmt.Errorf("harness: node %s not running", id)
	}
	fr, ok := h.machine.(*fastraft.Node)
	if !ok {
		return fmt.Errorf("harness: Leave requires Fast Raft")
	}
	fr.Leave(c.Sched.Now())
	c.drain(h)
	return nil
}

// CommitsAgree verifies that every alive node's committed prefix matches
// the safety checker's record (a liveness-flavoured sanity check used by
// tests).
func (c *Cluster) CommitsAgree() error {
	return c.Safety.Err()
}
