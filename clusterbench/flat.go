package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// Settings shared by the flat (single-group) workloads.
const (
	flatSize         = 3
	flatHeartbeat    = 10 * time.Millisecond
	maxEntriesPerMsg = 64 // keeps catch-up AppendEntries inside one datagram
	snapshotEvery    = 256
	snapshotChunk    = 16 << 10
)

// flatNode is the part of hraft.Node and hraft.RaftNode the benchmark uses.
type flatNode interface {
	Propose(ctx context.Context, data []byte) (hraft.Index, error)
	ReadWith(ctx context.Context, c hraft.ReadConsistency) (hraft.Index, error)
	Commits() <-chan hraft.Entry
	Term() hraft.Term
	CommitIndex() hraft.Index
	Role() hraft.Role
	Stop()
}

type flatOptions struct {
	raft      bool // classic Raft instead of Fast Raft
	snapshots bool // counter state machine with log compaction
	tracer    *tracer
}

// member is one site of a flat cluster and its current incarnation.
type member struct {
	idx   int
	id    hraft.NodeID
	addr  string // the node's own UDP address, kept across restarts
	wal   string
	relay *relay // traced runs: peers send through it

	node   flatNode // nil while stopped
	store  hraft.Storage
	sm     *counters
	ctx    context.Context // cancelled when this incarnation stops
	cancel context.CancelFunc
	done   chan struct{} // stops the commit consumer
	wg     sync.WaitGroup
}

// flatCluster is three nodes of one core on loopback UDP, each with its own
// eager group-commit WAL.
type flatCluster struct {
	opt     flatOptions
	log     *commitLog
	peers   []hraft.NodeID
	mu      sync.Mutex
	members []*member
}

// startFlat builds a cluster in dir and returns it with its set-up time:
// from the first node's construction until a leader is elected and a first
// write is committed on every node.
func startFlat(dir string, opt flatOptions) (*flatCluster, time.Duration, error) {
	t0 := time.Now()
	c := &flatCluster{opt: opt, log: newCommitLog(flatSize)}
	var udps []*hraft.UDPTransport
	fail := func(err error) (*flatCluster, time.Duration, error) {
		for _, u := range udps {
			u.Close() // idempotent; boot closes the ones it took over
		}
		c.close()
		return nil, 0, err
	}
	for i := 0; i < flatSize; i++ {
		id := hraft.NodeID(fmt.Sprintf("n%d", i+1))
		udp, err := hraft.ListenUDP(id, "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		udps = append(udps, udp)
		m := &member{idx: i, id: id, addr: udp.LocalAddr(), wal: filepath.Join(dir, string(id))}
		c.members = append(c.members, m)
		c.peers = append(c.peers, id)
		if opt.tracer != nil {
			if m.relay, err = newRelay(m.addr, opt.tracer); err != nil {
				return fail(err)
			}
		}
	}
	for i, m := range c.members {
		if err := c.boot(m, udps[i]); err != nil {
			return fail(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	idx, err := c.members[0].node.Propose(ctx, []byte("setup"))
	if err != nil {
		return fail(fmt.Errorf("first write: %w", err))
	}
	if !c.log.waitFor(c.all(), idx, 10*time.Second) {
		return fail(errors.New("first write not committed on every node"))
	}
	return c, time.Since(t0), nil
}

func (c *flatCluster) all() []int {
	out := make([]int, len(c.members))
	for i := range out {
		out[i] = i
	}
	return out
}

// boot starts a new incarnation of m on the given transport, from whatever
// its WAL holds.
func (c *flatCluster) boot(m *member, udp *hraft.UDPTransport) error {
	for _, p := range c.members {
		if p == m {
			continue
		}
		addr := p.addr
		if p.relay != nil {
			addr = p.relay.addr()
		}
		if err := udp.AddPeer(p.id, addr); err != nil {
			udp.Close()
			return err
		}
	}
	tr := c.opt.tracer
	wopt := hraft.WALOptions{GroupCommit: true, SyncWindow: -1}
	if tr != nil {
		wopt.FsyncObserver = tr.fsyncObserver(string(m.id))
	}
	wal, err := hraft.OpenWALOptions(m.wal, wopt)
	if err != nil {
		udp.Close()
		return err
	}
	var store hraft.Storage = wal
	var transport hraft.Transport = udp
	if tr != nil {
		ts, err := newTracedStorage(wal, tr, string(m.id))
		if err != nil {
			wal.Close()
			udp.Close()
			return err
		}
		store = ts
		transport = &tracedTransport{Transport: udp, t: tr, node: string(m.id), layer: "udpnet"}
	}
	opts := hraft.Options{
		ID:                  m.id,
		Peers:               c.peers,
		Transport:           transport,
		Storage:             store,
		HeartbeatInterval:   flatHeartbeat,
		MaxEntriesPerAppend: maxEntriesPerMsg,
		Seed:                int64(m.idx + 1),
	}
	var sm *counters
	if c.opt.snapshots {
		sm = newCounters()
		opts.SnapshotThreshold = snapshotEvery
		opts.Snapshotter = sm
		opts.MaxSnapshotChunk = snapshotChunk
	}
	var node flatNode
	if c.opt.raft {
		node, err = hraft.NewRaftNode(opts)
	} else {
		node, err = hraft.NewNode(opts)
	}
	if err != nil {
		wal.Close()
		udp.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			select {
			case e := <-node.Commits():
				// Apply before recording, so that a waiter that sees
				// the entry in the log also sees it applied.
				if sm != nil {
					sm.apply(e)
				}
				c.log.record(m.idx, e, time.Now())
			case <-done:
				return
			}
		}
	}()
	c.mu.Lock()
	m.node, m.store, m.sm, m.ctx, m.cancel, m.done = node, wal, sm, ctx, cancel, done
	c.mu.Unlock()
	return nil
}

// stop crashes m's current incarnation: the node stops, its socket and WAL
// close, and operations waiting on it are told to go elsewhere.
func (c *flatCluster) stop(m *member) {
	c.mu.Lock()
	node := m.node
	m.node = nil
	c.mu.Unlock()
	if node == nil {
		return
	}
	m.cancel()
	node.Stop()
	close(m.done)
	m.wg.Wait()
	m.store.Close()
}

// restart boots m again on its old address from its WAL.
func (c *flatCluster) restart(m *member) error {
	udp, err := hraft.ListenUDP(m.id, m.addr)
	if err != nil {
		return err
	}
	return c.boot(m, udp)
}

func (c *flatCluster) close() {
	for _, m := range c.members {
		c.stop(m)
		if m.relay != nil {
			m.relay.close()
		}
	}
}

// live returns the first running member at or after site.
func (c *flatCluster) live(site int) (*member, flatNode, context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := 0; k < len(c.members); k++ {
		m := c.members[(site+k)%len(c.members)]
		if m.node != nil {
			return m, m.node, m.ctx
		}
	}
	return nil, nil, nil
}

// running returns m's node, or nil while m is stopped.
func (c *flatCluster) running(m *member) flatNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return m.node
}

// leader returns the running member that reports itself leader, if any.
func (c *flatCluster) leader() *member {
	for _, m := range c.members {
		if node := c.running(m); node != nil && node.Role() == hraft.Leader {
			return m
		}
	}
	return nil
}

// maxTerm is the highest term any running member reports.
func (c *flatCluster) maxTerm() hraft.Term {
	var t hraft.Term
	for _, m := range c.members {
		if node := c.running(m); node != nil {
			if x := node.Term(); x > t {
				t = x
			}
		}
	}
	return t
}

// converge waits until every running member has delivered index idx.
func (c *flatCluster) converge(idx hraft.Index) bool {
	var nodes []int
	c.mu.Lock()
	for _, m := range c.members {
		if m.node != nil {
			nodes = append(nodes, m.idx)
		}
	}
	c.mu.Unlock()
	return c.log.waitFor(nodes, idx, 5*time.Second)
}

// exec runs one client call against the op's target site. If that site is
// down, or goes down while the call waits, the call moves on to the next
// running site, as a client of a crashed server would; due and the overall
// timeout stay those of the original op.
func (c *flatCluster) exec(cl *client, o *op, checks *checkCounts) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cl.issue(o)
	site := o.site
	for {
		m, node, mctx := c.live(site)
		if m == nil {
			cl.complete(o, 0, errors.New("no running site"), checks)
			return
		}
		o.used = m.idx
		actx, acancel := context.WithCancel(ctx)
		unhook := context.AfterFunc(mctx, acancel)
		var idx hraft.Index
		var err error
		switch o.kind {
		case opWrite:
			idx, err = node.Propose(actx, o.payload)
		case opReadLinearizable:
			idx, err = node.ReadWith(actx, hraft.ReadLinearizable)
		case opReadLease:
			idx, err = node.ReadWith(actx, hraft.ReadLeaseBased)
		}
		unhook()
		acancel()
		if err != nil && ctx.Err() == nil && (mctx.Err() != nil || errors.Is(err, hraft.ErrStopped)) {
			site = m.idx + 1
			continue
		}
		cl.complete(o, idx, err, checks)
		return
	}
}

// counters is the failover workload's state machine: a count per distinct
// command. Every write is an increment of one of a few counters.
type counters struct {
	mu      sync.Mutex
	vals    map[string]int64
	applied hraft.Index
}

func newCounters() *counters { return &counters{vals: map[string]int64{}} }

func (s *counters) apply(e hraft.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Index <= s.applied {
		return // covered by a restored snapshot
	}
	s.applied = e.Index
	if e.Kind == hraft.EntryNormal {
		s.vals[string(e.Data)]++
	}
}

func (s *counters) get(k string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[k]
}

// Snapshot implements hraft.Snapshotter.
func (s *counters) Snapshot() ([]byte, hraft.Index, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(s.vals)
	return b, s.applied, err
}

// Restore implements hraft.Snapshotter.
func (s *counters) Restore(snap hraft.Snapshot) error {
	vals := map[string]int64{}
	if len(snap.Data) > 0 {
		if err := json.Unmarshal(snap.Data, &vals); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals = vals
	s.applied = snap.Meta.LastIndex
	return nil
}
