package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// craft-geo settings: 2 clusters of 3 sites, 20 ms one way between
// clusters and no delay within one.
const (
	craftClusters      = 2
	craftSitesPer      = 3
	interClusterDelay  = 20 * time.Millisecond
	craftLocalHB       = 10 * time.Millisecond
	craftGlobalHB      = 50 * time.Millisecond
	craftBatchSize     = 10
	craftBatchDelay    = 20 * time.Millisecond
	craftMaxInflight   = 2
	craftRoutePeriod   = 20 * time.Millisecond
	craftGlobalTimeout = 10 * time.Second
)

type craftSite struct {
	idx     int
	cluster int
	id      hraft.NodeID
	node    *hraft.CRaftNode
	wal     hraft.Storage
}

// craftCluster is a C-Raft deployment on an in-process network. Cluster
// endpoints are kept routed to the current local leaders.
type craftCluster struct {
	net      *hraft.InProcNetwork
	clusters []hraft.NodeID
	sites    []*craftSite
	local    *commitLog // local logs, by site
	global   *commitLog // global logs, by site

	mu   sync.Mutex
	seen []map[string]time.Time // per site: request id -> delivery in a global batch

	stop chan struct{}
	wg   sync.WaitGroup
}

// requestID is the id a payload carries in its first 16 bytes.
func requestID(data []byte) string {
	if len(data) < 16 {
		return string(data)
	}
	return string(data[:16])
}

func clusterOf(id hraft.NodeID) string { return string(id[:1]) }

// craftSiteName names a site by its index: sites a1..a3, then b1..b3.
func craftSiteName(site int) string {
	return fmt.Sprintf("%c%d", 'a'+site/craftSitesPer, site%craftSitesPer+1)
}

// startCraft builds the deployment in dir and returns it with its set-up
// time: until a first write is globally committed on every site.
func startCraft(dir string, tr *tracer) (*craftCluster, time.Duration, error) {
	t0 := time.Now()
	c := &craftCluster{
		net:    hraft.NewInProcNetwork(1),
		local:  newCommitLog(craftClusters * craftSitesPer),
		global: newCommitLog(craftClusters * craftSitesPer),
		stop:   make(chan struct{}),
	}
	c.net.Latency = func(from, to hraft.NodeID) time.Duration {
		if clusterOf(from) == clusterOf(to) {
			return 0
		}
		return interClusterDelay
	}
	for ci := 0; ci < craftClusters; ci++ {
		c.clusters = append(c.clusters, hraft.NodeID(rune('a'+ci)))
	}
	for ci, cid := range c.clusters {
		var peers []hraft.NodeID
		for s := 0; s < craftSitesPer; s++ {
			peers = append(peers, hraft.NodeID(craftSiteName(ci*craftSitesPer+s)))
		}
		for _, id := range peers {
			site := &craftSite{idx: len(c.sites), cluster: ci, id: id}
			c.sites = append(c.sites, site)
			if err := c.boot(site, cid, peers, filepath.Join(dir, string(id)), tr); err != nil {
				c.close()
				return nil, 0, err
			}
		}
	}
	c.wg.Add(1)
	go c.route()

	ctx, cancel := context.WithTimeout(context.Background(), craftGlobalTimeout)
	defer cancel()
	payload := []byte("setup")
	if _, err := c.sites[0].node.Propose(ctx, payload); err != nil {
		c.close()
		return nil, 0, fmt.Errorf("first write: %w", err)
	}
	if !c.waitGlobal([]string{requestID(payload)}, craftGlobalTimeout) {
		c.close()
		return nil, 0, errors.New("first write not globally committed on every site")
	}
	return c, time.Since(t0), nil
}

func (c *craftCluster) boot(s *craftSite, cluster hraft.NodeID, peers []hraft.NodeID, walPath string, tr *tracer) error {
	wopt := hraft.WALOptions{GroupCommit: true, SyncWindow: -1}
	if tr != nil {
		wopt.FsyncObserver = tr.fsyncObserver(string(s.id))
	}
	wal, err := hraft.OpenWALOptions(walPath, wopt)
	if err != nil {
		return err
	}
	var store hraft.Storage = wal
	transport := c.net.Endpoint(s.id)
	if tr != nil {
		ts, err := newTracedStorage(wal, tr, string(s.id))
		if err != nil {
			wal.Close()
			return err
		}
		store = ts
		transport = &tracedTransport{Transport: transport, t: tr, node: string(s.id), layer: "inproc"}
	}
	node, err := hraft.NewCRaftNode(hraft.CRaftOptions{
		ID:                 s.id,
		Cluster:            cluster,
		ClusterPeers:       peers,
		GlobalClusters:     c.clusters,
		Transport:          transport,
		Storage:            store,
		BatchSize:          craftBatchSize,
		BatchDelay:         craftBatchDelay,
		LocalHeartbeat:     craftLocalHB,
		GlobalHeartbeat:    craftGlobalHB,
		MaxInflightBatches: craftMaxInflight,
		Seed:               int64(s.idx + 1),
	})
	if err != nil {
		wal.Close()
		return err
	}
	s.node, s.wal = node, wal
	c.mu.Lock()
	c.seen = append(c.seen, map[string]time.Time{})
	c.mu.Unlock()
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case e := <-node.Commits():
				c.local.record(s.idx, e, time.Now())
			case <-c.stop:
				return
			}
		}
	}()
	go func() {
		defer c.wg.Done()
		for {
			select {
			case e := <-node.GlobalCommits():
				now := time.Now()
				c.global.record(s.idx, e, now)
				if e.Kind != hraft.EntryBatch {
					continue
				}
				b, err := hraft.DecodeBatch(e.Data)
				if err != nil {
					continue // the global agreement check compares raw data
				}
				c.mu.Lock()
				for _, it := range b.Items {
					id := requestID(it.Data)
					if _, ok := c.seen[s.idx][id]; !ok {
						c.seen[s.idx][id] = now
					}
				}
				c.mu.Unlock()
			case <-c.stop:
				return
			}
		}
	}()
	return nil
}

// route keeps each cluster's endpoint pointed at its current leader.
func (c *craftCluster) route() {
	defer c.wg.Done()
	routed := make([]*craftSite, len(c.clusters))
	t := time.NewTicker(craftRoutePeriod)
	defer t.Stop()
	for {
		for ci, cid := range c.clusters {
			for _, s := range c.sites {
				if s.cluster == ci && s.node.IsClusterLeader() {
					if routed[ci] != s {
						hraft.RegisterClusterEndpoint(c.net, cid, s.node)
						routed[ci] = s
					}
					break
				}
			}
		}
		select {
		case <-t.C:
		case <-c.stop:
			return
		}
	}
}

// waitGlobal polls until every site has seen every id in a global batch.
func (c *craftCluster) waitGlobal(ids []string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if c.missingGlobal(ids) == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// missingGlobal counts the ids some site has not seen in a global batch.
func (c *craftCluster) missingGlobal(ids []string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, id := range ids {
		for _, seen := range c.seen {
			if _, ok := seen[id]; !ok {
				n++
				break
			}
		}
	}
	return n
}

// firstSeen is when any site first delivered id in a global batch.
func (c *craftCluster) firstSeen(id string) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first time.Time
	for _, seen := range c.seen {
		if t, ok := seen[id]; ok && (first.IsZero() || t.Before(first)) {
			first = t
		}
	}
	return first, !first.IsZero()
}

func (c *craftCluster) clusterSites(ci int) []int {
	var out []int
	for _, s := range c.sites {
		if s.cluster == ci {
			out = append(out, s.idx)
		}
	}
	return out
}

func (c *craftCluster) close() {
	select {
	case <-c.stop:
		return
	default:
	}
	close(c.stop)
	c.wg.Wait()
	for _, s := range c.sites {
		if s.node != nil {
			s.node.Stop()
			s.wal.Close()
		}
	}
	c.net.Close()
}

// craftRoundSeconds is the length of one craft-geo round: deployments run
// one after the other, as in runFlatRounds.
const craftRoundSeconds = 5

// craftRun is what the rounds of craft-geo measured together.
type craftRun struct {
	ops               []*op
	late, global, l2g []float64
	lag               []float64
	batches, items    float64
}

// runCraftGeo: C-Raft, 2 clusters x 3 sites, open loop of 50 writes/s
// round-robin over all six sites. The write latency is the local commit;
// the key latency is until the write is seen in a global batch.
func runCraftGeo(cfg runConfig) (*outcome, error) {
	out := newOutcomeFor(cfg)
	gen := newGenerator(cfg.seed, craftClusters*craftSitesPer)
	run := &craftRun{}
	var setups []float64
	n := rounds(cfg.seconds, craftRoundSeconds)
	for r := 0; r < n; r++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("round%d-traced%v", r, cfg.traced))
		c, setup, err := startCraft(dir, out.tracer)
		if err != nil {
			return nil, fmt.Errorf("round %d set-up: %w", r, err)
		}
		setups = append(setups, setup.Seconds())
		craftRound(seconds(cfg.seconds/float64(n)), roundSeed(cfg.seed, r), c, gen, out, run)
		c.close()
		_ = os.RemoveAll(dir) // disk space only; the run directory goes at exit
	}
	out.rep.add("setup_s", median(setups), "s", len(setups))
	ops := run.ops
	out.attempted = int64(len(ops))
	out.failedOp = countFailed(ops)
	out.rep.timing("write_p50_ms", "write_p99_ms", "ms", latencies(ops, opWrite))
	out.rep.timing("key_p50_ms", "key_p99_ms", "ms", append([]float64(nil), run.global...))
	out.rep.timing("global_p50_ms", "global_p99_ms", "ms", run.global)
	out.rep.timing("replica.follower_lag_ms_p50", "replica.follower_lag_ms_p99", "ms", run.lag)
	out.rep.add("loadgen.late_ms_p99", quantile(run.late, 0.99), "ms", len(run.late))
	out.rep.timing("craft.local_to_global_ms_p50", "craft.local_to_global_ms_p99", "ms", run.l2g)
	out.rep.ratio("craft.items_per_batch", run.items, run.batches, "items/batch")
	if out.tracer != nil {
		writes := float64(len(latencies(ops, opWrite)))
		storageLayers(out, writes)
		out.rep.ratio("craft.global_msgs_per_batch", out.tracer.msgTotal("global"), run.batches, "msgs/batch")
		out.rep.ratio("craft.local_msgs_per_op", out.tracer.msgTotal("local"), writes, "msgs/op")
	}
	recordClientSpans(out.tracer, ops, craftSiteName)
	return out, nil
}

// craftRound drives one deployment for its share of the run and checks it.
func craftRound(dur time.Duration, seed int64, c *craftCluster, gen *generator, out *outcome, run *craftRun) {
	cl := newClient(craftClusters)
	issue := func(due time.Time) {
		o := gen.op(nil, uniquePayload)
		o.due = due
		s := c.sites[o.site]
		o.group, o.used = s.cluster, s.idx
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		cl.issue(o)
		idx, err := s.node.Propose(ctx, o.payload)
		cl.complete(o, idx, err, &out.checks)
	}
	out.activate()
	windowStart := time.Now()
	late := openLoop(arrivals(seed, 50, dur), issue)
	ops := cl.snapshot()
	var ids []string
	for _, o := range ops {
		if o.ok() {
			ids = append(ids, requestID(o.payload))
		}
	}
	c.waitGlobal(ids, craftGlobalTimeout)
	out.deactivate()

	for ci := range c.clusters {
		sites := c.clusterSites(ci)
		c.local.waitFor(sites, hraft.Index(cl.floors[ci].Load()), 5*time.Second)
		out.checks.addN("check.prefix_divergence", c.local.divergence(sites))
	}
	out.checks.addN("check.prefix_divergence", c.global.divergence(c.allSites()))
	verifyWrites(ops, c.local, c.clusterSites, &out.checks)
	for _, o := range ops {
		if !o.ok() {
			continue
		}
		id := requestID(o.payload)
		if c.missingGlobal([]string{id}) > 0 {
			o.bad = true
			out.checks.add("check.global_missing")
		}
		if t, ok := c.firstSeen(id); ok {
			run.global = append(run.global, msSince(o.due, t))
			run.l2g = append(run.l2g, msSince(o.done, t))
		}
	}
	run.ops = append(run.ops, ops...)
	run.late = append(run.late, late...)
	run.lag = append(run.lag, followerLag(ops, c.local, c.clusterSites)...)

	c.global.mu.Lock()
	for _, rec := range c.global.nodes[0] {
		if rec.kind == int(hraft.EntryBatch) && !rec.at.Before(windowStart) {
			if b, err := hraft.DecodeBatch([]byte(rec.data)); err == nil {
				run.batches++
				run.items += float64(len(b.Items))
			}
		}
	}
	c.global.mu.Unlock()
}

func (c *craftCluster) allSites() []int {
	out := make([]int, len(c.sites))
	for i := range out {
		out[i] = i
	}
	return out
}
