package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// opTimeout bounds one client operation, retries included. An operation
// that has not completed by then counts as failed.
const opTimeout = 5 * time.Second

type opKind int

const (
	opWrite opKind = iota
	opReadLinearizable
	opReadLease
)

// op is one client operation and what became of it.
type op struct {
	id      int64
	kind    opKind
	site    int    // target site chosen by the generator
	used    int    // site that served the op
	group   int    // log the index belongs to (the cluster, for C-Raft)
	payload []byte // writes only
	due     time.Time
	done    time.Time
	floor   hraft.Index // highest write index acked before the op was issued
	idx     hraft.Index
	err     error
	bad     bool // broke a correctness check
}

func (o *op) ok() bool { return o.err == nil }

func (o *op) latencyMS() float64 { return msSince(o.due, o.done) }

// generator makes the workload's inputs from its seed: payloads, operation
// kinds and target sites. Sites are visited round-robin in an order
// reshuffled every round.
type generator struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites int
	perm  []int
	next  int64
}

func newGenerator(seed int64, sites int) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), sites: sites}
}

// op draws the next operation; kind is chosen by pick from a uniform
// draw in [0,1).
func (g *generator) op(pick func(u float64) opKind, payload func(id int64, rng *rand.Rand) []byte) *op {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := g.next
	g.next++
	if int(id)%g.sites == 0 || g.perm == nil {
		g.perm = g.rng.Perm(g.sites)
	}
	o := &op{id: id, site: g.perm[int(id)%g.sites], kind: opWrite}
	if pick != nil {
		o.kind = pick(g.rng.Float64())
	}
	if o.kind == opWrite {
		o.payload = payload(id, g.rng)
	}
	return o
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// uniquePayload is 64 bytes: the operation id, then seeded filler.
func uniquePayload(id int64, rng *rand.Rand) []byte {
	b := []byte(fmt.Sprintf("w%015d", id))
	for len(b) < 64 {
		b = append(b, alnum[rng.Intn(len(alnum))])
	}
	return b
}

// client tracks issued operations and the acknowledgement floors the
// ordering checks compare against, one per log.
type client struct {
	mu     sync.Mutex
	ops    []*op
	floors []atomic.Uint64
}

func newClient(groups int) *client {
	return &client{floors: make([]atomic.Uint64, groups)}
}

// issue stamps the op's floor; call it just before the op is sent.
func (c *client) issue(o *op) {
	o.floor = hraft.Index(c.floors[o.group].Load())
}

// complete records the op's outcome and applies the ordering checks: an
// acked write must land above every write acked before it was issued, and
// a read must return an index at least that high.
func (c *client) complete(o *op, idx hraft.Index, err error, checks *checkCounts) {
	o.done = time.Now()
	o.idx, o.err = idx, err
	if err == nil {
		switch o.kind {
		case opWrite:
			if idx <= o.floor {
				o.bad = true
				checks.add("check.stale_acks")
			}
			f := &c.floors[o.group]
			for {
				cur := f.Load()
				if uint64(idx) <= cur || f.CompareAndSwap(cur, uint64(idx)) {
					break
				}
			}
		default:
			if idx < o.floor {
				o.bad = true
				checks.add("check.stale_reads")
			}
		}
	}
	c.mu.Lock()
	c.ops = append(c.ops, o)
	c.mu.Unlock()
}

// snapshot returns the completed ops.
func (c *client) snapshot() []*op {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*op(nil), c.ops...)
}

// arrivals returns the due offsets of an open loop: a Poisson process of
// the given rate per second over dur, drawn from seed. Independent clients
// arrive at random; a fixed interval would lock into phase with the
// nodes' heartbeat ticks and make latency depend on that phase.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// openLoop issues one op at each due offset, each in its own goroutine
// whatever the state of earlier ones, and waits for all of them. It
// returns how late, in ms, each op was issued.
func openLoop(due []time.Duration, issue func(due time.Time)) []float64 {
	start := time.Now()
	late := make([]float64, 0, len(due))
	var wg sync.WaitGroup
	for _, d := range due {
		at := start.Add(d)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		late = append(late, msSince(at, time.Now()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			issue(at)
		}()
	}
	wg.Wait()
	return late
}

// closedLoop runs workers that each issue their next op as soon as the
// previous one completes, until dur has passed.
func closedLoop(workers int, dur time.Duration, issue func(due time.Time)) {
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				issue(time.Now())
			}
		}()
	}
	wg.Wait()
}

// checkCounts holds the named correctness counters.
type checkCounts struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *checkCounts) add(name string) { c.addN(name, 1) }

func (c *checkCounts) addN(name string, n int64) {
	c.mu.Lock()
	c.m[name] += n
	c.mu.Unlock()
}
