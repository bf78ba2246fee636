package main

import (
	"sync"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// commitRec is one entry as a node's commit stream delivered it.
type commitRec struct {
	kind int
	data string
	at   time.Time // first delivery
}

// commitLog keeps every node's committed entries by index, across restarts,
// for the agreement and acknowledgement checks and for follower lag.
type commitLog struct {
	mu       sync.Mutex
	nodes    []map[hraft.Index]commitRec
	rewrites []int64 // re-deliveries of an index with different contents
}

func newCommitLog(nodes int) *commitLog {
	l := &commitLog{nodes: make([]map[hraft.Index]commitRec, nodes), rewrites: make([]int64, nodes)}
	for i := range l.nodes {
		l.nodes[i] = map[hraft.Index]commitRec{}
	}
	return l
}

func (l *commitLog) record(node int, e hraft.Entry, at time.Time) {
	rec := commitRec{kind: int(e.Kind), data: string(e.Data), at: at}
	l.mu.Lock()
	if old, ok := l.nodes[node][e.Index]; ok {
		if old.kind != rec.kind || old.data != rec.data {
			l.rewrites[node]++
		}
	} else {
		l.nodes[node][e.Index] = rec
	}
	l.mu.Unlock()
}

func (l *commitLog) get(node int, idx hraft.Index) (commitRec, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.nodes[node][idx]
	return r, ok
}

// waitFor polls until every listed node has delivered index idx, or the
// timeout passes; it reports whether they all did.
func (l *commitLog) waitFor(nodes []int, idx hraft.Index, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, n := range nodes {
			if _, ok := l.get(n, idx); !ok {
				all = false
				break
			}
		}
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// divergence counts the indices at which two of the nodes committed
// different entries, plus every index a node re-delivered differently.
func (l *commitLog) divergence(nodes []int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	seen := map[hraft.Index]commitRec{}
	bad := map[hraft.Index]bool{}
	for _, node := range nodes {
		n += l.rewrites[node]
		for idx, r := range l.nodes[node] {
			if first, ok := seen[idx]; !ok {
				seen[idx] = r
			} else if first.kind != r.kind || first.data != r.data {
				bad[idx] = true
			}
		}
	}
	return n + int64(len(bad))
}

// verifyWrites checks that every acked write is the entry at its acked
// index on every node of its log that delivered that index, and that at
// least one node did. groupNodes lists the nodes of a log.
func verifyWrites(ops []*op, l *commitLog, groupNodes func(group int) []int, checks *checkCounts) {
	for _, o := range ops {
		if o.kind != opWrite || !o.ok() {
			continue
		}
		found, wrong := false, false
		for _, n := range groupNodes(o.group) {
			if r, ok := l.get(n, o.idx); ok {
				found = true
				wrong = wrong || r.data != string(o.payload)
			}
		}
		if !found || wrong {
			o.bad = true
			checks.add("check.ack_mismatch")
		}
	}
}

// followerLag returns, per acked write, the ms from the ack until the
// slowest other node of its log delivered the entry. Writes some node never
// delivered (it was down) are left out.
func followerLag(ops []*op, l *commitLog, groupNodes func(group int) []int) []float64 {
	var out []float64
	for _, o := range ops {
		if o.kind != opWrite || !o.ok() {
			continue
		}
		var last time.Time
		complete := true
		for _, n := range groupNodes(o.group) {
			if n == o.used {
				continue
			}
			r, ok := l.get(n, o.idx)
			if !ok {
				complete = false
				break
			}
			if r.at.After(last) {
				last = r.at
			}
		}
		if complete {
			out = append(out, msSince(o.done, last))
		}
	}
	return out
}

// countFailed counts failed or check-breaking ops.
func countFailed(ops []*op) int64 {
	var n int64
	for _, o := range ops {
		if !o.ok() || o.bad {
			n++
		}
	}
	return n
}

// latencies returns the latency in ms of the successful ops of a kind.
func latencies(ops []*op, kind opKind) []float64 {
	var out []float64
	for _, o := range ops {
		if o.kind == kind && o.ok() {
			out = append(out, o.latencyMS())
		}
	}
	return out
}
