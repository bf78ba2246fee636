package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// tracer records spans and counts at the boundaries the benchmark can see
// from outside the program: Transport.Send, Storage.AppendEntry, WAL fsync
// batches, datagram bytes and client calls. It records only while active,
// which is the measurement window. An untraced run has no tracer and
// installs none of the wrappers.
type tracer struct {
	start  time.Time
	active atomic.Bool
	bytes  atomic.Int64 // datagram payload bytes seen by the relays

	mu      sync.Mutex
	spans   []span
	msgs    map[string]int64 // "<layer>.<MsgName>" -> envelopes sent
	fsyncs  int64
	records int64
}

// span is one call into a layer. Op links a client call to its operation
// number; spans inside the program cannot be attributed from outside and
// carry Op 0.
type span struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Node    string `json:"node"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Op      int64  `json:"op,omitempty"`
}

// maxSpans bounds the in-memory span buffer (about 100 bytes each).
const maxSpans = 2_000_000

func newTracer() *tracer {
	return &tracer{start: time.Now(), msgs: map[string]int64{}}
}

func (t *tracer) span(layer, name, node string, at time.Time, d time.Duration, op int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{layer, name, node,
			at.Sub(t.start).Microseconds(), d.Microseconds(), op})
	}
	t.mu.Unlock()
}

// durations returns the durations in us of the spans matching layer and a
// name prefix.
func (t *tracer) durations(layer, prefix string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && strings.HasPrefix(s.Name, prefix) {
			out = append(out, float64(s.DurUS))
		}
	}
	return out
}

func (t *tracer) msgCount(layer, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.msgs[layer+"."+name])
}

// msgTotal sums the envelopes sent on a layer ("" for all layers).
func (t *tracer) msgTotal(layer string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for k, v := range t.msgs {
		if layer == "" || strings.HasPrefix(k, layer+".") {
			n += v
		}
	}
	return float64(n)
}

// fsyncObserver returns a WALOptions.FsyncObserver feeding the tracer.
func (t *tracer) fsyncObserver(node string) func(records, bytes int, took time.Duration) {
	return func(records, _ int, took time.Duration) {
		if !t.active.Load() {
			return
		}
		now := time.Now()
		t.span("storage", "fsync", node, now.Add(-took), took, 0)
		t.mu.Lock()
		t.fsyncs++
		t.records += int64(records)
		t.mu.Unlock()
	}
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport times Send and counts envelopes by layer and message.
type tracedTransport struct {
	hraft.Transport
	t     *tracer
	node  string
	layer string // span layer: "udpnet" or "inproc"
}

func (w *tracedTransport) Send(env hraft.Envelope) error {
	if !w.t.active.Load() {
		return w.Transport.Send(env)
	}
	// Read the envelope before Send: udpnet recycles its parts.
	name := env.Msg.MsgName()
	key := env.Layer.String() + "." + name
	w.t.mu.Lock()
	w.t.msgs[key]++
	w.t.mu.Unlock()
	t0 := time.Now()
	err := w.Transport.Send(env)
	w.t.span(w.layer, "Send."+name, w.node, t0, time.Since(t0), 0)
	return err
}

// grouped is the group-commit half of the WAL's storage interface. The
// wrapper must forward it: without it the node would see a synchronous
// store, switch durability gating off and run unsafely.
type grouped interface {
	GroupCommit() bool
	LastLSN() uint64
	DurableLSN() uint64
	OnDurable(fn func(lsn uint64))
	Sync() error
}

// tracedStorage times AppendEntry and forwards everything else.
type tracedStorage struct {
	hraft.Storage
	g    grouped
	t    *tracer
	node string
}

func newTracedStorage(s hraft.Storage, t *tracer, node string) (*tracedStorage, error) {
	g, ok := s.(grouped)
	if !ok || !g.GroupCommit() {
		return nil, errors.New("traced storage needs a group-commit WAL")
	}
	return &tracedStorage{Storage: s, g: g, t: t, node: node}, nil
}

func (s *tracedStorage) AppendEntry(e hraft.Entry) error {
	if !s.t.active.Load() {
		return s.Storage.AppendEntry(e)
	}
	t0 := time.Now()
	err := s.Storage.AppendEntry(e)
	s.t.span("storage", "AppendEntry", s.node, t0, time.Since(t0), 0)
	return err
}

func (s *tracedStorage) GroupCommit() bool             { return s.g.GroupCommit() }
func (s *tracedStorage) LastLSN() uint64               { return s.g.LastLSN() }
func (s *tracedStorage) DurableLSN() uint64            { return s.g.DurableLSN() }
func (s *tracedStorage) OnDurable(fn func(lsn uint64)) { s.g.OnDurable(fn) }
func (s *tracedStorage) Sync() error                   { return s.g.Sync() }

// relay forwards datagrams addressed to one node and counts their bytes.
// The UDP transport encodes inside Send, so the encoded size is only
// visible on the wire. Relays exist only in traced runs.
type relay struct {
	conn *net.UDPConn
	to   *net.UDPAddr
	t    *tracer
	done chan struct{}
}

func newRelay(to string, t *tracer) (*relay, error) {
	ta, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{conn: conn, to: ta, t: t, done: make(chan struct{})}
	go r.loop()
	return r, nil
}

func (r *relay) addr() string { return r.conn.LocalAddr().String() }

func (r *relay) loop() {
	defer close(r.done)
	buf := make([]byte, 64<<10)
	for {
		n, _, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		if r.t.active.Load() {
			r.t.bytes.Add(int64(n))
		}
		// A failed forward is a lost datagram, which the protocols tolerate.
		_, _ = r.conn.WriteToUDP(buf[:n], r.to)
	}
}

func (r *relay) close() {
	r.conn.Close()
	<-r.done
}
