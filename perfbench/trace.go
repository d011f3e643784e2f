package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// A span is one timed interval of the traced pass: a layer call made from
// this benchmark (parse, plan enumeration, estimation, execution) or one
// source call seen by a decorator. Busy is the time spent inside the
// callee; for the benchmark's own layer spans it equals End-Start, for a
// source span it is the time inside the source's Call, Next and Close, so
// the engine's self time is the execution span minus the busy time of the
// source spans beneath it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	BusyNS  int64  `json:"busy_ns"`
	Answers int    `json:"answers,omitempty"`
}

// tracer keeps the spans of one traced pass in memory; they are written
// out once the pass has ended.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, query, parent int) int {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Query: query, Name: name, StartNS: at})
	return len(t.spans) - 1
}

// end closes a span whose whole interval counts as busy.
func (t *tracer) end(id int) {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = at
	s.BusyNS = at - s.StartNS
}

// finish closes a source span with its measured busy time and answers.
func (t *tracer) finish(id int, busy time.Duration, answers int) {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = at
	s.BusyNS = int64(busy)
	s.Answers = answers
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the enclosing span through domain.Ctx.Context, so source
// decorators, which may run on engine goroutines, attach their spans to the
// right query.
type spanKey struct{}

type spanRef struct{ query, parent int }

func withSpan(ctx context.Context, query, parent int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey{}, spanRef{query: query, parent: parent})
}

func spanOf(ctx *domain.Ctx) spanRef {
	if ctx != nil && ctx.Context != nil {
		if r, ok := ctx.Context.Value(spanKey{}).(spanRef); ok {
			return r
		}
	}
	return spanRef{query: -1, parent: -1}
}

// timedDomain decorates a source domain: every call becomes a span named
// after the decorator's kind, with the time spent inside the source as its
// busy time. Inner lets core.System.Register walk past it to the native
// estimator, observer and remote actuals hook.
type timedDomain struct {
	inner domain.Domain
	kind  string
	tr    *tracer
}

// decorate wraps d, forwarding the optional domain interfaces d provides.
func decorate(d domain.Domain, kind string, tr *tracer) domain.Domain {
	td := &timedDomain{inner: d, kind: kind, tr: tr}
	est, isEst := d.(domain.Estimator)
	lister, isLister := d.(domain.FunctionLister)
	switch {
	case isEst && isLister:
		return &timedEstimatorLister{td, est, lister}
	case isEst:
		return &timedEstimator{td, est}
	case isLister:
		return &timedLister{td, lister}
	}
	return td
}

type timedEstimator struct {
	*timedDomain
	domain.Estimator
}

type timedLister struct {
	*timedDomain
	domain.FunctionLister
}

type timedEstimatorLister struct {
	*timedDomain
	domain.Estimator
	domain.FunctionLister
}

func (d *timedDomain) Name() string                 { return d.inner.Name() }
func (d *timedDomain) Functions() []domain.FuncSpec { return d.inner.Functions() }
func (d *timedDomain) Inner() domain.Domain         { return d.inner }

func (d *timedDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	ref := spanOf(ctx)
	id := d.tr.begin(d.kind, ref.query, ref.parent)
	start := time.Now()
	s, err := d.inner.Call(ctx, fn, args)
	busy := time.Since(start)
	if err != nil {
		d.tr.finish(id, busy, 0)
		return nil, err
	}
	return &timedStream{inner: s, tr: d.tr, id: id, busy: busy}, nil
}

// timedStream adds the time spent in Next and Close to its call's span and
// closes the span at exhaustion, error or Close, whichever comes first.
type timedStream struct {
	inner   domain.Stream
	tr      *tracer
	id      int
	busy    time.Duration
	answers int
	done    bool
}

func (s *timedStream) Next() (term.Value, bool, error) {
	start := time.Now()
	v, ok, err := s.inner.Next()
	s.busy += time.Since(start)
	if ok {
		s.answers++
	}
	if (!ok || err != nil) && !s.done {
		s.done = true
		s.tr.finish(s.id, s.busy, s.answers)
	}
	return v, ok, err
}

func (s *timedStream) Close() error {
	start := time.Now()
	err := s.inner.Close()
	s.busy += time.Since(start)
	if !s.done {
		s.done = true
		s.tr.finish(s.id, s.busy, s.answers)
	}
	return err
}

// countingListener counts the bytes every accepted connection reads and
// writes: the traffic of the loopback hop in both directions.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
