package resilience

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// ErrCallTimeout reports that one call attempt exceeded the per-call
// budget. It surfaces wrapped in domain.ErrUnavailable (retryable).
var ErrCallTimeout = errors.New("per-call timeout exceeded")

// Policy is the resilience policy applied to every call through a Wrapper.
type Policy struct {
	// MaxAttempts bounds call attempts, the first try included (≤1 means
	// no retry).
	MaxAttempts int
	// CallTimeout bounds one attempt's setup time (call issue through
	// stream creation) on the execution clock; 0 disables. An attempt
	// that overruns charges exactly CallTimeout — the caller gave up
	// waiting at that point — and counts as a retryable failure.
	CallTimeout time.Duration
	// BackoffBase and BackoffCap bound the decorrelated-jitter retry
	// delays.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the deterministic backoff jitter.
	Seed uint64
	// Breaker configures the per-domain circuit breaker.
	Breaker BreakerConfig
	// ResumeStream re-issues the call after a mid-stream retryable
	// failure and resumes the answer stream, suppressing answers already
	// delivered: the fresh stream replays the answer bag from the start,
	// and each answer is skipped as many times as it was delivered
	// before the cut, so repeats beyond those still arrive.
	ResumeStream bool
	// MaxResumes bounds mid-stream re-issues per call (default 2 when
	// ResumeStream is set).
	MaxResumes int
}

// DefaultPolicy returns a policy tuned for the paper's WAN sources:
// a few retries with sub-second backoff, and a breaker that trips after
// five straight failures and probes again after 30 s of execution time.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts:  4,
		BackoffBase:  50 * time.Millisecond,
		BackoffCap:   2 * time.Second,
		Seed:         1,
		ResumeStream: true,
		MaxResumes:   2,
		Breaker: BreakerConfig{
			FailureThreshold:  5,
			OpenTimeout:       30 * time.Second,
			HalfOpenSuccesses: 1,
		},
	}
}

// Metrics count the wrapper's activity.
type Metrics struct {
	// Calls is how many calls entered the wrapper.
	Calls int
	// Attempts is how many attempts reached the wrapped domain.
	Attempts int
	// Retries is how many attempts were repeats after a failure.
	Retries int
	// Successes and Failures count calls by final outcome.
	Successes int
	Failures  int
	// Timeouts counts attempts abandoned at the per-call timeout.
	Timeouts int
	// BreakerRejections counts calls the breaker refused outright.
	BreakerRejections int
	// StreamResumes counts mid-stream re-issues after truncation.
	StreamResumes int
	// BackoffTotal is the execution-clock time spent backing off.
	BackoffTotal time.Duration
}

// Wrapper places a resilience policy in front of a domain. It composes
// like netsim.Host: the mediator registers Wrap(host, policy) and the
// policy is transparent to rules and plans.
type Wrapper struct {
	inner   domain.Domain
	policy  Policy
	breaker *Breaker

	mu      sync.Mutex
	metrics Metrics
	ob      *obs.Observer
}

// Wrap builds a resilient front for d.
func Wrap(d domain.Domain, p Policy) *Wrapper {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.ResumeStream && p.MaxResumes <= 0 {
		p.MaxResumes = 2
	}
	return &Wrapper{inner: d, policy: p, breaker: NewBreaker(p.Breaker)}
}

// Name is transparent: the wrapper answers for the wrapped domain.
func (w *Wrapper) Name() string { return w.inner.Name() }

// Functions forwards to the wrapped domain.
func (w *Wrapper) Functions() []domain.FuncSpec { return w.inner.Functions() }

// FunctionsErr forwards the fallible listing when the wrapped domain
// provides one (remote sources).
func (w *Wrapper) FunctionsErr() ([]domain.FuncSpec, error) {
	if fl, ok := w.inner.(domain.FunctionLister); ok {
		return fl.FunctionsErr()
	}
	return w.inner.Functions(), nil
}

// Inner returns the wrapped domain.
func (w *Wrapper) Inner() domain.Domain { return w.inner }

// Breaker returns the wrapper's circuit breaker (for metrics assertions).
func (w *Wrapper) Breaker() *Breaker { return w.breaker }

// Policy returns the active policy.
func (w *Wrapper) Policy() Policy { return w.policy }

// Metrics returns a snapshot of the wrapper's counters.
func (w *Wrapper) Metrics() Metrics {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.metrics
}

func (w *Wrapper) note(f func(*Metrics)) {
	w.mu.Lock()
	f(&w.metrics)
	w.mu.Unlock()
}

// breakerStateValue maps states onto the hermes_breaker_state gauge:
// 0 closed, 1 open, 2 half-open.
func breakerStateValue(s BreakerState) float64 {
	switch s {
	case StateOpen:
		return 1
	case StateHalfOpen:
		return 2
	default:
		return 0
	}
}

// SetObserver installs the observability sink: retry/rejection/timeout
// counters and the per-domain breaker-state gauge, kept current by a
// breaker transition hook.
func (w *Wrapper) SetObserver(o *obs.Observer) {
	w.mu.Lock()
	w.ob = o
	w.mu.Unlock()
	name := w.inner.Name()
	gauge := o.Gauge("hermes_breaker_state", "domain", name)
	gauge.Set(breakerStateValue(w.breaker.State(0)))
	w.breaker.SetTransitionHook(func(at time.Duration, from, to BreakerState) {
		gauge.Set(breakerStateValue(to))
		o.Counter("hermes_breaker_transitions_total", "domain", name, "to", to.String()).Inc()
	})
}

// obsv returns the installed observer (nil-safe to use).
func (w *Wrapper) obsv() *obs.Observer {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ob
}

// attempt runs one call attempt, enforcing the per-call timeout. The
// returned ctx is the one the stream charges (a clock fork when a timeout
// is armed); the caller joins it back after every pull.
func (w *Wrapper) attempt(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, *domain.Ctx, error) {
	if w.policy.CallTimeout <= 0 {
		s, err := w.inner.Call(ctx, fn, args)
		return s, ctx, err
	}
	fork := ctx.Fork()
	start := fork.Clock.Now()
	s, err := w.inner.Call(fork, fn, args)
	elapsed := fork.Clock.Now() - start
	if elapsed > w.policy.CallTimeout {
		if s != nil {
			s.Close()
		}
		// The caller stopped waiting at the timeout: charge exactly that.
		ctx.Clock.Sleep(w.policy.CallTimeout)
		w.note(func(m *Metrics) { m.Timeouts++ })
		w.obsv().Counter("hermes_call_timeouts_total", "domain", w.inner.Name()).Inc()
		return nil, ctx, fmt.Errorf("%w: %w: %s:%s setup took %s (budget %s)",
			domain.ErrUnavailable, ErrCallTimeout, w.inner.Name(), fn, elapsed, w.policy.CallTimeout)
	}
	ctx.Clock.Join(fork.Clock)
	if err != nil {
		return nil, ctx, err
	}
	return s, fork, nil
}

// Call implements domain.Domain: breaker gate, bounded deadline-aware
// retries with deterministic backoff, and a resumable answer stream.
func (w *Wrapper) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	call := domain.Call{Domain: w.inner.Name(), Function: fn, Args: args}
	w.note(func(m *Metrics) { m.Calls++ })
	s, sctx, err := w.callRaw(ctx, call, fn, args)
	if err != nil {
		return nil, err
	}
	return w.newStream(ctx, sctx, call, s), nil
}

// callRaw runs the breaker/retry loop and returns the raw attempt stream
// (not resume-wrapped) with the ctx it charges. Both Call and mid-stream
// resume go through here; only Call adds the resuming wrapper, so one
// call has exactly one resume budget no matter how often it is re-issued.
func (w *Wrapper) callRaw(ctx *domain.Ctx, call domain.Call, fn string, args []term.Value) (domain.Stream, *domain.Ctx, error) {
	bo := Backoff{Base: w.policy.BackoffBase, Cap: w.policy.BackoffCap, Seed: w.policy.Seed, Key: call.Key()}
	var prev time.Duration
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := w.breaker.Allow(ctx.Clock.Now()); err != nil {
			w.note(func(m *Metrics) { m.BreakerRejections++ })
			w.obsv().Counter("hermes_breaker_rejections_total", "domain", call.Domain).Inc()
			return nil, nil, fmt.Errorf("%w: domain %s: %w", domain.ErrUnavailable, call.Domain, err)
		}
		w.note(func(m *Metrics) {
			m.Attempts++
			if attempt > 1 {
				m.Retries++
			}
		})
		s, sctx, err := w.attempt(ctx, fn, args)
		if err == nil {
			w.breaker.Record(ctx.Clock.Now(), true)
			w.note(func(m *Metrics) { m.Successes++ })
			if attempt > 1 {
				w.obsv().Counter("hermes_call_retries_total", "domain", call.Domain).Add(int64(attempt - 1))
				ctx.Span.SetTag("retries", strconv.Itoa(attempt-1))
			}
			return s, sctx, nil
		}
		if ctx.Err() != nil {
			// The attempt ended because the caller's context was cancelled
			// or the query deadline passed mid-call: the source never gave a
			// verdict, so neither success nor failure is recorded — a
			// half-open probe abandoned this way must free its slot rather
			// than wedge the breaker.
			w.breaker.Abandon(ctx.Clock.Now())
			w.note(func(m *Metrics) { m.Failures++ })
			return nil, nil, err
		}
		if domain.IsOverloaded(err) {
			// Admission shed: mediator state, not a source outcome. Fail
			// fast — retrying into an overloaded server only deepens the
			// overload — and don't charge the breaker either way.
			w.breaker.Abandon(ctx.Clock.Now())
			w.note(func(m *Metrics) { m.Failures++ })
			return nil, nil, err
		}
		retryable := domain.IsRetryable(err)
		// A non-retryable error means the source answered (wrong
		// function, type error, ...): not a breaker failure.
		w.breaker.Record(ctx.Clock.Now(), !retryable)
		if !retryable || attempt >= w.policy.MaxAttempts {
			w.note(func(m *Metrics) { m.Failures++ })
			return nil, nil, err
		}
		d := bo.Delay(attempt, prev)
		prev = d
		if left, bounded := ctx.Remaining(); bounded && d >= left {
			// Backing off would blow the query deadline: give up now so
			// the layer above can degrade to cache instead.
			w.note(func(m *Metrics) { m.Failures++ })
			return nil, nil, fmt.Errorf("retry abandoned (backoff %s exceeds deadline budget %s): %w", d, left, err)
		}
		ctx.Clock.Sleep(d)
		w.note(func(m *Metrics) { m.BackoffTotal += d })
	}
}

// newStream wraps a successful attempt's stream with clock joining and
// mid-stream resume.
func (w *Wrapper) newStream(parent, streamCtx *domain.Ctx, call domain.Call, s domain.Stream) domain.Stream {
	rs := &resilientStream{w: w, parent: parent, cur: s, curCtx: streamCtx, call: call}
	if w.policy.ResumeStream {
		rs.delivered = make(map[string]int)
	}
	return rs
}

// resilientStream joins forked attempt clocks back into the caller's and
// resumes after mid-stream retryable failures by re-issuing the call and
// suppressing already-delivered answers.
type resilientStream struct {
	w      *Wrapper
	parent *domain.Ctx
	cur    domain.Stream
	curCtx *domain.Ctx
	call   domain.Call
	// delivered counts the answers delivered so far, by key. At each
	// resume skip becomes a copy of it: the replayed prefix to drop.
	delivered map[string]int
	skip      map[string]int
	resumes   int
	done      bool
}

func (s *resilientStream) join() {
	if s.curCtx != s.parent {
		s.parent.Clock.Join(s.curCtx.Clock)
	}
}

func (s *resilientStream) Next() (term.Value, bool, error) {
	if s.done {
		return nil, false, nil
	}
	for {
		v, ok, err := s.cur.Next()
		s.join()
		if err == nil {
			if !ok {
				s.done = true
				return nil, false, nil
			}
			if s.delivered != nil {
				k := v.Key()
				if n := s.skip[k]; n > 0 {
					s.skip[k] = n - 1
					continue // delivered before the truncation
				}
				s.delivered[k]++
			}
			return v, true, nil
		}
		if s.parent.Err() != nil || domain.IsOverloaded(err) {
			// Cancelled mid-stream or shed by admission: no source verdict.
			s.w.breaker.Abandon(s.parent.Clock.Now())
			s.done = true
			return nil, false, err
		}
		retryable := domain.IsRetryable(err)
		s.w.breaker.Record(s.parent.Clock.Now(), !retryable)
		if !retryable || !s.w.policy.ResumeStream || s.resumes >= s.w.policy.MaxResumes {
			s.done = true
			return nil, false, err
		}
		s.resumes++
		s.w.note(func(m *Metrics) { m.StreamResumes++ })
		s.w.obsv().Counter("hermes_stream_resumes_total", "domain", s.call.Domain).Inc()
		s.parent.Span.SetTag("resumed", strconv.Itoa(s.resumes))
		s.cur.Close()
		// Re-issue through the full breaker/retry path. callRaw keeps the
		// resume accounting here, at the top level: the fresh stream
		// replays the whole answer bag, skip drops one replay per answer
		// already delivered, and this loop (bounded by MaxResumes) handles
		// any further truncation.
		ns, nctx, rerr := s.w.callRaw(s.parent, s.call, s.call.Function, s.call.Args)
		if rerr != nil {
			s.done = true
			return nil, false, rerr
		}
		s.cur, s.curCtx = ns, nctx
		s.skip = maps.Clone(s.delivered)
	}
}

func (s *resilientStream) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	err := s.cur.Close()
	s.join()
	return err
}
