package main

import (
	"context"
	"errors"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/domain"
	"hermes/internal/engine"
	"hermes/internal/lang"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// outcome fingerprints one query's answers: a multiset hash (order-free,
// duplicates counted) and a set hash over the distinct answers.
type outcome struct {
	answers int
	sum     uint64
	sum2    uint64
	set     uint64
	err     error
}

// sample is one query's timings: wall clock from the Optimize call (or its
// traced split) until the last answer is drained, and the virtual-clock
// Tf/Ta the mediator simulated.
type sample struct {
	latency time.Duration
	ttfa    time.Duration
	simTF   time.Duration
	simTA   time.Duration
}

// pass is one run of a query stream against one mediator.
type pass struct {
	wall     time.Duration
	samples  []sample
	outcomes []outcome
	answers  int
	mallocs  uint64
	heap     uint64 // HeapInuse after the pass and a forced GC
	gcCPU    float64
	cpu      float64
	gcCycles uint64
}

func (p *pass) errors() int {
	n := 0
	for _, o := range p.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

// runtimeSample reads the GC CPU, total CPU and GC cycle counters.
func runtimeSample() (gcCPU, cpu float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// runPass drives queries through n from the given number of closed-loop
// clients, each taking the next unsent query. With a tracer the pass takes
// the traced path instead. after, when set, is called (serialized) with
// the number of queries completed so far.
func runPass(n *node, queries []string, clients int, tr *tracer, after func(done int)) *pass {
	p := &pass{samples: make([]sample, len(queries)), outcomes: make([]outcome, len(queries))}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	gc0, cpu0, cyc0 := runtimeSample()

	var next atomic.Int64
	var afterMu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []uint64
			for {
				i := int(next.Add(1) - 1)
				if i >= len(queries) {
					return
				}
				if tr != nil {
					p.samples[i], p.outcomes[i] = n.queryTraced(tr, i, queries[i], &buf)
				} else {
					p.samples[i], p.outcomes[i] = n.query(queries[i], &buf)
				}
				if after != nil {
					afterMu.Lock()
					done++
					after(done)
					afterMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)

	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs
	gc1, cpu1, cyc1 := runtimeSample()
	p.gcCPU, p.cpu, p.gcCycles = gc1-gc0, cpu1-cpu0, cyc1-cyc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heap = ms.HeapInuse
	for _, o := range p.outcomes {
		p.answers += o.answers
	}
	return p
}

// query runs one query on the untraced path the workload's callers use.
func (n *node) query(q string, buf *[]uint64) (sample, outcome) {
	start := time.Now()
	var cur *engine.Cursor
	var err error
	if n.admit {
		ctx, release, aerr := n.sys.AdmitCtx(context.Background(), 1)
		if aerr != nil {
			return sample{}, outcome{err: aerr}
		}
		defer release()
		cur, err = n.sys.QueryTracedCtx(ctx, q, false)
	} else {
		var plan *rewrite.Plan
		plan, _, err = n.sys.Optimize(q, false)
		if err == nil {
			cur, err = n.sys.ExecuteCtx(n.sys.Ctx(), plan)
		}
	}
	if err != nil {
		return sample{}, outcome{err: err}
	}
	return drain(cur, start, buf)
}

// queryTraced runs one query with Optimize split into its public layer
// calls, each under a span: ParseQuery, PlansFor, PlanCost per candidate
// (the strictly cheapest all-answers estimate wins, as in
// estimate.BestDetail), then ExecuteCtx plus the drain.
func (n *node) queryTraced(tr *tracer, qid int, q string, buf *[]uint64) (sample, outcome) {
	start := time.Now()
	root := tr.begin("query", qid, -1)
	defer tr.end(root)

	sp := tr.begin("lang.parse", qid, root)
	pq, err := lang.ParseQuery(q)
	tr.end(sp)
	if err != nil {
		return sample{}, outcome{err: err}
	}
	sp = tr.begin("rewrite.plans", qid, root)
	plans, err := n.sys.PlansFor(pq)
	tr.end(sp)
	if err != nil {
		return sample{}, outcome{err: err}
	}
	est := tr.begin("estimate", qid, root)
	var best *rewrite.Plan
	var bestCV domain.CostVector
	for _, p := range plans {
		c := tr.begin("estimate.plan", qid, est)
		cv, err := n.sys.PlanCost(p)
		tr.end(c)
		if err != nil {
			tr.end(est)
			return sample{}, outcome{err: err}
		}
		if best == nil || cv.TAll < bestCV.TAll {
			best, bestCV = p, cv
		}
	}
	tr.end(est)
	if best == nil {
		return sample{}, outcome{err: errors.New("no candidate plans")}
	}

	ex := tr.begin("engine.execute", qid, root)
	defer tr.end(ex)
	gc := withSpan(nil, qid, ex)
	var ctx *domain.Ctx
	if n.admit {
		actx, release, err := n.sys.AdmitCtx(gc, 1)
		if err != nil {
			return sample{}, outcome{err: err}
		}
		defer release()
		ctx = actx.WithSpan(n.sys.Obs.StartQuery(strings.TrimSpace(q), actx.Clock.Now()))
	} else {
		ctx = n.sys.Ctx()
		ctx.Context = gc
	}
	cur, err := n.sys.ExecuteCtx(ctx, best)
	if err != nil {
		return sample{}, outcome{err: err}
	}
	return drain(cur, start, buf)
}

// drain pulls every answer, hashing each one for the reference check the
// way a caller consumes its answers.
func drain(cur *engine.Cursor, start time.Time, buf *[]uint64) (sample, outcome) {
	var s sample
	hs := (*buf)[:0]
	for {
		a, ok, err := cur.Next()
		if err != nil {
			cur.Close()
			return sample{}, outcome{err: err}
		}
		if !ok {
			break
		}
		if len(hs) == 0 {
			s.ttfa = time.Since(start)
		}
		hs = append(hs, hashAnswer(a.Vals))
	}
	s.latency = time.Since(start)
	if len(hs) == 0 {
		s.ttfa = s.latency
	}
	m := cur.Metrics()
	s.simTF, s.simTA = m.TFirst, m.TAll
	*buf = hs
	return s, fingerprint(hs)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// hashAnswer hashes an answer's values without allocating for the scalar
// kinds the workloads return.
func hashAnswer(vals []term.Value) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vals {
		switch x := v.(type) {
		case term.Str:
			h = hashString((h^'s')*fnvPrime, string(x))
		case term.Int:
			h = (h ^ 'i') * fnvPrime
			for k := 0; k < 64; k += 8 {
				h = (h ^ uint64(x>>k&0xff)) * fnvPrime
			}
		default:
			h = hashString((h^'k')*fnvPrime, v.Key())
		}
		h = (h ^ '|') * fnvPrime
	}
	return h
}

// mix is the splitmix64 finalizer, making the second multiset sum
// independent of the first.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// fingerprint folds per-answer hashes into order-free multiset and set
// hashes. It sorts hs in place.
func fingerprint(hs []uint64) outcome {
	o := outcome{answers: len(hs)}
	for _, h := range hs {
		o.sum += h
		o.sum2 += mix(h)
	}
	slices.Sort(hs)
	for i, h := range hs {
		if i == 0 || h != hs[i-1] {
			o.set += mix(h ^ 0x5bd1e995)
		}
	}
	return o
}

// verdict compares a pass with reference outcomes. A query mismatches when
// its answer multiset differs; with setOK, equal answer sets pass (the
// subset-invariant partial serve deduplicates by design) and are counted
// as exceptions.
func verdict(got, want []outcome, setOK bool) (mismatches, exceptions int) {
	for i := range got {
		g, w := got[i], want[i]
		if g.err != nil {
			continue // errors are counted on their own
		}
		if w.err != nil {
			mismatches++ // nothing to check the answers against
			continue
		}
		if g.answers == w.answers && g.sum == w.sum && g.sum2 == w.sum2 {
			continue
		}
		if setOK && g.set == w.set {
			exceptions++
			continue
		}
		mismatches++
	}
	return mismatches, exceptions
}
