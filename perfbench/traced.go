package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// growthPoint is the planner's state after a fifth of the traced stream.
type growthPoint struct {
	dcsmRecords int
	cimEntries  int
}

// dcsmRecords sums the raw statistics records over every function.
func (n *node) dcsmRecords() int {
	total := 0
	for _, st := range n.sys.DCSM.FunctionStats() {
		total += st.Records
	}
	return total
}

// tracedRun runs the stream once untraced and once traced, each on a fresh
// mediator with the same seed, checks both against the reference, and
// reports the per-layer metrics of the traced pass.
func tracedRun(r *report, w *workload, o options, queries []string, ref []outcome) error {
	n, _, err := build(w, o.seed, nil, 1)
	if err != nil {
		return err
	}
	plain := runPass(n, queries, w.clients, nil, nil)
	n.Close()
	check(r, w, plain, ref, "untraced pass")

	tr := newTracer()
	n, _, err = build(w, o.seed, tr, 1)
	if err != nil {
		return err
	}
	defer n.Close()
	var growth []growthPoint
	fifth := max(len(queries)/5, 1)
	p := runPass(n, queries, w.clients, tr, func(done int) {
		if done%fifth == 0 {
			growth = append(growth, growthPoint{n.dcsmRecords(), n.sys.CIM.Len()})
		}
	})
	check(r, w, p, ref, "traced pass")

	if err := os.MkdirAll(o.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	spans := tr.snapshot()
	r.note("spans: %d written to %s", len(spans), path)
	layerMetrics(r, n, spans, p, plain)
	growthNotes(r, spans, growth, len(queries))
	return nil
}

// agg sums the spans of one name.
type agg struct {
	count   int
	dur     time.Duration
	busy    time.Duration
	answers int
}

func (a agg) meanUS(per int) float64 {
	if per == 0 {
		return 0
	}
	return float64(a.dur) / float64(per) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func layerMetrics(r *report, n *node, spans []span, p, plain *pass) {
	by := map[string]agg{}
	start := map[[2]int]int64{} // (query, name) start for ttfa offsets
	for _, s := range spans {
		a := by[s.Name]
		a.count++
		if s.EndNS > 0 {
			a.dur += time.Duration(s.EndNS - s.StartNS)
		}
		a.busy += time.Duration(s.BusyNS)
		a.answers += s.Answers
		by[s.Name] = a
		switch s.Name {
		case "query":
			start[[2]int{s.Query, 0}] = s.StartNS
		case "engine.execute":
			start[[2]int{s.Query, 1}] = s.StartNS
		}
	}
	q := len(p.outcomes)
	qs := fmt.Sprintf("mean over %d queries", q)

	r.set("lang.parse_us", by["lang.parse"].meanUS(q), qs)
	r.set("rewrite.plans_us", by["rewrite.plans"].meanUS(q), qs)
	plans := by["estimate.plan"].count
	r.set("rewrite.plans_per_query", ratio(float64(plans), float64(q)), fmt.Sprintf("%d plans ÷ %d queries", plans, q))
	r.set("estimate.us_per_query", by["estimate"].meanUS(q), qs)
	r.set("estimate.us_per_plan", by["estimate.plan"].meanUS(plans), fmt.Sprintf("mean over %d PlanCost calls", plans))
	r.set("dcsm.records", float64(n.dcsmRecords()), "raw records held at the end of the pass")

	cst := n.sys.CIM.Stats()
	hits := cst.ExactHits + cst.EqualityHits + cst.PartialHits
	r.set("cim.hit_ratio", ratio(float64(hits), float64(hits+cst.Misses)),
		fmt.Sprintf("%d hits (exact %d, equality %d, partial %d) ÷ %d lookups",
			hits, cst.ExactHits, cst.EqualityHits, cst.PartialHits, hits+cst.Misses))
	r.set("cim.served_per_query", ratio(float64(cst.ServedFromCache), float64(q)),
		fmt.Sprintf("%d cached answers ÷ %d queries", cst.ServedFromCache, q))
	r.set("cim.misses", float64(cst.Misses), "")
	r.set("cim.entries", float64(n.sys.CIM.Len()), "at the end of the pass")
	r.set("cim.evictions", float64(cst.Evictions), "")
	r.set("cim.singleflight_shares", float64(cst.SingleFlightShares), "")

	mst := n.sys.Memo.Stats()
	r.set("memo.hit_ratio", ratio(float64(mst.Hits), float64(mst.Hits+mst.Misses)),
		fmt.Sprintf("%d hits ÷ %d probes", mst.Hits, mst.Hits+mst.Misses))
	r.set("memo.stores", float64(mst.Stores), "")
	r.set("memo.evictions", float64(mst.Evictions), "")
	r.set("memo.invalidations", float64(mst.Invalidations), "")
	r.set("memo.flight_shares", float64(mst.FlightShares), "")

	ex := by["engine.execute"]
	r.set("engine.exec_us", ex.meanUS(q), qs+"; ExecuteCtx plus the drain")
	var ttfa time.Duration
	for i, s := range p.samples {
		off := time.Duration(start[[2]int{i, 1}] - start[[2]int{i, 0}])
		ttfa += s.ttfa - off
	}
	r.set("engine.ttfa_us", float64(ttfa)/float64(max(q, 1))/1e3, qs+"; from ExecuteCtx to the first answer")

	src, rc, rs := by["source"], by["remote.call"], by["remote.serve"]
	calls := src.count + rc.count
	callBusy := src.busy + rc.busy
	r.set("domains.calls_per_query", ratio(float64(calls), float64(q)), fmt.Sprintf("%d source calls ÷ %d queries", calls, q))
	r.set("domains.call_us", ratio(float64(callBusy)/1e3, float64(calls)), fmt.Sprintf("time inside the sources, mean over %d calls", calls))
	r.set("domains.answers_per_call", ratio(float64(src.answers+rc.answers), float64(calls)), fmt.Sprintf("%d answers ÷ %d calls", src.answers+rc.answers, calls))

	callUS := ratio(float64(rc.busy)/1e3, float64(rc.count))
	serverUS := ratio(float64(rs.busy)/1e3, float64(rs.count))
	r.set("remote.call_us", callUS, fmt.Sprintf("client side, mean over %d calls", rc.count))
	r.set("remote.server_us", serverUS, fmt.Sprintf("server side, mean over %d served calls", rs.count))
	r.set("remote.wire_us", callUS-serverUS, "call − server")
	var wireBytes int64
	if n.wire != nil {
		wireBytes = n.wire.bytes.Load()
	}
	r.set("remote.bytes_per_answer", ratio(float64(wireBytes), float64(rc.answers)), fmt.Sprintf("%d bytes both ways ÷ %d answers", wireBytes, rc.answers))
	r.set("remote.calls", float64(rc.count), "")

	r.set("runtime.gc_cpu_fraction", ratio(p.gcCPU, p.cpu), fmt.Sprintf("%.3f s GC CPU ÷ %.3f s available CPU", p.gcCPU, p.cpu))
	r.set("runtime.gc_cycles", float64(p.gcCycles), "")
	tq, pq := float64(q)/p.wall.Seconds(), float64(q)/plain.wall.Seconds()
	r.set("trace.overhead_pct", 100*(pq-tq)/pq, fmt.Sprintf("untraced %.1f q/s vs traced %.1f q/s", pq, tq))

	// Layer shares of the summed per-query wall time. The engine's self
	// time is the execution spans minus the time spent inside sources.
	total := by["query"].dur
	engineSelf := max(ex.dur-src.busy-rc.busy, 0)
	r.set("engine.self_us", float64(engineSelf)/float64(max(q, 1))/1e3, qs+"; execution minus time inside sources")
	planning := by["lang.parse"].dur + by["rewrite.plans"].dur + by["estimate"].dur
	shares := []struct {
		layer string
		d     time.Duration
	}{
		{"parse", by["lang.parse"].dur},
		{"rewrite", by["rewrite.plans"].dur},
		{"estimate", by["estimate"].dur},
		{"engine", engineSelf},
		{"sources", src.busy},
		{"remote", rc.busy},
		{"other", total - planning - ex.dur},
	}
	line := ""
	for _, sh := range shares {
		line += fmt.Sprintf("  %s %.1f%%", sh.layer, 100*ratio(float64(sh.d), float64(total)))
	}
	r.note("layer shares of %.3f s summed query wall time:%s", total.Seconds(), line)
}

// growthNotes prints how estimation time grows along the stream with the
// statistics and cache the planner consults.
func growthNotes(r *report, spans []span, growth []growthPoint, queries int) {
	est := make([]time.Duration, queries)
	for _, s := range spans {
		if s.Name == "estimate" && s.Query >= 0 && s.Query < queries {
			est[s.Query] = time.Duration(s.EndNS - s.StartNS)
		}
	}
	fifth := max(queries/5, 1)
	for k, g := range growth {
		from := k * fifth
		to := min(from+fifth, queries)
		var sum time.Duration
		for _, d := range est[from:to] {
			sum += d
		}
		r.note("growth: queries %4d-%4d  estimate %8.1f us/query  dcsm.records %6d  cim.entries %5d",
			from+1, to, float64(sum)/float64(max(to-from, 1))/1e3, g.dcsmRecords, g.cimEntries)
	}
}

// median and quantile use the nearest-rank definition on a sorted copy.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
