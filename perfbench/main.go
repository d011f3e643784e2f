// Command perfbench is the mediator's wall-clock benchmark: an in-process,
// closed-loop load generator that runs a seeded query workload through the
// public core.System API (and, for mount_loopback, through a remote.Server
// and remote.Client pair over loopback TCP), checks every answer multiset
// against a reference mediator with caching off, and prints the end-to-end
// metrics, or with -trace 1 the per-layer metrics of a separate traced
// pass. The mediator runs on the virtual clock, so the modelled source and
// network costs take no real time: wall time is the Go program's own work,
// while the virtual readings give the simulated Tf/Ta.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload rope_repeat --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it, each
// starting with "#", are the same figures for people, with run metadata
// and the base of every ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupsPerRound is how many times each round builds its mediator; the
// last build is measured, and setup_s is the median of all of them.
const setupsPerRound = 5

// metricDef names a metric and its unit; the lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ttfa_p50_ms", "ms"},
	{"sim_tall_mean_ms", "ms"},
	{"sim_tfirst_mean_ms", "ms"},
	{"allocs_per_answer", "allocs"},
	{"heap_inuse_mb", "MB"},
}

var perLayer = []metricDef{
	{"lang.parse_us", "us"},
	{"rewrite.plans_us", "us"},
	{"rewrite.plans_per_query", "count"},
	{"estimate.us_per_query", "us"},
	{"estimate.us_per_plan", "us"},
	{"dcsm.records", "count"},
	{"cim.hit_ratio", "ratio"},
	{"cim.served_per_query", "count"},
	{"cim.misses", "count"},
	{"cim.entries", "count"},
	{"cim.evictions", "count"},
	{"cim.singleflight_shares", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.stores", "count"},
	{"memo.evictions", "count"},
	{"memo.invalidations", "count"},
	{"memo.flight_shares", "count"},
	{"engine.exec_us", "us"},
	{"engine.ttfa_us", "us"},
	{"engine.self_us", "us"},
	{"domains.calls_per_query", "count"},
	{"domains.call_us", "us"},
	{"domains.answers_per_call", "count"},
	{"remote.call_us", "us"},
	{"remote.server_us", "us"},
	{"remote.wire_us", "us"},
	{"remote.bytes_per_answer", "B"},
	{"remote.calls", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one workload's figures and prints the human lines.
type report struct {
	out     io.Writer
	res     result
	units   map[string]string
	metrics []metricDef
}

func newReport(out io.Writer, defs []metricDef) *report {
	r := &report{out: out, metrics: defs, units: map[string]string{},
		res: result{Correct: true, Metrics: map[string]metricValue{}}}
	for _, d := range defs {
		r.units[d.name] = d.unit
	}
	return r
}

// set records a metric; base, when not empty, says what a ratio or mean
// was taken over.
func (r *report) set(name string, v float64, base string) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.res.Metrics[name] = metricValue{Value: v, Unit: unit}
	if base != "" {
		base = "  (" + base + ")"
	}
	fmt.Fprintf(r.out, "# %-26s %14.6g %-6s%s\n", name, v, unit, base)
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// tally counts failures against the queries attempted.
func (r *report) tally(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
	if failed > 0 {
		r.res.Correct = false
	}
}

// complete checks that every declared metric was set.
func (r *report) complete() error {
	for _, d := range r.metrics {
		if _, ok := r.res.Metrics[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return nil
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // directory for the traced pass's span file
	queries  int    // shortens the workload's stream (tests); 0 keeps it
}

func main() {
	o := options{spans: filepath.Join(".bench_build", "spans")}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: rope_repeat, federation_join, mount_loopback, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated query stream")
	flag.Float64Var(&o.seconds, "seconds", 25, "how long to keep starting measured rounds")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of a traced pass instead of the end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	if o.workload == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --workload is required and --trace must be 0 or 1")
		os.Exit(2)
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var results []result
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		res, err := run(os.Stdout, w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	final := results[0]
	if len(results) > 1 {
		// One line for all workloads, each metric prefixed by its workload.
		final = result{Correct: true, Metrics: map[string]metricValue{}}
		for i, res := range results {
			final.Correct = final.Correct && res.Correct
			final.Attempted += res.Attempted
			final.Failed += res.Failed
			for k, v := range res.Metrics {
				final.Metrics[names[i]+"/"+k] = v
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// A printed result ends the run normally; "correct" carries the verdict.
	fmt.Println(string(line))
}

// run measures one workload and prints its human-readable lines.
func run(out io.Writer, w *workload, o options) (result, error) {
	n := w.queries
	if o.queries > 0 {
		n = o.queries
	}
	queries := w.stream(o.seed, n)
	fmt.Fprintf(out, "# workload %s  seed %d  queries/round %d  clients %d (closed loop)  go %s  GOMAXPROCS %d  nproc %d\n",
		w.name, o.seed, n, w.clients, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	refStart := time.Now()
	ref, err := referencePass(w, o.seed, queries)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# reference pass (CIM off, memo off, parallelism 1): %.2f s\n", time.Since(refStart).Seconds())
	var r *report
	if o.trace {
		r = newReport(out, perLayer)
		err = tracedRun(r, w, o, queries, ref)
	} else {
		r = newReport(out, endToEnd)
		err = timedRun(r, w, o, queries, ref)
	}
	if err != nil {
		return result{}, err
	}
	if err := r.complete(); err != nil {
		return result{}, err
	}
	return r.res, nil
}

// referencePass answers the stream on the workload's reference mediator.
func referencePass(w *workload, seed int64, queries []string) ([]outcome, error) {
	n, err := w.reference(seed)
	if err != nil {
		return nil, fmt.Errorf("reference set-up: %w", err)
	}
	defer n.Close()
	return runPass(n, queries, 1, nil, nil).outcomes, nil
}

// check compares a pass with the reference and reports its failures.
func check(r *report, w *workload, p *pass, ref []outcome, label string) {
	mismatches, exceptions := verdict(p.outcomes, ref, w.subsetInvariants)
	errs := p.errors()
	r.tally(len(p.outcomes), errs+mismatches)
	r.note("%s: %d queries, %d answers, %d errors, %d reference mismatches, %d set-equal partial serves",
		label, len(p.outcomes), p.answers, errs, mismatches, exceptions)
	for i, oc := range p.outcomes {
		if oc.err != nil {
			r.note("  first error, query %d: %v", i, oc.err)
			break
		}
	}
}

// build sets up a mediator setupsPerRound times, keeping the last, and
// returns the set-up times.
func build(w *workload, seed int64, tr *tracer, reps int) (*node, []float64, error) {
	var n *node
	var times []float64
	for k := 0; k < reps; k++ {
		if n != nil {
			n.Close()
		}
		// Start every set-up from a collected heap, so a GC cycle owed
		// by earlier work does not land inside the measurement.
		runtime.GC()
		start := time.Now()
		var err error
		n, err = w.build(seed, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return n, times, nil
}

// timedRun repeats rounds (set up, then one pass over the stream) until
// the measuring time is spent, and reports the end-to-end metrics. Every
// figure is taken per round and the median over rounds is reported, so a
// burst of interference from outside the process spoils one round, not
// the run; the percentiles of all queries pooled are printed alongside.
func timedRun(r *report, w *workload, o options, queries []string, ref []outcome) error {
	var setups, qps, p50, p99, ttfa50, allocs, heap []float64
	var lat, ttfa []float64 // every query of every round
	var simTA, simTF time.Duration
	answers, rounds := 0, 0
	start := time.Now()
	for rounds == 0 || time.Since(start).Seconds() < o.seconds {
		n, times, err := build(w, o.seed, nil, setupsPerRound)
		if err != nil {
			return err
		}
		setups = append(setups, times...)
		p := runPass(n, queries, w.clients, nil, nil)
		n.Close()
		rounds++
		qps = append(qps, float64(len(queries))/p.wall.Seconds())
		check(r, w, p, ref, fmt.Sprintf("round %d (%.1f q/s)", rounds, qps[len(qps)-1]))
		allocs = append(allocs, float64(p.mallocs)/float64(max(p.answers, 1)))
		heap = append(heap, float64(p.heap)/1e6)
		answers += p.answers
		roundLat, roundTTFA := make([]float64, len(p.samples)), make([]float64, len(p.samples))
		for i, s := range p.samples {
			roundLat[i], roundTTFA[i] = ms(s.latency), ms(s.ttfa)
			simTA += s.simTA
			simTF += s.simTF
		}
		p50 = append(p50, quantile(roundLat, 0.5))
		p99 = append(p99, quantile(roundLat, 0.99))
		ttfa50 = append(ttfa50, quantile(roundTTFA, 0.5))
		lat = append(lat, roundLat...)
		ttfa = append(ttfa, roundTTFA...)
	}
	perRound := fmt.Sprintf("median of %d rounds", rounds)
	perQuery := fmt.Sprintf("%s of %d queries each", perRound, len(queries))
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	r.set("qps", median(qps), perRound+"; queries ÷ pass wall time")
	r.set("latency_p50_ms", median(p50), perQuery)
	r.set("latency_p99_ms", median(p99), perQuery)
	r.set("ttfa_p50_ms", median(ttfa50), perQuery)
	// The simulated times are means: cache hits cost a fixed virtual time,
	// so a median sits on one of a few plateaus and reads the same for
	// every seed.
	r.set("sim_tall_mean_ms", ms(simTA)/float64(len(lat)), fmt.Sprintf("%d queries; virtual clock", len(lat)))
	r.set("sim_tfirst_mean_ms", ms(simTF)/float64(len(lat)), fmt.Sprintf("%d queries; virtual clock", len(lat)))
	r.set("allocs_per_answer", median(allocs), fmt.Sprintf("%s; Mallocs ÷ %d answers/round", perRound, answers/rounds))
	r.set("heap_inuse_mb", median(heap), perRound+"; after the pass and a forced GC")
	r.note("pooled over %d queries: latency p50 %.4g ms, p99 %.4g ms, ttfa p50 %.4g ms",
		len(lat), quantile(lat, 0.5), quantile(lat, 0.99), quantile(ttfa, 0.5))
	r.note("error_rate %.6g  (%d failed ÷ %d attempted)", float64(r.res.Failed)/float64(r.res.Attempted), r.res.Failed, r.res.Attempted)
	r.note("answers delivered %d", answers)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
