package dcsm

import (
	"fmt"
	"strings"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// The relaxation search walks known-position masks and Cost formats no
// trace at all, so these golden traces pin CostWithTrace's output line for
// line: the level order of §6.3's breadth-first relaxation, each step's
// wording, and which sub-traces a native estimator keeps.

func traceScenarios() []struct {
	name string
	db   func() *DB
	p    domain.Pattern
} {
	three := func(a, b, c term.Value) domain.Pattern {
		args := []domain.PatternArg{domain.Bound, domain.Bound, domain.Bound}
		for i, v := range []term.Value{a, b, c} {
			if v != nil {
				args[i] = domain.Const(v)
			}
		}
		return domain.Pattern{Domain: "d", Function: "f", Args: args}
	}
	load := func(raw bool) *DB {
		db := New(Config{AllowRawAggregation: raw}, nil)
		db.Observe(meas("d", "f", []term.Value{term.Str("x"), term.Str("y"), term.Int(7)}, 100, 1000, 5))
		db.Observe(meas("d", "f", []term.Value{term.Str("x"), term.Str("z"), term.Int(9)}, 100, 3000, 5))
		db.Observe(meas("d", "f", []term.Value{term.Str("w"), term.Str("z"), term.Int(7)}, 200, 4000, 2))
		return db
	}
	return []struct {
		name string
		db   func() *DB
		p    domain.Pattern
	}{
		{"section63", func() *DB {
			db := load(false)
			db.Summarize("d", "f", 3, []int{1, 2})
			db.SummarizeFullyLossy("d", "f", 3)
			return db
		}, three(term.Str("A"), nil, term.Int(2))},
		{"raw-level2", func() *DB { return load(true) }, three(term.Str("w"), term.Str("y"), term.Int(9))},
		{"raw-exact", func() *DB { return load(true) }, three(term.Str("x"), term.Str("y"), term.Int(7))},
		{"mixed", func() *DB {
			db := load(true)
			db.Summarize("d", "f", 3, []int{0, 2})
			db.Summarize("d", "f", 3, []int{1})
			return db
		}, three(term.Str("q"), term.Str("z"), term.Int(8))},
		{"no-stats", func() *DB { return load(false) }, three(term.Str("q"), term.Str("r"), term.Int(1))},
		{"no-records", func() *DB { return New(DefaultConfig(), nil) }, three(term.Str("q"), nil, term.Int(1))},
		{"native-missing", func() *DB {
			db := load(true)
			db.RegisterEstimator("d", staticEstimator{cv: domain.CostVector{TFirst: 5}, missing: []string{"ta"}})
			return db
		}, three(term.Str("x"), nil, term.Int(9))},
		{"native-missing-nostats", func() *DB {
			db := New(DefaultConfig(), nil)
			db.RegisterEstimator("d", staticEstimator{cv: domain.CostVector{TFirst: 5}, missing: []string{"ta"}})
			return db
		}, three(term.Str("x"), nil, term.Int(9))},
	}
}

var goldenTraces = map[string]struct{ cv, trace, err string }{
	"section63": {"[Tf=133ms Ta=2666ms Card=4.00]", `no table with dims 0,2 for d:f('A', $b, 2)
no table with dims 2 for d:f($b, $b, 2)
no table with dims 0 for d:f('A', $b, $b)
summary table  hit for d:f($b, $b, $b) (l=3)`, "<nil>"},
	"raw-level2": {"[Tf=100ms Ta=3000ms Card=5.00]", `raw database: no records match d:f('w', 'y', 9)
raw database: no records match d:f($b, 'y', 9)
raw database: no records match d:f('w', $b, 9)
raw database: no records match d:f('w', 'y', $b)
raw aggregation over cost vector database for d:f($b, $b, 9)`, "<nil>"},
	"raw-exact": {"[Tf=100ms Ta=1000ms Card=5.00]", `raw aggregation over cost vector database for d:f('x', 'y', 7)`, "<nil>"},
	"mixed": {"[Tf=150ms Ta=3500ms Card=3.50]", `raw database: no records match d:f('q', 'z', 8)
raw database: no records match d:f($b, 'z', 8)
summary table 0,2: no row for d:f('q', $b, 8)
raw database: no records match d:f('q', 'z', $b)
raw database: no records match d:f($b, $b, 8)
summary table 1 hit for d:f($b, 'z', $b) (l=2)`, "<nil>"},
	"no-stats": {"[Tf=0ms Ta=0ms Card=0.00]", `no table with dims 0,1,2 for d:f('q', 'r', 1)
no table with dims 1,2 for d:f($b, 'r', 1)
no table with dims 0,2 for d:f('q', $b, 1)
no table with dims 0,1 for d:f('q', 'r', $b)
no table with dims 2 for d:f($b, $b, 1)
no table with dims 1 for d:f($b, 'r', $b)
no table with dims 0 for d:f('q', $b, $b)
no table with dims  for d:f($b, $b, $b)`, "dcsm: no statistics for call pattern: d:f('q', 'r', 1)"},
	"no-records": {"[Tf=0ms Ta=0ms Card=0.00]", `no table with dims 0,2 for d:f('q', $b, 1)
no table with dims 2 for d:f($b, $b, 1)
no table with dims 0 for d:f('q', $b, $b)
no table with dims  for d:f($b, $b, $b)`, "dcsm: no statistics for call pattern: d:f('q', $b, 1)"},
	"native-missing": {"[Tf=0ms Ta=3000ms Card=0.00]", `native estimator for d: [Tf=0ms Ta=0ms Card=0.00]
raw aggregation over cost vector database for d:f('x', $b, 9)`, "<nil>"},
	"native-missing-nostats": {"[Tf=0ms Ta=0ms Card=0.00]", `native estimator for d: [Tf=0ms Ta=0ms Card=0.00]`, "<nil>"},
}

func TestCostWithTraceGolden(t *testing.T) {
	for _, sc := range traceScenarios() {
		want, ok := goldenTraces[sc.name]
		if !ok {
			t.Fatalf("no golden trace for %s", sc.name)
		}
		cv, trace, err := sc.db().CostWithTrace(sc.p)
		if got := cv.String(); got != want.cv {
			t.Errorf("%s: cost %s, want %s", sc.name, got, want.cv)
		}
		if got := strings.Join(trace, "\n"); got != want.trace {
			t.Errorf("%s: trace\n%s\nwant\n%s", sc.name, got, want.trace)
		}
		if got := fmt.Sprint(err); got != want.err {
			t.Errorf("%s: err %s, want %s", sc.name, got, want.err)
		}
		// Cost takes the same path without the trace.
		cv2, err2 := sc.db().Cost(sc.p)
		if cv2 != cv || fmt.Sprint(err2) != want.err {
			t.Errorf("%s: Cost = %s, %v; CostWithTrace = %s, %v", sc.name, cv2, err2, cv, err)
		}
	}
}

// TestRelaxationOrderMatchesBreadthFirst checks the mask enumeration
// against the search it replaces: a breadth-first walk over patterns
// that relaxes one known constant at a time, lowest position first, and
// skips patterns already queued. With no statistics every level is
// visited, so the trace lists the whole order.
func TestRelaxationOrderMatchesBreadthFirst(t *testing.T) {
	db := New(DefaultConfig(), nil)
	for arity := 0; arity <= 6; arity++ {
		for known := uint64(0); known < 1<<uint(arity); known++ {
			p := domain.Pattern{Domain: "d", Function: "f", Args: make([]domain.PatternArg, arity)}
			for i := range p.Args {
				if known&(1<<uint(i)) != 0 {
					p.Args[i] = domain.Const(term.Int(int64(i)))
				}
			}
			var want []string
			queue := []domain.Pattern{p}
			visited := map[uint64]bool{p.Mask(): true}
			for len(queue) > 0 {
				q := queue[0]
				queue = queue[1:]
				var dims []int
				for i, a := range q.Args {
					if a.Known {
						dims = append(dims, i)
					}
				}
				want = append(want, fmt.Sprintf("no table with dims %s for %s", dimsKey(dims), q))
				for _, d := range dims {
					if r := q.Relax(d); !visited[r.Mask()] {
						visited[r.Mask()] = true
						queue = append(queue, r)
					}
				}
			}
			_, got, _ := db.CostWithTrace(p)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s: relaxation order\n%s\nwant\n%s", p, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}
