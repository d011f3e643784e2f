package dcsm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// runningValues are the argument values the differential draws from:
// repeats, every NaN (two payloads), ±0, and Int against Float of the
// same number, so hashing must agree with term.Equal exactly.
var runningValues = []term.Value{
	term.Int(0), term.Int(1), term.Float(0), term.Float(math.Copysign(0, -1)),
	term.Float(1), term.Float(math.NaN()), term.Float(math.Float64frombits(0x7ff8000000000bad)),
	term.Str("a"), term.Str(""), term.Bool(true), term.Tuple{term.Int(1)}, term.Tuple{term.Float(1)},
}

// runningDurations include magnitudes beyond 2^53, where float sums
// round and a trim must rebuild rather than subtract.
var runningDurations = []time.Duration{
	0, time.Millisecond, 3 * time.Millisecond, 1<<53 + 1, 1 << 62, -7,
}

// runningCards mix integral cards, fractions and integral values too
// large to sum exactly.
var runningCards = []float64{0, 1, 5, 0.5, 0.1, math.Copysign(0, -1), 1 << 53, 3e16}

// opReader feeds an operation sequence from fuzz bytes.
type opReader struct{ data []byte }

func (r *opReader) next(n int) int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b) % n
}

// runningGroups are the functions the differential observes: two arities
// of one name, so groups stay apart.
var runningGroups = []group{{"d", "f", 3}, {"d", "f", 2}}

func (r *opReader) call() domain.Call {
	g := runningGroups[r.next(len(runningGroups))]
	args := make([]term.Value, g.arity)
	for i := range args {
		args[i] = runningValues[r.next(len(runningValues))]
	}
	return domain.Call{Domain: g.dom, Function: g.fn, Args: args}
}

func (r *opReader) cost() domain.CostVector {
	return domain.CostVector{
		TFirst: runningDurations[r.next(len(runningDurations))],
		TAll:   runningDurations[r.next(len(runningDurations))],
		Card:   runningCards[r.next(len(runningCards))],
	}
}

// runRunningOps interprets data as a sequence of Observe, ObserveRecord,
// DropDetail, Save/Load and estimates against a module trimming at a
// small MaxRecordsPerCall, checking the running tables after every step.
func runRunningOps(t *testing.T, data []byte) {
	r := &opReader{data: data}
	clock := time.Duration(0)
	db := New(Config{AllowRawAggregation: true, MaxRecordsPerCall: 1 + r.next(6)}, func() time.Duration { return clock })
	for step := 0; len(r.data) > 0; step++ {
		clock += time.Second
		switch r.next(8) {
		case 0, 1, 2:
			db.Observe(domain.Measurement{Call: r.call(), Cost: r.cost(), Complete: r.next(4) != 0})
		case 3, 4:
			v := r.next(8)
			db.ObserveRecord(Record{Call: r.call(), Cost: r.cost(),
				HasTf: v&1 != 0, HasTa: v&2 != 0, HasCard: v&4 != 0, RecordedAt: clock})
		case 5:
			g := runningGroups[r.next(len(runningGroups))]
			db.DropDetail(g.dom, g.fn, g.arity)
		case 6:
			var buf bytes.Buffer
			if err := db.Save(&buf); err != nil {
				continue // NaN does not encode as JSON; the state stays
			}
			if err := db.Load(&buf); err != nil {
				t.Fatalf("step %d: load: %v", step, err)
			}
		case 7:
			c := r.call()
			p := domain.PatternOf(c)
			for i := range p.Args {
				if r.next(2) == 0 {
					p = p.Relax(i)
				}
			}
			db.Cost(p) // builds running tables at the masks the search visits
		}
		checkRunning(t, db, step)
	}
}

// checkRunning compares every running table against a fresh scan, for
// every held record's values at every mask plus values nothing holds,
// then compares Cost against a module rebuilt from the same records,
// whose tables have seen no trim.
func checkRunning(t *testing.T, db *DB, step int) {
	t.Helper()
	fresh := New(DefaultConfig(), nil)
	for _, g := range runningGroups {
		recs := db.Records(g.dom, g.fn, g.arity)
		for _, rec := range recs {
			fresh.ObserveRecord(rec)
		}
		probes := []domain.Pattern{{Domain: g.dom, Function: g.fn, Args: make([]domain.PatternArg, g.arity)}}
		for i := range probes[0].Args {
			probes[0].Args[i] = domain.Const(term.Str("absent"))
		}
		for _, rec := range recs {
			probes = append(probes, domain.PatternOf(rec.Call))
		}
		for _, p := range probes {
			for mask := uint64(0); mask < 1<<uint(g.arity); mask++ {
				db.mu.RLock()
				fs := db.records[g]
				var got, want domain.CostVector
				var gotOK, wantOK bool
				if fs != nil {
					got, gotOK = db.rawAggregate(fs, p, mask)
					want, wantOK = db.aggregate(fs.recs, p, mask)
				}
				db.mu.RUnlock()
				if got != want || gotOK != wantOK {
					t.Fatalf("step %d: %s mask %b: running %v,%v != scan %v,%v", step, p, mask, got, gotOK, want, wantOK)
				}
			}
			checkShape(t, db, g, step)
			got, gotErr := db.Cost(p)
			want, wantErr := fresh.Cost(p)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("step %d: %s: Cost %v,%v != rebuilt %v,%v", step, p, got, gotErr, want, wantErr)
			}
		}
	}
}

// checkShape requires each running table of g to index exactly the
// distinct value tuples its records hold, with a row for each tuple
// shared by two or more records and none for the rest.
func checkShape(t *testing.T, db *DB, g group, step int) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	fs := db.records[g]
	if fs == nil {
		return
	}
	for mask, tab := range fs.tables {
		counts := map[string]int{}
		for _, rec := range fs.recs {
			var key []string
			for i := range rec.args {
				if mask&(1<<uint(i)) != 0 {
					key = append(key, rec.args[i].Key())
				}
			}
			counts[fmt.Sprint(key)]++
		}
		shared := 0
		for _, n := range counts {
			if n > 1 {
				shared++
			}
		}
		if tab.used != len(counts) || len(tab.rows) != shared {
			t.Fatalf("step %d: %s mask %b indexes %d tuples with %d rows; records hold %d tuples, %d shared",
				step, g, mask, tab.used, len(tab.rows), len(counts), shared)
		}
	}
}

// TestRunningAggregateDifferential drives random operation sequences
// through the running tables and requires every estimate to equal a
// fresh aggregation over the held records, bit for bit.
func TestRunningAggregateDifferential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 20+rng.Intn(200))
		rng.Read(data)
		runRunningOps(t, data)
	}
}

// FuzzRunningAggregate is the fuzzing form of the differential.
func FuzzRunningAggregate(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 3, 4, 5, 1, 7, 0, 0, 1, 2})
	f.Add([]byte{1, 3, 1, 5, 5, 5, 2, 2, 7, 0, 0, 9, 9, 9, 0, 0, 5, 5, 5, 3, 4, 6, 1, 7, 0, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		runRunningOps(t, data)
	})
}

// TestObserveCostConcurrent races observations (with trims) against
// estimates that build and read running tables; run under -race.
func TestObserveCostConcurrent(t *testing.T) {
	db := New(Config{AllowRawAggregation: true, MaxRecordsPerCall: 64}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c := domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(int64(i % 7)), term.Int(int64(w))}}
				if w%2 == 0 {
					db.Observe(domain.Measurement{Call: c, Cost: domain.CostVector{TFirst: time.Duration(i), TAll: time.Duration(2 * i), Card: float64(i % 5)}, Complete: true})
					continue
				}
				p := domain.PatternOf(c)
				if i%3 == 0 {
					p = p.Relax(0)
				}
				db.Cost(p)
			}
		}(w)
	}
	wg.Wait()
	checkRunning(t, db, -1)
}
