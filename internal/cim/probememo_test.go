package cim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/term"
)

// memoInvariants are the invariants the probe-memo differential
// registers: subset invariants within and across functions, and an
// equality invariant whose step runs before the memoized partial step.
var memoInvariants = []string{
	"V1 <= V2 => d:f(V2) >= d:f(V1).",
	"V1 <= V2 => d:g(V2) >= d:f(V1).",
	"true => d:h(A) = d:g(A).",
}

// memoCalls is every call the differential probes.
func memoCalls() []domain.Call {
	var out []domain.Call
	for _, fn := range []string{"f", "g", "h"} {
		for v := int64(0); v < 8; v++ {
			out = append(out, call("d", fn, term.Int(v)))
		}
	}
	return out
}

// checkProbesFresh requires every memoized Probe of m to equal the Probe
// of a fresh manager holding the same entries and invariants.
func checkProbesFresh(t *testing.T, m *Manager, step string) {
	t.Helper()
	fresh := New(nil, testCfg())
	for _, inv := range m.Invariants() {
		if err := fresh.AddInvariant(inv); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range memoCalls() {
		for pass := 0; pass < 2; pass++ { // the second pass reads the memo
			src, n := m.Probe(c)
			wantSrc, wantN := fresh.Probe(c)
			if src != wantSrc || n != wantN {
				t.Fatalf("%s: Probe(%s) pass %d = %v/%d, fresh manager says %v/%d", step, c, pass, src, n, wantSrc, wantN)
			}
		}
	}
}

// TestProbeMemoDifferential drives random stores, evictions, clears,
// snapshot loads and invariant registrations, and checks after each that
// memoized probes answer what a fresh manager's scans answer.
func TestProbeMemoDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testCfg()
		cfg.MaxEntries = 6
		m := New(nil, cfg)
		inv, err := lang.ParseInvariant(memoInvariants[0])
		if err != nil {
			t.Fatal(err)
		}
		m.AddInvariant(inv)
		var snapshots [][]byte
		calls := memoCalls()
		for step := 0; step < 60; step++ {
			var op string
			switch k := rng.Intn(10); {
			case k < 6:
				c := calls[rng.Intn(len(calls))]
				answers := make([]term.Value, rng.Intn(5))
				for i := range answers {
					answers[i] = term.Int(int64(i))
				}
				m.Store(c, answers, rng.Intn(3) != 0, domain.CostVector{})
				op = fmt.Sprintf("store %s (%d answers)", c, len(answers))
			case k == 6:
				m.Clear()
				op = "clear"
			case k == 7:
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				snapshots = append(snapshots, buf.Bytes())
				old := snapshots[rng.Intn(len(snapshots))]
				if err := m.Load(bytes.NewReader(old)); err != nil {
					t.Fatal(err)
				}
				op = "load"
			case k == 8:
				src := memoInvariants[rng.Intn(len(memoInvariants))]
				inv, err := lang.ParseInvariant(src)
				if err != nil {
					t.Fatal(err)
				}
				m.AddInvariant(inv)
				op = "add invariant " + src
			default:
				m.Probe(calls[rng.Intn(len(calls))])
				op = "probe"
			}
			checkProbesFresh(t, m, fmt.Sprintf("seed %d step %d (%s)", seed, step, op))
		}
	}
}

// TestProbeConcurrentWithStore races stores (with evictions) against
// memoized probes; run under -race. Once the writers stop, every probe
// must agree with a fresh manager's.
func TestProbeConcurrentWithStore(t *testing.T) {
	cfg := testCfg()
	cfg.MaxEntries = 10
	m := New(nil, cfg)
	for _, src := range memoInvariants {
		inv, err := lang.ParseInvariant(src)
		if err != nil {
			t.Fatal(err)
		}
		m.AddInvariant(inv)
	}
	calls := memoCalls()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				c := calls[(i*7+w)%len(calls)]
				if w%2 == 0 {
					m.Store(c, []term.Value{term.Int(int64(i % 4)), term.Int(5)}, i%3 != 0, domain.CostVector{})
				} else {
					m.Probe(c)
				}
			}
		}(w)
	}
	wg.Wait()
	checkProbesFresh(t, m, "after concurrent stores")
}

// TestRepeatedProbeAllocsNoMoreThanFirst gates the memo: a probe the
// store has not moved under since the same call's last probe allocates
// no more than one that must scan.
func TestRepeatedProbeAllocsNoMoreThanFirst(t *testing.T) {
	inv, err := lang.ParseInvariant("V1 <= V2 => d:f(V2) >= d:f(V1).")
	if err != nil {
		t.Fatal(err)
	}
	m := New(nil, testCfg())
	m.AddInvariant(inv)
	for i := 0; i < 100; i++ {
		m.Store(call("d", "f", term.Int(int64(i))), []term.Value{term.Int(int64(i))}, true, domain.CostVector{})
	}
	probe := call("d", "f", term.Int(10_000))
	first := testing.AllocsPerRun(50, func() {
		m.store.gen.Add(1) // as a store would: the memoized result is stale
		m.Probe(probe)
	})
	repeat := testing.AllocsPerRun(50, func() { m.Probe(probe) })
	if repeat > first {
		t.Errorf("repeated Probe allocates %v, more than the %v of one that scans", repeat, first)
	}
}

// TestPartialScanAllocsIndependentOfCache keeps the scan itself gated now
// that repeated probes read the memo: findPartial over 500 entries
// allocates exactly what it does over 10.
func TestPartialScanAllocsIndependentOfCache(t *testing.T) {
	inv, err := lang.ParseInvariant("V1 <= V2 => d:f(V2) >= d:f(V1).")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		m := New(nil, testCfg())
		m.AddInvariant(inv)
		for i := 0; i < n; i++ {
			m.Store(call("d", "f", term.Int(int64(i))), []term.Value{term.Int(int64(i))}, true, domain.CostVector{})
		}
		probe := call("d", "f", term.Int(10_000))
		ctx := newCtx()
		return testing.AllocsPerRun(50, func() { m.findPartial(ctx, probe) })
	}
	small, large := allocs(10), allocs(500)
	if small != large {
		t.Errorf("findPartial allocates %v scanning 10 entries but %v scanning 500", small, large)
	}
}
