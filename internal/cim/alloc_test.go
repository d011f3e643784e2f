package cim

import (
	"testing"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/term"
)

// TestProbeScanAllocsIndependentOfCache gates the subset-candidate scan:
// each cached entry is bound into one scratch substitution and undone,
// so a probe that scans 500 entries allocates exactly what one scanning
// 10 does.
func TestProbeScanAllocsIndependentOfCache(t *testing.T) {
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
		if src, got := m.Probe(probe); src != SourceCachePartial || got != 1 {
			t.Fatalf("probe over %d entries = %v, %d answers; want a partial hit", n, src, got)
		}
		return testing.AllocsPerRun(50, func() { m.Probe(probe) })
	}
	small, large := allocs(10), allocs(500)
	if small != large {
		t.Errorf("Probe allocates %v scanning 10 entries but %v scanning 500", small, large)
	}
}
