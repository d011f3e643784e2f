package dcsm

import (
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// rawDB holds n raw records of a three-argument function and no summary
// tables, so every estimate aggregates the raw database.
func rawDB(n int) *DB {
	db := New(DefaultConfig(), nil)
	for i := 0; i < n; i++ {
		db.Observe(domain.Measurement{
			Call: domain.Call{Domain: "d", Function: "f", Args: []term.Value{
				term.Str("rope"), term.Int(int64(i % 40)), term.Int(int64(i%40 + 30)),
			}},
			Cost:     domain.CostVector{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 5},
			Complete: true,
		})
	}
	return db
}

// TestCostRawAllocsIndependentOfRecords gates raw aggregation: Cost walks
// the records without allocating per record, so an estimate over 2,000
// records allocates exactly what one over 10 does.
func TestCostRawAllocsIndependentOfRecords(t *testing.T) {
	p := domain.Pattern{Domain: "d", Function: "f", Args: []domain.PatternArg{
		domain.Const(term.Str("rope")), domain.Const(term.Int(7)), domain.Bound,
	}}
	allocs := func(n int) float64 {
		db := rawDB(n)
		return testing.AllocsPerRun(50, func() {
			if _, err := db.Cost(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(2000)
	if small != large {
		t.Errorf("raw Cost allocates %v at 10 records but %v at 2000", small, large)
	}
}
