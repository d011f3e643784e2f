package dcsm

import (
	"sort"
	"sync"
)

// The paper closes §6.2.2 with: "we can watch the access patterns for the
// tables and decide which tables are needed very frequently and decide to
// create these tables. Alternatively, drop the tables that are not
// accessed very often." This file implements that policy: estimation
// tracks, per (function, dimension-set), how often a summary table served
// a lookup and how often the expensive raw aggregation had to run; AutoTune
// materializes tables for hot raw-aggregation shapes and drops cold tables.

// accessStats is guarded by its own mutex so the read-mostly estimation
// path keeps using the data RLock. Counters are keyed by tableID; the
// string table keys are built only when the counters are read.
type accessStats struct {
	mu sync.Mutex
	// tableHits counts summary-table serves per table since the last
	// AutoTune.
	tableHits map[tableID]int
	// rawServes counts raw aggregations per would-be table (the
	// dimension set the lookup needed) since the last AutoTune.
	rawServes map[tableID]int
}

func (a *accessStats) noteTableHit(id tableID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tableHits == nil {
		a.tableHits = map[tableID]int{}
	}
	a.tableHits[id]++
}

func (a *accessStats) noteRawServe(id tableID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rawServes == nil {
		a.rawServes = map[tableID]int{}
	}
	a.rawServes[id]++
}

// byTableKey copies counters out under their string table keys.
func byTableKey(counts map[tableID]int) map[string]int {
	out := make(map[string]int, len(counts))
	for id, n := range counts {
		out[id.String()] = n
	}
	return out
}

// TableHits returns the per-table serve counts since the last AutoTune.
func (db *DB) TableHits() map[string]int {
	db.access.mu.Lock()
	defer db.access.mu.Unlock()
	return byTableKey(db.access.tableHits)
}

// RawAggregations returns, per would-be table key, how many estimations
// had to aggregate the raw database since the last AutoTune.
func (db *DB) RawAggregations() map[string]int {
	db.access.mu.Lock()
	defer db.access.mu.Unlock()
	return byTableKey(db.access.rawServes)
}

// AutoTune applies the access-pattern policy: every dimension shape that
// needed createThreshold or more raw aggregations gets a summary table
// materialized; every existing table with fewer than keepThreshold hits is
// dropped. Counters reset afterwards. It returns the created and dropped
// table keys, sorted.
func (db *DB) AutoTune(createThreshold, keepThreshold int) (created, dropped []string, err error) {
	db.access.mu.Lock()
	raw := db.access.rawServes
	hits := db.access.tableHits
	db.access.rawServes = nil
	db.access.tableHits = nil
	db.access.mu.Unlock()

	fresh := map[tableID]bool{}
	for id, n := range raw {
		if n < createThreshold {
			continue
		}
		if _, err2 := db.Summarize(id.dom, id.fn, id.arity, dimsOf(id.dims)); err2 != nil {
			return created, dropped, err2
		}
		fresh[id] = true
		created = append(created, id.String())
	}
	db.mu.Lock()
	for id := range db.summaries {
		// Never drop a table created in this very pass.
		if hits[id] < keepThreshold && !fresh[id] {
			delete(db.summaries, id)
			dropped = append(dropped, id.String())
		}
	}
	db.mu.Unlock()
	sort.Strings(created)
	sort.Strings(dropped)
	return created, dropped, nil
}
