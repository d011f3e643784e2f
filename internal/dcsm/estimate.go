package dcsm

import (
	"fmt"
	"math/bits"

	"hermes/internal/domain"
)

// Cost estimates the cost vector of a domain call pattern: the module's
// single entry point, DCSM:cost (§6). Resolution order:
//
//  1. A native estimator registered for the domain, if it covers the
//     pattern. Components the native model cannot provide are filled in
//     from cached statistics.
//  2. Summary tables, most specific first: a table whose dimension set
//     equals the pattern's known positions is probed directly; on a miss,
//     known constants are relaxed to $b one at a time, breadth-first, down
//     to the fully-general single-row table (§6.3).
//  3. When AllowRawAggregation is set, levels without a matching summary
//     table aggregate the raw cost vector database instead (the expensive
//     average the summaries exist to avoid). Without a recency half-life
//     the aggregate is read from a running table kept current as records
//     arrive (running.go), not recomputed.
func (db *DB) Cost(p domain.Pattern) (domain.CostVector, error) {
	return db.cost(p, nil)
}

// CostWithTrace is Cost plus a human-readable trace of the lookup path,
// used by tests reproducing the paper's §6.3 example and by the CLI's
// explain mode.
func (db *DB) CostWithTrace(p domain.Pattern) (domain.CostVector, []string, error) {
	var trace []string
	cv, err := db.cost(p, &trace)
	return cv, trace, err
}

// cost resolves an estimate, appending the lookup path to *trace when
// trace is non-nil. Cost passes nil, so planning formats no trace lines.
func (db *DB) cost(p domain.Pattern, trace *[]string) (domain.CostVector, error) {
	db.mu.RLock()
	est, hasEst := db.estimators[p.Domain]
	db.mu.RUnlock()
	if hasEst {
		if cv, missing, ok := est.EstimateCost(p); ok {
			db.countEstimate("native")
			if trace != nil {
				*trace = append(*trace, fmt.Sprintf("native estimator for %s: %s", p.Domain, cv))
			}
			if len(missing) == 0 {
				return cv, nil
			}
			mark := 0
			if trace != nil {
				mark = len(*trace)
			}
			statCV, err := db.costFromStats(p, trace)
			if err != nil {
				// A failed statistics fill contributes nothing, not
				// even its trace.
				if trace != nil {
					*trace = (*trace)[:mark]
				}
				return cv, nil
			}
			for _, field := range missing {
				switch field {
				case "tf":
					cv.TFirst = statCV.TFirst
				case "ta":
					cv.TAll = statCV.TAll
				case "card":
					cv.Card = statCV.Card
				}
			}
			return cv, nil
		}
		if trace != nil {
			*trace = append(*trace, fmt.Sprintf("native estimator for %s declined pattern", p.Domain))
		}
	}
	return db.costFromStats(p, trace)
}

// countEstimate bumps the estimate-resolution counter for a source. The
// label list is built only when an observer is installed.
func (db *DB) countEstimate(source string) {
	if db.ob != nil {
		db.ob.Counter("hermes_dcsm_estimates_total", "source", source).Inc()
	}
}

// rowVector converts a summary row to a cost vector, applying the same
// conservative gap-filling as raw aggregation.
func rowVector(r *SummaryRow) (domain.CostVector, bool) {
	if r.wTf == 0 && r.wTa == 0 && r.wCard == 0 {
		return domain.CostVector{}, false
	}
	cv := domain.CostVector{TFirst: r.AvgTf, TAll: r.AvgTa, Card: r.AvgCard}
	if r.wTa == 0 {
		cv.TAll = cv.TFirst
	}
	if r.wCard == 0 {
		cv.Card = 1
	}
	return cv, true
}

// costFromStats runs the breadth-first relaxation search over summary
// tables and (optionally) the raw database. A level of the search is a
// mask of the pattern's known positions: the pattern itself, then every
// mask with one known constant relaxed to $b, then two, down to the
// fully-general empty mask (nondeterministic choice in the paper;
// breadth-first here, so more specific levels win). Within a level the
// relaxed positions run in lexicographic order — the order in which a
// search relaxing one constant at a time, lowest position first, reaches
// them. Masks are enumerated in place, so no relaxed pattern is built
// unless the trace needs one.
func (db *DB) costFromStats(p domain.Pattern, trace *[]string) (domain.CostVector, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	g := group{p.Domain, p.Function, len(p.Args)}
	fs := db.records[g]

	known := p.Mask()
	var pos [maxDims]int // known positions, ascending
	k := 0
	for m := known; m != 0; m &= m - 1 {
		pos[k] = bits.TrailingZeros64(m)
		k++
	}
	var relaxed [maxDims]int // indexes into pos of the relaxed positions
	for r := 0; r <= k; r++ {
		comb := relaxed[:r]
		for i := range comb {
			comb[i] = i
		}
		for more := true; more; more = nextCombination(comb, k) {
			mask := known
			for _, i := range comb {
				mask &^= 1 << uint(pos[i])
			}
			if cv, ok := db.probeLevel(p, tableID{g, mask}, fs, trace); ok {
				return cv, nil
			}
		}
	}
	db.countEstimate("none")
	return domain.CostVector{}, fmt.Errorf("%w: %s", ErrNoStatistics, p)
}

// nextCombination advances comb, an ascending r-subset of 0..k-1, to its
// lexicographic successor, reporting false after the last one.
func nextCombination(comb []int, k int) bool {
	r := len(comb)
	i := r - 1
	for i >= 0 && comb[i] == k-r+i {
		i--
	}
	if i < 0 {
		return false
	}
	comb[i]++
	for j := i + 1; j < r; j++ {
		comb[j] = comb[j-1] + 1
	}
	return true
}

// probeLevel tries one relaxation level: the summary table keeping exactly
// the level's positions if there is one, else (when allowed) raw
// aggregation over the records matching the level's constants. The
// caller holds the read lock.
func (db *DB) probeLevel(p domain.Pattern, id tableID, fs *funcStats, trace *[]string) (domain.CostVector, bool) {
	if t, ok := db.summaries[id]; ok {
		if row, hit := t.lookupRow(p); hit {
			if cv, valid := rowVector(row); valid {
				db.access.noteTableHit(id)
				db.countEstimate("summary")
				if trace != nil {
					*trace = append(*trace, fmt.Sprintf("summary table %s hit for %s (l=%d)", dimsKey(t.Dims), relaxTo(p, id.dims), row.L))
				}
				return cv, true
			}
		}
		if trace != nil {
			*trace = append(*trace, fmt.Sprintf("summary table %s: no row for %s", dimsKey(t.Dims), relaxTo(p, id.dims)))
		}
		return domain.CostVector{}, false
	}
	if db.cfg.AllowRawAggregation && fs != nil && len(fs.recs) > 0 {
		if cv, ok := db.rawAggregate(fs, p, id.dims); ok {
			db.access.noteRawServe(id)
			db.countEstimate("raw")
			if trace != nil {
				*trace = append(*trace, fmt.Sprintf("raw aggregation over cost vector database for %s", relaxTo(p, id.dims)))
			}
			return cv, true
		}
		if trace != nil {
			*trace = append(*trace, fmt.Sprintf("raw database: no records match %s", relaxTo(p, id.dims)))
		}
		return domain.CostVector{}, false
	}
	if trace != nil {
		*trace = append(*trace, fmt.Sprintf("no table with dims %s for %s", dimsKey(dimsOf(id.dims)), relaxTo(p, id.dims)))
	}
	return domain.CostVector{}, false
}

// rawAggregate answers raw aggregation at a mask: from the function's
// running table at that mask (built here on first use) under uniform
// weights, by scanning the records under a recency half-life. The caller
// holds the read lock.
func (db *DB) rawAggregate(fs *funcStats, p domain.Pattern, mask uint64) (domain.CostVector, bool) {
	if db.cfg.RecencyHalfLife > 0 {
		return db.aggregate(fs.recs, p, mask)
	}
	db.tabMu.Lock()
	t := fs.table(mask)
	db.tabMu.Unlock()
	return t.lookup(fs, p)
}

// relaxTo returns p with every known constant outside mask relaxed to $b:
// the pattern a relaxation level stands for, as the trace prints it.
func relaxTo(p domain.Pattern, mask uint64) domain.Pattern {
	for i, a := range p.Args {
		if a.Known && mask&(1<<uint(i)) == 0 {
			p = p.Relax(i)
		}
	}
	return p
}
