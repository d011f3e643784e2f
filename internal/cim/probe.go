package cim

import (
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/vclock"
)

// CostModel exposes the CIM serve-cost parameters the rule cost estimator
// needs to price CIM-routed calls.
type CostModel struct {
	Lookup     time.Duration
	PerAnswer  time.Duration
	DedupProbe time.Duration
}

// CostModel returns the manager's serve-cost parameters.
func (m *Manager) CostModel() CostModel {
	return CostModel{
		Lookup:     m.cfg.LookupCost,
		PerAnswer:  m.cfg.PerAnswer,
		DedupProbe: m.cfg.DedupProbe,
	}
}

// Probe reports, without side effects on the cache, stats, or any clock,
// how a ground call would be served right now: the source kind and the
// number of answers the cache would contribute. It backs the estimator's
// CIM-aware costing. Probes are read-only and run concurrently with
// lookups and stores (shard read-locks only).
//
// The partial step, which scans every cached call of each subset
// invariant's other side, is memoized per call key for one store
// generation (probeMemo). The exact step is a single map read; the
// equality step picks by recency, which moves without a store, so both
// run every time.
func (m *Manager) Probe(call domain.Call) (Source, int) {
	key := call.Key()
	scratch := domain.NewCtx(vclock.NewVirtual(0)) // absorbs matching costs
	if e, ok := m.store.get(key); ok && e.Complete {
		return SourceCacheExact, len(e.Answers)
	}
	if e, _ := m.findEquality(scratch, call); e != nil {
		return SourceCacheEquality, len(e.Answers)
	}
	n := m.probePartial(scratch, call, key)
	if n < 0 {
		return SourceActual, 0
	}
	return SourceCachePartial, n
}

// probePartial returns the answer count of the call's best sound partial
// candidate, or -1 for none: from the memo when the store has not moved
// since it was computed, else by running findPartial. The LinearMatching
// oracle always scans.
func (m *Manager) probePartial(ctx *domain.Ctx, call domain.Call, key string) int {
	if m.cfg.LinearMatching {
		return partialCount(m.findPartial(ctx, call))
	}
	gen := m.store.gen.Load()
	if n, ok := m.probes.get(key, gen); ok {
		return n
	}
	n := partialCount(m.findPartial(ctx, call))
	if m.store.gen.Load() == gen {
		// Nothing became visible while the scan ran, so n is the
		// partial result at gen.
		m.probes.put(key, gen, n)
	}
	return n
}

func partialCount(e *Entry, _ *lang.Invariant) int {
	if e == nil {
		return -1
	}
	return len(e.Answers)
}

// probeMemo holds Probe's partial-step results for one store generation:
// per call key, the largest sound candidate's answer count, or -1. It
// relies on entries being immutable once stored, so that within one
// generation the same scan finds the same candidates. A newer generation
// discards every result, which also bounds the memo by the distinct calls
// probed between two stores.
type probeMemo struct {
	mu      sync.Mutex
	gen     uint64
	partial map[string]int
}

func (pm *probeMemo) get(key string, gen uint64) (int, bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.gen != gen {
		return 0, false
	}
	n, ok := pm.partial[key]
	return n, ok
}

func (pm *probeMemo) put(key string, gen uint64, n int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	switch {
	case gen < pm.gen:
		return // a newer generation already superseded this result
	case gen > pm.gen:
		clear(pm.partial)
		pm.gen = gen
	}
	if pm.partial == nil {
		pm.partial = make(map[string]int)
	}
	pm.partial[key] = n
}
