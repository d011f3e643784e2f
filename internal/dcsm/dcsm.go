// Package dcsm implements the Domain Cost and Statistics Module of the
// paper (§6): a statistics cache that records the cost vectors [Tf, Ta,
// Card] of actual calls to source domains and answers cost-estimation
// queries DCSM:cost(domain:function(c1, ..., ck, $b, ..., $b)) from them.
//
// Statistics live in two forms: the cost vector database (one record per
// executed call, with its record time) and summary tables. A summary table
// keeps a chosen subset of argument positions as dimensions and aggregates
// the metrics of all records sharing dimension values into averages plus
// the count l of aggregated tuples. Keeping every position is the paper's
// lossless summarization; dropping positions (typically those that can
// never be instantiated at plan time) is lossy summarization. Estimation
// searches the most specific applicable table first and recursively relaxes
// known constants to $b on misses (§6.3).
//
// Domains that provide their own cost model plug in through
// domain.Estimator; the DCSM forwards their estimates and fills in only the
// missing components from cached statistics.
package dcsm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// ErrNoStatistics reports that neither a native estimator nor any recorded
// statistics can estimate a pattern.
var ErrNoStatistics = errors.New("dcsm: no statistics for call pattern")

// Config tunes the module.
type Config struct {
	// AllowRawAggregation lets estimation fall back to aggregating the raw
	// cost vector database when no summary table matches. Disabling it
	// restricts estimation to summary tables only (fast, possibly lossy).
	AllowRawAggregation bool
	// RecencyHalfLife, when non-zero, weights records by 0.5^(age/half-life)
	// during aggregation, biasing estimates toward recent observations
	// (the paper's "giving precedence to more recent statistics"
	// extension).
	RecencyHalfLife time.Duration
	// MaxRecordsPerCall bounds the raw records kept per domain:function
	// (0 = unlimited); the oldest are dropped first.
	MaxRecordsPerCall int
}

// DefaultConfig enables raw fallback with unbounded detail and no recency
// bias, matching the paper's baseline DCSM.
func DefaultConfig() Config {
	return Config{AllowRawAggregation: true}
}

// Record is one entry of the cost vector database: the observed cost of an
// executed call, stamped with the clock reading when it was recorded.
type Record struct {
	Call domain.Call
	Cost domain.CostVector
	// HasTf/HasTa/HasCard flag which components are valid: a call whose
	// stream was closed early (pruning, interactive stop) yields a valid
	// Tf but unusable Ta and Card (§6.1).
	HasTf, HasTa, HasCard bool
	RecordedAt            time.Duration
}

// stored is one raw record as the module keeps it, under its function's
// group: the group key already names the domain and function, so each
// record holds only what varies per call (64 bytes against an exported
// Record's 96). Records() and Save rebuild the exported form.
type stored struct {
	args  []term.Value
	cost  domain.CostVector
	at    time.Duration
	valid uint8 // hasTf | hasTa | hasCard
}

// Validity bits of a stored record.
const (
	hasTf uint8 = 1 << iota
	hasTa
	hasCard
)

// compact strips an exported record to its stored form.
func compact(rec Record) stored {
	s := stored{args: rec.Call.Args, cost: rec.Cost, at: rec.RecordedAt}
	if rec.HasTf {
		s.valid |= hasTf
	}
	if rec.HasTa {
		s.valid |= hasTa
	}
	if rec.HasCard {
		s.valid |= hasCard
	}
	return s
}

// record rebuilds the exported form of a stored record of group g.
func (s *stored) record(g group) Record {
	return Record{
		Call:       domain.Call{Domain: g.dom, Function: g.fn, Args: s.args},
		Cost:       s.cost,
		HasTf:      s.valid&hasTf != 0,
		HasTa:      s.valid&hasTa != 0,
		HasCard:    s.valid&hasCard != 0,
		RecordedAt: s.at,
	}
}

// group identifies all records of one domain function.
type group struct {
	dom, fn string
	arity   int
}

// String renders the group as "dom:fn/arity".
func (g group) String() string { return fmt.Sprintf("%s:%s/%d", g.dom, g.fn, g.arity) }

// tableID identifies a summary table: its function plus the bitmask of
// the argument positions it keeps as dimensions (bit i for position i,
// the same encoding as domain.Pattern.Mask).
type tableID struct {
	group
	dims uint64
}

// String renders the table key the AutoTune counters report:
// "dom:fn/arity[d1,d2,...]".
func (id tableID) String() string {
	return id.group.String() + "[" + dimsKey(dimsOf(id.dims)) + "]"
}

// DB is the domain cost and statistics module.
type DB struct {
	cfg Config

	mu         sync.RWMutex
	records    map[group]*funcStats
	tabMu      sync.Mutex // guards funcStats.tables under the read lock
	summaries  map[tableID]*SummaryTable
	estimators map[string]domain.Estimator
	now        func() time.Duration
	access     accessStats // per-table usage counters for AutoTune
	ob         *obs.Observer
}

// New creates an empty module. The now function stamps record times; pass
// the execution clock's Now (nil uses a zero clock).
func New(cfg Config, now func() time.Duration) *DB {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &DB{
		cfg:        cfg,
		records:    make(map[group]*funcStats),
		summaries:  make(map[tableID]*SummaryTable),
		estimators: make(map[string]domain.Estimator),
		now:        now,
	}
}

// SetObserver installs the observability sink: observation and
// estimate-resolution counters (hermes_dcsm_*).
func (db *DB) SetObserver(o *obs.Observer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ob = o
}

// RegisterEstimator connects a domain's native cost model: estimates for
// that domain are directed to it, per the module's extensibility contract.
func (db *DB) RegisterEstimator(dom string, est domain.Estimator) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.estimators[dom] = est
}

// Observe records the measurement of an executed call into the cost vector
// database. Incomplete measurements contribute only their first-answer
// time.
func (db *DB) Observe(m domain.Measurement) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ob.Counter("hermes_dcsm_observations_total").Inc()
	db.appendRecord(Record{
		Call:       m.Call,
		Cost:       m.Cost,
		HasTf:      true,
		HasTa:      m.Complete,
		HasCard:    m.Complete,
		RecordedAt: db.now(),
	})
}

// ObserveRecord inserts a fully-specified record, preserving its original
// timestamp and validity flags. Used to replay one database's records into
// another (e.g. building a lossy twin for comparison experiments).
func (db *DB) ObserveRecord(rec Record) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.appendRecord(rec)
}

// appendRecord stores a record, folding it into its function's running
// tables and trimming beyond MaxRecordsPerCall. The caller holds the
// write lock.
func (db *DB) appendRecord(rec Record) {
	g := group{rec.Call.Domain, rec.Call.Function, len(rec.Call.Args)}
	fs := db.records[g]
	if fs == nil {
		fs = &funcStats{}
		db.records[g] = fs
	}
	fs.append(compact(rec), db.cfg.MaxRecordsPerCall)
}

// recs returns a function's raw records (nil when it has none). The
// caller holds a lock.
func (db *DB) recs(g group) []stored {
	if fs := db.records[g]; fs != nil {
		return fs.recs
	}
	return nil
}

// RecordCount returns the number of raw records held for a function.
func (db *DB) RecordCount(dom, fn string, arity int) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.recs(group{dom, fn, arity}))
}

// Records returns a copy of the raw records for a function, in recording
// order.
func (db *DB) Records(dom, fn string, arity int) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	g := group{dom, fn, arity}
	recs := db.recs(g)
	out := make([]Record, len(recs))
	for i := range recs {
		out[i] = recs[i].record(g)
	}
	return out
}

// DropDetail deletes the raw records of a function, and the running
// tables over them, keeping only its summary tables — the space-saving
// motivation of §6.2.
func (db *DB) DropDetail(dom, fn string, arity int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.records, group{dom, fn, arity})
}

// FunctionStat is one domain function's statistics footprint: how much
// raw and summarized evidence backs its cost estimates. The calibration
// debug view joins these counts against the observer's q-error table so
// operators can see whether a badly-calibrated function is starved of
// statistics or mis-summarized.
type FunctionStat struct {
	Domain        string `json:"domain"`
	Function      string `json:"function"`
	Arity         int    `json:"arity"`
	Records       int    `json:"records"`
	SummaryTables int    `json:"summary_tables"`
}

// FunctionStats returns one row per domain function that has raw records
// or summary tables, sorted by domain, function, arity.
func (db *DB) FunctionStats() []FunctionStat {
	db.mu.RLock()
	defer db.mu.RUnlock()
	byKey := map[group]*FunctionStat{}
	get := func(dom, fn string, arity int) *FunctionStat {
		key := group{dom, fn, arity}
		st := byKey[key]
		if st == nil {
			st = &FunctionStat{Domain: dom, Function: fn, Arity: arity}
			byKey[key] = st
		}
		return st
	}
	for g, fs := range db.records {
		if len(fs.recs) > 0 {
			get(g.dom, g.fn, g.arity).Records = len(fs.recs)
		}
	}
	for _, t := range db.summaries {
		get(t.Domain, t.Function, t.Arity).SummaryTables++
	}
	out := make([]FunctionStat, 0, len(byKey))
	for _, st := range byKey {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domain != out[j].Domain {
			return out[i].Domain < out[j].Domain
		}
		if out[i].Function != out[j].Function {
			return out[i].Function < out[j].Function
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// weight returns the recency weight of a record stamped at at, read at
// summarization or estimation time now.
func (db *DB) weight(at, now time.Duration) float64 {
	if db.cfg.RecencyHalfLife <= 0 {
		return 1
	}
	age := now - at
	if age <= 0 {
		return 1
	}
	return math.Pow(0.5, float64(age)/float64(db.cfg.RecencyHalfLife))
}

// StorageStats reports the module's footprint: raw records, summary tables
// and summary rows. Used by the summarization ablation.
type StorageStats struct {
	RawRecords    int
	SummaryTables int
	SummaryRows   int
}

// Storage returns current footprint counters.
func (db *DB) Storage() StorageStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var s StorageStats
	for _, fs := range db.records {
		s.RawRecords += len(fs.recs)
	}
	s.SummaryTables = len(db.summaries)
	for _, t := range db.summaries {
		s.SummaryRows += len(t.rows)
	}
	return s
}

// aggregate folds the records matching a pattern's constants at the mask's
// positions into a cost vector, respecting missing components and recency
// weights. ok=false when no record contributes anything. It is the only
// path under a recency half-life and the reference the running tables
// must reproduce bit for bit.
func (db *DB) aggregate(recs []stored, p domain.Pattern, mask uint64) (domain.CostVector, bool) {
	now := db.now()
	var sumTf, sumTa, sumCard float64
	var wTf, wTa, wCard float64
	for i := range recs {
		r := &recs[i]
		if !matchMask(p, mask, r.args) {
			continue
		}
		w := db.weight(r.at, now)
		if r.valid&hasTf != 0 {
			sumTf += w * float64(r.cost.TFirst)
			wTf += w
		}
		if r.valid&hasTa != 0 {
			sumTa += w * float64(r.cost.TAll)
			wTa += w
		}
		if r.valid&hasCard != 0 {
			sumCard += w * r.cost.Card
			wCard += w
		}
	}
	return meanVector(sumTf, wTf, sumTa, wTa, sumCard, wCard)
}

// meanVector turns weighted sums into a cost vector. ok=false when no
// component has weight.
func meanVector(sumTf, wTf, sumTa, wTa, sumCard, wCard float64) (domain.CostVector, bool) {
	if wTf == 0 && wTa == 0 && wCard == 0 {
		return domain.CostVector{}, false
	}
	var cv domain.CostVector
	if wTf > 0 {
		cv.TFirst = time.Duration(sumTf / wTf)
	}
	if wTa > 0 {
		cv.TAll = time.Duration(sumTa / wTa)
	}
	if wCard > 0 {
		cv.Card = sumCard / wCard
	}
	// Fill gaps conservatively: a missing Ta is at least Tf.
	if wTa == 0 {
		cv.TAll = cv.TFirst
	}
	if wCard == 0 {
		cv.Card = 1
	}
	return cv, true
}

// matchMask reports whether a record's arguments match a pattern's
// constants at the positions set in mask (all of which are known in p).
func matchMask(p domain.Pattern, mask uint64, args []term.Value) bool {
	if len(p.Args) != len(args) {
		return false
	}
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if !term.Equal(p.Args[i].Val, args[i]) {
			return false
		}
	}
	return true
}

// dimsKey canonically encodes a dimension set.
func dimsKey(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, ",")
}

// maxDims bounds dimension positions: a table's dimension set is a
// 64-bit mask.
const maxDims = 64

// maskOf encodes an ascending dimension list as a position bitmask.
func maskOf(dims []int) uint64 {
	var m uint64
	for _, d := range dims {
		m |= 1 << uint(d)
	}
	return m
}

// dimsOf decodes a position bitmask into an ascending dimension list.
func dimsOf(mask uint64) []int {
	dims := make([]int, 0, bits.OnesCount64(mask))
	for m := mask; m != 0; m &= m - 1 {
		dims = append(dims, bits.TrailingZeros64(m))
	}
	return dims
}

// normalizeDims sorts and deduplicates a dimension list and validates it
// against the arity.
func normalizeDims(dims []int, arity int) ([]int, error) {
	out := append([]int(nil), dims...)
	sort.Ints(out)
	prev := -1
	for _, d := range out {
		if d < 0 || d >= arity || d >= maxDims {
			return nil, fmt.Errorf("dimension %d out of range for arity %d", d, arity)
		}
		if d == prev {
			return nil, fmt.Errorf("duplicate dimension %d", d)
		}
		prev = d
	}
	return out, nil
}
