package dcsm

import (
	"hash/maphash"
	"math"
	"math/bits"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// Running aggregates: the paper's summary tables exist so that estimation
// avoids "the expensive aggregation" over raw cost records (§6.2). Raw
// aggregation at a relaxation level is the same fold every time, so the
// module keeps its answer up to date instead of recomputing it: one
// running table per (function, relaxation mask), built the first time
// estimation aggregates at that mask, then maintained as records arrive
// and age out. A lookup hashes the pattern's values at the mask's
// positions and reads one row, so an estimate no longer scans history.
//
// A row must answer exactly what aggregate would compute over the same
// records, bit for bit. Rows fold records in recording order, as the scan
// does, so additions agree. Removal (a MaxRecordsPerCall trim) subtracts
// only while the row is exact: every Card integral and every sum's
// magnitude below 2^53, so no float operation in the scan or here can
// round. Otherwise the row is rebuilt from the remaining records. Running
// tables serve uniform weights only: with a recency half-life the weights
// depend on the read time, and aggregate stays the only path.

// exactLimit bounds the magnitudes at which float64 sums of integers stay
// exact.
const exactLimit = 1 << 53

// hashSeed keys the row hash; rows are per-process, never persisted.
var hashSeed = maphash.MakeSeed()

// funcStats is one function's raw records, oldest first, and the running
// tables maintained over them.
type funcStats struct {
	recs []stored
	// base is the sequence number of recs[0]: every record appended to
	// the function gets the next number, and a trim advances base.
	base int64
	// tables holds a running table per relaxation mask, built on first
	// use. Estimation builds under the read lock holding DB.tabMu;
	// writers hold the write lock.
	tables map[uint64]*runningTable
}

// args returns the arguments of the record with sequence number seq.
func (fs *funcStats) args(seq int64) []term.Value { return fs.recs[seq-fs.base].args }

// append stores a record, folds it into every running table, then trims
// the oldest records beyond limit (0 = unbounded), unfolding each.
func (fs *funcStats) append(s stored, limit int) {
	fs.recs = append(fs.recs, s)
	seq := fs.base + int64(len(fs.recs)) - 1
	for _, t := range fs.tables {
		t.add(fs, seq)
	}
	if over := len(fs.recs) - limit; limit > 0 && over > 0 {
		for i := 0; i < over; i++ {
			for _, t := range fs.tables {
				t.remove(fs, fs.base+int64(i), fs.recs[i+1:])
			}
		}
		fs.recs = fs.recs[over:]
		fs.base += int64(over)
	}
}

// table returns the running table at mask, folding every record into a
// new one on first use.
func (fs *funcStats) table(mask uint64) *runningTable {
	if t := fs.tables[mask]; t != nil {
		return t
	}
	t := &runningTable{mask: mask, slots: make([]int64, 8)}
	for i := range fs.recs {
		t.add(fs, fs.base+int64(i))
	}
	if fs.tables == nil {
		fs.tables = make(map[uint64]*runningTable)
	}
	fs.tables[mask] = t
	return t
}

// runningTable holds one function's running aggregates at one relaxation
// mask, one per distinct tuple of values at the mask's positions. A
// tuple seen once is its record, referenced from the index; only a tuple
// shared by two or more records gets a row of sums. Most tuples at the
// wider masks are calls seen once, so the table costs little beyond its
// index.
//
// Both arrays are pointer-free and sized in powers of two: a table is
// two allocations the garbage collector need not scan, each filling its
// own span once past a few kilobytes.
type runningTable struct {
	mask uint64
	// slots is an open-addressing index by the hash of the values at the
	// mask's positions, probed linearly and at most half full: 0 is
	// empty, i+1 is rows[i], and -(seq+1) is the lone record seq.
	slots []int64
	used  int // occupied slots
	rows  []runningRow
}

// runningRow sums the records sharing one tuple of values at the table's
// mask positions. It is 64 bytes, so a power-of-two row count is a
// power-of-two allocation.
type runningRow struct {
	sumTf, sumTa, sumCard float64
	// mag sums the magnitudes of every valid Tf, Ta and integral Card
	// (saturating); inexact counts records whose Card is not an integer
	// of magnitude at most 2^53. The row may subtract only while both
	// say the sums are exact.
	mag uint64
	// last is the sequence number of the row's newest record, whose
	// arguments give the row's values. Trims drop the oldest record
	// first, so last survives while the row exists.
	last               int64
	n, nTf, nTa, nCard int32
	inexact            int32
}

// hashValue mixes one value into h so that term.Equal values hash alike:
// every NaN hashes as one value, ±0 apart, Int apart from Float.
// Records, whose equality is by canonical key, hash by kind alone and
// are told apart by the row comparison.
func hashValue(h uint64, v term.Value) uint64 {
	switch x := v.(type) {
	case term.Str:
		return mix(h, 1, maphash.String(hashSeed, string(x)))
	case term.Int:
		return mix(h, 2, uint64(x))
	case term.Float:
		f := float64(x)
		if math.IsNaN(f) {
			return mix(h, 3, 0x7ff8000000000001)
		}
		return mix(h, 3, math.Float64bits(f))
	case term.Bool:
		if x {
			return mix(h, 4, 1)
		}
		return mix(h, 4, 0)
	case term.Tuple:
		h = mix(h, 5, uint64(len(x)))
		for _, c := range x {
			h = hashValue(h, c)
		}
		return h
	case nil:
		return mix(h, 7, 0)
	}
	return mix(h, 6, uint64(v.Kind()))
}

// mix folds a kind tag and a 64-bit word into h.
func mix(h, tag, x uint64) uint64 {
	h ^= tag*0x9e3779b97f4a7c15 + x
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// hashAt hashes args at the mask's positions.
func hashAt(args []term.Value, mask uint64) uint64 {
	var h uint64
	for m := mask; m != 0; m &= m - 1 {
		h = hashValue(h, args[bits.TrailingZeros64(m)])
	}
	return h
}

// sameAt reports whether two argument lists agree at the mask's
// positions.
func sameAt(a, b []term.Value, mask uint64) bool {
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if !term.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// seqOf returns the sequence number of the newest record behind a
// non-empty slot value.
func (t *runningTable) seqOf(v int64) int64 {
	if v < 0 {
		return -v - 1
	}
	return t.rows[v-1].last
}

// lookup returns the aggregate for a pattern's constants at the table's
// mask (all of which are known in p). ok=false when no record holds them
// or none contributes a component.
func (t *runningTable) lookup(fs *funcStats, p domain.Pattern) (domain.CostVector, bool) {
	var h uint64
	for m := t.mask; m != 0; m &= m - 1 {
		h = hashValue(h, p.Args[bits.TrailingZeros64(m)].Val)
	}
	mod := uint64(len(t.slots) - 1)
	for i := h & mod; t.slots[i] != 0; i = (i + 1) & mod {
		v := t.slots[i]
		if !matchMask(p, t.mask, fs.args(t.seqOf(v))) {
			continue
		}
		if v > 0 {
			return t.rows[v-1].vector()
		}
		var r runningRow
		r.fold(&fs.recs[-v-1-fs.base])
		return r.vector()
	}
	return domain.CostVector{}, false
}

// find returns the slot holding args' values, or the empty slot where
// they would go, and whether they are held.
func (t *runningTable) find(fs *funcStats, args []term.Value) (int, bool) {
	mod := uint64(len(t.slots) - 1)
	i := hashAt(args, t.mask) & mod
	for ; t.slots[i] != 0; i = (i + 1) & mod {
		if sameAt(fs.args(t.seqOf(t.slots[i])), args, t.mask) {
			return int(i), true
		}
	}
	return int(i), false
}

// home is the slot where the probe for a record's values starts.
func (t *runningTable) home(fs *funcStats, seq int64) int {
	return int(hashAt(fs.args(seq), t.mask) & uint64(len(t.slots)-1))
}

// add folds the record with sequence number seq, the newest, into the
// table.
func (t *runningTable) add(fs *funcStats, seq int64) {
	s := &fs.recs[seq-fs.base]
	i, ok := t.find(fs, s.args)
	switch {
	case !ok:
		if 2*(t.used+1) > len(t.slots) {
			t.rehash(fs)
			i, _ = t.find(fs, s.args)
		}
		t.slots[i] = -(seq + 1)
		t.used++
		return
	case t.slots[i] < 0:
		// A second record joins a lone one: the tuple gets a row.
		if len(t.rows) == cap(t.rows) {
			rows := make([]runningRow, len(t.rows), max(4, 2*cap(t.rows)))
			copy(rows, t.rows)
			t.rows = rows
		}
		t.rows = append(t.rows, runningRow{})
		t.rows[len(t.rows)-1].fold(&fs.recs[-t.slots[i]-1-fs.base])
		t.slots[i] = int64(len(t.rows))
	}
	r := &t.rows[t.slots[i]-1]
	r.fold(s)
	r.last = seq
}

// rehash doubles the index.
func (t *runningTable) rehash(fs *funcStats) {
	old := t.slots
	t.slots = make([]int64, 2*len(old))
	mod := len(t.slots) - 1
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := t.home(fs, t.seqOf(v))
		for t.slots[i] != 0 {
			i = (i + 1) & mod
		}
		t.slots[i] = v
	}
}

// remove unfolds the record with sequence number seq, dropped by a trim.
// recs are the records that remain, in recording order; an inexact row is
// rebuilt from them. A row left with one record reverts to that record.
func (t *runningTable) remove(fs *funcStats, seq int64, recs []stored) {
	s := &fs.recs[seq-fs.base]
	i, ok := t.find(fs, s.args)
	if !ok {
		return
	}
	if t.slots[i] < 0 {
		t.unslot(fs, i)
		return
	}
	row := t.slots[i] - 1
	r := &t.rows[row]
	if r.inexact == 0 && r.mag < exactLimit {
		r.unfold(s)
	} else {
		*r = runningRow{last: r.last}
		for k := range recs {
			if sameAt(recs[k].args, s.args, t.mask) {
				r.fold(&recs[k])
			}
		}
	}
	if r.n == 1 {
		t.slots[i] = -(r.last + 1)
		t.dropRow(fs, row)
	}
}

// dropRow deletes a row no slot refers to any more: the last row moves
// into its place.
func (t *runningTable) dropRow(fs *funcStats, row int64) {
	last := int64(len(t.rows) - 1)
	if row != last {
		k, _ := t.find(fs, fs.args(t.rows[last].last))
		t.slots[k] = row + 1
		t.rows[row] = t.rows[last]
	}
	t.rows = t.rows[:last]
}

// unslot empties slot i by backward shift: later entries of its probe
// run move back, so every entry stays reachable from its home slot.
func (t *runningTable) unslot(fs *funcStats, i int) {
	t.used--
	mod := len(t.slots) - 1
	for j := i; ; {
		t.slots[i] = 0
		for {
			j = (j + 1) & mod
			if t.slots[j] == 0 {
				return
			}
			// The entry at j may fill the hole at i unless its home
			// lies cyclically in (i, j].
			h := t.home(fs, t.seqOf(t.slots[j]))
			if i <= j && (h <= i || h > j) || i > j && h <= i && h > j {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// fold adds one record's valid components, in the scan's arithmetic.
func (r *runningRow) fold(s *stored) {
	r.n++
	if s.valid&hasTf != 0 {
		r.sumTf += float64(s.cost.TFirst)
		r.nTf++
		r.mag = addMag(r.mag, absDur(int64(s.cost.TFirst)))
	}
	if s.valid&hasTa != 0 {
		r.sumTa += float64(s.cost.TAll)
		r.nTa++
		r.mag = addMag(r.mag, absDur(int64(s.cost.TAll)))
	}
	if s.valid&hasCard != 0 {
		r.sumCard += s.cost.Card
		r.nCard++
		if c := math.Abs(s.cost.Card); c <= exactLimit && c == math.Trunc(c) {
			r.mag = addMag(r.mag, uint64(c))
		} else {
			r.inexact++
		}
	}
}

// unfold subtracts one record from an exact row; every operand and
// result is an integer below 2^53, so the subtraction is exact.
func (r *runningRow) unfold(s *stored) {
	r.n--
	if s.valid&hasTf != 0 {
		r.sumTf -= float64(s.cost.TFirst)
		r.nTf--
		r.mag -= absDur(int64(s.cost.TFirst))
	}
	if s.valid&hasTa != 0 {
		r.sumTa -= float64(s.cost.TAll)
		r.nTa--
		r.mag -= absDur(int64(s.cost.TAll))
	}
	if s.valid&hasCard != 0 {
		r.sumCard -= s.cost.Card
		r.nCard--
		r.mag -= uint64(math.Abs(s.cost.Card))
	}
}

// vector is the row's estimate, as aggregate computes it.
func (r *runningRow) vector() (domain.CostVector, bool) {
	return meanVector(r.sumTf, float64(r.nTf), r.sumTa, float64(r.nTa), r.sumCard, float64(r.nCard))
}

func absDur(d int64) uint64 {
	if d < 0 {
		return uint64(-d) // MinInt64 wraps to 2^63, its magnitude
	}
	return uint64(d)
}

// addMag adds magnitudes, saturating.
func addMag(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return s
}
