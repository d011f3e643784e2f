package cim

import (
	"sync"
	"sync/atomic"
)

// numShards is the cache store's lock-shard count. 16 keeps contention
// negligible at the parallelism the engine runs (bounded by
// core.Options.Parallelism, default GOMAXPROCS) without bloating the
// zero-entry footprint.
const numShards = 16

// store is the sharded cache map: each shard has its own RWMutex, so
// concurrent lookups from parallel branches proceed without serializing
// behind one global lock. Entries are immutable once stored (replacement
// swaps the pointer; recency is a per-entry atomic), which keeps readers
// lock-free beyond the shard read-lock.
//
// gen is the store's generation: it advances after every put, removal,
// replace and clear has become visible. The manager advances it too
// where the invariant or call index changes after the store does. A
// result computed from the store while gen held one value is current
// for as long as gen still holds it.
type store struct {
	shards [numShards]storeShard
	count  atomic.Int64
	bytes  atomic.Int64
	gen    atomic.Uint64
}

type storeShard struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

func newStore() *store {
	s := &store{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*Entry)
	}
	return s
}

// shardIdx hashes a call key to its shard (FNV-1a).
func shardIdx(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % numShards)
}

func (s *store) get(key string) (*Entry, bool) {
	sh := &s.shards[shardIdx(key)]
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	return e, ok
}

// put inserts or replaces the entry for key, maintaining the global
// count/byte tallies. It returns the replaced entry (nil on fresh insert)
// so the manager can tell refreshes from first stores — refreshing an
// entry invalidates memo relations built from the old answers.
func (s *store) put(key string, e *Entry) *Entry {
	sh := &s.shards[shardIdx(key)]
	sh.mu.Lock()
	old := sh.m[key]
	sh.m[key] = e
	sh.mu.Unlock()
	if old != nil {
		s.bytes.Add(int64(-old.Bytes))
	} else {
		s.count.Add(1)
	}
	s.bytes.Add(int64(e.Bytes))
	s.gen.Add(1)
	return old
}

// removeIf deletes key only while it still maps to e (eviction races with
// replacement), reporting whether it removed anything.
func (s *store) removeIf(key string, e *Entry) bool {
	sh := &s.shards[shardIdx(key)]
	sh.mu.Lock()
	cur, ok := sh.m[key]
	if !ok || cur != e {
		sh.mu.Unlock()
		return false
	}
	delete(sh.m, key)
	sh.mu.Unlock()
	s.count.Add(-1)
	s.bytes.Add(int64(-e.Bytes))
	s.gen.Add(1)
	return true
}

// snapshot returns the current entries. Scans (invariant matching,
// eviction victim selection, persistence) work on the snapshot so no
// shard lock is held while per-entry costs are charged to the clock.
func (s *store) snapshot() []*Entry {
	var out []*Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			out = append(out, e)
		}
		sh.mu.RUnlock()
	}
	return out
}

// replace swaps in a whole new entry set (cache load).
func (s *store) replace(entries map[string]*Entry) {
	var count, bytes int64
	byShard := make([]map[string]*Entry, numShards)
	for i := range byShard {
		byShard[i] = make(map[string]*Entry)
	}
	for k, e := range entries {
		byShard[shardIdx(k)][k] = e
		count++
		bytes += int64(e.Bytes)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.m = byShard[i]
		sh.mu.Unlock()
	}
	s.count.Store(count)
	s.bytes.Store(bytes)
	s.gen.Add(1)
}

func (s *store) clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.m = make(map[string]*Entry)
		sh.mu.Unlock()
	}
	s.count.Store(0)
	s.bytes.Store(0)
	s.gen.Add(1)
}
