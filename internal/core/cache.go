package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// SatCache memoizes satisfiability and implication verdicts across DIMSAT
// calls (see satCacheKey for the keys). It is safe for concurrent use and
// deduplicates in-flight work: concurrent calls for the same key block on
// a single search instead of racing to repeat it, so repeated roots are
// solved once across a summarizability matrix and across HTTP requests.
//
// Failed runs (canceled contexts, exhausted budgets) are never retained —
// a later call with a larger budget recomputes. Cached Results share their
// witness frozen dimension; witnesses are immutable after construction.
// A hit returns the memoized verdict with zero Stats: the answering
// request did no search work, so per-request effort accounting
// (Options.Effort, serving histograms) records nothing for it — the
// effort was already attributed to the request that computed the entry.
//
// A cache built with NewSatCacheSize is bounded: inserting a computed
// result beyond the capacity evicts the oldest retained entry (FIFO), so
// a server fed a stream of distinct schemas holds memory steady. The
// default NewSatCache is unbounded, the right shape for one schema's
// category space.
type SatCache struct {
	mu      sync.Mutex
	entries map[satCacheKey]*satCacheEntry
	// order lists completed (retained) entries oldest-first for a bounded
	// cache; in-flight singleflight slots are not in it.
	order     []satCacheKey
	max       int // 0 = unbounded
	hits      uint64
	misses    uint64
	coalesced uint64
	evictions uint64
	// work accumulates the search effort of every computed (non-hit) run,
	// the figure the dimsatd /stats endpoint reports.
	work Stats
}

// satCacheKey identifies one verdict. A satisfiability query keys on the
// schema fingerprint and the root category with a zero alpha; a Theorem 2
// implication ds ⊨ α keys on ds's fingerprint, the SHA-256 of α's
// rendering and α's root, so a lookup never renders or hashes the
// negation schema. root is the schema's own copy of the category name
// (schema.Schema.Intern), never a substring of a request, so a retained
// key pins no request body.
type satCacheKey struct {
	schema string
	alpha  [sha256.Size]byte
	root   string
}

// satCacheEntry is a singleflight slot: res and err are written exactly
// once, before done is closed; waiters read them only after <-done.
type satCacheEntry struct {
	done chan struct{}
	res  Result
	err  error
}

// NewSatCache returns an empty, unbounded satisfiability cache.
func NewSatCache() *SatCache {
	return &SatCache{entries: map[satCacheKey]*satCacheEntry{}}
}

// NewSatCacheSize returns a cache retaining at most maxEntries computed
// results, evicting oldest-first past the cap; maxEntries <= 0 means
// unbounded.
func NewSatCacheSize(maxEntries int) *SatCache {
	c := NewSatCache()
	if maxEntries > 0 {
		c.max = maxEntries
	}
	return c
}

// CacheStats is a point-in-time snapshot of a SatCache.
type CacheStats struct {
	// Hits counts calls answered from a cached or in-flight entry.
	Hits uint64
	// Misses counts calls that ran a DIMSAT search.
	Misses uint64
	// Coalesced counts the subset of hits that arrived while the entry
	// was still being computed and blocked on the in-flight search
	// (singleflight deduplication) instead of racing to repeat it.
	Coalesced uint64
	// Evictions counts retained entries dropped by the size bound.
	Evictions uint64
	// Entries is the number of retained results.
	Entries int
	// Work accumulates the search effort of every computed run.
	Work Stats
}

// HitRate is Hits / (Hits + Misses), 0 when no calls were made.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters.
func (c *SatCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Coalesced: c.coalesced, Evictions: c.evictions,
		Entries: len(c.entries), Work: c.work,
	}
}

// lookup answers key from the cache, running compute under singleflight
// on a miss. A hit takes the mutex once. A compute that fails is not
// cached and wakes any waiters to retry (they may carry larger budgets);
// a waiter whose own context expires returns its ctx.Err without waiting
// further.
func (c *SatCache) lookup(ctx context.Context, key satCacheKey, compute func() (Result, error)) (Result, error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &satCacheEntry{done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			return c.fill(key, e, compute)
		}
		select {
		case <-e.done:
			// A retained entry is complete and successful: failed computes
			// remove their entry before closing done.
			c.hits++
			c.mu.Unlock()
			return hitResult(e.res), nil
		default:
		}
		// The entry is still computing: this call coalesces onto the
		// in-flight search.
		c.coalesced++
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		if e.err == nil {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return hitResult(e.res), nil
		}
		// The computing call failed and removed its entry before closing
		// done; retry under our own budget.
	}
}

// fill runs compute for the in-flight entry e of key and publishes the
// outcome to its waiters.
func (c *SatCache) fill(key satCacheKey, e *satCacheEntry, compute func() (Result, error)) (Result, error) {
	res, err := runCompute(compute)
	c.mu.Lock()
	if err != nil {
		delete(c.entries, key)
	} else {
		c.misses++
		c.work.Add(res.Stats)
		c.retain(key)
	}
	c.mu.Unlock()
	e.res, e.err = res, err
	close(e.done)
	return res, err
}

// hitResult is a memoized verdict with zero Stats: the request it answers
// did no search work (see the type comment).
func hitResult(res Result) Result {
	res.Stats = Stats{}
	return res
}

// retain records a completed entry in FIFO order and evicts past the
// size bound; the caller holds c.mu.
func (c *SatCache) retain(key satCacheKey) {
	if c.max <= 0 {
		return
	}
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
		c.evictions++
	}
}

// runCompute runs a singleflight compute with panic containment: a panic
// must become an error *before* the entry bookkeeping runs, or the entry's
// done channel would never close and every waiter on the key would block
// forever. The recovered panic surfaces as an *InternalError and, like any
// failed compute, is not cached.
func runCompute(compute func() (Result, error)) (res Result, err error) {
	defer recoverAsInternal(&err)
	return compute()
}

// schemaFingerprint canonically identifies a dimension schema by hashing
// its textual rendering (hierarchy plus constraints in order).
func schemaFingerprint(ds *DimensionSchema) string {
	sum := sha256.Sum256([]byte(ds.String()))
	return hex.EncodeToString(sum[:])
}
