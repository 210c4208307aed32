package server

import (
	"container/list"
	"encoding/json"
	"strconv"

	"repro/internal/batch"
	"repro/internal/scenario"
)

// resultCache is a plain LRU over finished simulate results, keyed by the
// scenario's canonical content hash plus the canonical options JSON. Entries
// are immutable once inserted — a cached *storedResult and its byte slices
// are shared between jobs as their output form, never mutated — so a hit
// costs a map lookup and a list splice. The cache is guarded by the server mutex.
type resultCache struct {
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key   string
	value any
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		order:   list.New(),
	}
}

func (c *resultCache) get(key string) (any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).value, true
}

func (c *resultCache) put(key string, value any) (evicted bool) {
	if c.cap <= 0 {
		return false
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).value = value
		c.order.MoveToFront(el)
		return false
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, value: value})
	if len(c.entries) > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		return true
	}
	return false
}

func (c *resultCache) len() int { return len(c.entries) }

// sweepVariantKey keys one sweep variant's result: the base scenario's
// canonical content hash, the spec horizon (the only spec field besides the
// variant itself that changes a run), and the variant with its ordinal index
// cleared — the same configuration at a different position in a different
// sweep is the same deterministic simulation.
func sweepVariantKey(hash string, horizon scenario.Duration, v batch.Variant) (string, bool) {
	v.Index = 0
	data, err := json.Marshal(v)
	if err != nil {
		return "", false
	}
	return "sweep\x00" + hash + "\x00" + strconv.FormatInt(int64(horizon), 10) + "\x00" + string(data), true
}

// sweepLookup builds the per-variant cache probe for one sweep job. A miss
// is the moment a variant is committed to actually simulate, so the
// simulations counter ticks here; hit/miss metrics move only when caching is
// enabled, matching the simulate-job accounting.
func (s *Server) sweepLookup(job *Job) func(batch.Variant) (batch.Result, bool) {
	return func(v batch.Variant) (batch.Result, bool) {
		key, ok := sweepVariantKey(job.Hash, job.spec.Horizon, v)
		s.mu.Lock()
		defer s.mu.Unlock()
		if ok && s.cache.cap > 0 {
			if hit, found := s.cache.get(key); found {
				s.m.cacheHits.Inc()
				return hit.(batch.Result), true
			}
			s.m.cacheMiss.Inc()
		}
		s.m.simulations[KindSweep].Inc()
		return batch.Result{}, false
	}
}

// sweepStore inserts one freshly simulated variant result. The batch layer
// only offers successful results, and restores the live index on later hits,
// so the stored value is index-normalized and immutable.
func (s *Server) sweepStore(job *Job) func(batch.Variant, batch.Result) {
	return func(v batch.Variant, r batch.Result) {
		key, ok := sweepVariantKey(job.Hash, job.spec.Horizon, v)
		if !ok {
			return
		}
		r.Variant.Index = 0
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.cache.put(key, r) {
			s.m.cacheEvict.Inc()
		}
		s.m.cacheSize.Set(int64(s.cache.len()))
	}
}
