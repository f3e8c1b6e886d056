package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/mutate"
)

// resultCache is an LRU over computed responses, bounded both by entry
// count and by total marshaled byte size so a handful of huge answers
// can't monopolize memory. The engine is deterministic for a canonical
// (epoch-pinned) key, so entries never expire — they age out, or are
// advanced/dropped by Advance when their graph mutates.
type resultCache struct {
	mu         sync.Mutex
	ll         *list.List // front = most recent
	entries    map[string]*list.Element
	maxEntries int
	maxBytes   int64
	bytes      int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	promoted  atomic.Int64
	dropped   atomic.Int64
}

type cacheEntry struct {
	key  string
	resp Response
	size int64 // marshaled size of resp, for the byte budget

	// req is the canonical request (for re-keying on epoch promotion)
	// and region the answer's read-set signature (for delta-keyed
	// invalidation).
	req    Request
	region mutate.Region
}

// newResultCache builds a cache; maxEntries <= 0 disables caching
// entirely (every Get misses, Put drops).
func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		ll:         list.New(),
		entries:    make(map[string]*list.Element),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// Get returns the cached response for key, if any, and records the
// hit/miss. The returned Response is a copy; callers stamp their own
// Cached/QueueWaitMs fields without disturbing the entry.
func (rc *resultCache) Get(key string) (Response, bool) {
	rc.mu.Lock()
	el, ok := rc.entries[key]
	if ok {
		rc.ll.MoveToFront(el)
	}
	var resp Response
	if ok {
		resp = el.Value.(*cacheEntry).resp
	}
	rc.mu.Unlock()
	if ok {
		rc.hits.Add(1)
	} else {
		rc.misses.Add(1)
	}
	return resp, ok
}

// Put stores resp under key, evicting least-recently-used entries until
// both budgets hold. size is the marshaled byte length of resp; req is
// the canonical request and region the answer's read-set signature.
func (rc *resultCache) Put(key string, resp Response, size int64, req Request, region mutate.Region) {
	if rc.maxEntries <= 0 {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.putLocked(key, resp, size, req, region)
}

func (rc *resultCache) putLocked(key string, resp Response, size int64, req Request, region mutate.Region) {
	if el, ok := rc.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		rc.bytes += size - ent.size
		ent.resp, ent.size, ent.req, ent.region = resp, size, req, region
		rc.ll.MoveToFront(el)
	} else {
		rc.entries[key] = rc.ll.PushFront(&cacheEntry{key: key, resp: resp, size: size, req: req, region: region})
		rc.bytes += size
	}
	for rc.ll.Len() > rc.maxEntries || (rc.bytes > rc.maxBytes && rc.ll.Len() > 1) {
		oldest := rc.ll.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(*cacheEntry)
		rc.ll.Remove(oldest)
		delete(rc.entries, ent.key)
		rc.bytes -= ent.size
		rc.evictions.Add(1)
	}
}

// Advance applies one committed mutation to the cache: every entry of
// graphName computed at the parent epoch whose read-set does NOT
// intersect the mutated region is still the correct answer at the new
// epoch, so it is promoted — duplicated under the new epoch's key with
// the epoch restamped — and keeps serving latest-epoch lookups without
// a recompute. Entries whose read-set intersects the region are
// dropped: the mutation may have changed their answer. Entries pinned
// to older epochs are untouched either way — they remain exact for the
// version they name.
func (rc *resultCache) Advance(graphName string, toEpoch uint64, region mutate.Region) (promoted, dropped int) {
	if rc.maxEntries <= 0 {
		return 0, 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	type promo struct {
		resp   Response
		size   int64
		req    Request
		region mutate.Region
	}
	var promos []promo
	var victims []*list.Element
	for el := rc.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if ent.req.Graph != graphName || ent.req.Epoch != toEpoch-1 {
			continue
		}
		if ent.region.Intersects(region) {
			victims = append(victims, el)
			continue
		}
		req := ent.req
		req.Epoch = toEpoch
		resp := ent.resp
		resp.Epoch = toEpoch
		promos = append(promos, promo{resp: resp, size: ent.size, req: req, region: ent.region})
	}
	for _, el := range victims {
		ent := el.Value.(*cacheEntry)
		rc.ll.Remove(el)
		delete(rc.entries, ent.key)
		rc.bytes -= ent.size
		dropped++
	}
	for _, pr := range promos {
		rc.putLocked(cacheKey(pr.req), pr.resp, pr.size, pr.req, pr.region)
		promoted++
	}
	rc.promoted.Add(int64(promoted))
	rc.dropped.Add(int64(dropped))
	return promoted, dropped
}

// Len and Bytes report current occupancy.
func (rc *resultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.ll.Len()
}

func (rc *resultCache) Bytes() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.bytes
}
