package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/trace"
)

// mineOutput is everything one Mine execution produced that later requests
// may want: the deterministic report bytes (byte-identical across cache
// hits — pinned by the report golden test), the contrast count, the run
// statistics and metrics snapshot, and — for the globally-discretizing
// algorithms — the binned dataset the contrasts' items refer to. The
// decision trace is derived on first read (Manager.traceOf) and memoized
// in trace.
type mineOutput struct {
	JSON      []byte
	Contrasts int
	Stats     core.Stats
	Metrics   *metrics.Snapshot
	Binned    *dataset.Dataset

	// traceLock guards trace. It is a one-slot channel rather than a
	// sync.Mutex so that a reader queued behind a running replay can
	// give up when its request ends.
	traceLock chan struct{}
	trace     *trace.Trace
}

// resultCache maps (dataset hash, canonical config hash) to mineOutput,
// LRU-bounded by entry count. An entry's fields are immutable after
// insertion, apart from the trace memo behind its own lock, so readers
// share entries without copying.
type resultCache struct {
	mu        sync.Mutex
	max       int
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	evictions atomic.Int64
}

type cacheSlot struct {
	key string
	out *mineOutput
}

func newResultCache(maxEntries int) *resultCache {
	if maxEntries <= 0 {
		maxEntries = 128
	}
	return &resultCache{
		max:     maxEntries,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

func (c *resultCache) get(key string) (*mineOutput, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheSlot).out, true
}

func (c *resultCache) put(key string, out *mineOutput) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheSlot).out = out
		return
	}
	c.entries[key] = c.order.PushFront(&cacheSlot{key: key, out: out})
	for len(c.entries) > c.max {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*cacheSlot).key)
		c.evictions.Add(1)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// evicted reports how many entries LRU pressure has dropped.
func (c *resultCache) evicted() int64 { return c.evictions.Load() }
