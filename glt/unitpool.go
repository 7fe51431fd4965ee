package glt

import (
	"sync"
	"sync/atomic"
)

// unitPool is the runtime's free list of unit descriptors. The GLTO region
// path creates one ULT per OpenMP thread per parallel region (§IV-C) and one
// per task (§IV-D); recycling descriptors turns that steady-state churn into
// zero allocations.
//
// The pool is sharded: each execution stream owns an unlocked cache that
// serves its spawn and recycle traffic (Ctx spawns, detached-completion
// recycling), with batch refills and spills against a bounded global
// mutex-guarded pool. A stream touches the global lock only once per
// cacheCap/2 cache misses or overflows, so the spawn path carries no shared
// lock in steady state — the synchronization that remains is the policy's
// own pool, which is the quantity the paper measures. Parties outside any
// stream (the application goroutine dispatching regions, ReleaseAll) use the
// global pool directly; their episodes are already batched.
//
// Beyond the global cap, descriptors are dropped to the garbage collector
// rather than accumulated.
type unitPool struct {
	mu   sync.Mutex
	free []*Unit
	cap  int
	// caches are the per-stream shards, indexed by rank. Each is touched
	// only by the holder of its stream's execution token (the scheduler
	// loop, or the unit body running on the stream), so no locking is
	// needed.
	caches []unitCache
	// disable restores per-spawn allocation (Config.PerUnitDispatch): get
	// always allocates and put drops, so every unit pays the paper-faithful
	// per-unit creation cost.
	disable bool
	reused  atomic.Int64
}

// cacheCap bounds one stream's cache; refills and spills move cacheCap/2
// descriptors per global-lock acquisition. Sized to the default producer-side
// task buffer, so one buffered task burst is served from the cache.
const cacheCap = 64

// unitCache is one stream's shard. Padded so neighbouring streams' cursors
// do not share a cache line.
type unitCache struct {
	units [cacheCap]*Unit
	n     int
	_     [64]byte
}

func (p *unitPool) init(nthreads, capacity int, disable bool) {
	p.cap = capacity
	p.disable = disable
	p.caches = make([]unitCache, nthreads)
}

// get returns one descriptor, recycled if possible. from is the rank of the
// stream the caller is executing on, or -1 for callers outside any stream;
// on-stream callers are served from their cache, refilled in batch from the
// global pool when empty.
func (p *unitPool) get(rt *Runtime, from int) *Unit {
	censusGet(1)
	if p.disable {
		return allocUnit(rt)
	}
	if from >= 0 {
		c := &p.caches[from]
		if c.n == 0 {
			p.refill(c)
		}
		if c.n > 0 {
			c.n--
			u := c.units[c.n]
			c.units[c.n] = nil
			p.reused.Add(1)
			return u
		}
		return allocUnit(rt)
	}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.reused.Add(1)
		return u
	}
	p.mu.Unlock()
	return allocUnit(rt)
}

// getBatch fills out with descriptors under at most one global lock
// acquisition: the caller's stream cache first (when on-stream), then the
// global pool, allocating only the shortfall.
func (p *unitPool) getBatch(rt *Runtime, out []*Unit, from int) {
	censusGet(int64(len(out)))
	if p.disable {
		for i := range out {
			out[i] = allocUnit(rt)
		}
		return
	}
	i := 0
	if from >= 0 {
		c := &p.caches[from]
		for c.n > 0 && i < len(out) {
			c.n--
			out[i] = c.units[c.n]
			c.units[c.n] = nil
			i++
		}
	}
	if i < len(out) {
		p.mu.Lock()
		n := len(p.free)
		took := min(n, len(out)-i)
		copy(out[i:i+took], p.free[n-took:])
		for k := n - took; k < n; k++ {
			p.free[k] = nil
		}
		p.free = p.free[:n-took]
		p.mu.Unlock()
		i += took
	}
	if i > 0 {
		p.reused.Add(int64(i))
	}
	for ; i < len(out); i++ {
		out[i] = allocUnit(rt)
	}
}

// put recycles one descriptor. Callers must hold the last reference (see
// Unit.unref). from is as in get: on-stream recycles go to the stream's
// cache, spilling half to the global pool when full.
func (p *unitPool) put(u *Unit, from int) {
	censusPut(1)
	if p.disable {
		return
	}
	u.recycle()
	if from >= 0 {
		c := &p.caches[from]
		if c.n == cacheCap {
			p.spill(c)
		}
		c.units[c.n] = u
		c.n++
		return
	}
	p.mu.Lock()
	if len(p.free) < p.cap {
		p.free = append(p.free, u)
	}
	p.mu.Unlock()
}

// putAll recycles a batch of descriptors into the global pool under one lock
// acquisition (the ReleaseAll path, which runs outside any stream).
func (p *unitPool) putAll(units []*Unit) {
	censusPut(int64(len(units)))
	if p.disable || len(units) == 0 {
		return
	}
	for _, u := range units {
		u.recycle()
	}
	p.mu.Lock()
	room := p.cap - len(p.free)
	if room > len(units) {
		room = len(units)
	}
	if room > 0 {
		p.free = append(p.free, units[:room]...)
	}
	p.mu.Unlock()
}

// refill moves up to cacheCap/2 descriptors from the global pool into c.
func (p *unitPool) refill(c *unitCache) {
	p.mu.Lock()
	n := len(p.free)
	took := min(n, cacheCap/2)
	for k := 0; k < took; k++ {
		c.units[c.n] = p.free[n-1-k]
		p.free[n-1-k] = nil
		c.n++
	}
	p.free = p.free[:n-took]
	p.mu.Unlock()
}

// spill moves the newest half of a full cache to the global pool (dropping
// whatever exceeds the global cap to the garbage collector), leaving room
// for the caller's put.
func (p *unitPool) spill(c *unitCache) {
	const half = cacheCap / 2
	p.mu.Lock()
	room := p.cap - len(p.free)
	if room > half {
		room = half
	}
	if room > 0 {
		p.free = append(p.free, c.units[cacheCap-room:]...)
	}
	p.mu.Unlock()
	for i := cacheCap - half; i < cacheCap; i++ {
		c.units[i] = nil
	}
	c.n = cacheCap - half
}
