package main

import (
	"sort"
	"sync"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachecl"
	"cntr/internal/cntrfs"
	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/pagecache"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// The layers a span can be booked to. A span is named after the layer
// directly beneath the boundary it was recorded at: the Top span of a
// stack covers its kernel-side page cache and everything below, so the
// span's self-time is that page cache's own work.
const (
	layerVFS = iota
	layerKernelPC
	layerNativePC
	layerPolicy
	layerFuse
	layerCntrFS
	layerHostPC
	layerMemFS
	layerCacheCl
	layerBlobstore
	numLayers
)

var layerNames = [numLayers]string{
	"vfs", "pagecache.kernel", "pagecache.native", "policy", "fuse",
	"cntrfs", "pagecache.host", "memfs", "cachecl", "blobstore",
}

// layerDepth orders the boundaries from the top of a stack down. A call
// nests inside the open call above it; a span that opens while a call
// at its own depth or below is the most recent open one did not come
// from it, but from another goroutine working concurrently (an
// asynchronous FUSE forget, say).
var layerDepth = [numLayers]int{
	layerKernelPC: 0, layerNativePC: 0, layerPolicy: 1, layerFuse: 2,
	layerCntrFS: 3, layerHostPC: 4, layerMemFS: 5, layerCacheCl: 6, layerBlobstore: 7,
}

// span is one call across a layer boundary. v* are virtual nanoseconds
// on the stack's clock, h* host nanoseconds since the recorder's base.
type span struct {
	layer uint8
	errno bool
	// detached marks a span that runs concurrently with the call chain
	// it opened inside of, and every span below it.
	detached bool
	parent   int32
	v0, v1   int64
	h0, h1   int64
}

// recorder keeps the spans of one stack in memory. The parent of a span
// is the most recently opened span still open when it starts; the FUSE
// server runs on its own goroutines, so parentage is tracked across the
// whole stack rather than per goroutine (the load is one goroutine and
// issues one call at a time). A span whose would-be parent sits at its
// own depth or below is detached (see layerDepth).
type recorder struct {
	clock *sim.Clock
	base  time.Time

	mu sync.Mutex
	on bool
	// gen counts windows, so a call that began in one window and ends
	// after it (on a server goroutine) cannot touch a later one's spans.
	gen   uint32
	spans []span
	open  []int32
}

// spanRef names one recorded span; a negative idx names none.
type spanRef struct {
	idx int32
	gen uint32
}

func newRecorder(clock *sim.Clock) *recorder {
	return &recorder{clock: clock, base: time.Now()}
}

func (r *recorder) begin(layer int) spanRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return spanRef{idx: -1}
	}
	parent := int32(-1)
	detached := false
	// A Top call is always a new request from the load.
	if n := len(r.open); n > 0 && layerDepth[layer] > 0 {
		parent = r.open[n-1]
		p := &r.spans[parent]
		detached = p.detached || layerDepth[p.layer] >= layerDepth[layer]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{
		layer: uint8(layer), parent: parent, detached: detached,
		v0: int64(r.clock.Now()), h0: int64(time.Since(r.base)),
	})
	r.open = append(r.open, idx)
	return spanRef{idx: idx, gen: r.gen}
}

func (r *recorder) end(ref spanRef, err error) {
	if ref.idx < 0 {
		return
	}
	h1 := int64(time.Since(r.base))
	r.mu.Lock()
	defer r.mu.Unlock()
	if ref.gen != r.gen {
		return
	}
	idx := ref.idx
	s := &r.spans[idx]
	s.v1 = int64(r.clock.Now())
	s.h1 = h1
	s.errno = err != nil
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == idx {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// start opens the measured window; spans outside it are not kept.
func (r *recorder) start() {
	r.mu.Lock()
	r.on = true
	r.gen++
	r.spans = r.spans[:0]
	r.open = r.open[:0]
	r.mu.Unlock()
}

func (r *recorder) stop() {
	r.mu.Lock()
	r.on = false
	r.mu.Unlock()
}

// layerTotals is the per-layer reduction of a window's spans.
type layerTotals struct {
	calls    [numLayers]int64
	errnos   [numLayers]int64
	virtSelf [numLayers]int64
	hostSelf [numLayers]int64
	// covered is the virtual time inside at least one root span.
	covered int64
	// detached and detachedVirt count the spans of concurrent work and
	// the virtual time they overlapped: the clock is shared, so that
	// time is already inside the attached spans it overlapped, and is
	// not booked a second time.
	detached, detachedVirt int64
	// vfsLat holds the virtual latency of every Top call, in ns.
	vfsLat []int64
}

func (t *layerTotals) add(o *layerTotals) {
	for l := 0; l < numLayers; l++ {
		t.calls[l] += o.calls[l]
		t.errnos[l] += o.errnos[l]
		t.virtSelf[l] += o.virtSelf[l]
		t.hostSelf[l] += o.hostSelf[l]
	}
	t.covered += o.covered
	t.detached += o.detached
	t.detachedVirt += o.detachedVirt
	t.vfsLat = append(t.vfsLat, o.vfsLat...)
}

// reduce books every span's self-time (its duration minus its children's)
// to its layer, then releases the spans. vfsLayer is the layer the
// stack's Top spans carry, whose durations are the syscall latencies.
func (r *recorder) reduce(vfsLayer int) *layerTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &layerTotals{}
	// A call still running (on a server goroutine) is cut at the end of
	// the reduction.
	for _, idx := range r.open {
		r.spans[idx].v1 = int64(r.clock.Now())
		r.spans[idx].h1 = int64(time.Since(r.base))
	}
	childV := make([]int64, len(r.spans))
	childH := make([]int64, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		if s.parent >= 0 && s.detached == r.spans[s.parent].detached {
			childV[s.parent] += s.v1 - s.v0
			childH[s.parent] += s.h1 - s.h0
		}
	}
	var end int64 = -1 << 62
	for i := range r.spans {
		s := &r.spans[i]
		l := int(s.layer)
		t.calls[l]++
		if s.errno {
			t.errnos[l]++
		}
		t.hostSelf[l] += s.h1 - s.h0 - childH[i]
		if s.detached {
			t.detached++
			if s.parent < 0 || !r.spans[s.parent].detached {
				t.detachedVirt += s.v1 - s.v0
			}
			continue
		}
		t.virtSelf[l] += s.v1 - s.v0 - childV[i]
		if l == vfsLayer {
			t.calls[layerVFS]++
			if s.errno {
				t.errnos[layerVFS]++
			}
			t.vfsLat = append(t.vfsLat, s.v1-s.v0)
		}
		if s.parent < 0 {
			// Roots start in clock order, so a running end suffices to
			// measure their union.
			lo := max(s.v0, end)
			if s.v1 > lo {
				t.covered += s.v1 - lo
			}
			end = max(end, s.v1)
		}
	}
	r.gen++
	r.spans = nil
	r.open = nil
	return t
}

// timer is the interceptor recording one layer's spans.
type timer struct {
	rec   *recorder
	layer int
}

func (t timer) Intercept(info *vfs.OpInfo, next func() error) error {
	idx := t.rec.begin(t.layer)
	err := next()
	t.rec.end(idx, err)
	return err
}

// timedStore records spans around a blob store's calls.
type timedStore struct {
	blobstore.Store
	rec   *recorder
	layer int
}

func (s timedStore) Put(data []byte) (blobstore.Ref, error) {
	idx := s.rec.begin(s.layer)
	ref, err := s.Store.Put(data)
	s.rec.end(idx, err)
	return ref, err
}

func (s timedStore) Get(ref blobstore.Ref) ([]byte, error) {
	idx := s.rec.begin(s.layer)
	data, err := s.Store.Get(ref)
	s.rec.end(idx, err)
	return data, err
}

func (s timedStore) Stat(ref blobstore.Ref) (blobstore.Info, error) {
	idx := s.rec.begin(s.layer)
	info, err := s.Store.Stat(ref)
	s.rec.end(idx, err)
	return info, err
}

func (s timedStore) Delete(ref blobstore.Ref) error {
	idx := s.rec.begin(s.layer)
	err := s.Store.Delete(ref)
	s.rec.end(idx, err)
	return err
}

// maybeTimedStore wraps store in a timer when rec is non-nil.
func maybeTimedStore(store blobstore.Store, rec *recorder, layer int) blobstore.Store {
	if rec == nil {
		return store
	}
	return timedStore{Store: store, rec: rec, layer: layer}
}

// chain adds a layer timer in front of fs when rec is non-nil.
func chain(fs vfs.FS, rec *recorder, layer int) vfs.FS {
	if rec == nil {
		return fs
	}
	return vfs.Chain(fs, timer{rec: rec, layer: layer})
}

// nativeStack is the baseline stack with the parts the benchmark reads.
type nativeStack struct {
	*stack.Native
	store blobstore.Store
	rec   *recorder
}

// newNative builds the native stack. Untraced it is stack.NewNative;
// traced it is the same construction with timers at the memfs and store
// boundaries, which stack.NewNative does not expose.
func newNative(cfg stack.Config, traced bool) *nativeStack {
	store := blobstore.NewMem()
	if !traced {
		cfg.Store = store
		return &nativeStack{Native: stack.NewNative(cfg), store: store}
	}
	clock := sim.NewClock()
	rec := newRecorder(clock)
	model := sim.DefaultCostModel()
	disk := sim.NewDisk(clock, model)
	mem := memfs.New(memfs.Options{Store: maybeTimedStore(store, rec, layerBlobstore)})
	cache := pagecache.New(chain(mem, rec, layerMemFS), clock, model, pagecache.Options{
		KeepCache:    true,
		Writeback:    true,
		DirtyWindow:  cfg.DirtyWindowNative,
		MaxWriteSize: 1 << 20,
		ReadAhead:    cfg.ReadAhead,
		ChargeDisk:   disk,
		Budget:       pagecache.NewMemBudget(cfg.RAM),
	})
	stats := vfs.NewStats()
	n := &stack.Native{
		Clock: clock, Model: model, Disk: disk, Mem: mem, Cache: cache, Stats: stats,
		Top: vfs.Chain(cache, stats, timer{rec: rec, layer: layerNativePC}),
	}
	return &nativeStack{Native: n, store: store, rec: rec}
}

// cntrStack is the CntrFS stack with the parts the benchmark reads.
type cntrStack struct {
	*stack.Cntr
	store blobstore.Store
	rec   *recorder

	closeOnce sync.Once
	closeFn   func()
}

// shutdown unmounts the stack once; later calls do nothing.
func (s *cntrStack) shutdown() { s.closeOnce.Do(s.closeFn) }

// newCntr builds the CntrFS stack. Untraced it is stack.NewCntr; traced
// it repeats stack.NewCntr's construction from the same public
// constructors with timers between the layers. store is the backend
// (Config.Store).
func newCntr(cfg stack.Config, store blobstore.Store, traced bool) *cntrStack {
	if !traced {
		cfg.Store = store
		c := stack.NewCntr(cfg)
		return &cntrStack{Cntr: c, store: store, closeFn: c.Close}
	}
	clock := sim.NewClock()
	rec := newRecorder(clock)
	model := sim.DefaultCostModel()
	disk := sim.NewDisk(clock, model)
	var (
		cacheCl   *cachecl.Client
		tier      *cachecl.Store
		origin    *sim.Disk
		hostStore = maybeTimedStore(store, rec, layerBlobstore)
		chargePC  = disk
	)
	if cfg.CacheService != nil {
		cacheCl = cachecl.New(cfg.CacheService, cfg.CacheMountID, clock, model)
		cacheCl.Attach()
		origin = sim.NewDisk(clock, model)
		origin.SetQueueDepth(int(cfg.ReadAhead / 4096))
		tier = cachecl.WrapStore(hostStore, cacheCl, cachecl.StoreOptions{Origin: origin})
		hostStore = maybeTimedStore(tier, rec, layerCacheCl)
		chargePC = nil
	}
	host := memfs.New(memfs.Options{Store: hostStore})
	budget := pagecache.NewMemBudget(cfg.RAM)
	hostPC := pagecache.New(chain(host, rec, layerMemFS), clock, model, pagecache.Options{
		KeepCache:    true,
		Writeback:    true,
		DirtyWindow:  cfg.DirtyWindowNative,
		MaxWriteSize: 1 << 20,
		ReadAhead:    cfg.ReadAhead,
		ChargeDisk:   chargePC,
		Budget:       budget,
	})
	cfs := cntrfs.New(chain(hostPC, rec, layerHostPC), cntrfs.Options{DedupHardlinks: !cfg.NoDedupHardlinks})
	conn, srv := fuse.Mount(chain(cfs, rec, layerCntrFS), clock, model, cfg.Mount)
	ra := cfg.ReadAhead
	if !cfg.Mount.AsyncRead {
		ra = 0
	}
	depth := cfg.AsyncDepth
	if !cfg.Mount.AsyncRead {
		depth = 0
	}
	var below []vfs.Interceptor
	var recTracer *vfs.Tracer
	var stopRecord func()
	if cfg.Record != nil {
		recTracer = vfs.NewTracer(0)
		flush := cfg.RecordFlush
		if flush == (vfs.TraceBatchOptions{}) {
			flush.Lossless = true
		}
		stopRecord = recTracer.StartBatchSink(cfg.Record, flush)
		below = append(below, timer{rec: rec, layer: layerPolicy}, recTracer)
	}
	below = append(below, cfg.BelowCache...)
	below = append(below, timer{rec: rec, layer: layerFuse})
	kernel := pagecache.New(vfs.Chain(conn, below...), clock, model, pagecache.Options{
		KeepCache:    cfg.Mount.KeepCache,
		Writeback:    cfg.Mount.WritebackCache,
		DirtyWindow:  cfg.DirtyWindowFuse,
		MaxWriteSize: int64(cfg.Mount.MaxWrite),
		ReadAhead:    ra,
		AsyncDepth:   depth,
		FlushOnClose: true,
		Budget:       budget,
	})
	stats := vfs.NewStats()
	c := &stack.Cntr{
		Clock: clock, Model: model, Disk: disk, Host: host, HostPC: hostPC,
		FS: cfs, Conn: conn, Server: srv, Kernel: kernel, Budget: budget,
		CacheCl: cacheCl, Tier: tier, Origin: origin, Stats: stats, RecordTracer: recTracer,
		Top: vfs.Chain(kernel, stats, timer{rec: rec, layer: layerKernelPC}),
	}
	return &cntrStack{Cntr: c, store: store, rec: rec, closeFn: func() {
		conn.Unmount()
		if cacheCl != nil {
			cacheCl.Release()
		}
		srv.Wait()
		if stopRecord != nil {
			stopRecord()
		}
	}}
}

// percentile returns the q-quantile (nearest rank) of xs, sorting it.
func percentile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
