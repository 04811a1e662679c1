// Package pagecache implements a simulated kernel page cache layered over
// any vfs.FS. It models the three properties that dominate the paper's
// performance results:
//
//   - Read caching: pages served from cache cost nanoseconds; misses go to
//     the backing filesystem (and, when configured, the disk model).
//     FOPEN_KEEP_CACHE controls whether cached pages survive re-opens —
//     without it, every open invalidates the file's pages and the cache
//     cannot be shared across processes (Figure 3a).
//   - Writeback caching: dirty pages accumulate up to a window and are
//     flushed in large batched extents, converting many small writes into
//     few large disk requests (Figures 2 and 3b: FIO and pgbench run
//     *faster* through CntrFS because its writeback window is deeper than
//     the native filesystem's).
//   - A shared memory budget: when two caches are stacked (the kernel page
//     cache above FUSE plus the page cache of the filesystem backing the
//     CntrFS server), the same data is buffered twice and the effective
//     cache size halves — the "double buffering" bottleneck of §5.2.1.
package pagecache

import (
	"sync"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// PageSize is the granularity of caching, matching the kernel's 4KB pages.
const PageSize = 4096

// MemBudget is a byte budget shared by any number of caches, standing in
// for machine RAM available to the page cache.
type MemBudget struct {
	mu    sync.Mutex
	total int64
	used  int64
}

// NewMemBudget returns a budget of the given size in bytes.
func NewMemBudget(total int64) *MemBudget {
	return &MemBudget{total: total}
}

// tryCharge reserves n bytes, reporting whether the reservation fit.
func (b *MemBudget) tryCharge(n int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.total {
		return false
	}
	b.used += n
	return true
}

func (b *MemBudget) release(n int64) {
	b.mu.Lock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
	b.mu.Unlock()
}

// Used reports the currently reserved bytes.
func (b *MemBudget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Options configures a Cache.
type Options struct {
	// KeepCache corresponds to FOPEN_KEEP_CACHE: when false, opening a
	// file invalidates its cached pages (the FUSE default).
	KeepCache bool
	// Writeback enables the writeback cache (FUSE_WRITEBACK_CACHE);
	// when false writes go straight through to the backing filesystem.
	Writeback bool
	// DirtyWindow is the number of dirty bytes per file that triggers a
	// background flush. Deeper windows batch better. Defaults to 256KB.
	DirtyWindow int64
	// MaxWriteSize caps the size of one flushed extent (the FUSE
	// max_write limit). Defaults to 128KB.
	MaxWriteSize int64
	// ReadAhead is the readahead window for sequential reads: on a miss
	// that continues a sequential pattern, this many bytes are fetched
	// from the backing filesystem in one request. Over FUSE this is what
	// FUSE_ASYNC_READ enables (batched concurrent reads); over a disk it
	// models the kernel's readahead. Zero disables readahead.
	ReadAhead int64
	// AsyncDepth is the number of readahead windows kept in flight when
	// the backing filesystem implements vfs.AsyncFS: sequential misses
	// submit up to this many windows and harvest them as the reader
	// arrives, so each window's round trip overlaps the previous one's.
	// It also batches writeback: a flush submits all its extents before
	// awaiting any. Zero keeps the sequential blocking path.
	AsyncDepth int
	// FlushOnClose writes dirty pages back when a file is closed, as the
	// FUSE kernel module does (fuse_flush → write_inode_now). Native
	// filesystems leave dirty data for background writeback instead;
	// this asymmetry is why unsynced create-heavy workloads cost CntrFS
	// a flush per file while ext4 defers them all.
	FlushOnClose bool
	// ChargeDisk routes miss/flush traffic to the disk model, for caches
	// that sit directly above a disk-backed filesystem.
	ChargeDisk *sim.Disk
	// Budget is the shared RAM budget; nil means unlimited.
	Budget *MemBudget
}

// Stats counts cache activity.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	FlushedExt int64
	FlushedB   int64
	Invalidate int64
}

// HitRatio is hits over lookups; a cache that has seen no lookups
// reports 0. Same convention as cachesvc.Stats.HitRatio, so per-mount
// page-cache and shared-tier ratios compare directly in experiments.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a page cache over a backing filesystem. It implements vfs.FS.
type Cache struct {
	backing vfs.FS
	clock   *sim.Clock
	model   *sim.CostModel
	opts    Options
	// async is the backing's pipelined submit/await interface, non-nil
	// when it implements vfs.AsyncFS and AsyncDepth is configured.
	async vfs.AsyncFS

	mu     sync.Mutex
	files  map[vfs.Ino]*fileCache
	opens  map[vfs.Handle]*openState
	lru    []pageKey // approximate LRU: append on use, scan from front
	stats  Stats
	fsized map[vfs.Handle]bool

	// Scratch buffers reused across operations, guarded by mu (which is
	// held across the backing calls that fill or drain them). window
	// receives a synchronous miss's backing read until its pages are
	// cached; extent builds one synchronous writeback extent, written
	// before the next is built; dirtyIdx collects a flush's dirty page
	// indexes. None outlives the call that fills it: page frames are
	// copied out of window, and no backing Write keeps the data slice it
	// was handed.
	window   []byte
	extent   []byte
	dirtyIdx []int64
}

// wbOp is the request context for kernel-internal I/O (writeback,
// eviction): root credentials, not cancelable — background writeback does
// not belong to any one process and must not be interrupted by one.
var wbOp = vfs.RootOp()

type pageKey struct {
	ino vfs.Ino
	idx int64
}

type fileCache struct {
	pages map[int64]*page
	size  int64 // cached view of the file size
	valid bool  // whether size is known
	// mode caches the file's mode bits for the kernel-side
	// setuid-clearing check on write.
	mode      vfs.Mode
	modeKnown bool
	// ftype is the file's type, learned with the size; pipes (FIFOs)
	// bypass the page cache entirely, as in the kernel.
	ftype vfs.FileType
	// mtimeBump counts writeback-cached writes not yet reflected in the
	// backing filesystem's timestamps; Getattr overlays it so mtime stays
	// monotonic even while dirty data sits in the cache.
	mtimeBump int64
	// openHandles counts live opens, to keep pages of unlinked-but-open
	// files alive.
	openHandles int

	dirtyBytes int64
	// wbHandle is a backing handle usable for writeback flushes; it is
	// the most recent writable open of the file.
	wbHandle vfs.Handle
	wbValid  bool
	// zombies are backing handles whose user-side files were closed
	// while dirty data remained (no flush-on-close): the handle is kept
	// alive for background writeback and released after the next flush.
	zombies []vfs.Handle
	// lastReadEnd tracks the end offset of the previous read for
	// sequential-pattern detection (readahead).
	lastReadEnd int64
	// ra holds in-flight asynchronous readahead windows keyed by their
	// starting byte offset; raNext is where the next window begins.
	ra     map[int64]*raWindow
	raNext int64
}

// raWindow is one in-flight asynchronous readahead window.
type raWindow struct {
	start   int64
	buf     []byte
	pending vfs.PendingIO
}

type openState struct {
	ino    vfs.Ino
	flags  vfs.OpenFlags
	direct bool
}

type page struct {
	data  []byte // always PageSize long
	dirty bool
	// dirtyLo/dirtyHi bound the modified byte range within the page so
	// flushes write only what changed.
	dirtyLo, dirtyHi int64
}

// New builds a cache over backing. clock and model must be non-nil.
func New(backing vfs.FS, clock *sim.Clock, model *sim.CostModel, opts Options) *Cache {
	if opts.DirtyWindow == 0 {
		opts.DirtyWindow = 256 << 10
	}
	if opts.MaxWriteSize == 0 {
		opts.MaxWriteSize = 128 << 10
	}
	c := &Cache{
		backing: backing,
		clock:   clock,
		model:   model,
		opts:    opts,
		files:   make(map[vfs.Ino]*fileCache),
		opens:   make(map[vfs.Handle]*openState),
		fsized:  make(map[vfs.Handle]bool),
	}
	if opts.AsyncDepth > 0 && vfs.IsAsync(backing) {
		// IsAsync sees through interceptor chains: pipelining windows
		// through a wrapped *synchronous* filesystem would execute each
		// window as a blocking read at submit time — eager prefetch with
		// zero overlap, strictly worse than leaving AsyncDepth off.
		c.async = backing.(vfs.AsyncFS)
	}
	return c
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Backing exposes the wrapped filesystem (used by experiment harnesses).
func (c *Cache) Backing() vfs.FS { return c.backing }

// charge accounts the fixed cost of one syscall entering this layer.
func (c *Cache) charge() {
	c.clock.Advance(c.model.Syscall)
}

func (c *Cache) file(ino vfs.Ino) *fileCache {
	f, ok := c.files[ino]
	if !ok {
		f = &fileCache{pages: make(map[int64]*page)}
		c.files[ino] = f
	}
	return f
}

// insertPage caches data as page idx of ino, evicting under budget
// pressure, and returns the new page — or nil when the budget is
// exhausted and nothing can be evicted. idx must not be cached yet.
// insertPage takes ownership of data, which must be PageSize long: the
// page's frame is data itself, not a copy, so the caller must not touch
// data again once it returns a page. Caller holds c.mu.
func (c *Cache) insertPage(ino vfs.Ino, idx int64, data []byte) *page {
	f := c.file(ino)
	if c.opts.Budget != nil {
		for !c.opts.Budget.tryCharge(PageSize) {
			if !c.evictOne() {
				// Budget exhausted and nothing evictable: serve uncached.
				return nil
			}
		}
	}
	p := &page{data: data}
	f.pages[idx] = p
	c.lru = append(c.lru, pageKey{ino, idx})
	return p
}

// cacheCopy caches a copy of src — at most one page; a shorter src
// leaves a zero-filled tail — as page idx of ino, and returns the page
// (nil when the budget has no room). A page already cached is refreshed
// in place when clean, so only a page new to the cache costs a frame;
// dirty pages hold newer data than the backing copy and are left alone
// (readahead must not clobber them). Caller holds c.mu.
func (c *Cache) cacheCopy(ino vfs.Ino, idx int64, src []byte) *page {
	if p, ok := c.file(ino).pages[idx]; ok {
		if !p.dirty {
			clear(p.data[copy(p.data, src):])
		}
		return p
	}
	frame := make([]byte, PageSize)
	copy(frame, src)
	return c.insertPage(ino, idx, frame)
}

// evictOne drops one clean cached page; dirty pages are flushed first.
// Caller holds c.mu. Returns false when nothing can be evicted.
func (c *Cache) evictOne() bool {
	for len(c.lru) > 0 {
		k := c.lru[0]
		c.lru = c.lru[1:]
		f, ok := c.files[k.ino]
		if !ok {
			continue
		}
		p, ok := f.pages[k.idx]
		if !ok {
			continue
		}
		if p.dirty {
			c.flushPageLocked(k.ino, f, k.idx, p)
		}
		delete(f.pages, k.idx)
		if c.opts.Budget != nil {
			c.opts.Budget.release(PageSize)
		}
		c.stats.Evictions++
		return true
	}
	return false
}

// touch records recency. The approximate LRU just re-appends; stale
// entries are skipped during eviction.
func (c *Cache) touch(ino vfs.Ino, idx int64) {
	if len(c.lru) < 1<<20 {
		c.lru = append(c.lru, pageKey{ino, idx})
	}
}

// invalidate drops all cached pages of ino, writing dirty data back
// first. Caller holds c.mu.
func (c *Cache) invalidate(ino vfs.Ino) {
	f, ok := c.files[ino]
	if !ok {
		return
	}
	c.flushFileLocked(ino, f)
	c.dropFileLocked(ino, f)
}

// invalidateNoFlush discards pages *without* writeback — for O_TRUNC
// opens, where the data is being destroyed anyway. Caller holds c.mu.
func (c *Cache) invalidateNoFlush(ino vfs.Ino) {
	f, ok := c.files[ino]
	if !ok {
		return
	}
	f.dirtyBytes = 0
	for _, p := range f.pages {
		p.dirty = false
	}
	// Zombie handles were only kept for writeback of now-discarded data.
	for _, zh := range f.zombies {
		c.backing.Release(wbOp, zh)
	}
	f.zombies = nil
	c.dropFileLocked(ino, f)
}

func (c *Cache) dropFileLocked(ino vfs.Ino, f *fileCache) {
	c.dropReadahead(f)
	if c.opts.Budget != nil {
		c.opts.Budget.release(int64(len(f.pages)) * PageSize)
	}
	delete(c.files, ino)
	c.stats.Invalidate++
}

// dropReadahead awaits and discards the file's in-flight readahead
// windows. Futures must not be abandoned — the transport's reply slot
// (and its pipelining accounting) is balanced at Await. Caller holds
// c.mu.
func (c *Cache) dropReadahead(f *fileCache) {
	for start, w := range f.ra {
		w.pending.Await(wbOp)
		delete(f.ra, start)
	}
}
