package pagecache

import (
	"runtime"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// discardWrites is memfs with a Write that keeps nothing, so a flush's
// allocations are the cache's own.
type discardWrites struct{ *memfs.FS }

func (discardWrites) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	return len(data), nil
}

func skipAllocPins(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// openFile creates path with size zero bytes through fs and opens it.
func openFile(t *testing.T, fs vfs.FS, path string, size int) vfs.Handle {
	t.Helper()
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := cli.Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fs.Open(vfs.RootOp(), r.Ino, vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestAllocCachedReadThroughChain pins the hot path: a page-cache hit
// read through an interceptor chain carrying Stats and a Tracer, with
// one reused Op, allocates nothing.
func TestAllocCachedReadThroughChain(t *testing.T) {
	skipAllocPins(t)
	cache := New(memfs.New(memfs.Options{}), sim.NewClock(), sim.DefaultCostModel(), Options{KeepCache: true})
	top := vfs.Chain(cache, vfs.NewStats(), vfs.NewTracer(64))
	h := openFile(t, top, "/f", 64<<10)
	op := vfs.RootOp()
	dest := make([]byte, 4096)
	if _, err := top.Read(op, h, 0, dest); err != nil { // warm the page
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if n, err := top.Read(op, h, 0, dest); err != nil || n != len(dest) {
			t.Fatalf("read: %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached read through Chain(cache, Stats, Tracer) allocates %v per op, want 0", allocs)
	}
}

// heapDelta runs fn once and reports the heap bytes and objects it
// allocated.
func heapDelta(fn func()) (bytes, objects uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// TestAllocSyncMissOneFramePerPage pins the synchronous miss path: a
// readahead window's backing read lands in the cache's reused window
// buffer, and each page new to the cache costs one page frame (plus its
// small page record) — no window allocation and no second copy.
func TestAllocSyncMissOneFramePerPage(t *testing.T) {
	skipAllocPins(t)
	const window = 32 << 10
	const pages = window / PageSize
	cache := New(memfs.New(memfs.Options{}), sim.NewClock(), sim.DefaultCostModel(),
		Options{KeepCache: true, ReadAhead: window})
	h := openFile(t, cache, "/f", 64*window)
	op := vfs.RootOp()
	dest := make([]byte, window)
	// Sequential window-sized reads: each misses on its first page and
	// fetches the whole window. The first sizes the reused window buffer.
	next := int64(0)
	miss := func() {
		if _, err := cache.Read(op, h, next, dest); err != nil {
			t.Fatal(err)
		}
		next += window
	}
	miss()
	miss()
	const runs = 32
	before := cache.Stats().Misses
	bytes, _ := heapDelta(func() {
		for i := 0; i < runs; i++ {
			miss()
		}
	})
	if got := cache.Stats().Misses - before; got != runs {
		t.Fatalf("misses = %d, want %d", got, runs)
	}
	perMiss := bytes / runs
	// One frame per page; the slack covers page records, map growth and
	// the backing filesystem's own bookkeeping, far below one page.
	if frames := uint64(pages * PageSize); perMiss < frames || perMiss > frames+PageSize {
		t.Fatalf("sync miss of a %d-page window allocates %d bytes, want %d (one frame per page) plus < %d",
			pages, perMiss, frames, PageSize)
	}
}

// TestAllocSyncFlushNoExtentBuffers pins synchronous writeback: flushing
// N extents builds each in the cache's one scratch buffer, so after the
// first flush sizes it, writing N dirty extents and flushing them
// allocates nothing.
func TestAllocSyncFlushNoExtentBuffers(t *testing.T) {
	skipAllocPins(t)
	const extents = 8
	back := discardWrites{memfs.New(memfs.Options{})}
	cache := New(back, sim.NewClock(), sim.DefaultCostModel(),
		Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	h := openFile(t, cache, "/f", 4*extents*PageSize)
	op := vfs.RootOp()
	data := make([]byte, 2*PageSize)
	cycle := func() {
		// Two-page extents separated by clean pages.
		for i := 0; i < extents; i++ {
			if _, err := cache.Write(op, h, int64(4*i*PageSize), data); err != nil {
				t.Fatal(err)
			}
		}
		if err := cache.Fsync(op, h, false); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	before := cache.Stats().FlushedExt
	allocs := testing.AllocsPerRun(20, cycle)
	if got := cache.Stats().FlushedExt - before; got != 21*extents {
		t.Fatalf("flushed extents = %d, want %d", got, 21*extents)
	}
	if allocs != 0 {
		t.Fatalf("writing and flushing %d extents allocates %v per cycle, want 0", extents, allocs)
	}
}
