package main

import (
	"runtime"
	"sync"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachecl"
	"cntr/internal/cachesvc"
	"cntr/internal/fuse"
	"cntr/internal/pagecache"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// counters is a set of named cumulative counters. Snapshots taken around
// the measured window are subtracted, so only window activity counts.
type counters map[string]float64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counters) minus(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func (c counters) pagecache(prefix string, s pagecache.Stats) {
	c[prefix+".hits"] += float64(s.Hits)
	c[prefix+".misses"] += float64(s.Misses)
	c[prefix+".evictions"] += float64(s.Evictions)
	c[prefix+".flushed_bytes"] += float64(s.FlushedB)
}

func (c counters) disk(s sim.DiskStats) {
	c["sim.disk.reads"] += float64(s.Reads)
	c["sim.disk.writes"] += float64(s.Writes)
	c["sim.disk.read_bytes"] += float64(s.BytesRead)
	c["sim.disk.write_bytes"] += float64(s.BytesWrite)
}

func (c counters) fuse(s fuse.ConnStats) {
	c["fuse.requests"] += float64(s.Requests)
	c["fuse.wire_out_bytes"] += float64(s.BytesOut)
	c["fuse.wire_in_bytes"] += float64(s.BytesIn)
	c["fuse.entry_hits"] += float64(s.EntryHits)
	c["fuse.entry_misses"] += float64(s.EntryMisses)
	c["fuse.forgets"] += float64(s.ForgetsSent)
	c["fuse.batch_frames"] += float64(s.BatchFrames)
}

// blob counts a store's operations. Physical and logical bytes are live
// sizes, not flows, so they are reported as levels at the window's end.
func (c counters) blob(s blobstore.Stats) {
	c["blobstore.puts"] += float64(s.Puts)
	c["blobstore.gets"] += float64(s.Gets)
	c["blobstore.dedup_hits"] += float64(s.DedupHits)
}

func (c counters) cachecl(s cachecl.Stats) {
	c["cachecl.hits"] += float64(s.Hits)
	c["cachecl.misses"] += float64(s.Misses)
	c["cachecl.moves"] += float64(s.Moves)
	c["cachecl.net_bytes"] += float64(s.NetBytes)
	c["cachecl.fenced"] += float64(s.Fenced)
}

func (c counters) cachesvc(s cachesvc.Stats) {
	c["cachesvc.hits"] += float64(s.Hits)
	c["cachesvc.misses"] += float64(s.Misses)
	c["cachesvc.evictions"] += float64(s.Evictions)
	c["cachesvc.fenced_writes"] += float64(s.FencedWrites)
	c["cachesvc.leases_granted"] += float64(s.LeasesGranted)
}

func (c counters) ops(s vfs.OpStats) {
	c["vfs.reads"] += float64(s.Reads)
	c["vfs.writes"] += float64(s.Writes)
	c["vfs.lookups"] += float64(s.Lookups)
	c["vfs.creates"] += float64(s.Creates)
	c["vfs.unlinks"] += float64(s.Unlinks)
}

func nativeCounters(n *nativeStack) counters {
	c := counters{}
	c.pagecache("pagecache.native", n.Cache.Stats())
	c.disk(n.Disk.Stats())
	c.blob(n.store.Stats())
	c.ops(n.Stats.Snapshot())
	return c
}

// cntrCounters snapshots a CntrFS mount. The shared tier and the shared
// store are counted once per fleet, by the caller.
func cntrCounters(s *cntrStack, withStore bool) counters {
	c := counters{}
	c.pagecache("pagecache.kernel", s.Kernel.Stats())
	c.pagecache("pagecache.host", s.HostPC.Stats())
	c.fuse(s.Conn.Stats())
	c.disk(s.Disk.Stats())
	if s.Origin != nil {
		c.disk(s.Origin.Stats())
	}
	if withStore {
		c.blob(s.store.Stats())
	}
	if s.CacheCl != nil {
		c.cachecl(s.CacheCl.Stats())
	}
	if s.RecordTracer != nil {
		ts := s.RecordTracer.Stats()
		c["policy.dropped"] += float64(ts.Dropped)
		c["policy.spilled"] += float64(ts.SpilledEntries)
	}
	c.ops(s.Stats.Snapshot())
	return c
}

// callLog counts the calls a workload issues at a stack's Top and keeps
// the kind and errno of each failed one, so the CntrFS stack's errnos
// can be matched against the native stack's.
type callLog struct {
	mu    sync.Mutex
	calls int64
	errs  []callErr
}

type callErr struct {
	kind  vfs.OpKind
	errno vfs.Errno
}

func (l *callLog) Intercept(info *vfs.OpInfo, next func() error) error {
	err := next()
	l.mu.Lock()
	if err != nil {
		l.errs = append(l.errs, callErr{kind: info.Kind, errno: vfs.ToErrno(err)})
	}
	l.calls++
	l.mu.Unlock()
	return err
}

// unmatched counts the errnos in l that ref did not also return, matched
// by operation kind and errno. One divergence is the paper's own result
// rather than a failure: CntrFS refuses O_DIRECT opens with EINVAL
// (xfstests generic/391, §5.1), and a workload falling back to a
// buffered open repeats the lookup that found no file.
func (l *callLog) unmatched(ref *callLog) int64 {
	type key struct {
		kind  vfs.OpKind
		errno vfs.Errno
	}
	excess := map[key]int64{}
	for _, e := range l.errs {
		excess[key{e.kind, e.errno}]++
	}
	for _, e := range ref.errs {
		excess[key{e.kind, e.errno}]--
	}
	refusals := max(excess[key{vfs.KindCreate, vfs.EINVAL}], 0) + max(excess[key{vfs.KindOpen, vfs.EINVAL}], 0)
	delete(excess, key{vfs.KindCreate, vfs.EINVAL})
	delete(excess, key{vfs.KindOpen, vfs.EINVAL})
	excess[key{vfs.KindLookup, vfs.ENOENT}] -= refusals
	var n int64
	for _, v := range excess {
		n += max(v, 0)
	}
	return n
}

// window measures the host side of one measured interval.
type window struct {
	h0 time.Time
	m0 runtime.MemStats
}

func startWindow(p *pass) *window {
	// The reference loop runs before the snapshot and the clock start.
	p.sampleReference()
	w := &window{}
	runtime.ReadMemStats(&w.m0)
	w.h0 = time.Now()
	return w
}

// stop books the window's host time, allocations and GC work into p.
func (w *window) stop(p *pass) {
	d := time.Since(w.h0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.host += d
	p.allocBytes += m1.TotalAlloc - w.m0.TotalAlloc
	p.mallocs += m1.Mallocs - w.m0.Mallocs
	p.gcCycles += uint64(m1.NumGC - w.m0.NumGC)
	p.gcPause += time.Duration(m1.PauseTotalNs - w.m0.PauseTotalNs)
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
