package pagecache

import (
	"slices"
	"time"

	"cntr/internal/vfs"
)

// ensureSize makes f.size valid, fetching attributes from the backing
// filesystem if needed. Caller holds c.mu.
func (c *Cache) ensureSize(op *vfs.Op, ino vfs.Ino, f *fileCache) error {
	if f.valid {
		return nil
	}
	attr, err := c.backing.Getattr(op, ino)
	if err != nil {
		return err
	}
	f.size = attr.Size
	f.valid = true
	f.mode = attr.Mode
	f.modeKnown = true
	f.ftype = attr.Type
	return nil
}

// Read implements vfs.FS with page-granular caching. A canceled Op aborts
// between pages with EINTR, so interrupting a large read does not wait
// for the whole transfer.
func (c *Cache) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	if err := op.Err(); err != nil {
		return 0, err
	}
	c.charge()
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.opens[h]
	if !ok {
		return 0, vfs.EBADF
	}
	if !st.flags.Readable() {
		return 0, vfs.EBADF
	}
	if st.direct {
		// Direct I/O bypasses the cache, so coherency requires writing
		// dirty pages back first (as the kernel does for O_DIRECT).
		if f, ok := c.files[st.ino]; ok && f.dirtyBytes > 0 {
			c.flushFileLocked(st.ino, f)
		}
		// The backing read may block (a FIFO opened O_DIRECT); do not
		// hold the cache-wide mutex across it.
		c.mu.Unlock()
		n, err := c.backing.Read(op, h, off, dest)
		c.mu.Lock()
		if err == nil && c.opts.ChargeDisk != nil {
			c.opts.ChargeDisk.Read(n)
		}
		return n, err
	}
	f := c.file(st.ino)
	if err := c.ensureSize(op, st.ino, f); err != nil {
		return 0, err
	}
	if f.ftype == vfs.TypeFIFO {
		// Pipes bypass the page cache. Release the cache lock while the
		// read blocks waiting for data (or an interrupt): a stuck FIFO
		// reader must not wedge every other cached file.
		c.mu.Unlock()
		n, err := c.backing.Read(op, h, off, dest)
		c.mu.Lock()
		return n, err
	}
	if off < 0 {
		return 0, vfs.EINVAL
	}
	if off >= f.size {
		return 0, nil
	}
	want := int64(len(dest))
	if off+want > f.size {
		want = f.size - off
	}
	read := int64(0)
	for read < want {
		if err := op.Err(); err != nil {
			if read > 0 {
				break
			}
			return 0, err
		}
		idx := (off + read) / PageSize
		po := (off + read) % PageSize
		chunk := int64(PageSize) - po
		if chunk > want-read {
			chunk = want - read
		}
		p := f.pages[idx]
		if p != nil {
			c.stats.Hits++
			c.clock.Advance(c.model.PageCacheHit)
			c.touch(st.ino, idx)
		} else {
			c.stats.Misses++
			pos := off + read
			seq := pos >= f.lastReadEnd-PageSize && pos <= f.lastReadEnd+PageSize
			if c.async != nil && c.opts.ReadAhead > PageSize &&
				(seq || c.windowAt(f, idx*PageSize) != nil) {
				// Asynchronous readahead: harvest (or submit) the window
				// covering this page while keeping AsyncDepth further
				// windows in flight, so their round trips overlap. A
				// random miss with no covering window takes the one-page
				// synchronous path instead — pulling a whole window per
				// random miss would be pure read amplification.
				var spill []byte
				var spillBase int64
				var err error
				p, spill, spillBase, err = c.readAheadAsync(op, h, st.ino, f, idx)
				if err != nil {
					return int(read), err
				}
				if p == nil {
					// Budget exhausted: serve from the window buffer.
					so := idx*PageSize + po - spillBase
					if spill == nil || so < 0 || so+chunk > int64(len(spill)) {
						break // backing came up short; return what we have
					}
					copy(dest[read:read+chunk], spill[so:so+chunk])
					read += chunk
					continue
				}
			} else {
				// Synchronous path: a miss continuing a sequential pattern
				// fetches a whole readahead window in one backing request.
				fetch := int64(PageSize)
				if c.opts.ReadAhead > PageSize && seq {
					fetch = c.opts.ReadAhead
				}
				if rem := f.size - idx*PageSize; fetch > rem {
					fetch = rem
				}
				if fetch < PageSize {
					fetch = PageSize
				}
				buf := c.windowBuf(fetch)
				n, err := c.backing.Read(op, h, idx*PageSize, buf)
				if err != nil {
					return int(read), err
				}
				// The window is reused: bytes past a short read must read
				// as zeros, as in a freshly allocated buffer.
				clear(buf[n:])
				if c.opts.ChargeDisk != nil {
					c.opts.ChargeDisk.Read(n)
				}
				for pi := int64(0); pi*PageSize < int64(n); pi++ {
					inserted := c.cacheCopy(st.ino, idx+pi, buf[pi*PageSize:min64(int64(n), (pi+1)*PageSize)])
					if pi == 0 {
						p = inserted
					}
				}
				// Keep the sequential detector current within this call so
				// the next miss in a long read continues the readahead.
				f.lastReadEnd = idx*PageSize + int64(n)
				if p == nil {
					// Budget exhausted: serve without caching.
					copy(dest[read:read+chunk], buf[po:po+chunk])
					read += chunk
					continue
				}
			}
		}
		copy(dest[read:read+chunk], p.data[po:po+chunk])
		read += chunk
	}
	f.lastReadEnd = off + read
	return int(read), nil
}

// windowBuf returns the cache's synchronous-miss window, n bytes long.
// Caller holds c.mu, and the window is valid only while it does.
func (c *Cache) windowBuf(n int64) []byte {
	if int64(cap(c.window)) < n {
		c.window = make([]byte, n)
	}
	return c.window[:n]
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// windowAt returns the in-flight readahead window covering byte offset
// pos, if any. The map holds at most AsyncDepth entries, so a linear
// scan is fine. Caller holds c.mu.
func (c *Cache) windowAt(f *fileCache, pos int64) *raWindow {
	for _, w := range f.ra {
		if pos >= w.start && pos < w.start+int64(len(w.buf)) {
			return w
		}
	}
	return nil
}

// windowSize returns the readahead window size at start, clamped to the
// file size; <= 0 means no window fits there. Caller holds c.mu.
func (c *Cache) windowSize(f *fileCache, start int64) int64 {
	size := c.opts.ReadAhead
	if size < PageSize {
		size = PageSize
	}
	if rem := f.size - start; size > rem {
		size = rem
	}
	return size
}

// submitWindows starts one asynchronous readahead window per start
// offset, submitted as a single pipelined batch: a batch-capable
// backing (an interceptor chain carrying the policy enforcer) admits
// the whole window set with one gate decision instead of one per
// window. Caller holds c.mu.
func (c *Cache) submitWindows(op *vfs.Op, h vfs.Handle, f *fileCache, starts []int64) {
	if len(starts) == 0 {
		return
	}
	if f.ra == nil {
		f.ra = make(map[int64]*raWindow)
	}
	reqs := make([]vfs.ReadReq, 0, len(starts))
	for _, start := range starts {
		size := c.windowSize(f, start)
		if size <= 0 {
			continue
		}
		reqs = append(reqs, vfs.ReadReq{Off: start, Dest: make([]byte, size)})
	}
	if len(reqs) == 0 {
		return
	}
	var pendings []vfs.PendingIO
	if ba, ok := c.async.(vfs.BatchAsyncFS); ok {
		pendings = ba.SubmitReadBatch(op, h, reqs)
	} else {
		pendings = make([]vfs.PendingIO, len(reqs))
		for i, r := range reqs {
			pendings[i] = c.async.SubmitRead(op, h, r.Off, r.Dest)
		}
	}
	for i, r := range reqs {
		f.ra[r.Off] = &raWindow{start: r.Off, buf: r.Dest, pending: pendings[i]}
		if end := r.Off + int64(len(r.Dest)); end > f.raNext {
			f.raNext = end
		}
	}
}

// submitWindow starts one asynchronous readahead window at start,
// clamped to the file size. Caller holds c.mu.
func (c *Cache) submitWindow(op *vfs.Op, h vfs.Handle, f *fileCache, start int64) {
	c.submitWindows(op, h, f, []int64{start})
}

// topUpReadahead keeps AsyncDepth windows in flight beyond the furthest
// submitted offset, submitting the refill as one batch. Caller holds
// c.mu.
func (c *Cache) topUpReadahead(op *vfs.Op, h vfs.Handle, f *fileCache) {
	var starts []int64
	next := f.raNext
	for len(f.ra)+len(starts) < c.opts.AsyncDepth && next < f.size {
		if c.windowAt(f, next) != nil {
			break
		}
		size := c.windowSize(f, next)
		if size <= 0 {
			break
		}
		starts = append(starts, next)
		next += size
	}
	c.submitWindows(op, h, f, starts)
}

// readAheadAsync serves a sequential miss through the pipelined backing:
// it makes sure a window covering page idx is in flight, tops the
// pipeline up to AsyncDepth windows ahead, then harvests the covering
// window into cache pages. It returns the cached page for idx; when the
// budget had no room, it returns the raw window bytes (and their base
// offset) so the caller can serve the read uncached. Caller holds c.mu.
func (c *Cache) readAheadAsync(op *vfs.Op, h vfs.Handle, ino vfs.Ino, f *fileCache, idx int64) (*page, []byte, int64, error) {
	base := idx * PageSize
	if c.windowAt(f, base) == nil {
		if f.raNext < base {
			f.raNext = base
		}
		c.submitWindow(op, h, f, base)
	}
	// raNext parked far ahead of the reader means the stream restarted
	// (a re-read from the start after a pass reached EOF, with the pages
	// since evicted): pull the pipeline back behind the current position,
	// or topUpReadahead never submits again and every miss degenerates to
	// one blocking round trip — worse than the synchronous path.
	if ahead := int64(c.opts.AsyncDepth+1) * c.opts.ReadAhead; f.raNext > base+ahead {
		if w := c.windowAt(f, base); w != nil {
			f.raNext = w.start + int64(len(w.buf))
		} else {
			f.raNext = base
		}
	}
	c.topUpReadahead(op, h, f)
	win := c.windowAt(f, base)
	if win == nil {
		// base is at or past EOF per the cached size; nothing to fetch.
		return nil, nil, 0, nil
	}
	delete(f.ra, win.start)
	n, err := win.pending.Await(op)
	if err != nil {
		return nil, nil, 0, err
	}
	if c.opts.ChargeDisk != nil {
		c.opts.ChargeDisk.Read(n)
	}
	var p *page
	firstPage := win.start / PageSize
	for pi := int64(0); pi*PageSize < int64(n); pi++ {
		inserted := c.cacheCopy(ino, firstPage+pi, win.buf[pi*PageSize:min64(int64(n), (pi+1)*PageSize)])
		if firstPage+pi == idx {
			p = inserted
		}
	}
	if end := win.start + int64(n); end > f.lastReadEnd {
		f.lastReadEnd = end
	}
	// Consuming one window frees a pipeline slot: refill it so the
	// stream stays AsyncDepth deep.
	c.topUpReadahead(op, h, f)
	// The whole (zero-padded) window is the spill: a short backing read
	// means the tail is a hole or cache-extended region, which reads as
	// zeros, exactly as the synchronous path serves it.
	return p, win.buf, win.start, nil
}

// dropReadaheadRange awaits and discards in-flight readahead windows
// overlapping [off, end): their payload was fetched before the write
// and must not refresh cache pages afterwards (a clean page harvested
// from a stale window would serve pre-write data). Caller holds c.mu.
func (c *Cache) dropReadaheadRange(f *fileCache, off, end int64) {
	for start, w := range f.ra {
		if start < end && off < start+int64(len(w.buf)) {
			w.pending.Await(wbOp)
			delete(f.ra, start)
		}
	}
}

// Write implements vfs.FS. In writeback mode dirty data accumulates in
// cache pages and is flushed in batched extents; otherwise writes pass
// through. Either way the security.capability xattr is consulted first,
// mirroring the kernel's file-capability check on every write(2) — the
// lookup the paper identifies as the Apache/IOZone write overhead when the
// backing filesystem is FUSE.
func (c *Cache) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	if err := op.Err(); err != nil {
		return 0, err
	}
	c.charge()
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.opens[h]
	if !ok {
		return 0, vfs.EBADF
	}
	if !st.flags.Writable() {
		return 0, vfs.EBADF
	}
	if _, err := c.backing.Getxattr(op, st.ino, vfs.XattrSecurityCapability); err != nil {
		if e := vfs.ToErrno(err); e != vfs.ENODATA && e != vfs.EOPNOTSUPP {
			return 0, err
		}
	}
	c.killPrivsLocked(op, st)
	if st.direct || !c.opts.Writeback {
		n, err := c.backing.Write(op, h, off, data)
		if err != nil {
			return n, err
		}
		if c.opts.ChargeDisk != nil {
			c.opts.ChargeDisk.Write(n)
		}
		// Keep any cached pages coherent.
		f := c.file(st.ino)
		if st.flags&vfs.OAppend != 0 {
			f.valid = false
			c.dropReadahead(f)
		} else {
			c.dropReadaheadRange(f, off, off+int64(n))
			c.updateCachedPages(f, off, data[:n])
			if f.valid && off+int64(n) > f.size {
				f.size = off + int64(n)
			}
		}
		return n, err
	}
	f := c.file(st.ino)
	if err := c.ensureSize(op, st.ino, f); err != nil {
		return 0, err
	}
	if f.ftype == vfs.TypeFIFO {
		// Pipe writes go straight through so blocked readers wake now,
		// not at writeback time.
		c.mu.Unlock()
		n, err := c.backing.Write(op, h, off, data)
		c.mu.Lock()
		return n, err
	}
	if st.flags&vfs.OAppend != 0 {
		off = f.size
	}
	if off < 0 {
		return 0, vfs.EINVAL
	}
	if limit := op.Cred.FSizeLimit; limit > 0 {
		if off >= limit {
			return 0, vfs.EFBIG
		}
		if off+int64(len(data)) > limit {
			data = data[:limit-off]
		}
	}
	// Windows submitted before this write hold pre-write bytes; once the
	// dirtied pages are flushed clean, harvesting one would roll the
	// cache back. Discard the overlap now.
	c.dropReadaheadRange(f, off, off+int64(len(data)))
	written := int64(0)
	for written < int64(len(data)) {
		if err := op.Err(); err != nil {
			if written > 0 {
				break
			}
			return 0, err
		}
		idx := (off + written) / PageSize
		po := (off + written) % PageSize
		chunk := int64(PageSize) - po
		if rem := int64(len(data)) - written; chunk > rem {
			chunk = rem
		}
		p := f.pages[idx]
		if p == nil {
			// Partial page overlapping existing data must be fetched
			// first (read-modify-write); fully covered or beyond-EOF
			// pages can be created blank.
			partial := (po != 0 || chunk != PageSize) && idx*PageSize < f.size
			buf := make([]byte, PageSize)
			if partial {
				n, err := c.backing.Read(op, h, idx*PageSize, buf)
				if err != nil {
					return int(written), err
				}
				if c.opts.ChargeDisk != nil {
					c.opts.ChargeDisk.Read(n)
				}
				c.stats.Misses++
			}
			p = c.insertPage(st.ino, idx, buf)
			if p == nil {
				// No cache space: write through.
				n, err := c.backing.Write(op, h, off+written, data[written:written+chunk])
				if err != nil {
					return int(written), err
				}
				if c.opts.ChargeDisk != nil {
					c.opts.ChargeDisk.Write(n)
				}
				written += int64(n)
				continue
			}
		}
		copy(p.data[po:po+chunk], data[written:written+chunk])
		if !p.dirty {
			p.dirty = true
			p.dirtyLo, p.dirtyHi = po, po+chunk
		} else {
			if po < p.dirtyLo {
				p.dirtyLo = po
			}
			if po+chunk > p.dirtyHi {
				p.dirtyHi = po + chunk
			}
		}
		f.dirtyBytes += chunk
		c.touch(st.ino, idx)
		written += chunk
		// Grow the cached size as data lands: an eviction triggered by
		// the next page's insert must not clamp this page's flush to a
		// stale length.
		if off+written > f.size {
			f.size = off + written
		}
	}
	f.wbHandle, f.wbValid = h, true
	f.mtimeBump++
	if f.dirtyBytes >= c.opts.DirtyWindow || st.flags&vfs.OSync == vfs.OSync {
		// Window overflow or O_SYNC: write back now (O_SYNC semantics
		// require the data on stable storage before write(2) returns).
		c.flushFileLocked(st.ino, f)
		if st.flags&vfs.OSync == vfs.OSync {
			c.backing.Fsync(op, h, true)
			if c.opts.ChargeDisk != nil {
				c.opts.ChargeDisk.Write(0) // device barrier
			}
		}
	}
	c.clock.Advance(c.model.CopyCost(int(written)))
	return int(written), nil
}

// updateCachedPages keeps read-cache pages coherent on write-through.
func (c *Cache) updateCachedPages(f *fileCache, off int64, data []byte) {
	written := int64(0)
	for written < int64(len(data)) {
		idx := (off + written) / PageSize
		po := (off + written) % PageSize
		chunk := int64(PageSize) - po
		if rem := int64(len(data)) - written; chunk > rem {
			chunk = rem
		}
		if p, ok := f.pages[idx]; ok {
			copy(p.data[po:po+chunk], data[written:written+chunk])
		}
		written += chunk
	}
}

// killPrivsLocked emulates the kernel's file_remove_privs on write(2):
// when an unprivileged caller writes a setuid/setgid file, the kernel —
// not the filesystem — clears the bits, folding a SETATTR into the write
// path. Caller holds c.mu.
func (c *Cache) killPrivsLocked(op *vfs.Op, st *openState) {
	f := c.file(st.ino)
	if !f.modeKnown {
		if err := c.ensureSize(op, st.ino, f); err != nil {
			return
		}
	}
	if op.Cred.Caps.Has(vfs.CapFsetid) {
		return
	}
	kill := f.mode&vfs.ModeSetUID != 0 || (f.mode&vfs.ModeSetGID != 0 && f.mode&0o010 != 0)
	if !kill {
		return
	}
	mode := f.mode &^ vfs.ModeSetUID
	if mode&0o010 != 0 {
		mode &^= vfs.ModeSetGID
	}
	if _, err := c.backing.Setattr(op, st.ino, vfs.SetMode, vfs.Attr{Mode: mode}); err == nil {
		f.mode = mode
	}
}

// flushFileLocked writes out every dirty page of ino in coalesced extents
// capped at MaxWriteSize. When the backing filesystem supports pipelined
// submission (vfs.AsyncFS) and AsyncDepth is configured, all extents are
// submitted before any is awaited — batched writeback: the extents'
// round trips overlap instead of paying one blocking trip each, so each
// extent needs a buffer of its own. Synchronous writeback builds each
// extent in the cache's one scratch buffer and writes it before building
// the next. Caller holds c.mu.
func (c *Cache) flushFileLocked(ino vfs.Ino, f *fileCache) {
	if f.dirtyBytes == 0 || !f.wbValid {
		return
	}
	idxs := c.dirtyIdx[:0]
	for idx, p := range f.pages {
		if p.dirty {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	c.dirtyIdx = idxs
	var batch []vfs.WriteReq
	i := 0
	for i < len(idxs) {
		j := i
		for j+1 < len(idxs) && idxs[j+1] == idxs[j]+1 &&
			int64(j+1-i+1)*PageSize <= c.opts.MaxWriteSize {
			j++
		}
		start := idxs[i]*PageSize + f.pages[idxs[i]].dirtyLo
		endPage := idxs[j]
		end := endPage*PageSize + f.pages[endPage].dirtyHi
		if end > f.size {
			end = f.size
		}
		var buf []byte
		if c.async != nil {
			buf = make([]byte, 0, end-start)
		} else {
			if int64(cap(c.extent)) < end-start {
				c.extent = make([]byte, 0, end-start)
			}
			buf = c.extent[:0]
		}
		for k := idxs[i]; k <= endPage; k++ {
			p := f.pages[k]
			lo, hi := int64(0), int64(PageSize)
			if k == idxs[i] {
				lo = p.dirtyLo
			}
			if pe := k*PageSize + hi; pe > end {
				hi = end - k*PageSize
			}
			if hi > lo {
				buf = append(buf, p.data[lo:hi]...)
			}
			p.dirty = false
			p.dirtyLo, p.dirtyHi = 0, 0
		}
		if len(buf) > 0 {
			if c.async != nil {
				batch = append(batch, vfs.WriteReq{Off: start, Data: buf})
			} else {
				c.writeExtent(f, start, buf)
			}
		}
		i = j + 1
	}
	if len(batch) > 1 {
		// Batched writeback: submit every extent before awaiting any, so
		// the round trips overlap; a batch-capable backing additionally
		// admits the whole extent set in one policy decision.
		var pendings []vfs.PendingIO
		if ba, ok := c.async.(vfs.BatchAsyncFS); ok {
			pendings = ba.SubmitWriteBatch(wbOp, f.wbHandle, batch)
		} else {
			pendings = make([]vfs.PendingIO, len(batch))
			for i, r := range batch {
				pendings[i] = c.async.SubmitWrite(wbOp, f.wbHandle, r.Off, r.Data)
			}
		}
		for i, p := range pendings {
			n, err := p.Await(wbOp)
			if err == nil && c.opts.ChargeDisk != nil {
				c.opts.ChargeDisk.Write(n)
			}
			c.stats.FlushedExt++
			c.stats.FlushedB += int64(len(batch[i].Data))
		}
	} else if len(batch) == 1 {
		c.writeExtent(f, batch[0].Off, batch[0].Data)
	}
	f.dirtyBytes = 0
	// Dirty data is gone: zombie handles kept for writeback can go too.
	for _, zh := range f.zombies {
		if f.wbValid && f.wbHandle == zh {
			f.wbValid = false
		}
		c.backing.Release(wbOp, zh)
	}
	f.zombies = nil
}

// writeExtent writes one writeback extent through the backing
// filesystem with a blocking call. Caller holds c.mu.
func (c *Cache) writeExtent(f *fileCache, start int64, buf []byte) {
	n, err := c.backing.Write(wbOp, f.wbHandle, start, buf)
	if err == nil && c.opts.ChargeDisk != nil {
		c.opts.ChargeDisk.Write(n)
	}
	c.stats.FlushedExt++
	c.stats.FlushedB += int64(len(buf))
}

// flushPageLocked writes out one dirty page (used by eviction).
func (c *Cache) flushPageLocked(ino vfs.Ino, f *fileCache, idx int64, p *page) {
	if !p.dirty || !f.wbValid {
		p.dirty = false
		return
	}
	start := idx*PageSize + p.dirtyLo
	end := idx*PageSize + p.dirtyHi
	if end > f.size {
		end = f.size
	}
	if end > start {
		n, err := c.backing.Write(wbOp, f.wbHandle, start, p.data[p.dirtyLo:p.dirtyLo+(end-start)])
		if err == nil && c.opts.ChargeDisk != nil {
			c.opts.ChargeDisk.Write(n)
		}
		c.stats.FlushedExt++
		c.stats.FlushedB += end - start
	}
	if f.dirtyBytes >= p.dirtyHi-p.dirtyLo {
		f.dirtyBytes -= p.dirtyHi - p.dirtyLo
	} else {
		f.dirtyBytes = 0
	}
	p.dirty = false
}

// Open implements vfs.FS. Without KeepCache the file's pages are
// invalidated, which is what makes the cache unshareable across processes
// in stock FUSE (Figure 3a).
func (c *Cache) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	c.charge()
	h, err := c.backing.Open(op, ino, flags)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.opts.KeepCache {
		c.invalidate(ino)
	}
	if flags&vfs.OTrunc != 0 && flags.Writable() {
		c.invalidateNoFlush(ino)
		f := c.file(ino)
		f.size, f.valid = 0, true
	}
	c.opens[h] = &openState{ino: ino, flags: flags, direct: flags&vfs.ODirect != 0}
	fc := c.file(ino)
	fc.openHandles++
	if flags.Writable() && c.opts.Writeback {
		fc.wbHandle, fc.wbValid = h, true
	}
	return h, nil
}

// Create implements vfs.FS.
func (c *Cache) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	attr, h, err := c.backing.Create(op, parent, name, mode, flags)
	if err != nil {
		return attr, h, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opens[h] = &openState{ino: attr.Ino, flags: flags, direct: flags&vfs.ODirect != 0}
	f := c.file(attr.Ino)
	f.size, f.valid = 0, true
	f.mode, f.modeKnown = attr.Mode, true
	f.ftype = attr.Type
	f.openHandles++
	if flags.Writable() && c.opts.Writeback {
		f.wbHandle, f.wbValid = h, true
	}
	return attr, h, nil
}

// Flush implements vfs.FS: called on close(2). With FlushOnClose (the
// FUSE behaviour) dirty data is written back now; otherwise (native
// behaviour) it stays dirty for background writeback.
func (c *Cache) Flush(op *vfs.Op, h vfs.Handle) error {
	c.charge()
	if c.opts.FlushOnClose {
		c.mu.Lock()
		if st, ok := c.opens[h]; ok {
			f := c.file(st.ino)
			c.flushFileLocked(st.ino, f)
		}
		c.mu.Unlock()
	}
	return c.backing.Flush(op, h)
}

// Fsync implements vfs.FS: flush dirty pages then issue a barrier.
func (c *Cache) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	c.charge()
	c.mu.Lock()
	if st, ok := c.opens[h]; ok {
		f := c.file(st.ino)
		c.flushFileLocked(st.ino, f)
	}
	c.mu.Unlock()
	if c.opts.ChargeDisk != nil {
		// Journal commit / cache barrier: one small device round trip.
		c.opts.ChargeDisk.Write(0)
	}
	return c.backing.Fsync(op, h, datasync)
}

// Release implements vfs.FS.
func (c *Cache) Release(op *vfs.Op, h vfs.Handle) error {
	c.mu.Lock()
	keepBacking := false
	if st, ok := c.opens[h]; ok {
		f := c.file(st.ino)
		// Readahead windows were submitted on this handle; settle them
		// before it goes away.
		c.dropReadahead(f)
		if f.wbValid && f.wbHandle == h {
			if c.opts.FlushOnClose {
				c.flushFileLocked(st.ino, f)
				f.wbValid = false
			} else if f.dirtyBytes > 0 {
				// Keep the backing handle alive for background
				// writeback of the remaining dirty data.
				f.zombies = append(f.zombies, h)
				keepBacking = true
			} else {
				f.wbValid = false
			}
		}
		if f.openHandles > 0 {
			f.openHandles--
		}
		delete(c.opens, h)
	}
	c.mu.Unlock()
	if keepBacking {
		return nil
	}
	return c.backing.Release(op, h)
}

// Setattr implements vfs.FS; truncation invalidates pages beyond the new
// size and updates the cached length.
func (c *Cache) Setattr(op *vfs.Op, ino vfs.Ino, mask vfs.SetattrMask, attr vfs.Attr) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	c.mu.Lock()
	if mask.Has(vfs.SetMode) {
		if f, ok := c.files[ino]; ok {
			f.mode, f.modeKnown = attr.Mode, true
		}
	}
	if mask.Has(vfs.SetSize) {
		if f, ok := c.files[ino]; ok {
			c.dropReadahead(f) // windows may span the truncation point
			c.flushFileLocked(ino, f)
			for idx := range f.pages {
				if idx*PageSize >= attr.Size {
					delete(f.pages, idx)
					if c.opts.Budget != nil {
						c.opts.Budget.release(PageSize)
					}
				}
			}
			// Zero the cached tail of the boundary page, as the kernel
			// does, so a later size extension reads zeros rather than
			// stale bytes.
			if attr.Size%PageSize != 0 {
				if p, ok := f.pages[attr.Size/PageSize]; ok {
					for i := attr.Size % PageSize; i < PageSize; i++ {
						p.data[i] = 0
					}
				}
			}
			f.size, f.valid = attr.Size, true
		}
	}
	c.mu.Unlock()
	return c.backing.Setattr(op, ino, mask, attr)
}

// overlayDirtyState folds writeback state the backing filesystem has not
// seen yet (size growth, timestamp advances) into attributes.
func (c *Cache) overlayDirtyState(attr *vfs.Attr) {
	c.mu.Lock()
	if f, ok := c.files[attr.Ino]; ok {
		if f.valid && f.size > attr.Size {
			attr.Size = f.size
		}
		if f.mtimeBump > 0 {
			// Dirty data in the writeback cache: the kernel owns the
			// timestamps until flush.
			bump := time.Duration(f.mtimeBump) * time.Microsecond
			attr.Mtime = attr.Mtime.Add(bump)
			attr.Ctime = attr.Ctime.Add(bump)
		}
	}
	c.mu.Unlock()
}

// Getattr implements vfs.FS, overlaying the cached (possibly dirty) size.
func (c *Cache) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	c.charge()
	attr, err := c.backing.Getattr(op, ino)
	if err != nil {
		return attr, err
	}
	c.overlayDirtyState(&attr)
	return attr, nil
}

// Lookup implements vfs.FS, with the same dirty-state overlay as Getattr.
func (c *Cache) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	attr, err := c.backing.Lookup(op, parent, name)
	if err != nil {
		return attr, err
	}
	c.overlayDirtyState(&attr)
	return attr, nil
}

// Forget implements vfs.FS.
func (c *Cache) Forget(op *vfs.Op, ino vfs.Ino, nlookup uint64) { c.backing.Forget(op, ino, nlookup) }

// Mknod implements vfs.FS.
func (c *Cache) Mknod(op *vfs.Op, parent vfs.Ino, name string, typ vfs.FileType, mode vfs.Mode, rdev uint32) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Mknod(op, parent, name, typ, mode, rdev)
}

// Mkdir implements vfs.FS.
func (c *Cache) Mkdir(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Mkdir(op, parent, name, mode)
}

// Symlink implements vfs.FS.
func (c *Cache) Symlink(op *vfs.Op, parent vfs.Ino, name, target string) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Symlink(op, parent, name, target)
}

// Readlink implements vfs.FS.
func (c *Cache) Readlink(op *vfs.Op, ino vfs.Ino) (string, error) {
	c.charge()
	return c.backing.Readlink(op, ino)
}

// Unlink implements vfs.FS. Dirty pages of removed files are discarded —
// Postmark's files often die before ever reaching the disk.
func (c *Cache) Unlink(op *vfs.Op, parent vfs.Ino, name string) error {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	attr, err := c.backing.Lookup(op, parent, name)
	if err == nil {
		c.mu.Lock()
		if f, ok := c.files[attr.Ino]; ok && attr.Nlink <= 1 && f.openHandles == 0 {
			// Last link and nobody has it open: drop the pages, dirty
			// or not — Postmark's files die before reaching the disk.
			if c.opts.Budget != nil {
				c.opts.Budget.release(int64(len(f.pages)) * PageSize)
			}
			// Zombie handles were only kept for writeback of the data
			// just discarded; left open they would pin the backing inode.
			for _, zh := range f.zombies {
				c.backing.Release(wbOp, zh)
			}
			delete(c.files, attr.Ino)
		}
		c.mu.Unlock()
		c.backing.Forget(op, attr.Ino, 1)
	}
	return c.backing.Unlink(op, parent, name)
}

// Rmdir implements vfs.FS.
func (c *Cache) Rmdir(op *vfs.Op, parent vfs.Ino, name string) error {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Rmdir(op, parent, name)
}

// Rename implements vfs.FS.
func (c *Cache) Rename(op *vfs.Op, oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string, flags vfs.RenameFlags) error {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Rename(op, oldParent, oldName, newParent, newName, flags)
}

// Link implements vfs.FS.
func (c *Cache) Link(op *vfs.Op, ino vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Link(op, ino, parent, name)
}

// Opendir implements vfs.FS.
func (c *Cache) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	c.charge()
	h, err := c.backing.Opendir(op, ino)
	if err == nil {
		c.mu.Lock()
		c.opens[h] = &openState{ino: ino, flags: vfs.ORdonly}
		c.mu.Unlock()
	}
	return h, err
}

// Readdir implements vfs.FS.
func (c *Cache) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Readdir(op, h, off)
}

// Releasedir implements vfs.FS.
func (c *Cache) Releasedir(op *vfs.Op, h vfs.Handle) error {
	c.mu.Lock()
	delete(c.opens, h)
	c.mu.Unlock()
	return c.backing.Releasedir(op, h)
}

// Statfs implements vfs.FS.
func (c *Cache) Statfs(op *vfs.Op, ino vfs.Ino) (vfs.StatfsOut, error) {
	c.charge()
	return c.backing.Statfs(op, ino)
}

// Setxattr implements vfs.FS.
func (c *Cache) Setxattr(op *vfs.Op, ino vfs.Ino, name string, value []byte, flags vfs.XattrFlags) error {
	c.charge()
	return c.backing.Setxattr(op, ino, name, value, flags)
}

// Getxattr implements vfs.FS.
func (c *Cache) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	c.charge()
	return c.backing.Getxattr(op, ino, name)
}

// Listxattr implements vfs.FS.
func (c *Cache) Listxattr(op *vfs.Op, ino vfs.Ino) ([]string, error) {
	c.charge()
	return c.backing.Listxattr(op, ino)
}

// Removexattr implements vfs.FS.
func (c *Cache) Removexattr(op *vfs.Op, ino vfs.Ino, name string) error {
	c.charge()
	return c.backing.Removexattr(op, ino, name)
}

// Access implements vfs.FS.
func (c *Cache) Access(op *vfs.Op, ino vfs.Ino, mask uint32) error {
	c.charge()
	return c.backing.Access(op, ino, mask)
}

// Fallocate implements vfs.FS.
func (c *Cache) Fallocate(op *vfs.Op, h vfs.Handle, mode uint32, off, length int64) error {
	c.charge()
	c.mu.Lock()
	if st, ok := c.opens[h]; ok {
		// Flush dirty data and drop every cached page and in-flight
		// readahead window *before* the backing extents change — the
		// kernel's flush-then-punch order. Flushing afterwards would
		// write pre-punch data back over the hole.
		c.invalidate(st.ino)
	}
	c.mu.Unlock()
	err := c.backing.Fallocate(op, h, mode, off, length)
	if err == nil {
		c.mu.Lock()
		if st, ok := c.opens[h]; ok {
			// Discard (without flushing) anything a racing read or write
			// repopulated while the punch was in flight; its ordering
			// against the punch is undefined and its pages may predate it.
			c.invalidateNoFlush(st.ino)
		}
		c.mu.Unlock()
	}
	return err
}

// NameToHandle implements vfs.HandleExporter by delegation: the kernel
// exports handles whenever the underlying filesystem can (ext4 can; a
// FUSE connection cannot, which is xfstests #426).
func (c *Cache) NameToHandle(ino vfs.Ino) ([]byte, error) {
	if ex, ok := c.backing.(vfs.HandleExporter); ok {
		return ex.NameToHandle(ino)
	}
	return nil, vfs.EOPNOTSUPP
}

// OpenByHandle implements vfs.HandleExporter by delegation.
func (c *Cache) OpenByHandle(handle []byte) (vfs.Ino, error) {
	if ex, ok := c.backing.(vfs.HandleExporter); ok {
		return ex.OpenByHandle(handle)
	}
	return 0, vfs.EOPNOTSUPP
}

// SyncFS flushes every dirty page (sync(2)).
func (c *Cache) SyncFS() error {
	c.mu.Lock()
	for ino, f := range c.files {
		c.flushFileLocked(ino, f)
	}
	c.mu.Unlock()
	if s, ok := c.backing.(vfs.SyncerFS); ok {
		return s.SyncFS()
	}
	return nil
}
