package fuse

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// Server is the userspace side of the FUSE transport: a pool of worker
// threads pulling from the request table and dispatching to a filesystem
// implementation. In the paper this is the CNTRFS server process running
// in the fat container or on the host. Workers do not drain a bare
// channel: the table hands them requests under weighted fair queueing
// across origins (see reqTable), so scheduling and per-origin accounting
// live in one place.
type Server struct {
	fs      vfs.FS
	clock   *sim.Clock
	model   *sim.CostModel
	opts    MountOptions
	table   *reqTable
	wg      sync.WaitGroup
	served  atomic.Int64
	errors  atomic.Int64
	stopped atomic.Bool

	// inflight maps a request's unique id to the cancel function of its
	// operation context; FUSE_INTERRUPT frames resolve through it.
	// pending records interrupts that raced ahead of their target's
	// registration (a sibling worker may process the INTERRUPT frame
	// before the target request's worker registers it); track consumes
	// them, so no interleaving loses an interrupt. completed remembers
	// the last completedRing finished uniques so a late interrupt for an
	// already-answered request is dropped instead of leaking a pending
	// entry — this is what keeps the set bounded.
	inflightMu    sync.Mutex
	inflight      map[uint64]context.CancelFunc
	pending       map[uint64]bool
	completed     map[uint64]struct{}
	completedFifo []uint64
	interrupts    atomic.Int64
}

// completedRing bounds the completed-unique memory: old entries fall out
// first. Uniques older than the ring can no longer race an interrupt in
// practice; a spurious interrupt for one is additionally bounded by the
// pending-set reset.
const completedRing = 1024

// newServer starts the worker pool. Workers exit when the table closes.
func newServer(fs vfs.FS, clock *sim.Clock, model *sim.CostModel, opts MountOptions, table *reqTable) *Server {
	s := &Server{
		fs: fs, clock: clock, model: model, opts: opts, table: table,
		inflight:  make(map[uint64]context.CancelFunc),
		pending:   make(map[uint64]bool),
		completed: make(map[uint64]struct{}),
	}
	for i := 0; i < opts.ServerThreads; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Wait blocks until all workers have drained the queue and exited.
// Requests still blocked inside the filesystem (e.g. a FIFO read with no
// writer) are canceled, so teardown cannot hang on an operation nobody
// will ever complete; the cancellation repeats until every worker is
// out, covering requests dispatched after the first sweep.
func (s *Server) Wait() {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			s.stopped.Store(true)
			return
		case <-time.After(10 * time.Millisecond):
			s.cancelInflight()
		}
	}
}

// cancelInflight aborts every registered request.
func (s *Server) cancelInflight() {
	s.inflightMu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.inflight))
	for _, c := range s.inflight {
		cancels = append(cancels, c)
	}
	s.inflightMu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Served reports the number of requests processed.
func (s *Server) Served() int64 { return s.served.Load() }

// Interrupts reports how many FUSE_INTERRUPT frames were processed.
func (s *Server) Interrupts() int64 { return s.interrupts.Load() }

// track registers a request's cancel function for interrupt delivery,
// consuming any interrupt that arrived before the registration.
func (s *Server) track(unique uint64, cancel context.CancelFunc) {
	s.inflightMu.Lock()
	s.inflight[unique] = cancel
	early := s.pending[unique]
	delete(s.pending, unique)
	s.inflightMu.Unlock()
	if early {
		cancel()
	}
}

// untrack removes a finished request, clears any interrupt that raced in
// for it, and records the unique as completed so a later interrupt for
// it is recognized and dropped rather than parked forever.
func (s *Server) untrack(unique uint64) {
	s.inflightMu.Lock()
	delete(s.inflight, unique)
	delete(s.pending, unique)
	s.completed[unique] = struct{}{}
	s.completedFifo = append(s.completedFifo, unique)
	if len(s.completedFifo) > completedRing {
		delete(s.completed, s.completedFifo[0])
		s.completedFifo = s.completedFifo[1:]
	}
	s.inflightMu.Unlock()
}

// interrupt cancels the in-flight request with the given unique id. An
// id that is not registered yet is remembered so the registration can
// consume it — unless the request already completed, in which case the
// interrupt is dropped (the real protocol has the same race; tracking
// completed uniques is what keeps the pending set from growing without
// bound). Spurious interrupts for uniques that never existed are bounded
// by resetting the set when it grows past the ring size.
func (s *Server) interrupt(target uint64) {
	s.inflightMu.Lock()
	cancel := s.inflight[target]
	if cancel == nil {
		if _, done := s.completed[target]; done {
			s.inflightMu.Unlock()
			s.interrupts.Add(1)
			return
		}
		if len(s.pending) > completedRing {
			s.pending = make(map[uint64]bool)
		}
		s.pending[target] = true
	}
	s.inflightMu.Unlock()
	s.interrupts.Add(1)
	if cancel != nil {
		cancel()
	}
}

// pendingInterrupts reports the interrupts parked for unregistered
// uniques (regression hook: the set must stay bounded).
func (s *Server) pendingInterrupts() int {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	return len(s.pending)
}

// FS exposes the filesystem the server dispatches to.
func (s *Server) FS() vfs.FS { return s.fs }

// Queued reports the requests currently waiting in the request table.
func (s *Server) Queued() int { return s.table.depth() }

// OriginStats snapshots the request table's per-origin (Op.PID)
// completion counters — the data source for /proc-style per-process I/O
// accounting and for policy generation.
func (s *Server) OriginStats() map[uint32]OriginStats {
	return s.table.originStats()
}

// RetireOrigin folds the counters of an exited origin (Op.PID) into the
// aggregate retired bucket, so per-origin accounting stays bounded by
// the number of *live* processes rather than every PID ever served.
// The process table's exit hooks call it when a process unregisters.
func (s *Server) RetireOrigin(origin uint32) {
	s.table.retire(origin)
}

// RetiredOriginStats reports the aggregate counters of retired origins;
// total traffic through the mount is this plus the sum of OriginStats.
func (s *Server) RetiredOriginStats() OriginStats {
	return s.table.retiredStats()
}

// Steals reports how many times an idle worker migrated an origin from
// another worker's run queue (see reqTable.steal).
func (s *Server) Steals() int64 { return s.table.stealCount() }

// worker is one server thread, identified by wid: it pops from its own
// run queue in the request table, stealing from siblings when idle.
func (s *Server) worker(wid int) {
	defer s.wg.Done()
	for {
		msg, origin, ok := s.table.pop(wid)
		if !ok {
			return
		}
		s.served.Add(1)
		// Per-request server cost: the worker wakeup plus cacheline
		// contention on the shared device queue, growing with the
		// number of sibling threads (Figure 4).
		cost := s.model.WakeupLatency
		if n := s.opts.ServerThreads; n > 1 {
			cost += time.Duration(n-1) * s.model.LockContention
		}
		s.clock.Advance(cost)
		reply, acct := s.dispatch(msg.frame)
		// Account completion before delivering the reply, so a caller
		// that awaited the request observes its own operation in the
		// origin counters.
		s.table.done(origin, acct.readBytes, acct.writeBytes, acct.isRead, acct.isWrite)
		if msg.reply != nil {
			msg.reply <- reply
		}
	}
}

// ioAcct is the per-request accounting dispatch reports to the table.
type ioAcct struct {
	readBytes  int64
	writeBytes int64
	isRead     bool
	isWrite    bool
}

// serverCred reconstructs the credential the server impersonates for a
// request. The CNTRFS server runs privileged and switches its filesystem
// uid/gid to the caller's via setfsuid/setfsgid (§5.1); for non-root
// callers the DAC-override capabilities therefore stop applying and the
// underlying filesystem performs ordinary permission checks. Crucially
// the server *keeps* CAP_FSETID — which is why delegated chmod does not
// clear SGID bits and xfstests #375 fails. The caller's RLIMIT_FSIZE is
// not part of the protocol at all (xfstests #228).
func serverCred(h ReqHeader) *vfs.Cred {
	c := vfs.Root()
	c.FSUID = h.UID
	c.FSGID = h.GID
	c.Groups = h.Groups
	if h.UID != 0 {
		c.Caps = vfs.NewCapSet(vfs.CapFsetid)
	}
	return c
}

// dispatch decodes one request frame, invokes the filesystem, and
// encodes the reply frame. Each two-way request runs under its own
// cancelable context, registered by unique id so FUSE_INTERRUPT frames
// (processed by a sibling worker) can abort it mid-flight.
func (s *Server) dispatch(frame []byte) ([]byte, ioAcct) {
	var acct ioAcct
	h, r, err := decodeReqHeader(frame)
	if err != nil {
		s.errors.Add(1)
		return encodeReply(h.Unique, vfs.EINVAL, nil), acct
	}
	if h.Opcode == OpInterrupt {
		s.interrupt(r.u64())
		return nil, acct // one-way
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.track(h.Unique, cancel)
	defer s.untrack(h.Unique)
	op := vfs.NewOp(ctx, serverCred(h))
	op.ID = h.Unique
	op.PID = h.PID
	ino := vfs.Ino(h.NodeID)
	w := &buf{}
	var opErr error

	switch h.Opcode {
	case OpLookup:
		name := r.str()
		attr, err := s.fs.Lookup(op, ino, name)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpForget:
		s.fs.Forget(op, ino, r.u64())
		return nil, acct // one-way

	case OpBatchForget:
		n := int(r.u32())
		for i := 0; i < n; i++ {
			target := vfs.Ino(r.u64())
			nlookup := r.u64()
			s.fs.Forget(op, target, nlookup)
		}
		return nil, acct // one-way

	case OpGetattr:
		attr, err := s.fs.Getattr(op, ino)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpSetattr:
		mask := vfs.SetattrMask(r.u32())
		in := decodeAttr(r)
		attr, err := s.fs.Setattr(op, ino, mask, in)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpMknod:
		name := r.str()
		typ := vfs.FileType(r.u8())
		mode := vfs.Mode(r.u32())
		rdev := r.u32()
		attr, err := s.fs.Mknod(op, ino, name, typ, mode, rdev)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpMkdir:
		name := r.str()
		mode := vfs.Mode(r.u32())
		attr, err := s.fs.Mkdir(op, ino, name, mode)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpSymlink:
		name := r.str()
		target := r.str()
		attr, err := s.fs.Symlink(op, ino, name, target)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpReadlink:
		target, err := s.fs.Readlink(op, ino)
		if err == nil {
			w.str(target)
		}
		opErr = err

	case OpUnlink:
		opErr = s.fs.Unlink(op, ino, r.str())

	case OpRmdir:
		opErr = s.fs.Rmdir(op, ino, r.str())

	case OpRename2:
		oldName := r.str()
		newParent := vfs.Ino(r.u64())
		newName := r.str()
		flags := vfs.RenameFlags(r.u32())
		opErr = s.fs.Rename(op, ino, oldName, newParent, newName, flags)

	case OpLink:
		parent := vfs.Ino(r.u64())
		name := r.str()
		attr, err := s.fs.Link(op, ino, parent, name)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpCreate:
		name := r.str()
		mode := vfs.Mode(r.u32())
		flags := vfs.OpenFlags(r.u32())
		attr, handle, err := s.fs.Create(op, ino, name, mode, flags)
		if err == nil {
			encodeAttr(w, &attr)
			w.u64(uint64(handle))
		}
		opErr = err

	case OpOpen:
		flags := vfs.OpenFlags(r.u32())
		handle, err := s.fs.Open(op, ino, flags)
		if err == nil {
			w.u64(uint64(handle))
		}
		opErr = err

	case OpRead:
		handle := vfs.Handle(r.u64())
		off := r.i64()
		size := int(r.u32())
		// The data lands straight in the reply frame: the header and
		// the payload's length prefix are reserved and filled in after.
		reply := make([]byte, readReplyHeaderLen+size)
		n, err := s.fs.Read(op, handle, off, reply[readReplyHeaderLen:])
		if err == nil && !r.bad {
			acct.isRead, acct.readBytes = true, int64(n)
			return finishReadReply(reply, h.Unique, n), acct
		}
		opErr = err

	case OpWrite:
		handle := vfs.Handle(r.u64())
		off := r.i64()
		data := r.rawBytes()
		n, err := s.fs.Write(op, handle, off, data)
		if err == nil {
			w.u32(uint32(n))
			acct.isWrite, acct.writeBytes = true, int64(n)
		}
		opErr = err

	case OpFlush:
		opErr = s.fs.Flush(op, vfs.Handle(r.u64()))

	case OpFsync:
		handle := vfs.Handle(r.u64())
		datasync := r.u8() == 1
		opErr = s.fs.Fsync(op, handle, datasync)

	case OpRelease:
		opErr = s.fs.Release(op, vfs.Handle(r.u64()))

	case OpOpendir:
		handle, err := s.fs.Opendir(op, ino)
		if err == nil {
			w.u64(uint64(handle))
		}
		opErr = err

	case OpReaddir:
		handle := vfs.Handle(r.u64())
		off := r.i64()
		ents, err := s.fs.Readdir(op, handle, off)
		if err == nil {
			w.u32(uint32(len(ents)))
			for _, d := range ents {
				w.str(d.Name)
				w.u64(uint64(d.Ino))
				w.u8(uint8(d.Type))
				w.i64(d.Off)
			}
		}
		opErr = err

	case OpReleasedir:
		opErr = s.fs.Releasedir(op, vfs.Handle(r.u64()))

	case OpStatfs:
		st, err := s.fs.Statfs(op, ino)
		if err == nil {
			w.u32(st.BlockSize)
			w.u64(st.Blocks)
			w.u64(st.BlocksFree)
			w.u64(st.Files)
			w.u64(st.FilesFree)
			w.u32(st.NameMax)
		}
		opErr = err

	case OpSetxattr:
		name := r.str()
		value := r.rawBytes()
		flags := vfs.XattrFlags(r.u32())
		opErr = s.fs.Setxattr(op, ino, name, value, flags)

	case OpGetxattr:
		value, err := s.fs.Getxattr(op, ino, r.str())
		if err == nil {
			w.bytes(value)
		}
		opErr = err

	case OpListxattr:
		names, err := s.fs.Listxattr(op, ino)
		if err == nil {
			w.u32(uint32(len(names)))
			for _, n := range names {
				w.str(n)
			}
		}
		opErr = err

	case OpRemovexattr:
		opErr = s.fs.Removexattr(op, ino, r.str())

	case OpAccess:
		opErr = s.fs.Access(op, ino, r.u32())

	case OpFallocate:
		handle := vfs.Handle(r.u64())
		mode := r.u32()
		off := r.i64()
		length := r.i64()
		opErr = s.fs.Fallocate(op, handle, mode, off, length)

	default:
		opErr = vfs.ENOSYS
	}

	if r.bad {
		opErr = vfs.EINVAL
	}
	if opErr != nil {
		s.errors.Add(1)
		return encodeReply(h.Unique, vfs.ToErrno(opErr), nil), ioAcct{}
	}
	return encodeReply(h.Unique, vfs.OK, w.b), acct
}
