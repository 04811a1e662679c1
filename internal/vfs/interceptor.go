package vfs

import (
	"sync"
	"time"
)

// OpKind identifies one FS operation as seen by interceptors.
type OpKind uint8

// Operation kinds, one per FS method.
const (
	KindLookup OpKind = iota
	KindForget
	KindGetattr
	KindSetattr
	KindMknod
	KindMkdir
	KindSymlink
	KindReadlink
	KindUnlink
	KindRmdir
	KindRename
	KindLink
	KindCreate
	KindOpen
	KindRead
	KindWrite
	KindFlush
	KindFsync
	KindRelease
	KindOpendir
	KindReaddir
	KindReleasedir
	KindStatfs
	KindSetxattr
	KindGetxattr
	KindListxattr
	KindRemovexattr
	KindAccess
	KindFallocate
	numOpKinds
)

// KindAny matches every operation in fault rules.
const KindAny OpKind = numOpKinds

var kindNames = [numOpKinds]string{
	"lookup", "forget", "getattr", "setattr", "mknod", "mkdir", "symlink",
	"readlink", "unlink", "rmdir", "rename", "link", "create", "open",
	"read", "write", "flush", "fsync", "release", "opendir", "readdir",
	"releasedir", "statfs", "setxattr", "getxattr", "listxattr",
	"removexattr", "access", "fallocate",
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "any"
}

// KindFromString reverses OpKind.String, reporting false for unknown
// names. Policy profiles serialize kinds by name, so loading one needs
// the inverse mapping.
func KindFromString(s string) (OpKind, bool) {
	for i, n := range kindNames {
		if n == s {
			return OpKind(i), true
		}
	}
	if s == "any" {
		return KindAny, true
	}
	return 0, false
}

// OpInfo describes one operation flowing through an interceptor chain.
// The inner layer fills Bytes after the call for data operations, so
// interceptors that run code after next() see the transferred count.
type OpInfo struct {
	Kind OpKind
	Op   *Op
	// Ino is the inode (or parent directory) the operation addresses.
	// Handle-based operations (Read, Write, Flush, Fsync, Release,
	// Readdir, Releasedir, Fallocate) carry the inode the handle was
	// opened on, resolved from the chain's handle table; it is zero only
	// when the handle was opened before the chain existed.
	Ino Ino
	// Name is the directory-entry name for named operations.
	Name string
	// Bytes is the number of payload bytes actually moved (reads/writes),
	// valid after next() returns.
	Bytes int
	// ResultIno is the inode the operation resolved or created (Lookup,
	// Mknod, Mkdir, Symlink, Link, Create), valid after next() returns
	// with success. Trace consumers use it to learn ino→path bindings.
	ResultIno Ino
	// NewParentIno and NewName are the destination of a Rename (Ino and
	// Name hold the source), letting path-tracking consumers rebind.
	NewParentIno Ino
	NewName      string
	// Async marks the completion of a pipelined submission: the
	// operation was admitted by the SubmitInterceptor pass at submit
	// time, so gate-style interceptors must not re-decide it here.
	Async bool
	// BatchOps is the number of same-kind, same-inode operations a
	// single submit-time decision covers (a pipelined readahead window
	// or writeback extent batch). Zero or one means a single operation.
	// Batch-aware gates (BatchSubmitInterceptor) receive one call with
	// BatchOps set and must apply the decision's accounting BatchOps
	// times, so batched and per-op admission stay indistinguishable in
	// their outcomes.
	BatchOps int
}

// Interceptor wraps the invocation of one operation. Implementations may
// run code before and/or after next (stats, tracing), replace the result
// (fault injection: skip next and return an error), or delay it. The
// chain built by Chain applies interceptors outermost-first.
//
// info and next are valid only until Intercept returns and must not be
// retained: the chain recycles both for later operations. next may be
// called more than once within Intercept; each call re-runs the rest of
// the chain. The same holds for the info handed to InterceptSubmit and
// InterceptSubmitBatch.
type Interceptor interface {
	Intercept(info *OpInfo, next func() error) error
}

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(info *OpInfo, next func() error) error

// Intercept implements Interceptor.
func (f InterceptorFunc) Intercept(info *OpInfo, next func() error) error {
	return f(info, next)
}

// SubmitInterceptor is the optional capability for interceptors that
// must decide an operation *before* it is dispatched. The interceptor
// chain runs ordinary interception around the completion (Await) of a
// pipelined submission — after the transport already carried the
// request — so a gate like the policy enforcer implements this too: a
// non-nil error fails the submission without dispatching it, and the
// completion-side Intercept sees info.Async and skips re-deciding.
type SubmitInterceptor interface {
	InterceptSubmit(info *OpInfo) error
}

// BatchSubmitInterceptor is the optional capability for submit-time
// gates that can admit a whole pipelined window (same kind, same inode,
// info.BatchOps operations) in one decision — one path lookup and one
// ceiling check instead of per-op repeats. Implementations must produce
// exactly the outcomes BatchOps per-op calls would have produced
// (counters advance BatchOps times); the chain falls back to per-op
// InterceptSubmit calls for gates without this capability.
type BatchSubmitInterceptor interface {
	SubmitInterceptor
	InterceptSubmitBatch(info *OpInfo) error
}

// Chain wraps fs so every operation passes through the given interceptors
// in order (the first interceptor is outermost). With no interceptors fs
// is returned unchanged. The wrapper forwards the optional
// HandleExporter and SyncerFS interfaces by delegation, so stacking a
// chain does not change which features a stack advertises.
func Chain(fs FS, interceptors ...Interceptor) FS {
	if len(interceptors) == 0 {
		return fs
	}
	return &chainFS{fs: fs, ics: interceptors, handles: make(map[Handle]Ino)}
}

// Unwrap returns the filesystem beneath a Chain wrapper, or fs itself.
func Unwrap(fs FS) FS {
	if c, ok := fs.(*chainFS); ok {
		return c.fs
	}
	return fs
}

type chainFS struct {
	fs  FS
	ics []Interceptor

	// handles maps the open handles issued through this chain to the
	// inode they were opened on, so handle-based operations can be
	// attributed to a file in OpInfo.Ino — without it, traces (and the
	// policies generated from them) are blind to the hottest operations.
	// Data operations only read the table (RLock); open/release write.
	hmu     sync.RWMutex
	handles map[Handle]Ino
}

// trackHandle records that h refers to ino.
func (c *chainFS) trackHandle(h Handle, ino Ino) {
	c.hmu.Lock()
	c.handles[h] = ino
	c.hmu.Unlock()
}

// handleIno resolves a handle to the inode it was opened on; zero for
// handles the chain never saw open.
func (c *chainFS) handleIno(h Handle) Ino {
	c.hmu.RLock()
	ino := c.handles[h]
	c.hmu.RUnlock()
	return ino
}

// dropHandle forgets a released handle.
func (c *chainFS) dropHandle(h Handle) {
	c.hmu.Lock()
	delete(c.handles, h)
	c.hmu.Unlock()
}

// chainFrame is one operation's trip through a chain: the OpInfo the
// interceptors see, the call's arguments and results, and the cursor of
// the next interceptor to run. Frames are recycled through framePool, so
// an operation builds no per-interceptor closure and heap-allocates no
// OpInfo; next is bound to the frame once, when the frame is created.
// Recycling is safe because interceptors must not retain info or next
// past Intercept's return (see Interceptor), and a frame holds nothing
// that can change an operation's outcome once released.
type chainFrame struct {
	c     *chainFS
	info  OpInfo
	depth int
	// next is f.step bound once; call is the innermost invocation, a
	// package-level function reading the arguments below.
	next func() error
	call func(f *chainFrame) error

	// Arguments. Interceptors may rewrite info, so calls read these
	// copies instead, exactly as the closures they replace captured them.
	ino, parent Ino
	name        string
	newParent   Ino
	newName     string // Rename's destination name or Symlink's target
	h           Handle
	off, length int64
	buf         []byte
	mode        Mode
	typ         FileType
	u32         uint32 // rdev, access mask or fallocate mode
	nlookup     uint64
	datasync    bool
	mask        SetattrMask
	attrIn      Attr
	openFlags   OpenFlags
	renFlags    RenameFlags
	xflags      XattrFlags
	pending     PendingIO
	// err is a pre-resolved result: a submit-time denial routed through
	// the chain so observers see it.
	err error

	// Results.
	n       int
	attr    Attr
	target  string
	ents    []Dirent
	st      StatfsOut
	value   []byte
	names   []string
	reached bool
}

var framePool = sync.Pool{New: func() any {
	f := &chainFrame{}
	f.next = f.step
	return f
}}

// frame takes a recycled frame for one operation of kind on ino.
func (c *chainFS) frame(kind OpKind, op *Op, ino Ino) *chainFrame {
	f := framePool.Get().(*chainFrame)
	f.c = c
	f.info = OpInfo{Kind: kind, Op: op, Ino: ino}
	return f
}

// release clears f, dropping every reference it holds, and recycles it.
func (f *chainFrame) release() {
	next := f.next
	*f = chainFrame{next: next}
	framePool.Put(f)
}

// runErr runs the operation in f and recycles f.
func (f *chainFrame) runErr() error {
	err := f.run()
	f.release()
	return err
}

// runAttr runs the operation in f, recycles f and returns the
// attributes the call produced.
func (f *chainFrame) runAttr() (Attr, error) {
	err := f.run()
	attr := f.attr
	f.release()
	return attr, err
}

// run invokes the frame's call through the whole interceptor chain.
func (f *chainFrame) run() error {
	f.depth = 0
	return f.step()
}

// step runs the interceptor at the cursor, or the call itself once every
// interceptor has passed. The cursor is restored on return, so an
// interceptor may call next more than once and each call re-runs the
// rest of the chain.
func (f *chainFrame) step() error {
	d := f.depth
	if d == len(f.c.ics) {
		return f.call(f)
	}
	f.depth = d + 1
	err := f.c.ics[d].Intercept(&f.info, f.next)
	f.depth = d
	return err
}

func callLookup(f *chainFrame) error {
	var err error
	f.attr, err = f.c.fs.Lookup(f.info.Op, f.parent, f.name)
	if err == nil {
		f.info.ResultIno = f.attr.Ino
	}
	return err
}

func callForget(f *chainFrame) error {
	f.c.fs.Forget(f.info.Op, f.ino, f.nlookup)
	return nil
}

func callGetattr(f *chainFrame) error {
	var err error
	f.attr, err = f.c.fs.Getattr(f.info.Op, f.ino)
	return err
}

func callSetattr(f *chainFrame) error {
	var err error
	f.attr, err = f.c.fs.Setattr(f.info.Op, f.ino, f.mask, f.attrIn)
	return err
}

func callMknod(f *chainFrame) error {
	var err error
	f.attr, err = f.c.fs.Mknod(f.info.Op, f.parent, f.name, f.typ, f.mode, f.u32)
	if err == nil {
		f.info.ResultIno = f.attr.Ino
	}
	return err
}

func callMkdir(f *chainFrame) error {
	var err error
	f.attr, err = f.c.fs.Mkdir(f.info.Op, f.parent, f.name, f.mode)
	if err == nil {
		f.info.ResultIno = f.attr.Ino
	}
	return err
}

func callSymlink(f *chainFrame) error {
	var err error
	f.attr, err = f.c.fs.Symlink(f.info.Op, f.parent, f.name, f.newName)
	if err == nil {
		f.info.ResultIno = f.attr.Ino
	}
	return err
}

func callReadlink(f *chainFrame) error {
	var err error
	f.target, err = f.c.fs.Readlink(f.info.Op, f.ino)
	return err
}

func callUnlink(f *chainFrame) error { return f.c.fs.Unlink(f.info.Op, f.parent, f.name) }

func callRmdir(f *chainFrame) error { return f.c.fs.Rmdir(f.info.Op, f.parent, f.name) }

func callRename(f *chainFrame) error {
	return f.c.fs.Rename(f.info.Op, f.parent, f.name, f.newParent, f.newName, f.renFlags)
}

func callLink(f *chainFrame) error {
	var err error
	f.attr, err = f.c.fs.Link(f.info.Op, f.ino, f.parent, f.name)
	if err == nil {
		f.info.ResultIno = f.attr.Ino
	}
	return err
}

func callCreate(f *chainFrame) error {
	var err error
	f.attr, f.h, err = f.c.fs.Create(f.info.Op, f.parent, f.name, f.mode, f.openFlags)
	if err == nil {
		f.info.ResultIno = f.attr.Ino
		f.c.trackHandle(f.h, f.attr.Ino)
	}
	return err
}

func callOpen(f *chainFrame) error {
	var err error
	f.h, err = f.c.fs.Open(f.info.Op, f.ino, f.openFlags)
	if err == nil {
		f.c.trackHandle(f.h, f.ino)
	}
	return err
}

func callRead(f *chainFrame) error {
	var err error
	f.n, err = f.c.fs.Read(f.info.Op, f.h, f.off, f.buf)
	f.info.Bytes = f.n
	return err
}

func callWrite(f *chainFrame) error {
	var err error
	f.n, err = f.c.fs.Write(f.info.Op, f.h, f.off, f.buf)
	f.info.Bytes = f.n
	return err
}

func callFlush(f *chainFrame) error { return f.c.fs.Flush(f.info.Op, f.h) }

func callFsync(f *chainFrame) error { return f.c.fs.Fsync(f.info.Op, f.h, f.datasync) }

func callRelease(f *chainFrame) error { return f.c.fs.Release(f.info.Op, f.h) }

func callOpendir(f *chainFrame) error {
	var err error
	f.h, err = f.c.fs.Opendir(f.info.Op, f.ino)
	if err == nil {
		f.c.trackHandle(f.h, f.ino)
	}
	return err
}

func callReaddir(f *chainFrame) error {
	var err error
	f.ents, err = f.c.fs.Readdir(f.info.Op, f.h, f.off)
	return err
}

func callReleasedir(f *chainFrame) error { return f.c.fs.Releasedir(f.info.Op, f.h) }

func callStatfs(f *chainFrame) error {
	var err error
	f.st, err = f.c.fs.Statfs(f.info.Op, f.ino)
	return err
}

func callSetxattr(f *chainFrame) error {
	return f.c.fs.Setxattr(f.info.Op, f.ino, f.name, f.buf, f.xflags)
}

func callGetxattr(f *chainFrame) error {
	var err error
	f.value, err = f.c.fs.Getxattr(f.info.Op, f.ino, f.name)
	return err
}

func callListxattr(f *chainFrame) error {
	var err error
	f.names, err = f.c.fs.Listxattr(f.info.Op, f.ino)
	return err
}

func callRemovexattr(f *chainFrame) error { return f.c.fs.Removexattr(f.info.Op, f.ino, f.name) }

func callAccess(f *chainFrame) error { return f.c.fs.Access(f.info.Op, f.ino, f.u32) }

func callFallocate(f *chainFrame) error {
	return f.c.fs.Fallocate(f.info.Op, f.h, f.u32, f.off, f.length)
}

// callAwait collects a pipelined completion, noting that the chain
// reached it (see chainPending.Await).
func callAwait(f *chainFrame) error {
	f.reached = true
	var err error
	f.n, err = f.pending.Await(f.info.Op)
	f.info.Bytes = f.n
	return err
}

// callErr returns a result decided before dispatch.
func callErr(f *chainFrame) error { return f.err }

func (c *chainFS) Lookup(op *Op, parent Ino, name string) (Attr, error) {
	f := c.frame(KindLookup, op, parent)
	f.info.Name = name
	f.parent, f.name, f.call = parent, name, callLookup
	return f.runAttr()
}

func (c *chainFS) Forget(op *Op, ino Ino, nlookup uint64) {
	f := c.frame(KindForget, op, ino)
	f.ino, f.nlookup, f.call = ino, nlookup, callForget
	_ = f.run()
	f.release()
}

func (c *chainFS) Getattr(op *Op, ino Ino) (Attr, error) {
	f := c.frame(KindGetattr, op, ino)
	f.ino, f.call = ino, callGetattr
	return f.runAttr()
}

func (c *chainFS) Setattr(op *Op, ino Ino, mask SetattrMask, attr Attr) (Attr, error) {
	f := c.frame(KindSetattr, op, ino)
	f.ino, f.mask, f.attrIn, f.call = ino, mask, attr, callSetattr
	return f.runAttr()
}

func (c *chainFS) Mknod(op *Op, parent Ino, name string, typ FileType, mode Mode, rdev uint32) (Attr, error) {
	f := c.frame(KindMknod, op, parent)
	f.info.Name = name
	f.parent, f.name, f.typ, f.mode, f.u32, f.call = parent, name, typ, mode, rdev, callMknod
	return f.runAttr()
}

func (c *chainFS) Mkdir(op *Op, parent Ino, name string, mode Mode) (Attr, error) {
	f := c.frame(KindMkdir, op, parent)
	f.info.Name = name
	f.parent, f.name, f.mode, f.call = parent, name, mode, callMkdir
	return f.runAttr()
}

func (c *chainFS) Symlink(op *Op, parent Ino, name, target string) (Attr, error) {
	f := c.frame(KindSymlink, op, parent)
	f.info.Name = name
	f.parent, f.name, f.newName, f.call = parent, name, target, callSymlink
	return f.runAttr()
}

func (c *chainFS) Readlink(op *Op, ino Ino) (string, error) {
	f := c.frame(KindReadlink, op, ino)
	f.ino, f.call = ino, callReadlink
	err := f.run()
	target := f.target
	f.release()
	return target, err
}

func (c *chainFS) Unlink(op *Op, parent Ino, name string) error {
	f := c.frame(KindUnlink, op, parent)
	f.info.Name = name
	f.parent, f.name, f.call = parent, name, callUnlink
	return f.runErr()
}

func (c *chainFS) Rmdir(op *Op, parent Ino, name string) error {
	f := c.frame(KindRmdir, op, parent)
	f.info.Name = name
	f.parent, f.name, f.call = parent, name, callRmdir
	return f.runErr()
}

func (c *chainFS) Rename(op *Op, oldParent Ino, oldName string, newParent Ino, newName string, flags RenameFlags) error {
	f := c.frame(KindRename, op, oldParent)
	f.info.Name, f.info.NewParentIno, f.info.NewName = oldName, newParent, newName
	f.parent, f.name, f.newParent, f.newName, f.renFlags = oldParent, oldName, newParent, newName, flags
	f.call = callRename
	return f.runErr()
}

func (c *chainFS) Link(op *Op, ino Ino, parent Ino, name string) (Attr, error) {
	f := c.frame(KindLink, op, parent)
	f.info.Name = name
	f.ino, f.parent, f.name, f.call = ino, parent, name, callLink
	return f.runAttr()
}

func (c *chainFS) Create(op *Op, parent Ino, name string, mode Mode, flags OpenFlags) (Attr, Handle, error) {
	f := c.frame(KindCreate, op, parent)
	f.info.Name = name
	f.parent, f.name, f.mode, f.openFlags, f.call = parent, name, mode, flags, callCreate
	err := f.run()
	attr, h := f.attr, f.h
	f.release()
	return attr, h, err
}

func (c *chainFS) Open(op *Op, ino Ino, flags OpenFlags) (Handle, error) {
	f := c.frame(KindOpen, op, ino)
	f.ino, f.openFlags, f.call = ino, flags, callOpen
	err := f.run()
	h := f.h
	f.release()
	return h, err
}

func (c *chainFS) Read(op *Op, h Handle, off int64, dest []byte) (int, error) {
	f := c.frame(KindRead, op, c.handleIno(h))
	f.h, f.off, f.buf, f.call = h, off, dest, callRead
	err := f.run()
	n := f.n
	f.release()
	return n, err
}

func (c *chainFS) Write(op *Op, h Handle, off int64, data []byte) (int, error) {
	f := c.frame(KindWrite, op, c.handleIno(h))
	f.h, f.off, f.buf, f.call = h, off, data, callWrite
	err := f.run()
	n := f.n
	f.release()
	return n, err
}

func (c *chainFS) Flush(op *Op, h Handle) error {
	f := c.frame(KindFlush, op, c.handleIno(h))
	f.h, f.call = h, callFlush
	return f.runErr()
}

func (c *chainFS) Fsync(op *Op, h Handle, datasync bool) error {
	f := c.frame(KindFsync, op, c.handleIno(h))
	f.h, f.datasync, f.call = h, datasync, callFsync
	return f.runErr()
}

func (c *chainFS) Release(op *Op, h Handle) error {
	f := c.frame(KindRelease, op, c.handleIno(h))
	f.h, f.call = h, callRelease
	err := f.run()
	f.release()
	c.dropHandle(h)
	return err
}

func (c *chainFS) Opendir(op *Op, ino Ino) (Handle, error) {
	f := c.frame(KindOpendir, op, ino)
	f.ino, f.call = ino, callOpendir
	err := f.run()
	h := f.h
	f.release()
	return h, err
}

func (c *chainFS) Readdir(op *Op, h Handle, off int64) ([]Dirent, error) {
	f := c.frame(KindReaddir, op, c.handleIno(h))
	f.h, f.off, f.call = h, off, callReaddir
	err := f.run()
	ents := f.ents
	f.release()
	return ents, err
}

func (c *chainFS) Releasedir(op *Op, h Handle) error {
	f := c.frame(KindReleasedir, op, c.handleIno(h))
	f.h, f.call = h, callReleasedir
	err := f.run()
	f.release()
	c.dropHandle(h)
	return err
}

func (c *chainFS) Statfs(op *Op, ino Ino) (StatfsOut, error) {
	f := c.frame(KindStatfs, op, ino)
	f.ino, f.call = ino, callStatfs
	err := f.run()
	st := f.st
	f.release()
	return st, err
}

func (c *chainFS) Setxattr(op *Op, ino Ino, name string, value []byte, flags XattrFlags) error {
	f := c.frame(KindSetxattr, op, ino)
	f.info.Name = name
	f.ino, f.name, f.buf, f.xflags, f.call = ino, name, value, flags, callSetxattr
	return f.runErr()
}

func (c *chainFS) Getxattr(op *Op, ino Ino, name string) ([]byte, error) {
	f := c.frame(KindGetxattr, op, ino)
	f.info.Name = name
	f.ino, f.name, f.call = ino, name, callGetxattr
	err := f.run()
	v := f.value
	f.release()
	return v, err
}

func (c *chainFS) Listxattr(op *Op, ino Ino) ([]string, error) {
	f := c.frame(KindListxattr, op, ino)
	f.ino, f.call = ino, callListxattr
	err := f.run()
	names := f.names
	f.release()
	return names, err
}

func (c *chainFS) Removexattr(op *Op, ino Ino, name string) error {
	f := c.frame(KindRemovexattr, op, ino)
	f.info.Name = name
	f.ino, f.name, f.call = ino, name, callRemovexattr
	return f.runErr()
}

func (c *chainFS) Access(op *Op, ino Ino, mask uint32) error {
	f := c.frame(KindAccess, op, ino)
	f.ino, f.u32, f.call = ino, mask, callAccess
	return f.runErr()
}

func (c *chainFS) Fallocate(op *Op, h Handle, mode uint32, off, length int64) error {
	f := c.frame(KindFallocate, op, c.handleIno(h))
	f.h, f.u32, f.off, f.length, f.call = h, mode, off, length, callFallocate
	return f.runErr()
}

// Unwrap exposes the chained filesystem so capability probes
// (vfs.IsAsync) can see through the wrapper.
func (c *chainFS) Unwrap() FS { return c.fs }

// deny routes a submit-time denial through the ordinary interceptor
// chain with its error pre-resolved (info.Async set, so the denying gate
// does not re-decide) — outer interceptors such as a tracer observe the
// denial exactly as they would on the synchronous path.
func (f *chainFrame) deny(err error) error {
	f.info.Async = true
	f.err, f.call = err, callErr
	if rerr := f.run(); rerr != nil {
		return rerr
	}
	// An interceptor swallowed the error; the gate's denial still
	// stands — nothing was dispatched.
	return err
}

// admitSubmit runs the chain's submit-time gates over the operation in
// f; a non-nil error means the submission must fail without dispatching
// anything.
func (c *chainFS) admitSubmit(f *chainFrame) error {
	for _, ic := range c.ics {
		si, ok := ic.(SubmitInterceptor)
		if !ok {
			continue
		}
		if err := si.InterceptSubmit(&f.info); err != nil {
			return f.deny(err)
		}
	}
	return nil
}

// SubmitRead implements vfs.AsyncFS. The interceptor chain runs around
// the *completion* (Await), not the submission, so stats and fault rules
// observe the operation exactly once with its final byte count — the
// same point at which the synchronous path reports it. Gate-style
// interceptors (SubmitInterceptor) instead decide here, before the
// request is dispatched: a denial at Await would come after the I/O
// already ran.
func (c *chainFS) SubmitRead(op *Op, h Handle, off int64, dest []byte) PendingIO {
	a, ok := c.fs.(AsyncFS)
	if !ok {
		n, err := c.Read(op, h, off, dest)
		return completedIO{n, err}
	}
	f := c.frame(KindRead, op, c.handleIno(h))
	err := c.admitSubmit(f)
	ino := f.info.Ino
	f.release()
	if err != nil {
		return completedIO{0, err}
	}
	return &chainPending{c: c, kind: KindRead, ino: ino, inner: a.SubmitRead(op, h, off, dest)}
}

// SubmitWrite implements vfs.AsyncFS (see SubmitRead for chain timing).
func (c *chainFS) SubmitWrite(op *Op, h Handle, off int64, data []byte) PendingIO {
	a, ok := c.fs.(AsyncFS)
	if !ok {
		n, err := c.Write(op, h, off, data)
		return completedIO{n, err}
	}
	f := c.frame(KindWrite, op, c.handleIno(h))
	err := c.admitSubmit(f)
	ino := f.info.Ino
	f.release()
	if err != nil {
		return completedIO{0, err}
	}
	return &chainPending{c: c, kind: KindWrite, ino: ino, inner: a.SubmitWrite(op, h, off, data)}
}

// admitSubmitBatch runs the chain's submit-time gates over a whole
// pipelined window (f.info.BatchOps same-kind operations on one inode).
// Batch-aware gates decide the window in one call; batch-unaware gates
// are called once per operation, exactly as per-op submission would
// have. A denial is routed through the ordinary chain once, with
// BatchOps preserved so observers know the scope of what was refused.
func (c *chainFS) admitSubmitBatch(f *chainFrame) error {
	if f.info.BatchOps <= 1 {
		return c.admitSubmit(f)
	}
	for _, ic := range c.ics {
		var err error
		switch g := ic.(type) {
		case BatchSubmitInterceptor:
			err = g.InterceptSubmitBatch(&f.info)
		case SubmitInterceptor:
			// Batch-unaware gate: decide each operation of the window
			// individually so its accounting matches per-op submission.
			per := c.frame(f.info.Kind, f.info.Op, f.info.Ino)
			per.info = f.info
			per.info.BatchOps = 0
			for i := 0; i < f.info.BatchOps && err == nil; i++ {
				err = g.InterceptSubmit(&per.info)
			}
			per.release()
		default:
			continue
		}
		if err != nil {
			return f.deny(err)
		}
	}
	return nil
}

// SubmitReadBatch implements vfs.BatchAsyncFS: one submit-time gate
// decision admits the whole readahead window, then each request is
// pipelined individually. A denial fails every future in the window
// without dispatching anything.
func (c *chainFS) SubmitReadBatch(op *Op, h Handle, reqs []ReadReq) []PendingIO {
	out := make([]PendingIO, len(reqs))
	a, ok := c.fs.(AsyncFS)
	if !ok {
		for i, r := range reqs {
			n, err := c.Read(op, h, r.Off, r.Dest)
			out[i] = completedIO{n, err}
		}
		return out
	}
	f := c.frame(KindRead, op, c.handleIno(h))
	f.info.BatchOps = len(reqs)
	err := c.admitSubmitBatch(f)
	ino := f.info.Ino
	f.release()
	if err != nil {
		for i := range out {
			out[i] = completedIO{0, err}
		}
		return out
	}
	if ba, ok := c.fs.(BatchAsyncFS); ok {
		// A nested batch-capable layer keeps the window intact below us.
		for i, p := range ba.SubmitReadBatch(op, h, reqs) {
			out[i] = &chainPending{c: c, kind: KindRead, ino: ino, inner: p}
		}
		return out
	}
	for i, r := range reqs {
		out[i] = &chainPending{c: c, kind: KindRead, ino: ino, inner: a.SubmitRead(op, h, r.Off, r.Dest)}
	}
	return out
}

// SubmitWriteBatch implements vfs.BatchAsyncFS (see SubmitReadBatch).
func (c *chainFS) SubmitWriteBatch(op *Op, h Handle, reqs []WriteReq) []PendingIO {
	out := make([]PendingIO, len(reqs))
	a, ok := c.fs.(AsyncFS)
	if !ok {
		for i, r := range reqs {
			n, err := c.Write(op, h, r.Off, r.Data)
			out[i] = completedIO{n, err}
		}
		return out
	}
	f := c.frame(KindWrite, op, c.handleIno(h))
	f.info.BatchOps = len(reqs)
	err := c.admitSubmitBatch(f)
	ino := f.info.Ino
	f.release()
	if err != nil {
		for i := range out {
			out[i] = completedIO{0, err}
		}
		return out
	}
	if ba, ok := c.fs.(BatchAsyncFS); ok {
		for i, p := range ba.SubmitWriteBatch(op, h, reqs) {
			out[i] = &chainPending{c: c, kind: KindWrite, ino: ino, inner: p}
		}
		return out
	}
	for i, r := range reqs {
		out[i] = &chainPending{c: c, kind: KindWrite, ino: ino, inner: a.SubmitWrite(op, h, r.Off, r.Data)}
	}
	return out
}

// chainPending routes an asynchronous completion through the interceptor
// chain when it is awaited.
type chainPending struct {
	c     *chainFS
	kind  OpKind
	ino   Ino // resolved from the handle at submit time
	inner PendingIO
}

// Await implements PendingIO.
func (p *chainPending) Await(op *Op) (int, error) {
	f := p.c.frame(p.kind, op, p.ino)
	f.info.Async = true
	f.pending, f.call = p.inner, callAwait
	err := f.run()
	n, reached := f.n, f.reached
	f.release()
	if !reached {
		// An interceptor short-circuited (e.g. an injected fault) without
		// calling through: the wire future must still be reaped — a reply
		// slot is never abandoned, and the transport's pipelining
		// accounting balances at Await.
		p.inner.Await(op)
	}
	return n, err
}

// NameToHandle implements vfs.HandleExporter by delegation, preserving
// the wrapped filesystem's exportability (xfstests #426 depends on the
// answer differing between memfs and a FUSE connection).
func (c *chainFS) NameToHandle(ino Ino) ([]byte, error) {
	if ex, ok := c.fs.(HandleExporter); ok {
		return ex.NameToHandle(ino)
	}
	return nil, EOPNOTSUPP
}

// OpenByHandle implements vfs.HandleExporter by delegation.
func (c *chainFS) OpenByHandle(handle []byte) (Ino, error) {
	if ex, ok := c.fs.(HandleExporter); ok {
		return ex.OpenByHandle(handle)
	}
	return 0, EOPNOTSUPP
}

// SyncFS implements vfs.SyncerFS by delegation.
func (c *chainFS) SyncFS() error {
	if s, ok := c.fs.(SyncerFS); ok {
		return s.SyncFS()
	}
	return nil
}

// Stats is the one place operation counters live: an interceptor that
// accumulates an OpStats across every operation passing through it. It
// replaces the per-filesystem counting memfs, cntrfs, unionfs and
// fuse.Conn used to duplicate.
type Stats struct {
	mu sync.Mutex
	s  OpStats
}

// NewStats returns an empty stats interceptor.
func NewStats() *Stats { return &Stats{} }

// Intercept implements Interceptor. Counting happens after next() so
// Bytes is valid for data operations; failed operations are still
// counted, matching the seed's per-FS counters which incremented on
// entry.
func (st *Stats) Intercept(info *OpInfo, next func() error) error {
	err := next()
	st.mu.Lock()
	switch info.Kind {
	case KindLookup:
		st.s.Lookups++
	case KindForget:
		st.s.Forgets++
	case KindGetattr:
		st.s.Getattrs++
	case KindSetattr:
		st.s.Setattrs++
	case KindMknod, KindMkdir, KindSymlink, KindLink, KindCreate:
		st.s.Creates++
	case KindOpen:
		st.s.Opens++
	case KindOpendir:
		st.s.Opendirs++
	case KindRead:
		st.s.Reads++
		st.s.BytesRead += int64(info.Bytes)
	case KindWrite:
		st.s.Writes++
		st.s.BytesWrit += int64(info.Bytes)
	case KindFsync:
		st.s.Fsyncs++
	case KindUnlink, KindRmdir:
		st.s.Unlinks++
	case KindRename:
		st.s.Renames++
	case KindReaddir:
		st.s.Readdirs++
	case KindSetxattr, KindGetxattr, KindListxattr, KindRemovexattr:
		st.s.Xattrs++
	case KindRelease, KindReleasedir:
		st.s.Releases++
	case KindStatfs:
		st.s.Statfs++
	case KindAccess:
		st.s.Access++
	}
	st.mu.Unlock()
	return err
}

// Snapshot returns a copy of the accumulated counters.
func (st *Stats) Snapshot() OpStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.s
}

// Reset zeroes the counters.
func (st *Stats) Reset() {
	st.mu.Lock()
	st.s = OpStats{}
	st.mu.Unlock()
}

// TraceEntry is one record emitted by a Tracer.
type TraceEntry struct {
	Kind OpKind
	ID   uint64
	PID  uint32
	Ino  Ino
	// ResultIno is the inode the operation resolved or created (see
	// OpInfo.ResultIno); policy collectors use the (Ino, Name, ResultIno)
	// triple to learn the inode→path mapping from the trace itself.
	ResultIno Ino
	Name      string
	// NewParentIno/NewName carry a Rename's destination so path
	// tracking can rebind the moved subtree.
	NewParentIno Ino
	NewName      string
	Bytes        int
	Errno        Errno
}

// Tracer records every operation in a bounded ring buffer and/or a sink
// callback — the uniform per-operation hook point policy tooling (BEACON-
// style trace collection) builds on. For hot data paths the synchronous
// callback can be replaced with batched delivery (StartBatchSink): the
// traced operation then pays one buffer append and a flusher goroutine
// hands the consumer whole batches.
type Tracer struct {
	mu   sync.Mutex
	ring []TraceEntry
	next int
	full bool
	// Sink, when set, receives every entry synchronously — unless a
	// batch sink is active (StartBatchSink), which supersedes it.
	Sink func(TraceEntry)

	// batch/buf/dropped implement batched sink mode; see tracebatch.go.
	batch   *batchState
	buf     []TraceEntry
	dropped int64
	// Spill-journal counters (cumulative across sinks); see tracebatch.go.
	spilledEntries int64
	spilledBytes   int64
	spillSegments  int64
	spillOverflow  int64
}

// NewTracer returns a tracer keeping the last capacity entries
// (capacity <= 0 means 1024).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{ring: make([]TraceEntry, capacity)}
}

// Intercept implements Interceptor.
func (t *Tracer) Intercept(info *OpInfo, next func() error) error {
	err := next()
	e := TraceEntry{
		Kind:         info.Kind,
		Ino:          info.Ino,
		ResultIno:    info.ResultIno,
		Name:         info.Name,
		NewParentIno: info.NewParentIno,
		NewName:      info.NewName,
		Bytes:        info.Bytes,
		Errno:        ToErrno(err),
	}
	if info.Op != nil {
		e.ID, e.PID = info.Op.ID, info.Op.PID
	}
	t.mu.Lock()
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next, t.full = 0, true
	}
	if t.batch != nil {
		t.appendBatchLocked(e)
		t.mu.Unlock()
		return err
	}
	sink := t.Sink
	t.mu.Unlock()
	if sink != nil {
		sink(e)
	}
	return err
}

// Entries returns the recorded operations, oldest first.
func (t *Tracer) Entries() []TraceEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]TraceEntry(nil), t.ring[:t.next]...)
	}
	out := make([]TraceEntry, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// FaultRule selects operations for fault or latency injection.
type FaultRule struct {
	// Kind restricts the rule to one operation kind; KindAny matches all.
	Kind OpKind
	// Errno, when non-zero, is returned instead of running the operation.
	Errno Errno
	// Delay is injected before the operation runs (via the injector's
	// Sleep hook, so simulated clocks work too).
	Delay time.Duration
	// EveryN fires the rule on every Nth matching operation; 0 or 1 means
	// every match.
	EveryN int64
}

// FaultInjector is an interceptor that injects errors and latency
// according to a rule list — the test double for flaky backing stores and
// slow transports.
type FaultInjector struct {
	mu     sync.Mutex
	rules  []FaultRule
	counts []int64
	// Sleep implements Delay; defaults to time.Sleep. Simulation callers
	// point it at their virtual clock.
	Sleep func(time.Duration)
}

// NewFaultInjector builds an injector with the given rules.
func NewFaultInjector(rules ...FaultRule) *FaultInjector {
	return &FaultInjector{rules: rules, counts: make([]int64, len(rules)), Sleep: time.Sleep}
}

// Intercept implements Interceptor.
func (f *FaultInjector) Intercept(info *OpInfo, next func() error) error {
	var delay time.Duration
	var inject Errno
	f.mu.Lock()
	for i := range f.rules {
		r := &f.rules[i]
		if r.Kind != KindAny && r.Kind != info.Kind {
			continue
		}
		f.counts[i]++
		n := r.EveryN
		if n <= 1 {
			n = 1
		}
		if f.counts[i]%n != 0 {
			continue
		}
		delay += r.Delay
		if inject == OK && r.Errno != OK {
			inject = r.Errno
		}
	}
	sleep := f.Sleep
	f.mu.Unlock()
	if delay > 0 && sleep != nil {
		sleep(delay)
	}
	if inject != OK {
		return inject
	}
	return next()
}
