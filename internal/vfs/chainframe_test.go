package vfs_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// recorder is an interceptor logging "name>" before next and "<name"
// after it.
func recorder(name string, log *[]string) vfs.InterceptorFunc {
	return func(info *vfs.OpInfo, next func() error) error {
		*log = append(*log, name+">")
		err := next()
		*log = append(*log, "<"+name)
		return err
	}
}

// TestChainNestedChains: a chain wrapping another chain (as the
// benchmark wraps a stack's Top) runs the outer chain's interceptors
// around the inner chain's, each sees the inner call's results, and the
// results reach the caller intact.
func TestChainNestedChains(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	var log []string
	innerStats, outerStats := vfs.NewStats(), vfs.NewStats()
	inner := vfs.Chain(fs, recorder("i1", &log), innerStats, recorder("i2", &log))
	outer := vfs.Chain(inner, recorder("o1", &log), outerStats)
	cli := vfs.NewClient(outer, vfs.Root())
	data := bytes.Repeat([]byte("nested"), 3000)
	if err := cli.WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read through nested chains: %d bytes, %v", len(got), err)
	}
	if in, out := innerStats.Snapshot(), outerStats.Snapshot(); in != out {
		t.Fatalf("inner and outer chains counted differently:\ninner %+v\nouter %+v", in, out)
	}
	if s := outerStats.Snapshot(); s.BytesRead != int64(len(data)) || s.BytesWrit != int64(len(data)) {
		t.Fatalf("bytes read/written = %d/%d, want %d each", s.BytesRead, s.BytesWrit, len(data))
	}

	log = log[:0]
	if _, err := outer.Getattr(vfs.RootOp(), vfs.RootIno); err != nil {
		t.Fatal(err)
	}
	want := []string{"o1>", "i1>", "i2>", "<i2", "<i1", "<o1"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order = %v, want %v", log, want)
	}
}

// TestChainNextTwice: an interceptor may call next more than once (a
// retry); each call re-runs every interceptor beneath it and the
// operation itself, and the chain's cursor is restored in between.
func TestChainNextTwice(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.WriteFile("/f", []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := fs.Open(cli.Op, mustResolve(t, cli, "/f"), vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	var bytesSeen []int
	retry := vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
		log = append(log, "retry>")
		if err := next(); err != nil {
			return err
		}
		bytesSeen = append(bytesSeen, info.Bytes)
		err := next()
		bytesSeen = append(bytesSeen, info.Bytes)
		log = append(log, "<retry")
		return err
	})
	stats := vfs.NewStats()
	chained := vfs.Chain(fs, recorder("outer", &log), retry, recorder("inner", &log), stats)
	dest := make([]byte, 4)
	n, err := chained.Read(vfs.RootOp(), h, 3, dest)
	if err != nil || n != 4 || string(dest) != "3456" {
		t.Fatalf("read = %d %q %v, want 4 \"3456\"", n, dest, err)
	}
	want := []string{"outer>", "retry>", "inner>", "<inner", "inner>", "<inner", "<retry", "<outer"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order = %v, want %v", log, want)
	}
	if !reflect.DeepEqual(bytesSeen, []int{4, 4}) {
		t.Fatalf("bytes seen after each next = %v, want [4 4]", bytesSeen)
	}
	if s := stats.Snapshot(); s.Reads != 2 || s.BytesRead != 8 {
		t.Fatalf("inner stats saw %d reads / %d bytes, want 2 / 8", s.Reads, s.BytesRead)
	}
	// The same chain serves the next operation from a clean cursor.
	log = log[:0]
	if _, err := chained.Getattr(vfs.RootOp(), vfs.RootIno); err != nil {
		t.Fatal(err)
	}
	if len(log) != 8 || log[0] != "outer>" || log[7] != "<outer" {
		t.Fatalf("second operation order = %v", log)
	}
}

// countingFuture is a pre-resolved future counting its Awaits.
type countingFuture struct {
	n      int
	awaits *atomic.Int64
}

func (f countingFuture) Await(*vfs.Op) (int, error) {
	f.awaits.Add(1)
	return f.n, nil
}

// futureFS is memfs with an AsyncFS surface whose futures count Awaits.
type futureFS struct {
	*memfs.FS
	awaits atomic.Int64
}

func (f *futureFS) SubmitRead(op *vfs.Op, h vfs.Handle, off int64, dest []byte) vfs.PendingIO {
	n, _ := f.Read(op, h, off, dest)
	return countingFuture{n, &f.awaits}
}

func (f *futureFS) SubmitWrite(op *vfs.Op, h vfs.Handle, off int64, data []byte) vfs.PendingIO {
	n, _ := f.Write(op, h, off, data)
	return countingFuture{n, &f.awaits}
}

// TestChainFaultInjectorShortCircuit: an injected fault skips everything
// beneath the injector, synchronously and at a pipelined completion —
// where the inner future is still reaped exactly once.
func TestChainFaultInjectorShortCircuit(t *testing.T) {
	back := &futureFS{FS: memfs.New(memfs.Options{})}
	cli, h := openBatchFile(t, back, 16<<10)
	beneath := vfs.NewStats()
	above := vfs.NewStats()
	inj := vfs.NewFaultInjector(vfs.FaultRule{Kind: vfs.KindRead, Errno: vfs.EIO})
	chained := vfs.Chain(back, above, inj, beneath)

	if n, err := chained.Read(cli.Op, h, 0, make([]byte, 4096)); vfs.ToErrno(err) != vfs.EIO || n != 0 {
		t.Fatalf("sync read = %d, %v, want 0, EIO", n, err)
	}
	p := vfs.SubmitRead(chained, cli.Op, h, 0, make([]byte, 4096))
	if n, err := p.Await(cli.Op); vfs.ToErrno(err) != vfs.EIO || n != 0 {
		t.Fatalf("async read = %d, %v, want 0, EIO", n, err)
	}
	if got := back.awaits.Load(); got != 1 {
		t.Fatalf("inner future awaited %d times, want exactly 1", got)
	}
	if s := beneath.Snapshot(); s.Reads != 0 {
		t.Fatalf("%d reads reached below the injector", s.Reads)
	}
	if s := above.Snapshot(); s.Reads != 2 {
		t.Fatalf("interceptor above the injector saw %d reads, want 2", s.Reads)
	}
	// Writes are untouched by the read rule, and their completions
	// carry the byte count through the chain.
	pw := vfs.SubmitWrite(chained, cli.Op, h, 0, make([]byte, 1000))
	if n, err := pw.Await(cli.Op); err != nil || n != 1000 {
		t.Fatalf("async write = %d, %v, want 1000", n, err)
	}
	if s := beneath.Snapshot(); s.Writes != 1 || s.BytesWrit != 1000 {
		t.Fatalf("write completion below the injector: %+v", s)
	}
}

// TestChainForwardsEveryResult: each FS method returns through a chain
// exactly what the filesystem beneath returns.
func TestChainForwardsEveryResult(t *testing.T) {
	fs := memfs.New(memfs.Options{})
	chained := vfs.Chain(fs, vfs.NewStats(), vfs.NewTracer(16))
	op := vfs.RootOp()
	attr, h, err := chained.Create(op, vfs.RootIno, "f", 0o644, vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := chained.Write(op, h, 0, []byte("hello")); err != nil || n != 5 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := chained.Setxattr(op, attr.Ino, "user.k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := chained.Symlink(op, vfs.RootIno, "l", "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := chained.Mkdir(op, vfs.RootIno, "d", 0o755); err != nil {
		t.Fatal(err)
	}
	dh, err := fs.Opendir(op, vfs.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	cdh, err := chained.Opendir(op, vfs.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, direct, viaChain []any) {
		t.Helper()
		if !reflect.DeepEqual(direct, viaChain) {
			t.Errorf("%s: direct %v, through chain %v", name, direct, viaChain)
		}
	}
	pair := func(a ...any) []any { return a }
	check("lookup", pair(fs.Lookup(op, vfs.RootIno, "f")), pair(chained.Lookup(op, vfs.RootIno, "f")))
	check("lookup missing", pair(fs.Lookup(op, vfs.RootIno, "nope")), pair(chained.Lookup(op, vfs.RootIno, "nope")))
	check("getattr", pair(fs.Getattr(op, attr.Ino)), pair(chained.Getattr(op, attr.Ino)))
	check("readlink", pair(fs.Readlink(op, attr.Ino+1)), pair(chained.Readlink(op, attr.Ino+1)))
	check("getxattr", pair(fs.Getxattr(op, attr.Ino, "user.k")), pair(chained.Getxattr(op, attr.Ino, "user.k")))
	check("listxattr", pair(fs.Listxattr(op, attr.Ino)), pair(chained.Listxattr(op, attr.Ino)))
	check("statfs", pair(fs.Statfs(op, vfs.RootIno)), pair(chained.Statfs(op, vfs.RootIno)))
	check("access", pair(fs.Access(op, attr.Ino, 4)), pair(chained.Access(op, attr.Ino, 4)))
	check("readdir", pair(fs.Readdir(op, dh, 0)), pair(chained.Readdir(op, cdh, 0)))
	d1, d2 := make([]byte, 8), make([]byte, 8)
	n1, e1 := fs.Read(op, h, 1, d1)
	n2, e2 := chained.Read(op, h, 1, d2)
	check("read", pair(n1, e1, d1), pair(n2, e2, d2))
	setIn := vfs.Attr{Mode: 0o600}
	out, err := chained.Setattr(op, attr.Ino, vfs.SetMode, setIn)
	if err != nil || out.Mode&0o777 != 0o600 {
		t.Fatalf("setattr through chain = %o, %v", out.Mode, err)
	}
	if err := chained.Rename(op, vfs.RootIno, "f", vfs.RootIno, "g", 0); err != nil {
		t.Fatal(err)
	}
	if la, err := chained.Link(op, attr.Ino, vfs.RootIno, "h"); err != nil || la.Ino != attr.Ino {
		t.Fatalf("link = %d, %v", la.Ino, err)
	}
	if err := chained.Unlink(op, vfs.RootIno, "nope"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("unlink missing = %v, want ENOENT", err)
	}
}

// TestChainFrameStress drives one chain from 16 goroutines at once.
// Every interceptor checks that the OpInfo it is handed describes its
// own goroutine's operation — a frame shared or recycled too early
// would show up as a foreign Op, a wrong byte count or corrupt data.
// CI runs it under -race -count=10.
func TestChainFrameStress(t *testing.T) {
	const workers = 16
	const iters = 300
	fs := memfs.New(memfs.Options{})
	var mismatches atomic.Int64
	check := vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
		op := info.Op
		err := next()
		if info.Op != op {
			mismatches.Add(1)
		}
		if info.Kind == vfs.KindRead || info.Kind == vfs.KindWrite {
			want := int(info.Op.PID) // each worker moves PID bytes per call
			if err == nil && info.Bytes != want {
				mismatches.Add(1)
			}
		}
		return err
	})
	stats := vfs.NewStats()
	chained := vfs.Chain(fs, check, stats, vfs.NewTracer(256), check)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			size := 100 + 37*w
			op := vfs.RootOp()
			op.PID = uint32(size)
			name := fmt.Sprintf("w%d", w)
			attr, h, err := chained.Create(op, vfs.RootIno, name, 0o644, vfs.ORdwr)
			if err != nil {
				errs <- err
				return
			}
			data := bytes.Repeat([]byte{byte(w)}, size)
			dest := make([]byte, size)
			for i := 0; i < iters; i++ {
				off := int64(i%8) * int64(size)
				if n, err := chained.Write(op, h, off, data); err != nil || n != size {
					errs <- fmt.Errorf("worker %d write: %d, %v", w, n, err)
					return
				}
				if n, err := chained.Read(op, h, off, dest); err != nil || n != size || !bytes.Equal(dest, data) {
					errs <- fmt.Errorf("worker %d read: %d, %v", w, n, err)
					return
				}
				if got, err := chained.Getattr(op, attr.Ino); err != nil || got.Ino != attr.Ino {
					errs <- fmt.Errorf("worker %d getattr: ino %d, %v", w, got.Ino, err)
					return
				}
			}
			if err := chained.Release(op, h); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := mismatches.Load(); m != 0 {
		t.Fatalf("%d interceptor calls saw another operation's frame", m)
	}
	if s := stats.Snapshot(); s.Reads != workers*iters || s.Writes != workers*iters {
		t.Fatalf("stats counted %d reads / %d writes, want %d each", s.Reads, s.Writes, workers*iters)
	}
}
