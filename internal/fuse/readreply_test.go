package fuse

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// bareServer is a Server with no worker pool, for driving dispatch
// directly.
func bareServer(fs vfs.FS) *Server {
	return &Server{
		fs: fs, clock: sim.NewClock(), model: sim.DefaultCostModel(), opts: DefaultMountOptions(),
		inflight:  make(map[uint64]context.CancelFunc),
		pending:   make(map[uint64]bool),
		completed: make(map[uint64]struct{}),
	}
}

// readFrame encodes a READ request; truncate drops the size field.
func readFrame(unique uint64, h vfs.Handle, off int64, size uint32, truncate bool) []byte {
	w := &buf{}
	encodeReqHeader(w, OpRead, unique, 0, vfs.RootOp())
	w.u64(uint64(h))
	w.i64(off)
	if !truncate {
		w.u32(size)
	}
	return finishFrame(w)
}

// legacyReadReply is the reply encoding READ used before replies were
// built in place: the data copied into a payload buffer, then the
// payload copied behind a fresh header.
func legacyReadReply(unique uint64, data []byte, err error) []byte {
	if err != nil {
		return encodeReply(unique, vfs.ToErrno(err), nil)
	}
	w := &buf{}
	w.bytes(data)
	return encodeReply(unique, vfs.OK, w.b)
}

// TestReadReplyFramesMatchLegacyEncoder pins that READ replies built in
// place are byte-identical to the old encoder's, across sizes, short
// reads at and past end of file, and error replies.
func TestReadReplyFramesMatchLegacyEncoder(t *testing.T) {
	back := memfs.New(memfs.Options{})
	cli := vfs.NewClient(back, vfs.Root())
	content := make([]byte, 200<<10+123)
	for i := range content {
		content[i] = byte(i*7 + i>>9)
	}
	if err := cli.WriteFile("/f", content, 0o644); err != nil {
		t.Fatal(err)
	}
	ino := mustIno(t, cli, "/f")
	rh, err := back.Open(vfs.RootOp(), ino, vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	wh, err := back.Open(vfs.RootOp(), ino, vfs.OWronly)
	if err != nil {
		t.Fatal(err)
	}
	s := bareServer(back)
	size := int64(len(content))

	type tc struct {
		name     string
		h        vfs.Handle
		off      int64
		n        uint32
		truncate bool
	}
	var cases []tc
	for _, n := range []uint32{0, 1, 100, 4095, 4096, 4097, 64 << 10, 128 << 10} {
		cases = append(cases, tc{"size", rh, 4096, n, false})
	}
	cases = append(cases,
		tc{"short read", rh, size - 10, 4096, false},
		tc{"at eof", rh, size, 4096, false},
		tc{"past eof", rh, size + 4096, 4096, false},
		tc{"EBADF unknown handle", vfs.Handle(9999), 0, 4096, false},
		tc{"EBADF write-only", wh, 0, 4096, false},
		tc{"EINVAL negative offset", rh, -1, 4096, false},
		tc{"EINVAL truncated frame", rh, 0, 4096, true},
	)
	for i, c := range cases {
		unique := uint64(100 + i)
		got, _ := s.dispatch(readFrame(unique, c.h, c.off, c.n, c.truncate))

		var want []byte
		if c.truncate {
			want = encodeReply(unique, vfs.EINVAL, nil)
		} else {
			dest := make([]byte, c.n)
			n, err := back.Read(vfs.RootOp(), c.h, c.off, dest)
			want = legacyReadReply(unique, dest[:n], err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s (off %d, size %d): reply frame differs from the legacy encoder: got %d bytes, want %d",
				c.name, c.off, c.n, len(got), len(want))
		}
	}
}

func mustIno(t *testing.T, cli *vfs.Client, path string) vfs.Ino {
	t.Helper()
	r, err := cli.Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	return r.Ino
}

// TestAllocReadReplyOneFrame pins the server side of a READ round trip:
// the data is read straight into the reply frame, so the payload-sized
// allocation happens exactly once per request.
func TestAllocReadReplyOneFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const size = 128 << 10
	back := memfs.New(memfs.Options{})
	cli := vfs.NewClient(back, vfs.Root())
	if err := cli.WriteFile("/f", make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := back.Open(vfs.RootOp(), mustIno(t, cli, "/f"), vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	s := bareServer(back)
	frame := readFrame(1, h, 0, size, false)
	s.dispatch(frame)
	const runs = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if reply, _ := s.dispatch(frame); len(reply) != readReplyHeaderLen+size {
			t.Fatalf("reply is %d bytes, want %d", len(reply), readReplyHeaderLen+size)
		}
	}
	runtime.ReadMemStats(&m1)
	perOp := (m1.TotalAlloc - m0.TotalAlloc) / runs
	// One reply frame. The slack covers the allocator rounding a large
	// object up to whole pages plus the per-request context, Op and
	// credential — far below a second copy of the payload.
	const slack = 16 << 10
	if frame := uint64(readReplyHeaderLen + size); perOp < frame || perOp > frame+slack {
		t.Fatalf("READ of %d bytes allocates %d bytes on the server, want one %d-byte reply frame plus < %d",
			size, perOp, frame, slack)
	}
}
