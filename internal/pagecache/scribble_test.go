package pagecache

import (
	"bytes"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/unionfs"
	"cntr/internal/vfs"
)

// scribbleBackings are the filesystems synchronous writeback flushes
// into: memfs, a FUSE connection, and a union over a memfs lower layer.
func scribbleBackings(t *testing.T) map[string]vfs.FS {
	t.Helper()
	conn, srv := fuse.Mount(memfs.New(memfs.Options{}), sim.NewClock(), sim.DefaultCostModel(), fuse.DefaultMountOptions())
	t.Cleanup(func() {
		conn.Unmount()
		srv.Wait()
	})
	lower := memfs.New(memfs.Options{})
	if err := vfs.NewClient(lower, vfs.Root()).WriteFile("/f", bytes.Repeat([]byte("lower"), 20000), 0o644); err != nil {
		t.Fatal(err)
	}
	return map[string]vfs.FS{
		"memfs":   memfs.New(memfs.Options{}),
		"fuse":    conn,
		"unionfs": unionfs.New(lower),
	}
}

// pattern returns n bytes that differ at every offset class.
func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31) ^ byte(i>>12) ^ seed
	}
	return p
}

// TestFlushScratchNotRetained pins that synchronous writeback may reuse
// one extent buffer: after flushing several extents through each
// backing, the cache's scratch buffers are overwritten, and the data
// read back from the backing must still be what was written. A backing
// Write that kept the slice it was handed would now serve the
// scribbled bytes. SubmitWrite gets the same check on its data buffer
// once the future is awaited.
func TestScribbleFlushScratch(t *testing.T) {
	for name, back := range scribbleBackings(t) {
		t.Run(name, func(t *testing.T) {
			cache := New(back, sim.NewClock(), sim.DefaultCostModel(),
				Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30, MaxWriteSize: 16 << 10})
			op := vfs.RootOp()
			cli := vfs.NewClient(cache, vfs.Root())
			r, err := cli.Resolve("/f")
			if err != nil {
				if _, h, err := cache.Create(op, vfs.RootIno, "f", 0o644, vfs.ORdwr); err != nil {
					t.Fatal(err)
				} else if err := cache.Release(op, h); err != nil {
					t.Fatal(err)
				}
				if r, err = cli.Resolve("/f"); err != nil {
					t.Fatal(err)
				}
			}
			h, err := cache.Open(op, r.Ino, vfs.ORdwr)
			if err != nil {
				t.Fatal(err)
			}
			// Three runs of dirty pages, each longer than MaxWriteSize, so
			// the flush builds many extents in the one scratch buffer.
			want := make([]byte, 0, 200<<10)
			for i, off := range []int64{0, 60 << 10, 130 << 10} {
				data := pattern(50<<10+i*777, byte(i+1))
				if n, err := cache.Write(op, h, off, data); err != nil || n != len(data) {
					t.Fatalf("write at %d: %d, %v", off, n, err)
				}
				if grow := int(off) + len(data); grow > len(want) {
					want = want[:grow]
				}
				copy(want[off:], data)
			}
			if err := cache.Fsync(op, h, false); err != nil {
				t.Fatal(err)
			}
			if cache.Stats().FlushedExt < 9 {
				t.Fatalf("flushed %d extents, want at least 9", cache.Stats().FlushedExt)
			}
			scribble := func(b []byte) {
				for i := range b[:cap(b)] {
					b[:cap(b)][i] = 0xA5
				}
			}
			scribble(cache.extent)
			scribble(cache.window)

			// Bytes the writes skipped keep what the backing had.
			got, err := vfs.NewClient(back, vfs.Root()).ReadFile("/f")
			if err != nil {
				t.Fatal(err)
			}
			for _, span := range [][2]int{{0, 50 << 10}, {60 << 10, 110<<10 + 777}, {130 << 10, len(want)}} {
				if !bytes.Equal(got[span[0]:span[1]], want[span[0]:span[1]]) {
					t.Fatalf("bytes [%d,%d) read back differ from what was flushed", span[0], span[1])
				}
			}

			data := pattern(40<<10, 0x5C)
			bh, err := back.Open(op, r.Ino, vfs.ORdwr)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := vfs.SubmitWrite(back, op, bh, 0, data).Await(op); err != nil || n != len(data) {
				t.Fatalf("submit write: %d, %v", n, err)
			}
			written := append([]byte(nil), data...)
			scribble(data)
			check := make([]byte, len(written))
			if n, err := back.Read(op, bh, 0, check); err != nil || n != len(check) || !bytes.Equal(check, written) {
				t.Fatalf("submitted write read back wrong after its buffer was overwritten (%d, %v)", n, err)
			}
		})
	}
}
