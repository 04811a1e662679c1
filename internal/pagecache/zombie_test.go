package pagecache

import (
	"testing"

	"cntr/internal/vfs"
)

// TestUnlinkReleasesZombieHandles pins that removing a file whose dirty
// data outlived its last close releases the backing handles kept alive
// for writeback. Without the release every write-then-remove cycle
// leaked one open backing handle, and with it an orphan inode the
// backing filesystem could never free.
func TestUnlinkReleasesZombieHandles(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true})
	before, err := e.cache.Statfs(vfs.RootOp(), vfs.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := e.cli.WriteFile("/f", make([]byte, 8<<10), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := e.cli.Remove("/f"); err != nil {
			t.Fatal(err)
		}
	}
	after, err := e.cache.Statfs(vfs.RootOp(), vfs.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	if after.Files != before.Files {
		t.Fatalf("Statfs Files = %d after 100 write/remove cycles, want %d: unlinked files' writeback handles leaked",
			after.Files, before.Files)
	}
}
