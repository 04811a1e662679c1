package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"

	"cntr/internal/vfs"
)

// treeEntry is one file of a digested tree.
type treeEntry struct {
	typ  vfs.FileType
	size int64
	mode vfs.Mode
	sum  [32]byte
}

// tree maps every path of a filesystem to its type, size, mode and
// content hash.
type tree map[string]treeEntry

// digestTree walks fs from the root and hashes every regular file's
// content and every symlink's target.
func digestTree(fs vfs.FS) (tree, error) {
	cli := vfs.NewClient(fs, vfs.Root())
	t := tree{}
	buf := make([]byte, 1<<20)
	err := cli.WalkTree("/", func(path string, attr vfs.Attr) error {
		e := treeEntry{typ: attr.Type, size: attr.Size, mode: attr.Mode}
		switch attr.Type {
		case vfs.TypeRegular:
			sum, err := hashFile(cli, path, buf)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			e.sum = sum
		case vfs.TypeSymlink:
			target, err := cli.Readlink(path)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			e.sum = sha256.Sum256([]byte(target))
		}
		t[path] = e
		return nil
	})
	return t, err
}

func hashFile(cli *vfs.Client, path string, buf []byte) ([32]byte, error) {
	var sum [32]byte
	f, err := cli.Open(path, vfs.ORdonly, 0)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	for off := int64(0); ; {
		n, err := f.ReadAt(buf, off)
		h.Write(buf[:n])
		off += int64(n)
		if err == io.EOF || n == 0 {
			break
		}
		if err != nil {
			return sum, err
		}
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// diff names the first path (in sorted order) where t and o disagree,
// or returns "" when they are equal.
func (t tree) diff(o tree) string {
	paths := make([]string, 0, len(t)+len(o))
	for p := range t {
		paths = append(paths, p)
	}
	for p := range o {
		if _, ok := t[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		a, okA := t[p]
		b, okB := o[p]
		switch {
		case !okA:
			return p + " (unexpected file)"
		case !okB:
			return p + " (missing)"
		case a != b:
			return fmt.Sprintf("%s (type %d/%d size %d/%d mode %o/%o content equal %v)",
				p, a.typ, b.typ, a.size, b.size, a.mode, b.mode, a.sum == b.sum)
		}
	}
	return ""
}
