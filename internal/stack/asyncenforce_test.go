package stack

import (
	"bytes"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/policy"
	"cntr/internal/vfs"
)

// completionProbe records every read reaching it below the kernel
// cache: pipelined completions (Async), their byte counts, and the
// denials routed through the chain.
type completionProbe struct {
	asyncReads, syncReads int
	asyncBytes            int64
	deniedAsync           int
}

func (p *completionProbe) Intercept(info *vfs.OpInfo, next func() error) error {
	err := next()
	if info.Kind != vfs.KindRead {
		return err
	}
	switch {
	case vfs.ToErrno(err) == vfs.EACCES && info.Async:
		p.deniedAsync++
	case err == nil && info.Async:
		p.asyncReads++
		p.asyncBytes += int64(info.Bytes)
	case err == nil:
		p.syncReads++
	}
	return err
}

// TestBelowCacheEnforcerAsyncCompletions: with pipelined readahead, a
// below-cache enforcer sees each completion once, marked Async and
// carrying its byte count, and accounts those bytes against its read
// ceiling; once the ceiling is reached, the next window is denied at
// submission and the denial travels through the chain to the
// interceptors above the gate.
func TestBelowCacheEnforcerAsyncCompletions(t *testing.T) {
	const ceiling = 256 << 10
	p := &policy.Profile{
		Rules: []policy.Rule{{
			Prefix: "/",
			Kinds: []string{"lookup", "getattr", "setattr", "create", "open",
				"read", "write", "fsync", "access", "getxattr"},
		}},
		MaxReadBytes: ceiling,
	}
	enf := policy.NewEnforcer(p, false)
	probe := &completionProbe{}
	stats := vfs.NewStats()
	// Without FOPEN_KEEP_CACHE the read-back's open drops the pages the
	// write left cached, so every window crosses the gate.
	mount := fuse.DefaultMountOptions()
	mount.KeepCache = false
	c := NewCntr(Config{
		Mount:      mount,
		AsyncDepth: 8,
		BelowCache: []vfs.Interceptor{probe, stats, enf},
	})
	defer c.Close()
	cli := vfs.NewClient(c.Top, vfs.Root())

	data := bytes.Repeat([]byte("ceiling"), (2<<20)/7)
	if err := cli.WriteFile("/big", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ReadFile("/big"); vfs.ToErrno(err) != vfs.EACCES {
		t.Fatalf("read past the ceiling = %v, want EACCES", err)
	}
	if probe.asyncReads == 0 {
		t.Fatalf("no pipelined completion reached the below-cache chain (sync reads %d)", probe.syncReads)
	}
	if s := stats.Snapshot(); probe.asyncBytes > s.BytesRead || s.BytesRead < ceiling {
		t.Fatalf("completions carried %d bytes, stats counted %d; want the ceiling (%d) reached",
			probe.asyncBytes, s.BytesRead, ceiling)
	}
	if enf.Denials() == 0 || probe.deniedAsync == 0 {
		t.Fatalf("denials: enforcer %d, seen above the gate %d; want both > 0", enf.Denials(), probe.deniedAsync)
	}
}
