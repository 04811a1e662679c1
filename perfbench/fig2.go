package main

import (
	"fmt"
	"math"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/fuse"
	"cntr/internal/phoronix"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// pass is the outcome of one pass over a workload's rows or mounts.
type pass struct {
	// Measured window, host side.
	host       time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint64
	gcPause    time.Duration
	// Set-up, host side: stack builds, Prepare, Warmup, fleet seeding
	// and profile recording.
	setup time.Duration
	// refs are the reference loop's times, sampled before every window
	// and set-up step; see refScale.
	refs []time.Duration
	// liveHeap is the largest live heap after a forced collection at
	// the end of a row or mount turn, with its stacks still mounted.
	liveHeap uint64

	calls, failed int64
	// virt lists every virtual result of the pass by name (row times,
	// mount times), for the reproduction and determinism checks.
	virt     []namedVirt
	paperErr float64
	// fleetVirt and fleetVirtMax are the summed and slowest per-mount
	// virtual times of a fleet pass.
	fleetVirt, fleetVirtMax time.Duration
	// window is the summed raw virtual time of every measured window.
	window   time.Duration
	counters counters
	layers   *layerTotals
	// problems are failed output checks, each naming its row and path.
	problems []string
}

type namedVirt struct {
	name string
	virt time.Duration
}

func newPass(traced bool) *pass {
	p := &pass{counters: counters{}}
	if traced {
		p.layers = &layerTotals{}
	}
	return p
}

// fig2Rows holds the Figure 2 rows of each fig2-* workload; every row of
// phoronix.Suite appears in exactly one.
var fig2Rows = map[string][]string{
	"fig2-read": {
		"FIO", "Gzip", "IOzone: Read", "Threaded I/O: Read", "PGBench",
		"Dbench: 1 Clients", "Dbench: 12 Clients", "Dbench: 48 Clients", "Dbench: 128 Clients",
	},
	"fig2-write": {
		"AIO-Stress", "FS-Mark", "IOzone: Write", "Threaded I/O: Write", "Unpack Tarball",
	},
	"fig2-meta": {
		"Apachebench", "Compilebench: Compile", "Compilebench: Create",
		"Compilebench: Read", "PostMark", "SQLite",
	},
}

func suiteRow(name string) (*phoronix.Benchmark, error) {
	for i := range phoronix.Suite {
		if phoronix.Suite[i].Name == name {
			return &phoronix.Suite[i], nil
		}
	}
	return nil, fmt.Errorf("Figure 2 row %q not in phoronix.Suite", name)
}

// stackConfig is the phoronix package's standard experiment
// configuration: RAM scaled by phoronix.Scale and a deep FUSE writeback
// window.
func stackConfig() stack.Config {
	return stack.Config{
		RAM:               16 << 30 / phoronix.Scale,
		DirtyWindowNative: 256 << 10,
		DirtyWindowFuse:   1 << 30 / phoronix.Scale * 4,
		ReadAhead:         128 << 10,
		Mount:             fuse.DefaultMountOptions(),
	}
}

// wallTime converts accumulated virtual CPU time to wall time the way
// Figure 2 does: divided by the workload's parallelism, capped at the
// paper machine's four hardware threads.
func wallTime(d time.Duration, workers int) time.Duration {
	return d / time.Duration(min(max(workers, 1), 4))
}

// rowTimes is one Figure 2 row's raw virtual times on both stacks.
type rowTimes struct {
	native, cntr time.Duration
}

// runFig2 runs one pass over a fig2-* workload's rows.
func runFig2(rows []string, seed uint64, traced, check bool) (*pass, error) {
	p := newPass(traced)
	logSum := 0.0
	for _, name := range rows {
		b, err := suiteRow(name)
		if err != nil {
			return nil, err
		}
		rt, err := runRow(b, seed, traced, check, p)
		if err != nil {
			return nil, err
		}
		// Both sides share the row's wall conversion, so it cancels in
		// the ratio.
		m := float64(wallTime(rt.cntr, b.Workers)) / float64(wallTime(rt.native, b.Workers))
		logSum += math.Log(max(m/b.PaperOverhead, b.PaperOverhead/m))
		p.virt = append(p.virt, namedVirt{name + " native", rt.native}, namedVirt{name + " cntr", rt.cntr})
	}
	p.paperErr = math.Exp(logSum / float64(len(rows)))
	return p, nil
}

// measured runs b.Run on ctx inside a measured window and returns the
// raw virtual time it took.
func measured(b *phoronix.Benchmark, ctx *phoronix.Ctx, rec *recorder, p *pass) (time.Duration, error) {
	if rec != nil {
		rec.start()
	}
	w := startWindow(p)
	v0 := ctx.Clock.Now()
	_, err := b.Run(ctx)
	v := ctx.Clock.Now() - v0
	w.stop(p)
	p.window += v
	if rec != nil {
		rec.stop()
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", b.Name, err)
	}
	return v, nil
}

// newCtx is the environment phoronix.RunOn gives a workload.
func newCtx(top vfs.FS, clock *sim.Clock, model *sim.CostModel, disk *sim.Disk, seed uint64) *phoronix.Ctx {
	return &phoronix.Ctx{
		FS: top, Cli: vfs.NewClient(top, vfs.Root()),
		Clock: clock, Model: model, Disk: disk, Rand: sim.NewRand(seed),
	}
}

// setUp runs b's Prepare on backing and its Warmup on ctx.
func setUp(b *phoronix.Benchmark, backing vfs.FS, ctx *phoronix.Ctx) error {
	if b.Prepare != nil {
		if err := b.Prepare(vfs.NewClient(backing, vfs.Root())); err != nil {
			return fmt.Errorf("%s prepare: %w", b.Name, err)
		}
	}
	if b.Warmup != nil {
		if err := b.Warmup(ctx); err != nil {
			return fmt.Errorf("%s warmup: %w", b.Name, err)
		}
	}
	return nil
}

// runRow measures one Figure 2 row on a fresh native stack and a fresh
// CntrFS stack, the way phoronix.RunBenchmark does. With check set it
// then verifies that both stacks hold the same final tree.
func runRow(b *phoronix.Benchmark, seed uint64, traced, check bool, p *pass) (rowTimes, error) {
	cfg := stackConfig()
	var rt rowTimes

	t0 := p.startSetup()
	n := newNative(cfg, traced)
	nlog := &callLog{}
	nctx := newCtx(vfs.Chain(n.Top, nlog), n.Clock, n.Model, n.Disk, seed)
	if err := setUp(b, n.Mem, nctx); err != nil {
		return rt, err
	}
	p.setup += time.Since(t0)
	before := nativeCounters(n)
	v, err := measured(b, nctx, n.rec, p)
	if err != nil {
		return rt, err
	}
	rt.native = v
	p.counters.add(nativeCounters(n).minus(before))
	if traced {
		p.layers.add(n.rec.reduce(layerNativePC))
	}
	nstore := n.store.Stats()
	var nativeTree tree
	if check {
		if nativeTree, err = digestTree(n.Top); err != nil {
			return rt, fmt.Errorf("%s: native digest: %w", b.Name, err)
		}
	}
	p.liveHeap = max(p.liveHeap, liveHeap())
	n = nil

	t0 = p.startSetup()
	c := newCntr(cfg, blobstore.NewMem(), traced)
	defer c.shutdown()
	clog := &callLog{}
	cctx := newCtx(vfs.Chain(c.Top, clog), c.Clock, c.Model, c.Disk, seed)
	if err := setUp(b, c.Host, cctx); err != nil {
		return rt, err
	}
	p.setup += time.Since(t0)
	before = cntrCounters(c, true)
	v, err = measured(b, cctx, c.rec, p)
	if err != nil {
		return rt, err
	}
	rt.cntr = v
	p.counters.add(cntrCounters(c, true).minus(before))
	if traced {
		p.layers.add(c.rec.reduce(layerKernelPC))
	}
	for _, st := range []blobstore.Stats{nstore, c.store.Stats()} {
		p.counters["blobstore.physical_bytes"] += float64(st.PhysicalBytes)
		p.counters["blobstore.logical_bytes"] += float64(st.LogicalBytes)
	}
	p.calls += nlog.calls + clog.calls
	p.failed += clog.unmatched(nlog)

	p.liveHeap = max(p.liveHeap, liveHeap())
	if check {
		// Outside the window: the tree through the CntrFS mount, and
		// what reached the host page cache once it is unmounted, must
		// both equal the native tree.
		if err := checkCntrTree(b.Name, c, nativeTree, p); err != nil {
			return rt, err
		}
	}
	return rt, nil
}

func checkCntrTree(row string, c *cntrStack, native tree, p *pass) error {
	mountTree, err := digestTree(c.Top)
	if err != nil {
		return fmt.Errorf("%s: cntr digest: %w", row, err)
	}
	c.shutdown()
	hostTree, err := digestTree(c.HostPC)
	if err != nil {
		return fmt.Errorf("%s: host digest: %w", row, err)
	}
	if d := native.diff(mountTree); d != "" {
		p.problems = append(p.problems, fmt.Sprintf("%s: CntrFS mount differs from native at %s", row, d))
	}
	if d := native.diff(hostTree); d != "" {
		p.problems = append(p.problems, fmt.Sprintf("%s: CntrFS host page cache differs from native at %s", row, d))
	}
	return nil
}
