package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachesvc"
	"cntr/internal/policy"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// The fleet: four CntrFS mounts over one content-addressed store and a
// two-node cache tier with one replica per shard.
const (
	fleetMounts    = 4
	fleetNodes     = 2
	fleetReplicas  = 1
	fleetImageDirs = 50
	fleetImageFile = 3
	fleetLayerFile = 8
)

// fleetFile is one file of the fleet's inputs and its content.
type fleetFile struct {
	path string
	data []byte
}

// fleetInputs is what the seed generates: the image tree every mount
// shares and each mount's private layer.
type fleetInputs struct {
	image  []fleetFile
	layers [fleetMounts][]fleetFile
}

func genFleet(seed uint64) *fleetInputs {
	r := sim.NewRand(seed)
	in := &fleetInputs{}
	for d := 0; d < fleetImageDirs; d++ {
		for f := 0; f < fleetImageFile; f++ {
			in.image = append(in.image, fleetFile{
				path: fmt.Sprintf("/images/img%03d/layer%d.bin", d, f),
				data: randBytes(r, 32<<10+r.Intn(17)*4<<10),
			})
		}
	}
	for m := range in.layers {
		for f := 0; f < fleetLayerFile; f++ {
			in.layers[m] = append(in.layers[m], fleetFile{
				path: fmt.Sprintf("/home/mount-%d/out%02d.dat", m, f),
				data: randBytes(r, 8<<10+r.Intn(13)*4<<10),
			})
		}
	}
	return in
}

func randBytes(r *sim.Rand, n int) []byte {
	b := make([]byte, n)
	r.Bytes(b)
	return b
}

// fleet is one set of mounts sharing a store and a tier.
type fleet struct {
	cas    *blobstore.CAS
	svc    *cachesvc.Service
	mounts []*cntrStack
	enfs   []*policy.Enforcer
	// entries counts trace entries delivered to the collector; the
	// recording sinks run on their own goroutines.
	entries atomic.Int64
}

// newFleet builds the mounts, each recording its below-cache traffic
// into col and, when prof is set, enforcing prof below its cache. It
// then seeds the image tree into every mount's host filesystem and
// empties the tier of what seeding published.
func newFleet(in *fleetInputs, col *policy.Collector, prof *policy.Profile, traced bool) (*fleet, error) {
	fl := &fleet{
		cas: blobstore.NewCAS(blobstore.CASOptions{}),
		svc: cachesvc.New(cachesvc.Options{Nodes: fleetNodes, Replicas: fleetReplicas}),
	}
	for i := 0; i < fleetMounts; i++ {
		cfg := stackConfig()
		cfg.CacheService = fl.svc
		cfg.CacheMountID = fmt.Sprintf("mount-%d", i)
		run := col.NewRun()
		cfg.Record = func(batch []vfs.TraceEntry) {
			fl.entries.Add(int64(len(batch)))
			run.SinkBatch(batch)
		}
		if prof != nil {
			enf := policy.NewEnforcer(prof, false)
			fl.enfs = append(fl.enfs, enf)
			cfg.BelowCache = []vfs.Interceptor{enf}
		}
		fl.mounts = append(fl.mounts, newCntr(cfg, fl.cas, traced))
	}
	for _, m := range fl.mounts {
		cli := vfs.NewClient(m.Host, vfs.Root())
		for _, f := range in.image {
			if err := cli.MkdirAll(parentDir(f.path), 0o755); err != nil {
				fl.close()
				return nil, err
			}
			if err := cli.WriteFile(f.path, f.data, 0o644); err != nil {
				fl.close()
				return nil, err
			}
		}
	}
	fl.svc.Reset()
	return fl, nil
}

func (fl *fleet) close() {
	for _, m := range fl.mounts {
		m.shutdown()
	}
}

func (fl *fleet) denials() int64 {
	var n int64
	for _, e := range fl.enfs {
		n += e.Denials()
	}
	return n
}

// turn is one mount's share of the fleet workload: a cold read of the
// image tree (metadata through the tier first, as a fleet of mounts
// would share it), then its private layer written and read back. Every
// byte read is compared with what the inputs say it must be; mismatches
// are returned by path.
func turn(m *cntrStack, cli *vfs.Client, in *fleetInputs, idx int) ([]string, error) {
	var bad []string
	check := func(f fleetFile) error {
		got, err := cli.ReadFile(f.path)
		if err != nil {
			return fmt.Errorf("mount %d read %s: %w", idx, f.path, err)
		}
		if !bytes.Equal(got, f.data) {
			bad = append(bad, fmt.Sprintf("mount %d: %s", idx, f.path))
		}
		return nil
	}
	for _, f := range in.image {
		if _, ok := m.CacheCl.GetAttr(f.path); !ok {
			attr, err := cli.Stat(f.path)
			if err != nil {
				return bad, fmt.Errorf("mount %d stat %s: %w", idx, f.path, err)
			}
			m.CacheCl.PutAttr(f.path, []byte(fmt.Sprintf("%d:%d", attr.Ino, attr.Size)))
		}
		if err := check(f); err != nil {
			return bad, err
		}
	}
	layer := in.layers[idx]
	if err := cli.MkdirAll(parentDir(layer[0].path), 0o755); err != nil {
		return bad, err
	}
	for _, f := range layer {
		if err := cli.WriteFile(f.path, f.data, 0o644); err != nil {
			return bad, fmt.Errorf("mount %d write %s: %w", idx, f.path, err)
		}
	}
	for _, f := range layer {
		if err := check(f); err != nil {
			return bad, err
		}
	}
	return bad, nil
}

// recordProfile runs the fleet workload once on a recording fleet and
// returns the enforcement profile generated from its below-cache trace.
func recordProfile(in *fleetInputs) (*policy.Profile, error) {
	col := policy.NewCollector()
	fl, err := newFleet(in, col, nil, false)
	if err != nil {
		return nil, err
	}
	for i, m := range fl.mounts {
		if _, err := turn(m, vfs.NewClient(m.Top, vfs.Root()), in, i); err != nil {
			fl.close()
			return nil, err
		}
	}
	fl.close()
	return col.Profile(policy.GenOptions{RunID: "fleet-record"}), nil
}

// runFleet runs one pass of the fleet workload. Set-up records the
// profile and seeds an enforcing fleet; the measured window is the
// mounts' turns, taken one after another. Every pass checks every byte
// it reads, inside the window, since reading is the workload.
func runFleet(seed uint64, traced, _ bool) (*pass, error) {
	p := newPass(traced)
	t0 := p.startSetup()
	in := genFleet(seed)
	prof, err := recordProfile(in)
	if err != nil {
		return nil, fmt.Errorf("fleet recording: %w", err)
	}
	col := policy.NewCollector()
	fl, err := newFleet(in, col, prof, traced)
	if err != nil {
		return nil, err
	}
	defer fl.close()
	p.setup = time.Since(t0)

	befores := make([]counters, len(fl.mounts))
	for i, m := range fl.mounts {
		befores[i] = cntrCounters(m, false)
	}
	storeBefore, svcBefore, entriesBefore := fl.cas.Stats(), fl.svc.Stats(), fl.entries.Load()
	for i, m := range fl.mounts {
		log := &callLog{}
		cli := vfs.NewClient(vfs.Chain(m.Top, log), vfs.Root())
		if m.rec != nil {
			m.rec.start()
		}
		w := startWindow(p)
		v0 := m.Clock.Now()
		bad, err := turn(m, cli, in, i)
		v := m.Clock.Now() - v0
		w.stop(p)
		if m.rec != nil {
			m.rec.stop()
			p.layers.add(m.rec.reduce(layerKernelPC))
		}
		if err != nil {
			return nil, err
		}
		p.window += v
		p.fleetVirt += v
		p.fleetVirtMax = max(p.fleetVirtMax, v)
		p.virt = append(p.virt, namedVirt{fmt.Sprintf("fleet mount-%d", i), v})
		p.calls += log.calls
		p.failed += int64(len(log.errs)) - expectedErrs(log) + int64(len(bad))
		p.problems = append(p.problems, bad...)
		p.liveHeap = max(p.liveHeap, liveHeap())
	}
	for i, m := range fl.mounts {
		p.counters.add(cntrCounters(m, false).minus(befores[i]))
	}
	st := fl.cas.Stats()
	p.counters.add(blobCounters(st).minus(blobCounters(storeBefore)))
	p.counters.add(svcCounters(fl.svc.Stats()).minus(svcCounters(svcBefore)))
	p.counters["blobstore.physical_bytes"] = float64(st.PhysicalBytes)
	p.counters["blobstore.logical_bytes"] = float64(st.LogicalBytes)
	// Unmounting flushes the recording tail, so every entry the window
	// recorded (and those of the unmount's own flushes) has reached the
	// collector.
	fl.close()
	p.counters["policy.trace_entries"] += float64(fl.entries.Load() - entriesBefore)
	p.counters["policy.denials"] += float64(fl.denials())
	if d := fl.denials(); d != 0 {
		p.failed += d
		p.problems = append(p.problems, fmt.Sprintf("fleet: %d policy denials", d))
	}
	p.paperErr = 1
	return p, nil
}

func blobCounters(s blobstore.Stats) counters {
	c := counters{}
	c.blob(s)
	return c
}

func svcCounters(s cachesvc.Stats) counters {
	c := counters{}
	c.cachesvc(s)
	return c
}

// expectedErrs counts the errnos a correct run returns at Top: the
// ENOENT lookups that precede creating a file.
func expectedErrs(l *callLog) int64 {
	var n int64
	for _, e := range l.errs {
		if e.kind == vfs.KindLookup && e.errno == vfs.ENOENT {
			n++
		}
	}
	return n
}

// parentDir returns the directory portion of a slash path.
func parentDir(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}
