// Command perfbench is the repository's benchmark. It runs one named
// workload against the unmodified library for a fixed host time and
// prints every metric by name with its unit; the last line of its
// output is one JSON object with the result.
//
// Two clocks are measured. Host metrics (sim_ops_per_s, allocations,
// live heap, set-up time) are what the simulator costs to run; host
// times are in reference seconds (see referenceNominal). The virtual
// metric paper_err_x is what the modelled system does, judged against
// the paper's Figure 2. With -trace 1 the run is instead split into one
// untraced pass, which supplies the per-layer counters, and traced
// passes, which time every call across each layer boundary and supply
// per-layer self-times.
//
// Usage:
//
//	perfbench -workload fig2-read -seed 1 -seconds 20 -trace 0
//	perfbench -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cntr/internal/fuse"
	"cntr/internal/sim"
)

// workloads maps each workload name to one pass over it. A pass with
// check set also verifies the final trees the workload leaves behind.
var workloads = map[string]func(seed uint64, traced, check bool) (*pass, error){
	"fig2-read":  fig2Pass("fig2-read"),
	"fig2-write": fig2Pass("fig2-write"),
	"fig2-meta":  fig2Pass("fig2-meta"),
	"fleet":      runFleet,
}

func fig2Pass(name string) func(uint64, bool, bool) (*pass, error) {
	return func(seed uint64, traced, check bool) (*pass, error) {
		return runFig2(fig2Rows[name], seed, traced, check)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig2-read, fig2-write, fig2-meta or fleet")
	seed := flag.Uint64("seed", 42, "input seed")
	seconds := flag.Float64("seconds", 20, "host seconds to keep running passes for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	out := flag.String("out", "", "directory the traced run writes its per-layer span summary to")
	selfcheck := flag.Bool("selfcheck", false, "check the row runner against phoronix.RunBenchmark and report nondeterministic virtual results")
	flag.Parse()

	if *selfcheck {
		if err := runSelfcheck(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := bench(*workload, run, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// bench runs passes of one workload until the host time budget is spent
// (at least minPasses) and reduces them to the reported metrics. The
// first pass checks the outputs; every later pass must reproduce its
// virtual results, so it runs the same program on the same inputs.
func bench(name string, run func(uint64, bool, bool) (*pass, error), seed uint64, budget time.Duration, traced bool, out string) (*result, error) {
	const minPasses = 3
	start := time.Now()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var plain, tracedPasses []*pass
	for i := 0; i < minPasses || time.Since(start) < budget; i++ {
		// A traced run starts with one untraced pass: it supplies the
		// counters, the reference virtual results and the untraced
		// throughput the tracing overhead is judged against.
		withTrace := traced && i > 0
		p, err := run(seed, withTrace, i == 0)
		if err != nil {
			// An aborted workload counts every call as failed.
			res.Correct = false
			res.Attempted = max(res.Attempted, 1)
			res.Failed = res.Attempted
			return res, fmt.Errorf("%s pass %d: %w", name, i, err)
		}
		res.Attempted += p.calls
		res.Failed += p.failed
		fmt.Printf("pass %d traced=%v: window %.3fs, set-up %.3fs, reference scale %.3f, %.0f calls/s, %.1f MB allocated\n",
			i, withTrace, p.host.Seconds(), p.setup.Seconds(), p.refScale(), opsPerSecond(p), float64(p.allocBytes)/1e6)
		for _, pr := range p.problems {
			fmt.Printf("check failed: %s\n", pr)
			res.Correct = false
		}
		if withTrace {
			tracedPasses = append(tracedPasses, p)
		} else {
			plain = append(plain, p)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	ref := plain[0]
	for _, p := range append(plain[1:], tracedPasses...) {
		for _, d := range diffVirt(ref, p) {
			if edgeRace(d.a - d.b) {
				fmt.Printf("nondeterministic (window-edge race): %s: %v vs %v\n", d.name, d.a, d.b)
				continue
			}
			fmt.Printf("check failed: virtual result %s differs between passes: %v vs %v\n", d.name, d.a, d.b)
			res.Correct = false
		}
	}
	fmt.Printf("workload %s seed %d: %d passes untraced, %d traced, %.1fs\n",
		name, seed, len(plain), len(tracedPasses), time.Since(start).Seconds())
	for _, v := range ref.virt {
		fmt.Printf("virtual %-32s %v\n", v.name, v.virt)
	}
	printCounters(ref)

	if !traced {
		res.Metrics = endToEnd(plain)
	} else {
		res.Metrics = perLayer(ref, tracedPasses)
		if out != "" {
			if err := writeSpans(out, name, seed, tracedPasses[len(tracedPasses)-1]); err != nil {
				return res, err
			}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// median returns the median of f over the passes.
func median(ps []*pass, f func(*pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// opsPerSecond is the pass's calls per reference second of window.
func opsPerSecond(p *pass) float64 { return float64(p.calls) / (p.host.Seconds() * p.refScale()) }

// endToEnd reduces untraced passes to the end-to-end metrics, each the
// median over the passes.
func endToEnd(ps []*pass) map[string]metric {
	return map[string]metric{
		"sim_ops_per_s": {median(ps, opsPerSecond), "1/s"},
		"host_alloc_mb": {median(ps, func(p *pass) float64 { return float64(p.allocBytes) / 1e6 }), "MB"},
		"host_allocs_k": {median(ps, func(p *pass) float64 { return float64(p.mallocs) / 1e3 }), "k"},
		"live_heap_mb":  {median(ps, func(p *pass) float64 { return float64(p.liveHeap) / 1e6 }), "MB"},
		"setup_s":       {median(ps, func(p *pass) float64 { return p.setup.Seconds() * p.refScale() }), "s"},
		"paper_err_x":   {median(ps, func(p *pass) float64 { return p.paperErr }), "x"},
		"raw_ops":       {median(ps, func(p *pass) float64 { return float64(p.calls) / p.host.Seconds() }), "x"},
	}
}

// perLayer reports the untraced pass's counters and the traced passes'
// self-times. Virtual self-times repeat exactly between traced passes;
// host self-times and throughput are medians over them.
func perLayer(ref *pass, traced []*pass) map[string]metric {
	c := ref.counters
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ratio := func(hits, misses string) float64 {
		if t := c[hits] + c[misses]; t > 0 {
			return c[hits] / t
		}
		return 0
	}
	lt := traced[0].layers
	virtMS := func(l int) float64 { return float64(lt.virtSelf[l]) / 1e6 }
	hostMS := func(l int) float64 {
		return median(traced, func(p *pass) float64 { return float64(p.layers.hostSelf[l]) / 1e6 })
	}

	put("vfs.calls", "count", float64(lt.calls[layerVFS]))
	put("vfs.errnos", "count", float64(lt.errnos[layerVFS]))
	lat := append([]int64(nil), lt.vfsLat...)
	put("vfs.lat_p50_us", "us", float64(percentile(lat, 0.50))/1e3)
	put("vfs.lat_p99_us", "us", float64(percentile(lat, 0.99))/1e3)
	put("vfs.lat_samples", "count", float64(len(lat)))
	for _, pc := range []struct {
		name  string
		layer int
	}{{"pagecache.kernel", layerKernelPC}, {"pagecache.host", layerHostPC}, {"pagecache.native", layerNativePC}} {
		put(pc.name+".hit_ratio", "ratio", ratio(pc.name+".hits", pc.name+".misses"))
		put(pc.name+".evictions", "count", c[pc.name+".evictions"])
		put(pc.name+".flushed_mb", "MB", c[pc.name+".flushed_bytes"]/1e6)
		put(pc.name+".virt_self_ms", "ms", virtMS(pc.layer))
		put(pc.name+".host_self_ms", "ms", hostMS(pc.layer))
	}
	put("fuse.requests", "count", c["fuse.requests"])
	put("fuse.wire_out_mb", "MB", c["fuse.wire_out_bytes"]/1e6)
	put("fuse.wire_in_mb", "MB", c["fuse.wire_in_bytes"]/1e6)
	put("fuse.entry_hit_ratio", "ratio", ratio("fuse.entry_hits", "fuse.entry_misses"))
	put("fuse.forgets", "count", c["fuse.forgets"])
	put("fuse.batch_frames", "count", c["fuse.batch_frames"])
	put("fuse.virt_self_ms", "ms", virtMS(layerFuse))
	put("fuse.host_self_ms", "ms", hostMS(layerFuse))
	for _, l := range []int{layerCntrFS, layerMemFS} {
		put(layerNames[l]+".calls", "count", float64(lt.calls[l]))
		put(layerNames[l]+".virt_self_ms", "ms", virtMS(l))
		put(layerNames[l]+".host_self_ms", "ms", hostMS(l))
	}
	put("blobstore.puts", "count", c["blobstore.puts"])
	put("blobstore.gets", "count", c["blobstore.gets"])
	put("blobstore.dedup_hits", "count", c["blobstore.dedup_hits"])
	put("blobstore.physical_mb", "MB", c["blobstore.physical_bytes"]/1e6)
	put("blobstore.logical_mb", "MB", c["blobstore.logical_bytes"]/1e6)
	put("blobstore.host_self_ms", "ms", hostMS(layerBlobstore))
	put("sim.disk.reads", "count", c["sim.disk.reads"])
	put("sim.disk.writes", "count", c["sim.disk.writes"])
	put("sim.disk.read_mb", "MB", c["sim.disk.read_bytes"]/1e6)
	put("sim.disk.write_mb", "MB", c["sim.disk.write_bytes"]/1e6)
	put("cachecl.hit_ratio", "ratio", ratio("cachecl.hits", "cachecl.misses"))
	put("cachecl.moves", "count", c["cachecl.moves"])
	put("cachecl.net_mb", "MB", c["cachecl.net_bytes"]/1e6)
	put("cachecl.fenced", "count", c["cachecl.fenced"])
	put("cachecl.host_self_ms", "ms", hostMS(layerCacheCl))
	put("cachesvc.hit_ratio", "ratio", ratio("cachesvc.hits", "cachesvc.misses"))
	put("cachesvc.evictions", "count", c["cachesvc.evictions"])
	put("cachesvc.fenced_writes", "count", c["cachesvc.fenced_writes"])
	put("cachesvc.leases_granted", "count", c["cachesvc.leases_granted"])
	put("policy.checks", "count", float64(lt.calls[layerPolicy]))
	put("policy.denials", "count", c["policy.denials"])
	put("policy.trace_entries", "count", c["policy.trace_entries"])
	put("policy.dropped", "count", c["policy.dropped"])
	put("policy.spilled", "count", c["policy.spilled"])
	put("policy.host_self_ms", "ms", hostMS(layerPolicy))
	put("go.gc_cycles", "count", float64(ref.gcCycles))
	put("go.gc_pause_ms", "ms", float64(ref.gcPause)/1e6)

	// The window is booked to the layers' self-times where a call was in
	// flight and to compute where none was; the residual is what the
	// two miss.
	var self int64
	for l := 0; l < numLayers; l++ {
		self += lt.virtSelf[l]
	}
	window := int64(traced[0].window)
	compute := window - lt.covered
	put("compute.virt_ms", "ms", float64(compute)/1e6)
	put("trace.window_virt_ms", "ms", float64(window)/1e6)
	put("trace.residual_ms", "ms", float64(window-self-compute)/1e6)
	put("trace.detached_spans", "count", float64(lt.detached))
	put("trace.detached_virt_ms", "ms", float64(lt.detachedVirt)/1e6)
	tracedOps := median(traced, opsPerSecond)
	put("trace.sim_ops_per_s", "1/s", tracedOps)
	put("trace.untraced_sim_ops_per_s", "1/s", opsPerSecond(ref))
	put("trace.overhead_x", "x", opsPerSecond(ref)/tracedOps)
	put("fleet.virt_s", "s", ref.fleetVirt.Seconds())
	put("fleet.virt_max_s", "s", ref.fleetVirtMax.Seconds())
	return m
}

// printCounters lists a pass's window counters, the free Stats()
// snapshots every run records beside its metrics.
func printCounters(p *pass) {
	names := make([]string, 0, len(p.counters))
	for k := range p.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("counter %-34s %.0f\n", k, p.counters[k])
	}
	fmt.Printf("counter %-34s %d\n", "go.gc_cycles", p.gcCycles)
	fmt.Printf("counter %-34s %.3f ms\n", "go.gc_pause", float64(p.gcPause)/1e6)
}

type virtDiff struct {
	name string
	a, b time.Duration
}

// diffVirt lists the virtual results that differ between two passes.
func diffVirt(a, b *pass) []virtDiff {
	var out []virtDiff
	for i, v := range a.virt {
		if i < len(b.virt) && b.virt[i].virt != v.virt {
			out = append(out, virtDiff{v.name, v.virt, b.virt[i].virt})
		}
	}
	return out
}

// edgeRace reports whether a virtual difference between two identical
// passes is the library's known window-edge race: the server cost of an
// asynchronous FUSE request (a forget batch that no caller waits for) is
// charged to the clock when a server thread picks it up, which can fall
// just before or just after the window's closing clock read. Such a
// difference is a small whole number of per-request server costs.
func edgeRace(d time.Duration) bool {
	model := sim.DefaultCostModel()
	q := model.WakeupLatency + time.Duration(fuse.DefaultMountOptions().ServerThreads-1)*model.LockContention
	d = max(d, -d)
	return d > 0 && d%q == 0 && d <= maxEdgeRaces*q
}

// maxEdgeRaces bounds how many asynchronous requests may land on the
// other side of a window's edge before a difference counts as real.
const maxEdgeRaces = 4

// writeSpans writes a traced pass's per-layer reduction of its spans.
func writeSpans(dir, name string, seed uint64, p *pass) error {
	type row struct {
		Layer      string  `json:"layer"`
		Calls      int64   `json:"calls"`
		Errnos     int64   `json:"errnos"`
		VirtSelfMS float64 `json:"virt_self_ms"`
		HostSelfMS float64 `json:"host_self_ms"`
	}
	rows := make([]row, 0, numLayers)
	for l := 0; l < numLayers; l++ {
		rows = append(rows, row{layerNames[l], p.layers.calls[l], p.layers.errnos[l],
			float64(p.layers.virtSelf[l]) / 1e6, float64(p.layers.hostSelf[l]) / 1e6})
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("layers-%s-seed%d.json", name, seed)), data, 0o644)
}
