package main

import (
	"fmt"
	"sort"
	"time"

	"cntr/internal/phoronix"
)

// runSelfcheck proves the benchmark's row runner against the library's own:
// every Figure 2 row's native and CntrFS virtual times, measured by
// calling Prepare, Warmup and Run directly, must equal
// phoronix.RunBenchmark's (which always uses seed 42) up to a window-edge
// race (see edgeRace). It then runs each workload twice in one process
// on the same seed and reports every virtual result that differs,
// naming it; a difference that is not a window-edge race fails the
// check.
func runSelfcheck() error {
	const seed = 42
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	mismatches := 0
	for _, name := range names {
		rows, ok := fig2Rows[name]
		if !ok {
			continue
		}
		p, err := runFig2(rows, seed, false, true)
		if err != nil {
			return err
		}
		for i, row := range rows {
			b, err := suiteRow(row)
			if err != nil {
				return err
			}
			want, err := phoronix.RunBenchmark(b)
			if err != nil {
				return err
			}
			native, cntr := wallTime(p.virt[2*i].virt, b.Workers), wallTime(p.virt[2*i+1].virt, b.Workers)
			status := "equal"
			switch {
			case native == want.NativeTime && cntr == want.CntrTime:
			case sameOrRace(native-want.NativeTime, b) && sameOrRace(cntr-want.CntrTime, b):
				status = "window-edge race"
			default:
				status = "DIFFERS"
				mismatches++
			}
			fmt.Printf("identity %-24s native %v / %v  cntr %v / %v  %s\n",
				row, native, want.NativeTime, cntr, want.CntrTime, status)
		}
	}

	for _, name := range names {
		a, err := workloads[name](seed, false, true)
		if err != nil {
			return err
		}
		b, err := workloads[name](seed, false, true)
		if err != nil {
			return err
		}
		diffs := diffVirt(a, b)
		if a.paperErr != b.paperErr {
			fmt.Printf("determinism %s: paper_err_x %v vs %v\n", name, a.paperErr, b.paperErr)
		}
		if a.fleetVirt != b.fleetVirt {
			fmt.Printf("determinism %s: fleet virtual total %v vs %v\n", name, a.fleetVirt, b.fleetVirt)
		}
		for _, d := range diffs {
			known := "window-edge race"
			if !edgeRace(d.a - d.b) {
				known = "UNEXPLAINED"
				mismatches++
			}
			fmt.Printf("determinism %s: %s %v vs %v (%s)\n", name, d.name, d.a, d.b, known)
		}
		if len(diffs) == 0 {
			fmt.Printf("determinism %s: all %d virtual results equal\n", name, len(a.virt))
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("selfcheck: %d unexpected virtual differences", mismatches)
	}
	return nil
}

// sameOrRace reports whether a difference between two wall times of row
// b is none or a window-edge race. Wall times are raw virtual times
// divided by the row's parallelism and truncated, so the raw difference
// is only known to within that divisor.
func sameOrRace(d time.Duration, b *phoronix.Benchmark) bool {
	p := time.Duration(min(max(b.Workers, 1), 4))
	for slack := -(p - 1); slack < p; slack++ {
		if raw := d*p + slack; raw == 0 || edgeRace(raw) {
			return true
		}
	}
	return false
}
