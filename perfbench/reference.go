package main

import (
	"crypto/sha256"
	"slices"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by
// ten percent and more between runs. Host time is therefore reported in
// reference seconds: a pass's host times are scaled by how fast a fixed
// reference loop ran during the pass (sampled before every window and
// set-up step), relative to referenceNominal, a typical time for the
// loop on a 2-vCPU x86-64 cloud host, so reference seconds stay close to
// host seconds. A slow spell slows the loop and the pass alike and
// cancels; a change to the library does not touch the loop and shows in
// full.
const referenceNominal = 6 * time.Millisecond

func (p *pass) sampleReference() { p.refs = append(p.refs, referenceLoop()) }

// startSetup samples the reference loop and starts timing a set-up step.
func (p *pass) startSetup() time.Time {
	p.sampleReference()
	return time.Now()
}

// refScale converts the pass's host seconds to reference seconds: the
// nominal loop time over the median sampled one.
func (p *pass) refScale() float64 {
	xs := append([]time.Duration(nil), p.refs...)
	slices.Sort(xs)
	return float64(referenceNominal) / float64(xs[len(xs)/2])
}

// refBufs are the reference loop's pages. They are a static array, so
// the loop neither allocates (it would pay for garbage the measured
// program left behind) nor adds to the measured heap, and at 16 MiB
// they exceed the processor caches, so the loop feels memory-bandwidth
// contention the way the simulator's page zeroing and copying does.
var (
	refBufs [4096][4096]byte
	refSink int
)

// referenceLoop runs a fixed mix of the work the simulator's host time
// goes to: page zeroing and copies, map updates, hashing and goroutine
// handoffs over a channel. It returns the best of three runs.
func referenceLoop() time.Duration {
	best := time.Duration(1 << 62)
	var src [2048]byte
	m := make(map[int]*[4096]byte, 512)
	for r := 0; r < 3; r++ {
		t := time.Now()
		ch := make(chan *[4096]byte)
		done := make(chan int)
		go func() {
			n := 0
			for b := range ch {
				n += int(b[0])
			}
			done <- n
		}()
		for i := 0; i < 7000; i++ {
			b := &refBufs[(r*7000+i)%len(refBufs)]
			clear(b[:])
			copy(b[:2048], src[:])
			m[i%512] = b
			if i%16 == 0 {
				s := sha256.Sum256(b[:])
				refSink += int(s[0])
			}
			ch <- b
		}
		close(ch)
		refSink += <-done
		best = min(best, time.Since(t))
	}
	return best
}
