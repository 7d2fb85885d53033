package main

import (
	"runtime"
	"slices"
)

// The host this benchmark runs on is shared: how fast its CPUs run for
// one process drifts by a fifth and more over minutes, with what the
// neighbours do to caches, memory bandwidth and sibling hyperthreads.
// That drift is not the program's, so every run also times a fixed
// reference work, refUnit, between its measurements, and gives its
// end-to-end values at reference speed: as they would read where one
// refUnit takes refBaseline of thread CPU. The raw values are printed
// beside them (README.md).

// refBaseline is the thread CPU time of one refUnit at reference speed:
// its median on a 2-vCPU Intel Xeon virtual machine of the kind the
// benchmark was written on.
const refBaseline = 0.14 // seconds

// refChaseLen is the length of refUnit's pointer-chasing cycle: 32 MiB
// of uint32, more than the last-level cache holds.
const refChaseLen = 1 << 23

// speedGauge samples the host's speed for this process with refUnit.
type speedGauge struct {
	chase   []uint32
	samples []float64 // thread CPU seconds per refUnit
}

// newSpeedGauge builds refUnit's data: one random cycle over
// refChaseLen slots (Sattolo's shuffle from a fixed seed).
func newSpeedGauge() *speedGauge {
	c := make([]uint32, refChaseLen)
	for i := range c {
		c[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
	g := &speedGauge{chase: c}
	g.refUnit() // untimed: the first walk also faults the cycle in
	return g
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refUnit is the fixed reference work, a mix like the program's own: a
// dependent walk through memory, hash-map updates with allocation, and a
// sort. It returns a value derived from all of it so none is skipped.
func (g *speedGauge) refUnit() uint64 {
	p := uint32(0)
	for i := 0; i < 500_000; i++ {
		p = g.chase[p]
	}
	m := make(map[uint64]uint64)
	x := uint64(p) | 1
	fs := make([]float64, 0, 100_000)
	for i := 0; i < 100_000; i++ {
		x = xorshift(x)
		m[x%250_000] += x
		fs = append(fs, float64(x%1_000_003))
	}
	slices.Sort(fs)
	return uint64(len(m)) + uint64(fs[len(fs)/2])
}

// sample times one refUnit on a locked thread. A run samples many
// times, between its measurements, and takes the median.
func (g *speedGauge) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	t := threadCPU()
	if g.refUnit() == 0 {
		panic("perfbench: reference work returned nothing")
	}
	g.samples = append(g.samples, (threadCPU() - t).Seconds())
}

// speed is the host's speed over the run relative to the reference: the
// reference time over the median refUnit time sampled. Above 1 the host
// ran faster than the reference.
func (g *speedGauge) speed() float64 {
	return ratio(refBaseline, median(g.samples))
}

// atReferenceSpeed rescales the end-to-end metrics in m, measured on a
// host running at speed, to reference speed: a time scales with the
// speed, a rate against it.
func atReferenceSpeed(m map[string]float64, speed float64) {
	for _, s := range endToEnd {
		v, ok := m[s.name]
		switch {
		case !ok:
		case s.unit == "1/s":
			m[s.name] = v / speed
		default:
			m[s.name] = v * speed
		}
	}
}
