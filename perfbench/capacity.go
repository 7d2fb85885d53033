package main

import (
	"fmt"
	"math"
	"time"
)

// p99Target is the serving latency limit: a ladder step passes only if
// the p99 of its due-time latencies stays under it.
const p99Target = 250 * time.Millisecond

// backlogGrowth is how much the median due-time latency may rise from a
// step's first quarter to its last before the step counts as building a
// backlog it cannot clear.
const backlogGrowth = p99Target / 5

// stealLimit is the share of the machine's CPU time the host may steal
// during a ladder step before a failure of that step counts as the
// host's, not the program's: such a step is run again (README.md).
const stealLimit = 0.05

// maxDisturbed is how many failures of one rung the host's steal may
// excuse; past it, every failure counts.
const maxDisturbed = 3

// stepVerdict judges one ladder step.
type stepVerdict struct {
	rate  float64
	ok    bool
	why   string
	p99Ms float64
	steal float64 // share of the machine's CPU stolen during the step; -1 unknown
}

// disturbed reports whether the host stole more than stealLimit of the
// machine's CPU time during the step.
func (v stepVerdict) disturbed() bool { return v.steal > stealLimit }

// judgeStep applies the capacity rule to one step: every arrival served
// (no shed, error or drop), p99 ≤ p99Target, and no growing backlog.
func judgeStep(r *genRun) stepVerdict {
	v := stepVerdict{rate: r.rate}
	var c counts
	c.add(r.arrivals)
	lat := dueLatencies(r.arrivals, 2*p99Target)
	v.p99Ms = 1e3 * quantile(lat, 0.99)
	q := len(r.arrivals) / 4
	switch {
	case len(r.arrivals) == 0:
		v.why = "no arrivals"
	case c.failed() > 0:
		v.why = fmt.Sprintf("%d shed, %d errors, %d dropped, %d bad, %d unaccounted", c.shed, c.err, c.drop, c.badOK, c.unaccounted())
	case v.p99Ms > 1e3*p99Target.Seconds():
		v.why = fmt.Sprintf("p99 %.1f ms over the %v limit", v.p99Ms, p99Target)
	case q > 0 && median(lat[len(lat)-q:])-median(lat[:q]) > backlogGrowth.Seconds():
		v.why = fmt.Sprintf("backlog growing: median latency %.1f ms in the first quarter, %.1f ms in the last",
			1e3*median(lat[:q]), 1e3*median(lat[len(lat)-q:]))
	default:
		v.ok = true
	}
	return v
}

// The ladder's rates are fixed in advance: rung j offers
// ladderBase·ladderFine^j requests per second, each rung 2.4% above the
// last, from rung ladderLow (≈100/s) to rung ladderTop (≈300k/s, far
// above what one process can generate, so a climb ends on a failing
// rung, not on the ladder's end). A climb starts at the nominal rate and
// takes every ladderCoarse-th rung (≈10% apart): upwards while they
// pass or, if the nominal rate fails, downwards until one passes. It then
// climbs the fine rungs between the highest passing coarse rung and the
// failing one above it. A failing step is run once more at the same
// rate, so one transient stall does not end the climb: a rung fails only
// if it fails twice. A failure during which the host stole more than
// stealLimit of the machine's CPU does not count, up to maxDisturbed per
// rung: the step is run again.
const (
	ladderBase   = 1000.0 // the nominal rate, rung 0
	ladderFine   = 1.024
	ladderCoarse = 4
	ladderLow    = -96
	ladderTop    = 240
)

func rungRate(j int) float64 { return ladderBase * math.Pow(ladderFine, float64(j)) }

// climb runs the ladder once, calling try for each step, and returns the highest rate of a passing step (0 if no
// rung down to ladderLow passed), whether that was the ladder's top rung
// (the capacity is then clipped), and every step in the order run.
func climb(try func(rate float64) stepVerdict) (capacity float64, topped bool, steps []stepVerdict) {
	passes := func(j int) bool {
		fails, excused := 0, 0
		for fails < 2 {
			v := try(rungRate(j))
			steps = append(steps, v)
			switch {
			case v.ok:
				capacity = math.Max(capacity, v.rate)
				return true
			case v.disturbed() && excused < maxDisturbed:
				excused++
			default:
				fails++
			}
		}
		return false
	}
	lo := 0 // the highest passing coarse rung
	if passes(0) {
		for lo < ladderTop && passes(lo+ladderCoarse) {
			lo += ladderCoarse
		}
		if lo == ladderTop {
			return capacity, true, steps
		}
	} else {
		for lo = -ladderCoarse; lo >= ladderLow && !passes(lo); lo -= ladderCoarse {
		}
		if lo < ladderLow {
			return 0, false, steps
		}
	}
	for f := lo + 1; f < lo+ladderCoarse && passes(f); f++ {
	}
	return capacity, false, steps
}

// staircase runs n ladder steps by the up-and-down method from rung
// start: after a step that passes it moves one rung up, after one that
// fails one rung down, so it settles around the rate at which half the
// steps pass. A failure during which the host stole more than stealLimit
// of the machine's CPU is not counted: the staircase stays on its rung.
// It returns the median rate of the counted steps (0 if none counted)
// and every step in the order run.
func staircase(start, n int, try func(rate float64) stepVerdict) (capacity float64, steps []stepVerdict) {
	j := start
	var counted []float64
	for i := 0; i < n; i++ {
		v := try(rungRate(j))
		steps = append(steps, v)
		switch {
		case v.ok:
			counted = append(counted, v.rate)
			j = min(j+1, ladderTop)
		case !v.disturbed():
			counted = append(counted, v.rate)
			j = max(j-1, ladderLow)
		}
	}
	return median(counted), steps
}

// rungOf returns the highest rung whose rate is at most rate.
func rungOf(rate float64) int {
	j := int(math.Floor(math.Log(rate/ladderBase)/math.Log(ladderFine) + 1e-9))
	return min(max(j, ladderLow), ladderTop)
}
