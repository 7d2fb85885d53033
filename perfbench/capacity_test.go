package main

import (
	"testing"
	"time"
)

// fakeRun builds a ladder step whose i-th arrival was served with the
// latency lat(i), or failed with outcome out(i) when that is not outOK.
func fakeRun(rate float64, n int, lat func(i int) time.Duration, out func(i int) int) *genRun {
	r := &genRun{rate: rate, arrivals: make([]arrival, n)}
	gap := time.Duration(float64(time.Second) / rate)
	for i := range r.arrivals {
		due := time.Duration(i) * gap
		r.arrivals[i] = arrival{due: due, sent: due, done: due + lat(i), outcome: out(i)}
	}
	return r
}

func allOK(int) int { return outOK }

func TestJudgeStep(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name string
		run  *genRun
		ok   bool
	}{
		{"fast and clean", fakeRun(2000, 800, func(int) time.Duration { return 2 * ms }, allOK), true},
		{"one shed", fakeRun(2000, 800, func(int) time.Duration { return 2 * ms },
			func(i int) int {
				if i == 400 {
					return outShed
				}
				return outOK
			}), false},
		{"one drop", fakeRun(2000, 800, func(int) time.Duration { return 2 * ms },
			func(i int) int {
				if i == 10 {
					return outDrop
				}
				return outOK
			}), false},
		{"p99 over the limit", fakeRun(2000, 800, func(i int) time.Duration {
			if i%50 == 0 {
				return 400 * ms
			}
			return 2 * ms
		}, allOK), false},
		{"rare slow requests under the limit", fakeRun(2000, 800, func(i int) time.Duration {
			if i%200 == 0 {
				return 400 * ms
			}
			return 2 * ms
		}, allOK), true},
		// Latency climbing steadily from 1 ms to 200 ms: p99 stays under
		// 250 ms, but the queue is growing.
		{"growing backlog", fakeRun(2000, 800, func(i int) time.Duration {
			return ms + time.Duration(i)*199*ms/800
		}, allOK), false},
	}
	for _, c := range cases {
		v := judgeStep(c.run)
		if v.ok != c.ok {
			t.Errorf("%s: ok = %v (%s), want %v", c.name, v.ok, v.why, c.ok)
		}
		if v.rate != c.run.rate {
			t.Errorf("%s: verdict rate %g, want %g", c.name, v.rate, c.run.rate)
		}
	}
}

func TestLadderRungsAreFixedAndClose(t *testing.T) {
	if rungRate(0) != ladderBase {
		t.Fatalf("first rung %g, want the nominal %g", rungRate(0), ladderBase)
	}
	for j := ladderLow + 1; j <= ladderTop; j++ {
		lo, hi := rungRate(j-1), rungRate(j)
		if hi <= lo || hi > 1.03*lo {
			t.Fatalf("rung %d: %g after %g", j, hi, lo)
		}
		if rungRate(j) > 1.1*rungRate(j-ladderCoarse) {
			t.Fatalf("coarse step to rung %d is more than 10%%", j)
		}
	}
}

// plane is a synthetic serving plane for the climb: it passes every
// rate up to capacity, except that the flaky rates fail their first
// attempt.
type plane struct {
	capacity float64
	flaky    map[float64]bool
	tried    []float64
}

func (p *plane) try(rate float64) stepVerdict {
	p.tried = append(p.tried, rate)
	if p.flaky[rate] {
		delete(p.flaky, rate)
		return stepVerdict{rate: rate, why: "transient stall"}
	}
	if rate > p.capacity {
		return stepVerdict{rate: rate, why: "shed"}
	}
	return stepVerdict{rate: rate, ok: true}
}

// highestRung is the answer the ladder should find for a plane of the
// given capacity: the highest rung at or below it.
func highestRung(capacity float64) float64 {
	best := 0.0
	for j := ladderLow; j <= ladderTop; j++ {
		if r := rungRate(j); r <= capacity {
			best = r
		}
	}
	return best
}

func TestClimbFindsTheHighestPassingRung(t *testing.T) {
	for _, capacity := range []float64{150, 500, 999, 1000, 1030, 1500, 2222, 3000, 3999, 4500, 9000, 60000} {
		p := &plane{capacity: capacity}
		got, topped, steps := climb(p.try)
		if topped {
			t.Errorf("capacity %g: climb reports the ladder's top", capacity)
		}
		if want := highestRung(capacity); got != want {
			t.Errorf("capacity %g: climb found %g, want %g (tried %v)", capacity, got, want, p.tried)
		}
		if len(steps) != len(p.tried) {
			t.Errorf("capacity %g: %d verdicts for %d steps", capacity, len(steps), len(p.tried))
		}
		// Every failing rung is run twice in a row, and nothing at or
		// above a rung that failed twice is tried after it.
		for i, s := range steps {
			if s.ok {
				continue
			}
			again := i+1 < len(steps) && steps[i+1].rate == s.rate
			retried := i > 0 && steps[i-1].rate == s.rate && !steps[i-1].ok
			if !again && !retried {
				t.Errorf("capacity %g: rung %g failed once and was not retried", capacity, s.rate)
			}
			if retried {
				for _, later := range steps[i+1:] {
					if later.rate >= s.rate {
						t.Errorf("capacity %g: tried %g after %g failed twice", capacity, later.rate, s.rate)
					}
				}
			}
		}
	}
}

func TestClimbIgnoresOneTransientFailure(t *testing.T) {
	clean := &plane{capacity: 3000}
	want, _, _ := climb(clean.try)
	flaky := &plane{capacity: 3000, flaky: map[float64]bool{rungRate(4): true, rungRate(8): true}}
	got, _, _ := climb(flaky.try)
	if got != want {
		t.Fatalf("a transient failure moved capacity from %g to %g", want, got)
	}
	if len(flaky.tried) != len(clean.tried)+2 {
		t.Fatalf("flaky climb ran %d steps, want %d (one retry per stall)", len(flaky.tried), len(clean.tried)+2)
	}
}

func TestClimbReportsAClippedTop(t *testing.T) {
	p := &plane{capacity: 10 * rungRate(ladderTop)}
	got, topped, _ := climb(p.try)
	if got != rungRate(ladderTop) || !topped {
		t.Fatalf("capacity %g (topped %v), want the top rung %g reported as topped", got, topped, rungRate(ladderTop))
	}
}

func TestClimbReportsZeroBelowTheLowestRung(t *testing.T) {
	p := &plane{capacity: rungRate(ladderLow) / 2}
	got, topped, steps := climb(p.try)
	// Rung 0 and every coarse rung down to ladderLow fail twice.
	if want := 2 * (1 - ladderLow/ladderCoarse); got != 0 || topped || len(steps) != want {
		t.Fatalf("capacity %g (topped %v) after %d steps, want 0 after %d", got, topped, len(steps), want)
	}
}

func TestClimbExcusesFailuresTheHostCaused(t *testing.T) {
	// Below capacity, a rung fails only while the host steals; every
	// such failure is run again, up to maxDisturbed times per rung.
	stolen := map[float64]int{rungRate(4): maxDisturbed, rungRate(8): 1}
	try := func(rate float64) stepVerdict {
		if stolen[rate] > 0 {
			stolen[rate]--
			return stepVerdict{rate: rate, why: "stall", steal: 2 * stealLimit}
		}
		if rate > 3000 {
			return stepVerdict{rate: rate, why: "shed"}
		}
		return stepVerdict{rate: rate, ok: true}
	}
	if got, _, _ := climb(try); got != highestRung(3000) {
		t.Fatalf("climb found %g, want %g", got, highestRung(3000))
	}

	// Past maxDisturbed, stolen failures count like any other: the two
	// that follow fail the rung.
	always := func(rate float64) stepVerdict {
		if rate > 1000 {
			return stepVerdict{rate: rate, why: "stall", steal: 2 * stealLimit}
		}
		return stepVerdict{rate: rate, ok: true}
	}
	got, _, steps := climb(always)
	if got != 1000 {
		t.Fatalf("always disturbed: climb found %g, want 1000", got)
	}
	// Rung 0 passes; rungs 4 (coarse) and 1 (fine) each take
	// maxDisturbed excused and two counted failures.
	if want := 1 + 2*(maxDisturbed+2); len(steps) != want {
		t.Fatalf("always disturbed: %d steps, want %d", len(steps), want)
	}
}

func TestStaircaseSettlesAtCapacity(t *testing.T) {
	for _, capacity := range []float64{800, 2500, 3999} {
		j := rungOf(capacity)
		if rungRate(j) > capacity || rungRate(j+1) <= capacity {
			t.Fatalf("rungOf(%g) = %d (%g)", capacity, j, rungRate(j))
		}
		// From 6 rungs below, the staircase walks up, then alternates
		// between the highest passing rung and the one above it.
		p := &plane{capacity: capacity}
		got, steps := staircase(j-6, 40, p.try)
		if len(steps) != 40 {
			t.Fatalf("capacity %g: %d steps, want 40", capacity, len(steps))
		}
		if got < rungRate(j) || got > rungRate(j+1) {
			t.Errorf("capacity %g: staircase settled at %g, want between %g and %g", capacity, got, rungRate(j), rungRate(j+1))
		}
	}
}

func TestStaircaseSkipsFailuresTheHostCaused(t *testing.T) {
	// Every failure is the host's for the first 10 steps: the staircase
	// holds its rung and counts none of them.
	calls := 0
	try := func(rate float64) stepVerdict {
		calls++
		switch {
		case calls <= 10:
			return stepVerdict{rate: rate, why: "stall", steal: 2 * stealLimit}
		case rate > 3000:
			return stepVerdict{rate: rate, why: "shed"}
		}
		return stepVerdict{rate: rate, ok: true}
	}
	j := rungOf(3000)
	got, steps := staircase(j, 30, try)
	for _, s := range steps[:10] {
		if s.rate != rungRate(j) {
			t.Fatalf("staircase moved to %g on a failure the host caused", s.rate)
		}
	}
	if got < rungRate(j) || got > rungRate(j+1) {
		t.Fatalf("staircase settled at %g, want between %g and %g", got, rungRate(j), rungRate(j+1))
	}
	// All steps excused: nothing counted, no capacity.
	if got, _ := staircase(j, 5, func(rate float64) stepVerdict {
		return stepVerdict{rate: rate, steal: 1}
	}); got != 0 {
		t.Fatalf("all steps excused: capacity %g, want 0", got)
	}
}
