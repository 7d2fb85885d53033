package main

import (
	"math"
	"testing"
)

func TestAtReferenceSpeed(t *testing.T) {
	// A host at 0.8 of the reference speed: a time reads 0.8× as long at
	// reference speed, a rate 1/0.8× as high.
	m := map[string]float64{"setup_s": 2, "ops_per_s": 1000, "cpu_us_per_op": 500, "latency.p50_ms": 3}
	atReferenceSpeed(m, 0.8)
	want := map[string]float64{"setup_s": 1.6, "ops_per_s": 1250, "cpu_us_per_op": 400, "latency.p50_ms": 3}
	for k, w := range want {
		if math.Abs(m[k]-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, m[k], w)
		}
	}
}

func TestSpeedGauge(t *testing.T) {
	g := &speedGauge{samples: []float64{2 * refBaseline, refBaseline / 2, refBaseline / 2}}
	if got := g.speed(); got != 2 {
		t.Fatalf("speed %g, want 2 (the median sample is half the reference time)", got)
	}
	g = newSpeedGauge()
	g.sample()
	if len(g.samples) != 1 || g.samples[0] <= 0 {
		t.Fatalf("samples %v, want one positive time", g.samples)
	}
	// The chase array is one cycle through every slot.
	p, n := uint32(0), 0
	for {
		p = g.chase[p]
		n++
		if p == 0 {
			break
		}
	}
	if n != refChaseLen {
		t.Fatalf("cycle of %d slots, want %d", n, refChaseLen)
	}
}
