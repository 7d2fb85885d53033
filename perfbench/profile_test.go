package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protocol buffer writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs []uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

// testProfile builds a gzipped CPU profile. Each stack lists function
// names leaf first; location k holds the k-th distinct name, and the
// last location inlines two functions to exercise multi-line locations.
func testProfile(t *testing.T, stacks [][]string, nanos []int64, packedLocs bool) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var msg pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} { // sample_type: samples/count, cpu/nanoseconds
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		msg.bytes(1, vt.b)
	}
	for i, stack := range stacks {
		var locs []uint64
		for _, fn := range stack {
			id, ok := funcID[fn]
			if !ok {
				id = uint64(len(funcID) + 1)
				funcID[fn] = id
			}
			locs = append(locs, id) // location k ↔ function k
		}
		var s pb
		if packedLocs {
			s.packed(1, locs)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, []uint64{1, uint64(nanos[i])})
		msg.bytes(2, s.b)
	}
	for name, id := range funcID {
		var line pb
		line.varint(1, id)
		line.varint(2, 42)
		var loc pb
		loc.varint(1, id)
		loc.bytes(4, line.b)
		msg.bytes(4, loc.b)
		var fn pb
		fn.varint(1, id)
		fn.varint(2, intern(name))
		msg.bytes(5, fn.b)
	}
	for _, s := range strs {
		msg.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeSumsUnderEntryPoints(t *testing.T) {
	const ms = int64(time.Millisecond)
	stacks := [][]string{
		// Resolve called from SelectPath: probe, not selection self time.
		{"repro/internal/probe.(*Manager).evictFor", fnResolve, fnSelect, "main.main"},
		// SelectPath's own work.
		{"sort.Slice", fnSelect, "main.main"},
		// QCS under the aggregator.
		{"repro/internal/compose.relax", fnQCS, "repro/internal/core.(*Aggregator).Aggregate"},
		// A recursive stack counts once.
		{fnQCS, fnQCS, "main.main"},
		// Registry refresh.
		{"repro/internal/chord.(*Ring).Update", fnRegister, "main.main"},
		// Outside every layer.
		{"runtime.mallocgc", "main.main"},
	}
	nanos := []int64{30 * ms, 10 * ms, 20 * ms, 5 * ms, 40 * ms, 7 * ms}
	for _, packed := range []bool{true, false} {
		got, err := attribute(testProfile(t, stacks, nanos, packed), simEntryPoints)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{
			"probe.cpu_s":             0.030,
			"select.self_cpu_s":       0.010,
			"compose.cpu_s":           0.025,
			"registry.register_cpu_s": 0.040,
			"session.cpu_s":           0,
			"registry.lookup_cpu_s":   0,
		}
		for k, w := range want {
			if math.Abs(got[k]-w) > 1e-12 {
				t.Errorf("packed=%v %s = %v, want %v", packed, k, got[k], w)
			}
		}
		if len(got) != len(simEntryPoints) {
			t.Errorf("%d metrics, want %d", len(got), len(simEntryPoints))
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := attribute([]byte("not a profile"), simEntryPoints); err == nil {
		t.Fatal("garbage parsed")
	}
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x += uint64(i) * x
		}
	}
	return x
}

// TestParseRealProfile checks the parser against runtime/pprof's own
// output.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	got, err := attribute(buf.Bytes(), []entryPoint{{metric: "spin", fn: "repro/perfbench.spin"}})
	if err != nil {
		t.Fatal(err)
	}
	if got["spin"] <= 0 || got["spin"] > 1 {
		t.Fatalf("spin CPU %v s, want within (0, 1]", got["spin"])
	}
}
