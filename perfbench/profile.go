package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// entryPoint attributes CPU to one layer: every profile sample whose
// stack passes through fn counts once, except samples whose stack also
// passes through exclude (a callee reported as its own layer).
type entryPoint struct {
	metric, fn, exclude string
}

const (
	fnResolve  = "repro/internal/probe.(*Manager).Resolve"
	fnQCS      = "repro/internal/compose.QCS"
	fnSelect   = "repro/internal/selection.(*Selector).SelectPath"
	fnAdmit    = "repro/internal/session.(*Manager).Admit"
	fnLookup   = "repro/internal/registry.(*Registry).Lookup"
	fnRegister = "repro/internal/registry.(*Registry).Register"
)

// simEntryPoints are the simulator layers' public entry points.
var simEntryPoints = []entryPoint{
	{metric: "compose.cpu_s", fn: fnQCS},
	{metric: "probe.cpu_s", fn: fnResolve},
	{metric: "select.self_cpu_s", fn: fnSelect, exclude: fnResolve},
	{metric: "session.cpu_s", fn: fnAdmit},
	{metric: "registry.lookup_cpu_s", fn: fnLookup},
	{metric: "registry.register_cpu_s", fn: fnRegister},
}

// attribute sums a gzipped pprof CPU profile's CPU seconds under each
// entry point.
func attribute(gz []byte, eps []entryPoint) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(eps))
	for _, ep := range eps {
		out[ep.metric] = 0
	}
	for _, s := range p.samples {
		on := map[string]bool{}
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				on[p.funcNames[fn]] = true
			}
		}
		for _, ep := range eps {
			if on[ep.fn] && (ep.exclude == "" || !on[ep.exclude]) {
				out[ep.metric] += float64(s.nanos) / 1e9
			}
		}
	}
	return out, nil
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location ID → function IDs, inlined callees first
	funcNames map[uint64]string
}

type profSample struct {
	locs  []uint64
	nanos int64
}

// parseProfile decodes the gzipped protocol buffer runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), keeping sample stacks,
// locations, function names and the CPU-nanoseconds sample value.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var (
		strs       []string
		typeUnits  []int64 // sample_type unit string indexes
		rawSamples [][2][]uint64
		funcName   = map[uint64]int64{}
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var unit int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 2 {
					unit = int64(v)
				}
				return nil
			})
			typeUnits = append(typeUnits, unit)
			return err
		case 2: // sample
			var s [2][]uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				if f == 1 || f == 2 {
					vals, err := pbUints(w, v, b)
					s[f-1] = append(s[f-1], vals...)
					return err
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, u := range typeUnits {
		if u >= 0 && int(u) < len(strs) && strs[u] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile has no nanoseconds sample value")
	}
	for id, si := range funcName {
		if si < 0 || int(si) >= len(strs) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, si, len(strs))
		}
		p.funcNames[id] = strs[si]
	}
	for _, s := range rawSamples {
		if valueIdx >= len(s[1]) {
			return nil, errors.New("sample lacks its CPU value")
		}
		p.samples = append(p.samples, profSample{locs: s[0], nanos: int64(s[1][valueIdx])})
	}
	return p, nil
}

// pbFields walks one protocol buffer message, calling fn with each
// field's number and wire type, plus its varint value or its bytes.
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field occurrence, packed or not.
func pbUints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
