package main

import (
	"strings"
	"testing"
)

func TestCodecCostFollowsTheMeasuredMix(t *testing.T) {
	one, err := codecCost(map[string]float64{"aggregate": 1, "lookup": 2, "reserve": 1})
	if err != nil {
		t.Fatal(err)
	}
	more, err := codecCost(map[string]float64{"aggregate": 1, "lookup": 2, "reserve": 1, "probe": 4, "select": 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"codec.binary_ns_per_agg", "codec.json_ns_per_agg"} {
		if one[name] <= 0 || more[name] <= one[name] {
			t.Errorf("%s: %g ns for the base mix, %g ns with probes and selects added", name, one[name], more[name])
		}
	}
	if one["codec.json_ns_per_agg"] <= one["codec.binary_ns_per_agg"] {
		t.Errorf("JSON %g ns not dearer than binary %g ns", one["codec.json_ns_per_agg"], one["codec.binary_ns_per_agg"])
	}
}

func TestCodecCostRefusesAnUnsampledRPCType(t *testing.T) {
	if _, err := codecCost(map[string]float64{"lookup": 2, "gossip": 0.5}); err == nil || !strings.Contains(err.Error(), "gossip") {
		t.Fatalf("err = %v, want one naming the unsampled gossip type", err)
	}
	if _, err := codecCost(map[string]float64{}); err == nil {
		t.Fatal("an empty RPC mix was costed")
	}
}

func TestRPCSamplesCarryTheirType(t *testing.T) {
	for typ, set := range rpcSamples() {
		for _, p := range set {
			if p.req.Type != typ {
				t.Errorf("sample of %s carries type %s", typ, p.req.Type)
			}
		}
	}
}
