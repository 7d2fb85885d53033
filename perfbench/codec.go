package main

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// rpcPair is one RPC exchange: a request and its reply.
type rpcPair struct {
	req  wire.Request
	resp wire.Response
}

// rpcSamples holds, for each RPC type an aggregation over the serving
// deployment can send (one serving peer, two providers of "work"), the
// exchanges of that type as they look on the wire there. The aggregate
// type has one exchange per class of servingMix, repeated in proportion
// to the class's weight.
func rpcSamples() map[string][]rpcPair {
	inst := func(i int) wire.Instance {
		return wire.Instance{
			ID: fmt.Sprintf("work#%d", i), Service: "work",
			Qin:  []wire.Param{{Name: "format", Sym: "A"}, {Name: "rate", Lo: 0, Hi: 40}},
			Qout: []wire.Param{{Name: "format", Sym: "B"}, {Name: "rate", Lo: 20, Hi: 25}},
			CPU:  5, Memory: 5, Kbps: 50,
		}
	}
	const session, provider = "s-0000000042", "127.0.0.1:41001"
	var aggs []rpcPair
	for _, cls := range servingMix {
		agg := rpcPair{
			req: wire.Request{Type: wire.TypeAggregate, Services: cls.Services, MinRate: cls.MinRate,
				Priority: cls.Priority, DTolerant: cls.DTolerant, DurationSec: cls.Duration.Seconds()},
			resp: wire.Response{OK: true, SessionID: session, Chain: []string{provider}, Cost: 1.25},
		}
		for i := 0; i < int(10*cls.Weight+0.5); i++ {
			aggs = append(aggs, agg)
		}
	}
	return map[string][]rpcPair{
		wire.TypeAggregate: aggs,
		wire.TypeLookup: {{req: wire.Request{Type: wire.TypeLookup, Service: "work"},
			resp: wire.Response{OK: true, Offers: []wire.Offer{{Instance: inst(0), Provider: provider}}}}},
		wire.TypeProbe: {{req: wire.Request{Type: wire.TypeProbe},
			resp: wire.Response{OK: true, Avail: []float64{99995, 99995}, UptimeSec: 12.5}}},
		wire.TypeSelect: {{req: wire.Request{Type: wire.TypeSelect, Instances: []wire.Instance{inst(0)},
			Candidates: map[string][]string{"work#0": {provider}}, UserAddr: "127.0.0.1:41000"},
			resp: wire.Response{OK: true, Chain: []string{provider}}}},
		wire.TypeReserve: {{req: wire.Request{Type: wire.TypeReserve, SessionID: session, InstanceID: "work#0",
			CPU: 5, Memory: 5, DurationSec: 0.05},
			resp: wire.Response{OK: true}}},
		wire.TypeRelease: {{req: wire.Request{Type: wire.TypeRelease, SessionID: session},
			resp: wire.Response{OK: true}}},
	}
}

// codecCost times encode plus decode of one aggregation's RPCs through
// each codec's public methods, in nanoseconds per aggregation: each RPC
// type's cost (median of several timed batches) weighted by perAgg, the
// traced run's measured sends of that type per aggregation. A measured
// type with no sample is an error, so a change in what an aggregation
// sends cannot silently leave these numbers behind.
func codecCost(perAgg map[string]float64) (map[string]float64, error) {
	samples := rpcSamples()
	types := sortedKeys(perAgg)
	for _, typ := range types {
		if len(samples[typ]) == 0 {
			return nil, fmt.Errorf("aggregations send %.2f %q RPCs each, which the codec cost has no sample of", perAgg[typ], typ)
		}
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("no RPCs measured per aggregation")
	}
	out := map[string]float64{}
	for name, c := range map[string]wire.Codec{"codec.binary_ns_per_agg": wire.NewBinary(), "codec.json_ns_per_agg": wire.JSON{}} {
		total := 0.0
		for _, typ := range types {
			ns, err := codecNsPerRPC(c, samples[typ])
			if err != nil {
				return nil, fmt.Errorf("%s codec, %s: %w", c.Name(), typ, err)
			}
			total += perAgg[typ] * ns
		}
		out[name] = total
	}
	return out, nil
}

// codecNsPerRPC returns the mean encode+decode cost of one exchange of
// set, request and reply, in nanoseconds.
func codecNsPerRPC(c wire.Codec, set []rpcPair) (float64, error) {
	var buf []byte
	var req wire.Request
	var resp wire.Response
	once := func() error {
		for i := range set {
			var err error
			if buf, err = c.AppendRequest(buf[:0], uint64(i), &set[i].req); err != nil {
				return err
			}
			if _, err = c.DecodeRequest(buf, &req); err != nil {
				return err
			}
			if buf, err = c.AppendResponse(buf[:0], uint64(i), &set[i].resp); err != nil {
				return err
			}
			if _, err = c.DecodeResponse(buf, &resp); err != nil {
				return err
			}
		}
		return nil
	}
	const batch = 2000
	var per []float64
	for b := 0; b < 7; b++ {
		t := time.Now()
		for i := 0; i < batch; i++ {
			if err := once(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/batch/float64(len(set)))
	}
	return median(per), nil
}
