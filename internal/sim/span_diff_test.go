package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestSpanReplayIdentical is the causal-tracing acceptance bar: with
// every request sampled, recovery on and peers churning, two same-seed
// runs produce byte-identical telemetry — span IDs, timestamps,
// interleaving and all — and identical RequestStats.
func TestSpanReplayIdentical(t *testing.T) {
	run := func() (*Result, []byte) {
		var tel bytes.Buffer
		cfg := diffConfig(QSA, false)
		cfg.SpanSample = 1
		cfg.EnableRecovery = true
		cfg.TelemetryOut = &tel
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, tel.Bytes()
	}
	refRes, ref := run()
	res, tel := run()
	if res.Requests != refRes.Requests {
		t.Fatalf("RequestStats diverged:\nref: %+v\ngot: %+v", refRes.Requests, res.Requests)
	}
	if !bytes.Equal(tel, ref) {
		t.Fatalf("span telemetry diverged (%d vs %d bytes)", len(ref), len(tel))
	}
	evs, err := obs.ReadEvents(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range evs {
		if ev.Kind == obs.KindSpan {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("sampled run emitted no spans")
	}
}

// TestSpanSamplingInvisibleToResults: turning spans on must not change
// any figure — and the non-span events of the sampled stream must be
// exactly the unsampled stream (spans interleave; they never reorder or
// reword the decision trace).
func TestSpanSamplingInvisibleToResults(t *testing.T) {
	run := func(sample float64, tel *bytes.Buffer) *Result {
		cfg := diffConfig(QSA, false)
		cfg.EnableRecovery = true
		cfg.SpanSample = sample
		cfg.TelemetryOut = tel
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var telOff, telOn bytes.Buffer
	off := run(0, &telOff)
	on := run(1, &telOn)

	if on.Requests != off.Requests {
		t.Fatalf("spans changed RequestStats:\noff: %+v\non:  %+v", off.Requests, on.Requests)
	}
	if on.Psi != off.Psi || on.Sessions != off.Sessions || on.Lookup != off.Lookup {
		t.Fatal("spans changed ψ, session counters, or routing stats")
	}
	if !reflect.DeepEqual(on.Series, off.Series) {
		t.Fatal("spans changed the ψ time series")
	}

	offEvs, err := obs.ReadEvents(&telOff)
	if err != nil {
		t.Fatal(err)
	}
	onEvs, err := obs.ReadEvents(&telOn)
	if err != nil {
		t.Fatal(err)
	}
	kept := onEvs[:0]
	for _, ev := range onEvs {
		if ev.Kind != obs.KindSpan {
			kept = append(kept, ev)
		}
	}
	if len(kept) == len(onEvs) {
		t.Fatal("sampled stream carried no spans")
	}
	if len(kept) != len(offEvs) {
		t.Fatalf("decision-event counts diverged: %d sampled vs %d unsampled", len(kept), len(offEvs))
	}
	for i := range kept {
		kept[i].Seq = offEvs[i].Seq // spans consume sequence numbers; all else must match
		if !reflect.DeepEqual(kept[i], offEvs[i]) {
			t.Fatalf("decision event %d diverged:\nsampled:   %+v\nunsampled: %+v", i, kept[i], offEvs[i])
		}
	}
}

// TestSpanTreeReconciles checks the structural contract qsastat's
// critical-path explainer stands on: with full sampling, every request
// has exactly one root span, every other span is parented inside its
// request's trace, and the root outcomes reconcile exactly with
// RequestStats.
func TestSpanTreeReconciles(t *testing.T) {
	var tel bytes.Buffer
	cfg := diffConfig(QSA, false)
	cfg.EnableRecovery = true
	cfg.SpanSample = 1
	cfg.TelemetryOut = &tel
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&tel)
	if err != nil {
		t.Fatal(err)
	}

	roots := map[uint64]obs.Event{}         // request → root span
	members := map[uint64]map[uint64]bool{} // trace → span IDs
	var all []obs.Event
	for _, ev := range evs {
		if ev.Kind != obs.KindSpan {
			continue
		}
		if ev.Trace == 0 || ev.Span == 0 {
			t.Fatalf("span without identity: %+v", ev)
		}
		if members[ev.Trace] == nil {
			members[ev.Trace] = map[uint64]bool{}
		}
		if members[ev.Trace][ev.Span] {
			t.Fatalf("duplicate span ID %x in trace %x", ev.Span, ev.Trace)
		}
		members[ev.Trace][ev.Span] = true
		if ev.Parent == 0 {
			if _, dup := roots[ev.Req]; dup {
				t.Fatalf("request %d has two root spans", ev.Req)
			}
			roots[ev.Req] = ev
		}
		all = append(all, ev)
	}
	for _, ev := range all {
		if ev.Parent != 0 && !members[ev.Trace][ev.Parent] {
			t.Fatalf("span %x parented under %x, which is not in trace %x", ev.Span, ev.Parent, ev.Trace)
		}
	}

	if uint64(len(roots)) != res.Requests.Issued {
		t.Fatalf("%d root spans for %d issued requests", len(roots), res.Requests.Issued)
	}
	var okRoots uint64
	byStage := map[string]uint64{}
	for _, r := range roots {
		if r.OK {
			okRoots++
		} else {
			byStage[r.Stage]++
		}
	}
	if okRoots != res.Requests.Succeeded {
		t.Fatalf("%d OK roots vs %d succeeded requests", okRoots, res.Requests.Succeeded)
	}
	want := map[string]uint64{
		obs.StageDiscovery: res.Requests.DiscoveryFailed,
		obs.StageCompose:   res.Requests.ComposeFailed,
		obs.StageSelection: res.Requests.SelectionFailed,
		obs.StageAdmission: res.Requests.AdmissionFailed,
		obs.StageDeparture: res.Requests.DepartureFailed,
	}
	for stage, n := range want {
		if byStage[stage] != n {
			t.Errorf("%s: %d failed roots vs %d in RequestStats", stage, byStage[stage], n)
		}
	}
	if res.Sessions.Recoveries > 0 {
		sawRecovery := false
		for _, ev := range all {
			if ev.Stage == obs.StageRecovery {
				sawRecovery = true
				break
			}
		}
		if !sawRecovery {
			t.Error("sessions recovered but no recovery span was emitted")
		}
	}
}

// TestSpanSamplingIsDeterministicSubset: a fractional sample traces a
// strict, seed-determined subset of requests — rerunning yields the
// same subset, and every traced request still gets a complete tree
// (exactly one root).
func TestSpanSamplingIsDeterministicSubset(t *testing.T) {
	sampled := func() (map[uint64]bool, uint64) {
		var tel bytes.Buffer
		cfg := diffConfig(QSA, false)
		cfg.SpanSample = 0.5
		cfg.TelemetryOut = &tel
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadEvents(&tel)
		if err != nil {
			t.Fatal(err)
		}
		reqs := map[uint64]bool{}
		for _, ev := range evs {
			if ev.Kind == obs.KindSpan && ev.Parent == 0 {
				if reqs[ev.Req] {
					t.Fatalf("request %d has two roots", ev.Req)
				}
				reqs[ev.Req] = true
			}
		}
		return reqs, res.Requests.Issued
	}
	a, issued := sampled()
	b, _ := sampled()
	if len(a) == 0 || uint64(len(a)) == issued {
		t.Fatalf("half sampling traced %d of %d requests", len(a), issued)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampled request sets diverged between same-seed runs")
	}
}
