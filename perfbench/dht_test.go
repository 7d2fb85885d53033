package main

import (
	"testing"
)

// TestTracedSimReplaysUntraced is the traced run's contract: the timing
// decorator (which must forward JoinBulk and Stabilize), the metrics
// registry and the profiler leave every output of the seed unchanged.
func TestTracedSimReplaysUntraced(t *testing.T) {
	plain, err := simOnce(replayGrid, 7, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	lp := &layerProbe{}
	traced, err := simOnce(replayGrid, 7, lp, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.fingerprint != traced.fingerprint {
		t.Fatalf("traced fingerprint %016x, untraced %016x:\n%+v\n%+v",
			traced.fingerprint, plain.fingerprint, traced.res.Requests, plain.res.Requests)
	}
	if bad := checkSimResult(plain.res); len(bad) > 0 {
		t.Fatal(bad)
	}
	d := lp.dht
	if d.joinBulk <= 0 || d.stabilize <= 0 {
		t.Fatalf("decorator saw no bulk join (%v) or stabilization (%v)", d.joinBulk, d.stabilize)
	}
	if d.gets == 0 || d.updates == 0 || d.churns == 0 {
		t.Fatalf("decorator counted %d gets, %d updates, %d churn calls", d.gets, d.updates, d.churns)
	}
	if lp.reg.Counter("compose.runs").Value() == 0 {
		t.Fatal("metrics registry not wired")
	}
	if plain.res.Requests.Issued != uint64(len(plain.gaps)) {
		t.Fatalf("%d requests issued, %d request gaps timed", plain.res.Requests.Issued, len(plain.gaps))
	}
}

func TestSimFingerprintSeesEveryOutput(t *testing.T) {
	r, err := simOnce(replayGrid, 3, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	base := simFingerprint(r.res)
	for name, mutate := range map[string]func(){
		"requests": func() { r.res.Requests.Succeeded++ },
		"probes":   func() { r.res.Probes.Probes++ },
		"lookup":   func() { r.res.Lookup.TotalHops++ },
		"psi":      func() { r.res.Psi.Failure++ },
	} {
		saved := *r.res
		mutate()
		if simFingerprint(r.res) == base {
			t.Errorf("fingerprint ignores %s", name)
		}
		*r.res = saved
	}
}

func TestCheckSimResultCatchesLostRequests(t *testing.T) {
	r, err := simOnce(replayGrid, 3, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	r.res.Requests.Issued++
	if len(checkSimResult(r.res)) == 0 {
		t.Fatal("an unaccounted request passed the check")
	}
	r.res.Requests.Issued--
	r.res.Sessions.Admitted++
	if len(checkSimResult(r.res)) == 0 {
		t.Fatal("an admitted session with no outcome passed the check")
	}
}

func TestReplayCheckPassesAndSubSeedsDiffer(t *testing.T) {
	bad, err := replayCheck(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatal(bad)
	}
	a, err := simOnce(replayGrid, subSeed(5, 0), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simOnce(replayGrid, subSeed(5, 1), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint == b.fingerprint {
		t.Fatal("two sub-seeds of one run simulated the same grid")
	}
	if subSeed(5, 15) == subSeed(6, 0) {
		t.Fatal("sub-seeds of different seeds collide")
	}
}
