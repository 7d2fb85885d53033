package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// diffConfig is the differential suite's workload: small enough to run in
// -short mode, with nonzero churn so the epoch cache is invalidated
// mid-run and the TTL horizon actually bites.
func diffConfig(alg Algorithm, disable bool) Config {
	cfg := DefaultConfig(7, alg, 350)
	cfg.RequestRate = 30
	cfg.ChurnRate = 10
	cfg.Duration = 8
	cfg.DisableCaches = disable
	return cfg
}

// TestCachesAreInvisible is the performance plane's determinism contract:
// for every algorithm, a run with the epoch-keyed lookup cache and the
// compatibility memo enabled must be byte-identical — request outcomes,
// ψ, the ψ time series, and the full telemetry event stream — to the same
// seed run with both disabled. Only routing statistics (hop counts, cache
// hit counters) may differ.
func TestCachesAreInvisible(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			var cachedTel, plainTel bytes.Buffer

			cfgCached := diffConfig(alg, false)
			cfgCached.TelemetryOut = &cachedTel
			cached, err := Run(cfgCached)
			if err != nil {
				t.Fatal(err)
			}

			cfgPlain := diffConfig(alg, true)
			cfgPlain.TelemetryOut = &plainTel
			plain, err := Run(cfgPlain)
			if err != nil {
				t.Fatal(err)
			}

			if cached.Requests != plain.Requests {
				t.Fatalf("RequestStats diverged:\ncached: %+v\nplain:  %+v", cached.Requests, plain.Requests)
			}
			if cached.Psi != plain.Psi {
				t.Fatalf("ψ diverged: %+v vs %+v", cached.Psi, plain.Psi)
			}
			if !reflect.DeepEqual(cached.Series, plain.Series) {
				t.Fatalf("ψ series diverged:\ncached: %+v\nplain:  %+v", cached.Series, plain.Series)
			}
			if cached.Sessions != plain.Sessions {
				t.Fatalf("session counters diverged: %+v vs %+v", cached.Sessions, plain.Sessions)
			}
			if cached.AliveAtEnd != plain.AliveAtEnd {
				t.Fatalf("population diverged: %d vs %d", cached.AliveAtEnd, plain.AliveAtEnd)
			}
			if !bytes.Equal(cachedTel.Bytes(), plainTel.Bytes()) {
				t.Fatalf("telemetry streams diverged (%d vs %d bytes)", cachedTel.Len(), plainTel.Len())
			}
			// The caches must actually have been exercised for the
			// comparison to mean anything.
			if cached.Lookup.CacheHits == 0 {
				t.Fatal("cached run recorded zero discovery-cache hits")
			}
			if plain.Lookup.CacheHits != 0 || plain.Lookup.CacheMisses != 0 {
				t.Fatalf("disabled-cache run counted cache traffic: %+v", plain.Lookup)
			}
			// Churn must have bumped the epoch past the initial joins, or
			// the invalidation path went untested.
			if cached.Lookup.Epoch == plain.Lookup.Epoch {
				// Same workload, same mutations — epochs agree; just make
				// sure there were plenty.
				if cached.Lookup.Epoch < uint64(cfgCached.Peers) {
					t.Fatalf("suspiciously few epoch bumps: %d", cached.Lookup.Epoch)
				}
			}
		})
	}
}

// TestSameSeedSameResult pins plain determinism under the performance
// plane: two identical cached runs replay byte-identically.
func TestSameSeedSameResult(t *testing.T) {
	var telA, telB bytes.Buffer
	cfgA := diffConfig(QSA, false)
	cfgA.TelemetryOut = &telA
	a, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := diffConfig(QSA, false)
	cfgB.TelemetryOut = &telB
	b, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests || a.Psi != b.Psi || a.Lookup != b.Lookup {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", a.Requests, b.Requests)
	}
	if !bytes.Equal(telA.Bytes(), telB.Bytes()) {
		t.Fatal("same-seed telemetry streams diverged")
	}
}

// BenchmarkSimMinute measures one simulated minute of the paper's
// workload at small scale — the end-to-end number the performance plane
// optimizes.
func BenchmarkSimMinute(b *testing.B) {
	cfg := DefaultConfig(3, QSA, 400)
	cfg.RequestRate = 60
	cfg.ChurnRate = 4
	cfg.RegistryRefresh = 5 // explicit: the ticker below needs a period
	cfg.Duration = 1e9      // the loop below decides when to stop
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	engine := s.Engine()
	refresh := engine.Every(cfg.RegistryRefresh, cfg.RegistryRefresh, func() {
		s.refreshRegistrations(engine.Now())
	})
	defer refresh.Cancel()
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.scheduleRequests(now)
		s.scheduleChurn(now)
		now++
		engine.RunUntil(now)
	}
}

// TestMillionPeer exercises the 10⁶-peer scale target: the flat slab
// topology, bulk DHT join, and the event engine must complete a short
// churned workload without blowing memory or time budgets, and churn's
// half/half split must keep the population stationary. Skipped in -short
// mode; the full (race-free) suite runs it.
func TestMillionPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("million-peer run is for the full suite")
	}
	cfg := DefaultConfig(5, QSA, 1_000_000)
	cfg.RequestRate = 20
	cfg.ChurnRate = 4
	cfg.Duration = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests.Issued == 0 {
		t.Fatal("no requests issued at 10⁶ peers")
	}
	if res.AliveAtEnd < 999_000 {
		t.Fatalf("population collapsed: %d alive", res.AliveAtEnd)
	}
}
