package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/chord"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simWorkload fixes one simulator scenario. Every parameter is a
// constant: the seed is the only input that varies between runs.
type simWorkload struct {
	peers    int
	rate     float64 // requests per simulated minute
	churn    float64 // peers arriving+leaving per simulated minute
	duration float64 // simulated minutes of workload (drain follows)
}

// simPaper is the paper's Fig. 5 point: 10⁴ peers, 1000 req/min, static
// topology, QSA. Request-heavy. It runs 15 simulated minutes rather than
// 30 so that a run holds four grids: the cost per request depends on
// the grid's ten random applications (one grid took 1.55× another's at
// 30 minutes), and four grids average out more of that (README.md).
var simPaper = simWorkload{peers: 10000, rate: 1000, duration: 15}

// replayGrid is a churned grid small enough to build and run twice in
// under a second: every run replays it to check that a seed's outputs
// are deterministic.
var replayGrid = simWorkload{peers: 400, rate: 60, churn: 20, duration: 4}

// subSeed is the simulator seed of a run's i-th build. Different builds
// of one run simulate different grids, so a run's cost is an average
// over several catalogs and topologies rather than one grid's luck.
func subSeed(seed uint64, i int) uint64 { return seed<<4 + uint64(i) }

const (
	// simSetups is how many simulators a phase builds at least, each
	// from its own sub-seed; setup_s is the median of their build times.
	simSetups = 15
	// simRepCost is the nominal seconds of one sim-paper build and run,
	// which sets how many runs a budget holds.
	simRepCost = 15
)

func runSimPaper(o opts) (*outcome, error) { return runSim(o, simPaper) }

func (w simWorkload) config(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(seed, sim.QSA, w.peers)
	cfg.RequestRate = w.rate
	cfg.ChurnRate = w.churn
	cfg.Duration = w.duration
	return cfg
}

// simRep is one simulator build and run. The simulator is single
// threaded: it is built and run on one locked OS thread, whose CPU time
// is the simulator's own work. That is the host time it takes on a core
// of its own; wall time on a shared machine adds whatever the host
// stole (README.md).
type simRep struct {
	setup        time.Duration // sim.New, thread CPU
	setupWall    time.Duration // sim.New, wall
	run          time.Duration // Simulator.Run, wall
	thread       time.Duration // Simulator.Run, thread CPU
	cpu          time.Duration // process CPU during Run, GC workers included
	simMinutes   float64       // virtual clock at the end of Run, drain included
	gaps         []float64     // host seconds between successive request issues
	runtimeDelta runtimeDelta  // Go runtime activity during Run
	res          *sim.Result
	fingerprint  uint64
	events       uint64
}

// simFingerprint hashes the outputs that must replay exactly per seed:
// request outcomes, probing work, DHT routing statistics and ψ.
func simFingerprint(r *sim.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v|%+v", r.Requests, r.Probes, r.Lookup, r.Psi)
	return h.Sum64()
}

// checkSimResult verifies that the run accounted for every request.
// Modelled rejections are outcomes, not failures; a request the
// accounting lost is.
func checkSimResult(r *sim.Result) []string {
	var bad []string
	q := r.Requests
	outcomes := q.DiscoveryFailed + q.ComposeFailed + q.SelectionFailed + q.AdmissionFailed + q.DepartureFailed + q.Succeeded
	if q.Issued == 0 {
		bad = append(bad, "no request issued")
	}
	if outcomes != q.Issued {
		bad = append(bad, fmt.Sprintf("%d requests issued but %d outcomes recorded", q.Issued, outcomes))
	}
	if r.Sessions.Admitted != q.Succeeded+q.DepartureFailed {
		bad = append(bad, fmt.Sprintf("%d sessions admitted but %d succeeded + %d departed",
			r.Sessions.Admitted, q.Succeeded, q.DepartureFailed))
	}
	if r.Psi.Success != q.Succeeded {
		bad = append(bad, fmt.Sprintf("ψ counts %d successes, requests %d", r.Psi.Success, q.Succeeded))
	}
	return bad
}

// layerProbe is the traced phase's instrumentation of one rep.
type layerProbe struct {
	dht     *timedDHT
	reg     *obs.Registry
	profile bytes.Buffer
}

// simOnce builds one simulator and, unless setupOnly, runs it. With lp
// non-nil the DHT goes through the timing decorator, the work counters
// are wired and the run is CPU-profiled.
func simOnce(w simWorkload, seed uint64, lp *layerProbe, setupOnly bool) (*simRep, error) {
	cfg := w.config(seed)
	rep := &simRep{}
	var last time.Time
	cfg.TraceSink = func(trace.Entry) {
		now := time.Now()
		rep.gaps = append(rep.gaps, now.Sub(last).Seconds())
		last = now
	}
	if lp != nil {
		lp.dht = newTimedDHT(registry.NewChordDHT(chord.Config{}))
		cfg.Registry.DHT = lp.dht
		lp.reg = obs.NewRegistry()
		cfg.Metrics = lp.reg
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	t0, c0 := time.Now(), threadCPU()
	s, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim.New: %w", err)
	}
	rep.setup, rep.setupWall = threadCPU()-c0, time.Since(t0)
	if setupOnly {
		return rep, nil
	}
	rep.gaps = make([]float64, 0, int(w.rate*w.duration*1.1)+16)
	runtime.GC()
	var watch *runtimeWatch
	if lp != nil {
		if err := pprof.StartCPUProfile(&lp.profile); err != nil {
			return nil, fmt.Errorf("CPU profile: %w", err)
		}
		watch = startRuntimeWatch()
	}
	cpu0, thread0 := processCPU(), threadCPU()
	t1 := time.Now()
	last = t1
	res := s.Run()
	rep.run = time.Since(t1)
	rep.thread = threadCPU() - thread0
	rep.cpu = processCPU() - cpu0
	if lp != nil {
		rep.runtimeDelta = watch.finish()
		pprof.StopCPUProfile()
	}
	rep.res = res
	rep.simMinutes = s.Engine().Now()
	rep.events = s.Engine().Executed()
	rep.fingerprint = simFingerprint(res)
	return rep, nil
}

// simPhase is one phase's reps — build and run, as many as the budget
// holds at simRepCost, at least one, rep i from sub-seed i — and the
// set-up times of all its builds: the reps' plus setup-only builds up to
// simSetups, so setup_s is a median of many. The rep count depends on
// the budget only, never on how fast this machine ran.
type simPhase struct {
	reps   []*simRep
	setups []float64   // thread CPU seconds of every build
	walls  []float64   // and their wall seconds
	steal  float64     // share of the machine's CPU the host stole; -1 unknown
	lp     *layerProbe // instrumentation of the last rep, traced phase only
}

func runSimPhase(w simWorkload, seed uint64, budget time.Duration, traced bool, gauge *speedGauge) (*simPhase, error) {
	ph := &simPhase{}
	steal := startSteal()
	gauge.sample()
	reps := max(1, int(budget.Seconds()/simRepCost+0.5))
	for i := 0; i < max(reps, simSetups); i++ {
		var lp *layerProbe
		if traced {
			lp = &layerProbe{}
		}
		setupOnly := i >= reps
		rep, err := simOnce(w, subSeed(seed, i), lp, setupOnly)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, rep.setup.Seconds())
		ph.walls = append(ph.walls, rep.setupWall.Seconds())
		if !setupOnly {
			ph.reps = append(ph.reps, rep)
			ph.lp = lp
		}
		gauge.sample()
	}
	ph.steal = steal.share()
	return ph, nil
}

// totals sums the phase's requests, Run wall and thread CPU seconds and
// process CPU seconds over its reps.
func (ph *simPhase) totals() (reqs, wall, thread, cpu float64) {
	for _, r := range ph.reps {
		reqs += float64(r.res.Requests.Issued)
		wall += r.run.Seconds()
		thread += r.thread.Seconds()
		cpu += r.cpu.Seconds()
	}
	return reqs, wall, thread, cpu
}

// metrics reports the phase's set-up time and its throughput and CPU per
// request over all its reps' requests.
func (ph *simPhase) metrics() map[string]float64 {
	var p50, p99 []float64
	for _, r := range ph.reps {
		p50 = append(p50, 1e3*quantile(r.gaps, 0.50))
		p99 = append(p99, 1e3*quantile(r.gaps, 0.99))
	}
	reqs, _, thread, cpu := ph.totals()
	return map[string]float64{
		"setup_s":         median(ph.setups),
		"ops_per_s":       ratio(reqs, thread),
		"cpu_us_per_op":   1e6 * ratio(cpu, reqs),
		"latency.p50_ms":  median(p50),
		"latency.p99_ms":  median(p99),
		"mem.peak_rss_mb": peakRSSMB(),
	}
}

func runSim(o opts, w simWorkload) (*outcome, error) {
	out := newOutcome()
	budget := o.budget
	if o.trace {
		budget /= 2
	}
	gauge := newSpeedGauge()
	base, err := runSimPhase(w, o.seed, budget, false, gauge)
	if err != nil {
		return nil, err
	}
	phases := []*simPhase{base}
	if o.trace {
		traced, err := runSimPhase(w, o.seed, budget, true, gauge)
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
	}

	// Output checks: every rep accounts for its requests; a traced rep
	// replays the fingerprint of the untraced rep of its sub-seed; and
	// the small replay grid, built and run twice, replays itself.
	for _, ph := range phases {
		for i, r := range ph.reps {
			out.attempted += int64(r.res.Requests.Issued)
			bad := checkSimResult(r.res)
			if want := base.reps[i].fingerprint; r.fingerprint != want {
				bad = append(bad, fmt.Sprintf("sub-seed %d: fingerprint %016x differs from %016x", subSeed(o.seed, i), r.fingerprint, want))
			}
			if len(bad) > 0 {
				out.failed += int64(r.res.Requests.Issued)
			}
			for _, b := range bad {
				out.check(false, "%s", b)
			}
		}
	}
	replay, err := replayCheck(o.seed)
	if err != nil {
		return nil, err
	}
	for _, b := range replay {
		out.check(false, "replay grid: %s", b)
	}

	m := base.metrics()
	first := base.reps[0]
	var prints strings.Builder
	for i, r := range base.reps {
		fmt.Fprintf(&prints, " %d:%016x", subSeed(o.seed, i), r.fingerprint)
	}
	out.note("sim: %d peers, %.0f req/min, churn %.0f/min, %.0f min + drain to %.0f simulated min; %d reps, fingerprint by sub-seed:%s",
		w.peers, w.rate, w.churn, w.duration, first.simMinutes, len(base.reps), prints.String())
	reqs, wall, thread, cpu := base.totals()
	var perMin []float64
	var perRep strings.Builder
	for i, r := range base.reps {
		perMin = append(perMin, r.run.Seconds()/r.simMinutes)
		fmt.Fprintf(&perRep, " %d:%.1f", subSeed(o.seed, i), 1e6*r.thread.Seconds()/float64(r.res.Requests.Issued))
	}
	out.note("Run over %.0f requests: thread CPU %.3f us/req (ops_per_s), process CPU %.3f us/req (cpu_us_per_op); wall: sim.host_us_per_req %.3f us, sim.host_ms_per_sim_min %.3f ms; host steal %.1f%% of the machine's CPU",
		reqs, 1e6*ratio(thread, reqs), 1e6*ratio(cpu, reqs), 1e6*ratio(wall, reqs), 1e3*median(perMin), 100*base.steal)
	out.note("thread CPU us/req as measured, by sub-seed:%s", perRep.String())
	out.note("first rep: requests %d  ψ %.4f  request-gap samples %d", first.res.Requests.Issued, first.res.Psi.Value(), len(first.gaps))
	out.note("%d setup builds: thread CPU seconds in build order %s; quartiles %.4f / %.4f / %.4f; median wall %.4f", len(base.setups), fmt.Sprintf("%.3f", base.setups),
		quantile(base.setups, 0.25), quantile(base.setups, 0.5), quantile(base.setups, 0.75), median(base.walls))
	out.note("request gaps: latency.p50_ms %.4f  latency.p99_ms %.4f  mem.peak_rss_mb %.1f", m["latency.p50_ms"], m["latency.p99_ms"], m["mem.peak_rss_mb"])
	out.note("first rep: requests %+v sessions %+v", first.res.Requests, first.res.Sessions)
	speed := gauge.speed()
	out.note("host speed %.4f of the reference (refUnit thread CPU seconds %s): at reference speed setup_s %.4f, ops_per_s %.2f, cpu_us_per_op %.3f",
		speed, fmt.Sprintf("%.4f", gauge.samples), m["setup_s"]*speed, m["ops_per_s"]/speed, m["cpu_us_per_op"]*speed)
	if !o.trace {
		out.metrics = m
		atReferenceSpeed(out.metrics, speed)
		return out, nil
	}
	traced := phases[1]
	tm := traced.metrics()
	addOverhead(out, m, tm)
	for _, k := range []string{"latency.p50_ms", "latency.p99_ms", "mem.peak_rss_mb"} {
		out.metrics[k] = tm[k]
	}
	simLayers(out, traced)
	return out, nil
}

// replayCheck builds and runs replayGrid twice from the run's first
// sub-seed and returns what differs or fails the output check.
func replayCheck(seed uint64) ([]string, error) {
	var prints [2]uint64
	var bad []string
	for i := range prints {
		r, err := simOnce(replayGrid, subSeed(seed, 0), nil, false)
		if err != nil {
			return nil, err
		}
		prints[i] = r.fingerprint
		bad = append(bad, checkSimResult(r.res)...)
	}
	if prints[0] != prints[1] {
		bad = append(bad, fmt.Sprintf("fingerprint %016x, then %016x", prints[0], prints[1]))
	}
	return bad, nil
}

// simLayers fills the per-layer metrics from the traced phase's last rep.
func simLayers(out *outcome, ph *simPhase) {
	rep := ph.reps[len(ph.reps)-1]
	lp := ph.lp
	m := out.metrics
	m["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	d := lp.dht
	m["chord.join_bulk_s"] = d.joinBulk.Seconds()
	m["chord.stabilize_s"] = d.stabilize.Seconds()
	m["dht.get_calls"] = float64(d.gets)
	m["dht.get_us"] = 1e6 * ratio(d.getTime.Seconds(), float64(d.gets))
	m["dht.update_calls"] = float64(d.updates)
	m["dht.update_us"] = 1e6 * ratio(d.updateTime.Seconds(), float64(d.updates))
	m["dht.churn_us"] = 1e6 * ratio(d.churnTime.Seconds(), float64(d.churns))
	m["dht.hops_mean"] = rep.res.Lookup.MeanHops()

	c := func(name string) float64 { return float64(lp.reg.Counter(name).Value()) }
	issued := float64(rep.res.Requests.Issued)
	m["registry.cache_hit_ratio"] = ratio(c("discovery.cache_hits"), c("discovery.cache_hits")+c("discovery.cache_misses"))
	m["compose.relaxations_per_req"] = ratio(c("compose.relaxations"), issued)
	memoHits := c("compose.memo_feed_hits") + c("compose.memo_user_hits")
	memoAll := memoHits + c("compose.memo_feed_misses") + c("compose.memo_user_misses")
	m["compose.memo_hit_ratio"] = ratio(memoHits, memoAll)
	m["probe.probes_per_req"] = ratio(c("probe.probes"), issued)
	m["probe.evictions_per_req"] = ratio(c("probe.evictions"), issued)
	m["probe.cache_hit_ratio"] = ratio(c("probe.cache_hits"), c("probe.cache_hits")+c("probe.probes"))
	m["select.informed_ratio"] = ratio(c("select.informed"), c("select.steps"))
	m["session.admit_ratio"] = ratio(c("session.admitted"), c("session.admitted")+c("session.rejected"))
	m["eventsim.events"] = float64(rep.events)

	if att, err := attribute(lp.profile.Bytes(), simEntryPoints); err == nil {
		for name, v := range att {
			m[name] = v
		}
	} else {
		out.check(false, "profile: %v", err)
	}
	rt := rep.runtimeDelta
	m["runtime.gc_cpu_frac"] = rt.gcFrac()
	m["runtime.alloc_bytes_per_op"] = ratio(rt.allocBytes, issued)
	m["runtime.goroutines_max"] = float64(rt.goroutinesMax)
}
