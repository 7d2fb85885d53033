package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/load"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
)

// serve-udp's stack is the binary codec over UDP, with 64 admission
// workers and a 256-deep queue at the serving peer.
const (
	serveNetwork = "udp"
	serveCodec   = "binary"
	// nominalRate is serve-udp's constant arrival rate for p50/p99/CPU.
	nominalRate = 1000.0
	// maxOutstanding caps the generator's outstanding requests.
	maxOutstanding = 512
	// clientTimeout bounds one aggregate exchange.
	clientTimeout = 5 * time.Second
	// stepDuration is the length of one capacity-ladder step.
	stepDuration = 400 * time.Millisecond
	// setups is how many times each serving run starts its cluster;
	// setup_s is their median.
	setups = 15
	// nominalShare is the part of serve-udp's budget spent at the
	// nominal rate; the capacity climb follows.
	nominalShare = 1.0 / 6
	// stairShare is the part of the budget the staircase after the climb
	// takes, in steps of stepDuration.
	stairShare = 0.5
	// sampleEvery is how many ladder steps run between two samples of
	// the host's speed.
	sampleEvery = 8
)

// servingMix is the two-class serving mix: 70% disruption-tolerant
// batch at priority 0, 30% interactive at priority 2, 50 ms sessions.
var servingMix = load.Mix{
	{Name: "batch", Weight: 0.7, Services: []string{"work"}, MinRate: 10,
		Priority: 0, DTolerant: true, Duration: 50 * time.Millisecond},
	{Name: "interactive", Weight: 0.3, Services: []string{"work"}, MinRate: 10,
		Priority: 2, Duration: 50 * time.Millisecond},
}

// cluster is one serving peer plus two providers of "work", all in this
// process, and a client of the serving peer.
type cluster struct {
	peers     []*netproto.Peer
	srv       *netproto.Peer
	client    *netproto.Client
	reg       *obs.Registry // serving peer's metrics; nil untraced
	clientReg *obs.Registry
}

func (c *cluster) close() {
	if c.client != nil {
		c.client.Close()
	}
	for _, p := range c.peers {
		if err := p.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing a peer:", err)
		}
	}
}

// startCluster starts the peers, joins and provides, and returns once
// the serving peer has answered one aggregation with a provider chain.
func startCluster(traced bool) (*cluster, error) {
	c := &cluster{}
	if traced {
		c.reg, c.clientReg = obs.NewRegistry(), obs.NewRegistry()
	}
	srv, err := netproto.Start(netproto.Config{Listen: "127.0.0.1:0", Network: serveNetwork,
		CPU: 100, Memory: 100, RPCTimeout: 2 * time.Second,
		Admit: netproto.AdmitConfig{Workers: 64, MaxQueue: 256}, Metrics: c.reg})
	if err != nil {
		return nil, fmt.Errorf("start serving peer: %w", err)
	}
	c.srv = srv
	c.peers = append(c.peers, srv)
	for i := 0; i < 2; i++ {
		w, err := netproto.Start(netproto.Config{Listen: "127.0.0.1:0", Network: serveNetwork,
			CPU: 1e5, Memory: 1e5, RPCTimeout: 2 * time.Second})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start provider: %w", err)
		}
		c.peers = append(c.peers, w)
		if err := w.Join(srv.Addr()); err != nil {
			c.close()
			return nil, fmt.Errorf("join provider: %w", err)
		}
		in := &service.Instance{
			ID:      fmt.Sprintf("work#%d", i),
			Service: "work",
			Qin:     qos.MustVector(qos.Sym("format", "A"), qos.Range("rate", 0, 40)),
			Qout:    qos.MustVector(qos.Sym("format", "B"), qos.Range("rate", 20, 25)),
			R:       resource.Vec2(5, 5),
			OutKbps: 50,
		}
		if err := w.Provide(in); err != nil {
			c.close()
			return nil, fmt.Errorf("provide %s: %w", in.ID, err)
		}
	}
	c.client, err = netproto.NewClient(netproto.ClientConfig{Target: srv.Addr(), Network: serveNetwork,
		Codec: serveCodec, Timeout: clientTimeout, Metrics: c.clientReg})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("client: %w", err)
	}
	req := netproto.AggRequest{Services: []string{"work"}, MinRate: 10, Duration: 50 * time.Millisecond}
	for try := 0; try < 200; try++ {
		res, err := c.client.Aggregate(req)
		if err == nil && res.OK && len(res.Chain) > 0 {
			return c, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.close()
	return nil, errors.New("serving peer never answered an aggregation")
}

// setupCluster starts the cluster setups times, keeping the last, and
// returns the median process CPU seconds and wall seconds of a start.
// The wall time of a start is mostly waiting for wake-ups on loopback,
// which the host's scheduling sets: it drifted by a third over an hour
// of runs, so setup_s takes the CPU time.
func setupCluster(traced bool, gauge *speedGauge) (*cluster, float64, float64, error) {
	var cpus, walls []float64
	for i := 0; ; i++ {
		runtime.GC()
		t, c0 := time.Now(), processCPU()
		c, err := startCluster(traced)
		if err != nil {
			return nil, 0, 0, err
		}
		cpus = append(cpus, (processCPU() - c0).Seconds())
		walls = append(walls, time.Since(t).Seconds())
		if i == setups-1 {
			return c, median(cpus), median(walls), nil
		}
		c.close()
		gauge.sample()
	}
}

// servePhase is one measured pass over serve-udp.
type servePhase struct {
	m map[string]float64
	// cnt tallies the operations that count as attempted: the nominal
	// run and the ladder steps that passed. Sheds and generator drops are
	// the plane's designed refusals under load, not program failures: the
	// result's failed count takes errors and bad replies only, and
	// failed_frac (per-layer) takes all of them.
	cnt       counts
	beyond    counts // the ladder steps that failed: probes past capacity
	runs      []*genRun
	climb     []stepVerdict // the climb's steps
	stairs    []stepVerdict // and the staircase's
	climbCap  float64       // the climb's capacity
	rt        runtimeDelta  // traced phase only
	snapNom   obs.Snapshot  // serving peer's metrics at the end of the nominal run
	cliNom    obs.Snapshot  // and the client's
	snapAll   obs.Snapshot  // and at the end of the ladder
	c         *cluster
	problems  []string
	topped    bool    // the climb passed the ladder's top rung
	steal     float64 // share of the machine's CPU the host stole; -1 unknown
	setupWall float64 // median wall seconds of a cluster start
}

// checkRun is the serving output check of one open-loop run: every
// arrival has a known outcome (ok, shed, error or drop add up to the
// arrivals), and every OK reply names a provider chain.
func checkRun(r *genRun) []string {
	var bad []string
	var c counts
	c.add(r.arrivals)
	if n := c.unaccounted(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d arrivals at %.0f/s have no outcome", n, len(r.arrivals), r.rate))
	}
	if c.badOK > 0 {
		bad = append(bad, fmt.Sprintf("%d OK replies at %.0f/s named no provider chain", c.badOK, r.rate))
	}
	return bad
}

// runServePhase spends a sixth of the budget at the nominal rate, then
// climbs the capacity ladder once and runs the staircase from the rung
// the climb found. The capacity is the staircase's: a climb ends at its
// first rung that fails twice, which near capacity is a matter of luck
// with stalls (one run's eight climbs ended anywhere from 3122/s to
// 4249/s), while the staircase's median over dozens of steps settles.
func runServePhase(seed uint64, budget time.Duration, traced bool, gauge *speedGauge) (*servePhase, error) {
	gauge.sample()
	c, setup, setupWall, err := setupCluster(traced, gauge)
	if err != nil {
		return nil, err
	}
	defer c.close()
	ph := &servePhase{m: map[string]float64{"setup_s": setup}, c: c, setupWall: setupWall}
	steal := startSteal()
	gen := openLoop{caller: c.client, mix: servingMix, seed: seed, maxInFlight: maxOutstanding}
	var watch *runtimeWatch
	if traced {
		watch = startRuntimeWatch()
	}

	n := int(nominalRate * nominalShare * budget.Seconds())
	runtime.GC()
	cpu0 := processCPU()
	nom := gen.run(nominalRate, n, 0)
	cpu := processCPU() - cpu0
	ph.snapNom, ph.cliNom = c.reg.Snapshot(), c.clientReg.Snapshot()
	ph.problems = append(ph.problems, checkRun(nom)...)
	ph.runs = append(ph.runs, nom)
	ph.cnt.add(nom.arrivals)
	gauge.sample()
	var nc counts
	nc.add(nom.arrivals)
	ph.m["latency.p50_ms"], ph.m["latency.p99_ms"] = windowedLatency(nom.arrivals, int(nominalRate))
	ph.m["cpu_us_per_op"] = 1e6 * ratio(cpu.Seconds(), float64(nc.ok))

	first, ran := n, 0
	try := func(rate float64) stepVerdict {
		k := int(rate * stepDuration.Seconds())
		steal := startSteal()
		r := gen.run(rate, k, first)
		first += k
		ph.problems = append(ph.problems, checkRun(r)...)
		ph.runs = append(ph.runs, r)
		v := judgeStep(r)
		v.steal = steal.share()
		if v.ok {
			ph.cnt.add(r.arrivals)
		} else {
			ph.beyond.add(r.arrivals)
		}
		if ran++; ran%sampleEvery == 0 {
			gauge.sample()
		}
		return v
	}
	ph.climbCap, ph.topped, ph.climb = climb(try)
	capacity := ph.climbCap
	if capacity == 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("no ladder rate down to %.0f/s passed: %s",
			rungRate(ladderLow), ph.climb[len(ph.climb)-1].why))
	} else {
		n := int(stairShare * budget.Seconds() / stepDuration.Seconds())
		var stair float64
		stair, ph.stairs = staircase(rungOf(capacity), n, try)
		if stair > 0 {
			capacity = stair
		}
	}
	ph.m["ops_per_s"] = capacity
	ph.steal = steal.share()
	ph.snapAll = c.reg.Snapshot()
	if watch != nil {
		ph.rt = watch.finish()
	}
	ph.m["mem.peak_rss_mb"] = peakRSSMB()
	return ph, nil
}

// windowedLatency splits arrivals into consecutive windows of per
// arrivals (one second at the nominal rate) and returns the medians,
// over the windows, of each window's due-time p50 and p99 in ms. One
// stall then moves one window's p99, not the run's.
func windowedLatency(arr []arrival, per int) (p50, p99 float64) {
	var w50, w99 []float64
	for lo := 0; lo+per <= len(arr); lo += per {
		lat := dueLatencies(arr[lo:lo+per], clientTimeout)
		w50 = append(w50, 1e3*quantile(lat, 0.50))
		w99 = append(w99, 1e3*quantile(lat, 0.99))
	}
	return median(w50), median(w99)
}

// runServeUDP runs one untraced phase on the budget, or with --trace 1
// an untraced and then a traced phase on half the budget each.
func runServeUDP(o opts) (*outcome, error) {
	out := newOutcome()
	budget := o.budget
	if o.trace {
		budget /= 2
	}
	gauge := newSpeedGauge()
	base, err := runServePhase(o.seed, budget, false, gauge)
	if err != nil {
		return nil, err
	}
	phases := []*servePhase{base}
	if o.trace {
		tr, err := runServePhase(o.seed, budget, true, gauge)
		if err != nil {
			return nil, err
		}
		phases = append(phases, tr)
	}
	for _, ph := range phases {
		out.attempted += int64(ph.cnt.attempted)
		out.failed += int64(ph.cnt.err + ph.cnt.badOK + ph.cnt.unaccounted())
		for _, p := range ph.problems {
			out.check(false, "%s", p)
		}
	}
	describeServing(out, base)
	speed := gauge.speed()
	out.note("cluster start: process CPU %.6f s (setup_s), wall %.6f s (medians of %d)", base.m["setup_s"], base.setupWall, setups)
	out.note("host speed %.4f of the reference (refUnit thread CPU seconds %s): at reference speed setup_s %.6f, ops_per_s %.2f, cpu_us_per_op %.3f",
		speed, fmt.Sprintf("%.4f", gauge.samples), base.m["setup_s"]*speed, base.m["ops_per_s"]/speed, base.m["cpu_us_per_op"]*speed)
	if !o.trace {
		out.metrics = base.m
		atReferenceSpeed(out.metrics, speed)
		return out, nil
	}
	tr := phases[1]
	addOverhead(out, base.m, tr.m)
	if err := serveLayers(out, tr); err != nil {
		return nil, err
	}
	return out, nil
}

func describeServing(out *outcome, ph *servePhase) {
	nom := ph.runs[0]
	var c counts
	c.add(nom.arrivals)
	lat := dueLatencies(nom.arrivals, clientTimeout)
	out.note("serve.p50_ms %.4f  serve.p99_ms %.4f (medians over 1 s windows; over all %d samples: p50 %.4f, p99 %.4f)  serve.cpu_us_per_ok %.2f  serve.capacity_rps %.0f (staircase median; the climb found %.0f)  mem.peak_rss_mb %.1f",
		ph.m["latency.p50_ms"], ph.m["latency.p99_ms"], c.attempted, 1e3*quantile(lat, 0.5), 1e3*quantile(lat, 0.99),
		ph.m["cpu_us_per_op"], ph.m["ops_per_s"], ph.climbCap, ph.m["mem.peak_rss_mb"])
	out.note("nominal run: %d arrivals at %.0f/s: %d ok, %d shed, %d err, %d dropped; host steal over the phase %.1f%% of the machine's CPU",
		c.attempted, nom.rate, c.ok, c.shed, c.err, c.drop, 100*ph.steal)
	var b strings.Builder
	for _, s := range ph.climb {
		if s.ok {
			fmt.Fprintf(&b, " %.0f:ok(p99 %.1fms, steal %.1f%%)", s.rate, s.p99Ms, 100*s.steal)
		} else {
			fmt.Fprintf(&b, " %.0f:FAIL(%s, steal %.1f%%)", s.rate, s.why, 100*s.steal)
		}
	}
	out.note("ladder climb (%v steps):%s", stepDuration, b.String())
	if ph.topped {
		out.note("the climb passed the ladder's top rung (%.0f/s): ops_per_s is clipped there", rungRate(ladderTop))
	}
	b.Reset()
	for _, s := range ph.stairs {
		mark := "+"
		switch {
		case s.ok:
		case s.disturbed():
			mark = "~"
		default:
			mark = "-"
		}
		fmt.Fprintf(&b, " %.0f%s", s.rate, mark)
	}
	out.note("staircase (+ passed, - failed, ~ failed while the host stole over %.0f%%, not counted):%s", 100*stealLimit, b.String())
	out.note("failed ladder steps: %d arrivals, %d ok, %d shed, %d err, %d dropped",
		ph.beyond.attempted, ph.beyond.ok, ph.beyond.shed, ph.beyond.err, ph.beyond.drop)
}

// serveLayers fills the per-layer metrics from the traced phase: the
// pipeline split from the nominal run, whose latencies latency.p50_ms
// reports;
// admission over the whole run, ladder included, where it sheds.
func serveLayers(out *outcome, ph *servePhase) error {
	m := out.metrics
	nom, all := ph.snapNom, ph.snapAll
	csnap := ph.c.clientReg.Snapshot()
	counter := func(s obs.Snapshot, prefix, suffix string) float64 {
		total := 0.0
		for _, cv := range s.Counters {
			if strings.HasPrefix(cv.Name, prefix) && strings.HasSuffix(cv.Name, suffix) {
				total += float64(cv.Value)
			}
		}
		return total
	}
	lat := func(s obs.Snapshot, name string, q float64) float64 {
		for _, l := range s.Latencies {
			if l.Name == name {
				return l.Quantile(q)
			}
		}
		return 0
	}
	aggs := 0.0
	for _, l := range nom.Latencies {
		if l.Name == "agg.latency_seconds" {
			aggs = float64(l.Count)
		}
	}
	for _, st := range []string{obs.StageDiscovery, obs.StageCompose, obs.StageSelection, obs.StageAdmission} {
		m["agg."+st+"_p50_us"] = 1e6 * lat(nom, "agg.stage_seconds."+st, 0.5)
	}
	m["rpc.p50_us"] = 1e6 * lat(nom, "rpc.latency_seconds", 0.5)
	sent := counter(nom, "rpc.", ".sent")
	m["rpc.per_agg"] = ratio(sent, aggs)
	m["rpc.failed_frac"] = ratio(counter(nom, "rpc.", ".failed"), sent)
	m["wire.retransmits_per_agg"] = ratio(counter(nom, "wire.retransmits", ""), aggs)
	m["wire.bytes_per_agg"] = ratio(counter(nom, "wire.bytes_sent.", "")+counter(nom, "wire.bytes_recv.", ""), aggs)
	reuses := counter(all, "wire.conn_reuses", "") + counter(csnap, "wire.conn_reuses", "")
	dials := counter(all, "wire.conn_dials", "") + counter(csnap, "wire.conn_dials", "")
	m["wire.conn_reuse_ratio"] = ratio(reuses, reuses+dials)
	sheds := counter(all, "serve.shed.", "")
	m["admit.shed_frac"] = ratio(sheds, sheds+counter(all, "serve.admitted", ""))
	m["admit.queue_wait_p50_us"] = 1e6 * lat(all, "serve.queue_wait_seconds", 0.5)
	m["admit.queue_wait_p99_us"] = 1e6 * lat(all, "serve.queue_wait_seconds", 0.99)

	arrivals, maxInflight := 0, 0
	for _, r := range ph.runs {
		arrivals += len(r.arrivals)
		maxInflight = max(maxInflight, r.inflightMax)
	}
	for _, k := range []string{"latency.p50_ms", "latency.p99_ms", "mem.peak_rss_mb"} {
		m[k] = ph.m[k]
	}
	m["failed_frac"] = ratio(float64(ph.cnt.failed()), float64(ph.cnt.attempted))
	m["gen.lag_p99_ms"] = 1e3 * quantile(lags(ph.runs[0].arrivals), 0.99)
	m["gen.inflight_max"] = float64(maxInflight)
	m["runtime.gc_cpu_frac"] = ph.rt.gcFrac()
	m["runtime.alloc_bytes_per_op"] = ratio(ph.rt.allocBytes, float64(arrivals))
	m["runtime.goroutines_max"] = float64(ph.rt.goroutinesMax)
	// The RPCs an aggregation sends, per type: the client's aggregate
	// calls and the serving peer's calls to the providers.
	perAgg := map[string]float64{}
	var mix strings.Builder
	for _, s := range []obs.Snapshot{ph.cliNom, nom} {
		for _, cv := range s.Counters {
			typ, ok := strings.CutPrefix(cv.Name, "rpc.")
			if typ, ok = strings.CutSuffix(typ, ".sent"); ok && cv.Value > 0 {
				perAgg[typ] += ratio(float64(cv.Value), aggs)
			}
		}
	}
	for _, typ := range sortedKeys(perAgg) {
		fmt.Fprintf(&mix, " %s=%.2f", typ, perAgg[typ])
	}
	codec, err := codecCost(perAgg)
	if err != nil {
		return err
	}
	for name, v := range codec {
		m[name] = v
	}
	out.note("traced nominal run: %.0f aggregations; RPCs sent per aggregation, which weight the codec cost:%s", aggs, mix.String())
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
