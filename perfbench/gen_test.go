package main

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/netproto"
)

// fakeClock is a deterministic clock: Sleep overshoots every wake-up by
// late, modelling a generator that the scheduler always runs late, and
// Go runs the request inline.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	late time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *fakeClock) Sleep(d time.Duration) { c.advance(d + c.late) }
func (c *fakeClock) Go(f func())           { f() }

// fakeCaller serves every request in service time on the fake clock,
// except that request stallAt takes stall instead.
type fakeCaller struct {
	clk     *fakeClock
	service time.Duration
	stallAt int
	stall   time.Duration
	calls   int
	reply   netproto.AggResult
}

func (f *fakeCaller) Aggregate(netproto.AggRequest) (*netproto.AggResult, error) {
	d := f.service
	if f.calls == f.stallAt {
		d = f.stall
	}
	f.calls++
	f.clk.advance(d)
	res := f.reply
	return &res, nil
}

func okReply() netproto.AggResult {
	return netproto.AggResult{OK: true, Chain: []string{"127.0.0.1:1"}}
}

func TestDueTimeLatencyCountsGeneratorLag(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0), late: 3 * ms}
	caller := &fakeCaller{clk: clk, service: 2 * ms, stallAt: -1, reply: okReply()}
	g := openLoop{caller: caller, mix: servingMix, seed: 1, maxInFlight: 8, clk: clk}
	r := g.run(100, 20, 0) // one arrival every 10 ms
	for i, a := range r.arrivals {
		if a.outcome != outOK {
			t.Fatalf("arrival %d: outcome %d", i, a.outcome)
		}
		if a.due != time.Duration(i)*10*ms {
			t.Fatalf("arrival %d due at %v", i, a.due)
		}
		// The first arrival is due at once and needs no sleep.
		wantLag := 3 * ms
		if i == 0 {
			wantLag = 0
		}
		if a.lag() != wantLag {
			t.Fatalf("arrival %d: lag %v, want %v", i, a.lag(), wantLag)
		}
		if a.latency() != wantLag+2*ms {
			t.Fatalf("arrival %d: due-time latency %v, want lag + service = %v", i, a.latency(), wantLag+2*ms)
		}
	}
}

func TestStallChargesLaterArrivals(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0)}
	// Request 3 stalls the (inline) generator for 35 ms, so requests 4–6,
	// due at 40, 50 and 60 ms, leave at 65, 67 and 69 ms: send-time
	// latency would report 2 ms for each, due-time latency reports the
	// wait the stall imposed on them.
	caller := &fakeCaller{clk: clk, service: 2 * ms, stallAt: 3, stall: 35 * ms, reply: okReply()}
	g := openLoop{caller: caller, mix: servingMix, seed: 1, maxInFlight: 8, clk: clk}
	r := g.run(100, 8, 0)
	want := []time.Duration{2 * ms, 2 * ms, 2 * ms, 35 * ms, 27 * ms, 19 * ms, 11 * ms, 3 * ms}
	wantLag := []time.Duration{0, 0, 0, 0, 25 * ms, 17 * ms, 9 * ms, ms}
	for i, a := range r.arrivals {
		if a.latency() != want[i] || a.lag() != wantLag[i] {
			t.Errorf("arrival %d: latency %v lag %v, want %v and %v", i, a.latency(), a.lag(), want[i], wantLag[i])
		}
	}
	lat := dueLatencies(r.arrivals, time.Second)
	if got := quantile(lat, 1); got != (35 * ms).Seconds() {
		t.Errorf("max due-time latency %v s, want 0.035", got)
	}
	if got := quantile(lags(r.arrivals), 1); got != (25 * ms).Seconds() {
		t.Errorf("max lag %v s, want 0.025", got)
	}
}

// blockingCaller holds every request until release is closed.
type blockingCaller struct {
	release chan struct{}
	reply   netproto.AggResult
}

func (b *blockingCaller) Aggregate(netproto.AggRequest) (*netproto.AggResult, error) {
	<-b.release
	res := b.reply
	return &res, nil
}

func TestOutstandingCapDropsAndAccountsEveryArrival(t *testing.T) {
	b := &blockingCaller{release: make(chan struct{}), reply: okReply()}
	g := openLoop{caller: b, mix: servingMix, seed: 1, maxInFlight: 5}
	done := make(chan *genRun)
	go func() { done <- g.run(10000, 50, 0) }()
	time.Sleep(50 * time.Millisecond) // every arrival is due within 5 ms
	close(b.release)
	r := <-done
	var c counts
	c.add(r.arrivals)
	if r.inflightMax != 5 || c.ok != 5 || c.drop != 45 {
		t.Fatalf("in-flight max %d, %d ok, %d dropped; want 5, 5, 45", r.inflightMax, c.ok, c.drop)
	}
	if c.unaccounted() != 0 || c.attempted != 50 {
		t.Fatalf("outcomes %+v do not add up to 50 attempted", c)
	}
	lat := dueLatencies(r.arrivals, time.Second)
	for i, a := range r.arrivals {
		if a.outcome == outDrop && lat[i] != 1 {
			t.Fatalf("dropped arrival %d has latency %v, want the failure latency", i, lat[i])
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		res  *netproto.AggResult
		err  error
		want int
	}{
		{&netproto.AggResult{OK: true, Chain: []string{"a"}}, nil, outOK},
		{&netproto.AggResult{OK: true}, nil, outBadOK},
		{&netproto.AggResult{Shed: true}, nil, outShed},
		{&netproto.AggResult{Err: "no path"}, nil, outErr},
		{nil, errTest, outErr},
	}
	for i, c := range cases {
		if got := classify(c.res, c.err); got != c.want {
			t.Errorf("case %d: %d, want %d", i, got, c.want)
		}
	}
}

type testErr struct{}

func (testErr) Error() string { return "test error" }

var errTest error = testErr{}

func TestWindowedLatencyIgnoresOneStalledWindow(t *testing.T) {
	ms := time.Millisecond
	var arr []arrival
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			lat := 2 * ms
			if w == 2 && i < 20 {
				lat = 300 * ms // one stalled window
			}
			if i == 99 {
				lat = 10 * ms
			}
			due := time.Duration(w*100+i) * ms
			arr = append(arr, arrival{due: due, sent: due, done: due + lat, outcome: outOK})
		}
	}
	p50, p99 := windowedLatency(arr, 100)
	if math.Abs(p50-2) > 1e-9 || p99 < 2 || p99 > 10 {
		t.Fatalf("windowed p50 %v ms, p99 %v ms; want 2 and at most 10", p50, p99)
	}
}

func TestCheckRunCatchesAnArrivalWithNoOutcome(t *testing.T) {
	for _, bad := range []int{outPending, 99} {
		r := fakeRun(2000, 800, func(int) time.Duration { return time.Millisecond },
			func(i int) int {
				if i == 123 {
					return bad // this arrival's call never recorded an outcome
				}
				return outOK
			})
		var c counts
		c.add(r.arrivals)
		if c.attempted != 800 || c.ok != 799 || c.unaccounted() != 1 || c.failed() != 1 {
			t.Errorf("outcome %d: counts %+v, want 799 ok and 1 unaccounted", bad, c)
		}
		if len(checkRun(r)) == 0 {
			t.Errorf("outcome %d: the output check passed an arrival with no outcome", bad)
		}
		if v := judgeStep(r); v.ok {
			t.Errorf("outcome %d: a ladder step with an unaccounted arrival passed", bad)
		}
	}
	clean := fakeRun(2000, 800, func(int) time.Duration { return time.Millisecond }, allOK)
	if p := checkRun(clean); len(p) != 0 {
		t.Fatalf("a clean run failed the output check: %v", p)
	}
}
