package main

import (
	"sync"
	"time"

	"repro/internal/load"
	"repro/internal/netproto"
)

// Outcomes of one generated arrival. The zero value is outPending, so
// an arrival whose outcome was never recorded is not counted as served.
const (
	outPending = iota // no outcome recorded
	outOK             // admitted end to end, with a provider chain
	outShed           // refused by the server's admission plane
	outErr            // transport or server error
	outDrop           // not sent: the outstanding cap was reached
	outBadOK          // claimed success without naming a provider chain
)

// arrival is one request of an open-loop run. Times are offsets from
// the run's start: due is when the schedule says it should be sent,
// sent when the generator got to it, done when the reply arrived.
type arrival struct {
	due, sent, done time.Duration
	outcome         int
}

// latency is the request's due-time latency: it includes any wait the
// generator imposed by running late, which send-time latency hides.
func (a arrival) latency() time.Duration { return a.done - a.due }

// lag is how late the generator sent the request.
func (a arrival) lag() time.Duration { return a.sent - a.due }

// clock abstracts time and concurrency so tests can drive the generator
// deterministically.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	Go(f func())
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }
func (realClock) Go(f func())           { go f() }

// openLoop sends n arrivals at a constant rate, never waiting on
// replies; at most maxInFlight are outstanding, and an arrival that
// finds them all busy is dropped, not delayed. Arrival i (counted from
// first) gets the request class mix.Pick(seed, i).
type openLoop struct {
	caller      load.Caller
	mix         load.Mix
	seed        uint64
	maxInFlight int
	clk         clock
}

// genRun is one open-loop run's record.
type genRun struct {
	rate        float64
	arrivals    []arrival
	inflightMax int
}

func (g openLoop) run(rate float64, n, first int) *genRun {
	clk := g.clk
	if clk == nil {
		clk = realClock{}
	}
	gap := time.Duration(float64(time.Second) / rate)
	r := &genRun{rate: rate, arrivals: make([]arrival, n)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	inflight := 0
	start := clk.Now()
	for i := 0; i < n; i++ {
		due := time.Duration(i) * gap
		if d := due - clk.Now().Sub(start); d > 0 {
			clk.Sleep(d)
		}
		a := &r.arrivals[i]
		a.due = due
		a.sent = clk.Now().Sub(start)
		mu.Lock()
		if inflight >= g.maxInFlight {
			mu.Unlock()
			a.done = a.sent
			a.outcome = outDrop
			continue
		}
		inflight++
		if inflight > r.inflightMax {
			r.inflightMax = inflight
		}
		mu.Unlock()
		cls := g.mix.Pick(g.seed, first+i)
		req := netproto.AggRequest{
			Services:  cls.Services,
			MinRate:   cls.MinRate,
			Priority:  cls.Priority,
			Deadline:  cls.Deadline.Seconds(),
			DTolerant: cls.DTolerant,
			Duration:  cls.Duration,
		}
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			res, err := g.caller.Aggregate(req)
			a.done = clk.Now().Sub(start)
			a.outcome = classify(res, err)
			mu.Lock()
			inflight--
			mu.Unlock()
		})
	}
	wg.Wait()
	return r
}

func classify(res *netproto.AggResult, err error) int {
	switch {
	case err != nil || res == nil:
		return outErr
	case res.OK && len(res.Chain) == 0:
		return outBadOK
	case res.OK:
		return outOK
	case res.Shed:
		return outShed
	default:
		return outErr
	}
}

// counts tallies the outcomes of a set of arrivals. An arrival still
// pending, or with an outcome outside the known set, lands in no bucket:
// it is attempted but unaccounted.
type counts struct {
	attempted, ok, shed, err, drop, badOK int
}

func (c *counts) add(arr []arrival) {
	for _, a := range arr {
		c.attempted++
		switch a.outcome {
		case outOK:
			c.ok++
		case outShed:
			c.shed++
		case outErr:
			c.err++
		case outDrop:
			c.drop++
		case outBadOK:
			c.badOK++
		}
	}
}

// unaccounted is how many arrivals have no known outcome.
func (c counts) unaccounted() int {
	return c.attempted - (c.ok + c.shed + c.err + c.drop + c.badOK)
}

// failed is every arrival that was not served: refused, failed, dropped,
// wrongly claimed or never accounted for.
func (c counts) failed() int { return c.attempted - c.ok }

// dueLatencies returns every arrival's due-time latency in seconds. A
// request that was not served counts as missing any latency limit: it
// takes failLatency.
func dueLatencies(arr []arrival, failLatency time.Duration) []float64 {
	out := make([]float64, len(arr))
	for i, a := range arr {
		if a.outcome == outOK {
			out[i] = a.latency().Seconds()
		} else {
			out[i] = failLatency.Seconds()
		}
	}
	return out
}

// lags returns how late the generator reached each arrival, in seconds.
func lags(arr []arrival) []float64 {
	out := make([]float64, 0, len(arr))
	for _, a := range arr {
		out = append(out, a.lag().Seconds())
	}
	return out
}
