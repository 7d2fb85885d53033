package eventsim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events ran out of submission order: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	e.At(2.5, func() {
		if e.Now() != 2.5 {
			t.Errorf("Now inside handler = %v", e.Now())
		}
	})
	e.Run()
	if e.Now() != 2.5 {
		t.Fatalf("final Now = %v", e.Now())
	}
}

func TestAfterRelative(t *testing.T) {
	e := New()
	var at Time
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := New()
	ran := false
	ev := e.At(1, func() { ran = true })
	ev.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
}

// TestCancelAfterExecutionInert: a handle kept past execution — or
// cancelled from inside its own handler — must be inert: Cancel neither
// reports the event cancelled nor suppresses the event that reuses its
// old heap slot.
func TestCancelAfterExecutionInert(t *testing.T) {
	e := New()
	var self *Event
	self = e.At(1, func() { self.Cancel() })
	first := e.At(2, func() {})
	e.RunUntil(2)
	ran := false
	e.At(3, func() { ran = true })
	first.Cancel()
	self.Cancel()
	e.Run()
	if !ran {
		t.Fatal("stale Cancel suppressed a later event")
	}
	if first.Cancelled() || self.Cancelled() {
		t.Fatal("executed events report Cancelled")
	}
	if e.Executed() != 3 {
		t.Fatalf("Executed = %d, want 3", e.Executed())
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := New()
	ran := false
	ev := e.At(2, func() { ran = true })
	e.At(1, func() { ev.Cancel() })
	e.Run()
	if ran {
		t.Fatal("event cancelled at t=1 still ran at t=2")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("ran %d events, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(got) != 5 {
		t.Fatalf("ran %d events after second RunUntil", len(got))
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want deadline 10", e.Now())
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	e := New()
	ran := false
	e.At(3, func() { ran = true })
	e.RunUntil(3)
	if !ran {
		t.Fatal("event exactly at the deadline must run")
	}
}

func TestTicker(t *testing.T) {
	e := New()
	var fires []Time
	tk := e.Every(1, 2, func() {
		fires = append(fires, e.Now())
	})
	e.RunUntil(7.5)
	tk.Cancel()
	e.RunUntil(20)
	want := []Time{1, 3, 5, 7}
	if len(fires) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("ticker fired at %v, want %v", fires, want)
		}
	}
}

func TestTickerSelfCancel(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.Every(1, 1, func() {
		count++
		if count == 3 {
			tk.Cancel()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times after self-cancel at 3", count)
	}
}

func TestExecutedCount(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	ev := e.At(9, func() {})
	ev.Cancel()
	e.Run()
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5 (cancelled events do not count)", e.Executed())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	ev := e.At(1, func() {})
	ev.Cancel()
	if e.Step() {
		t.Fatal("Step with only cancelled events returned true")
	}
}

// Property: for any multiset of timestamps, events execute in sorted order.
func TestPropertySortedExecution(t *testing.T) {
	check := func(raw []uint16) bool {
		e := New()
		var got []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, func() { got = append(got, at) })
		}
		e.Run()
		return sort.Float64sAreSorted(got) && len(got) == len(raw)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(0.5, recurse)
		}
	}
	e.At(0, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if e.Now() != 49.5 {
		t.Fatalf("Now = %v, want 49.5", e.Now())
	}
}
