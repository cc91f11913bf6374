package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockPeriods(t *testing.T) {
	cases := []struct {
		hz     uint64
		period Time
	}{
		{3_200_000_000, 312_500}, // main core, Table I
		{2_000_000_000, 500_000}, // checker sweep points (Fig. 9)
		{1_000_000_000, 1_000_000},
		{500_000_000, 2_000_000},
		{250_000_000, 4_000_000},
		{125_000_000, 8_000_000},
	}
	for _, c := range cases {
		clk := NewClock(c.hz)
		if clk.Period != c.period {
			t.Errorf("NewClock(%d).Period = %d, want %d", c.hz, clk.Period, c.period)
		}
		if clk.Hz() != c.hz {
			t.Errorf("Hz() = %d, want %d", clk.Hz(), c.hz)
		}
	}
}

func TestClockCyclesRoundsUp(t *testing.T) {
	clk := NewClock(1_000_000_000) // 1 ns period
	if got := clk.Cycles(1); got != 1 {
		t.Errorf("Cycles(1fs) = %d, want 1", got)
	}
	if got := clk.Cycles(Nanosecond); got != 1 {
		t.Errorf("Cycles(1ns) = %d, want 1", got)
	}
	if got := clk.Cycles(Nanosecond + 1); got != 2 {
		t.Errorf("Cycles(1ns+1fs) = %d, want 2", got)
	}
	if got := clk.Cycles(0); got != 0 {
		t.Errorf("Cycles(0) = %d, want 0", got)
	}
}

func TestTimeStringUnits(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500fs"},
		{500 * Picosecond, "500ps"},
		{770 * Nanosecond, "770ns"},
		{21500 * Nanosecond, "21.5us"},
		{3 * Millisecond, "3ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// counter ticks n times at a fixed period then finishes.
type counter struct {
	period Time
	left   int
	ticks  []Time
}

func (c *counter) Tick(now Time) (Time, bool) {
	c.ticks = append(c.ticks, now)
	c.left--
	if c.left == 0 {
		return 0, true
	}
	return now + c.period, false
}

func TestEngineInterleavesClockDomains(t *testing.T) {
	e := NewEngine()
	fast := &counter{period: 1 * Nanosecond, left: 10}
	slow := &counter{period: 4 * Nanosecond, left: 3}
	e.Add(fast, 0)
	e.Add(slow, 0)
	e.Run(MaxTime)
	if len(fast.ticks) != 10 || len(slow.ticks) != 3 {
		t.Fatalf("ticks: fast %d, slow %d", len(fast.ticks), len(slow.ticks))
	}
	// Global time must be monotonic across the merged sequence.
	all := append(append([]Time{}, fast.ticks...), slow.ticks...)
	_ = all
	for i := 1; i < len(fast.ticks); i++ {
		if fast.ticks[i] != fast.ticks[i-1]+Nanosecond {
			t.Errorf("fast tick %d at %v", i, fast.ticks[i])
		}
	}
	if slow.ticks[1] != 4*Nanosecond {
		t.Errorf("slow tick 1 at %v", slow.ticks[1])
	}
}

func TestEngineDeterministicTieBreak(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			e.Add(tickFunc(func(now Time) (Time, bool) {
				order = append(order, i)
				return 0, true
			}), 100)
		}
		e.Run(MaxTime)
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] || a[i] != i {
			t.Fatalf("tie-break not deterministic/in-order: %v vs %v", a, b)
		}
	}
}

// funcTicker adapts a closure to Ticker. A pointer type is used because
// the engine keys tickers in a map, and func values are not comparable.
type funcTicker struct {
	f func(Time) (Time, bool)
}

func (t *funcTicker) Tick(now Time) (Time, bool) { return t.f(now) }

func tickFunc(f func(Time) (Time, bool)) *funcTicker { return &funcTicker{f} }

func TestEngineWake(t *testing.T) {
	e := NewEngine()
	var woke Time
	var sleeper Ticker
	sleeper = tickFunc(func(now Time) (Time, bool) {
		if woke == 0 {
			woke = now
			return 0, true
		}
		return MaxTime, false
	})
	e.Add(sleeper, MaxTime)
	e.Add(tickFunc(func(now Time) (Time, bool) {
		e.Wake(sleeper, now+5)
		return 0, true
	}), 10)
	e.Run(Time(1_000_000))
	if woke != 15 {
		t.Errorf("sleeper woke at %v, want 15", woke)
	}
}

// TestEngineParkedTickerNotTicked: a ticker registered at MaxTime, or
// that returns MaxTime, is never ticked, even by a run without a limit,
// until another ticker wakes it.
func TestEngineParkedTickerNotTicked(t *testing.T) {
	e := NewEngine()
	var parkedTicks, selfTicks []Time
	parked := tickFunc(func(now Time) (Time, bool) {
		parkedTicks = append(parkedTicks, now)
		return MaxTime, false
	})
	self := tickFunc(func(now Time) (Time, bool) {
		selfTicks = append(selfTicks, now)
		return MaxTime, false
	})
	e.Add(parked, MaxTime)
	e.Add(self, 3)
	e.Add(&counter{period: 10, left: 5}, 0)
	e.Run(MaxTime)
	if len(parkedTicks) != 0 || len(selfTicks) != 1 || selfTicks[0] != 3 {
		t.Fatalf("before waking: parked ticked at %v, self-parked at %v; want never, once at 3", parkedTicks, selfTicks)
	}
	e.Add(tickFunc(func(now Time) (Time, bool) {
		e.Wake(parked, now+7)
		e.Wake(self, now+9)
		return 0, true
	}), 100)
	e.Run(MaxTime)
	if len(parkedTicks) != 1 || parkedTicks[0] != 107 || len(selfTicks) != 2 || selfTicks[1] != 109 {
		t.Errorf("after waking at 100: parked ticked at %v, self-parked at %v; want 107, 109", parkedTicks, selfTicks)
	}
}

// TestEngineWokenTickerWinsTie: a ticker woken to a time at which an
// already armed ticker is due runs first if it was registered first.
func TestEngineWokenTickerWinsTie(t *testing.T) {
	e := NewEngine()
	var order []string
	sleeper := tickFunc(func(now Time) (Time, bool) {
		order = append(order, fmt.Sprintf("sleeper@%d", now))
		return MaxTime, false
	})
	e.Add(sleeper, MaxTime)
	e.Add(tickFunc(func(now Time) (Time, bool) {
		order = append(order, fmt.Sprintf("armed@%d", now))
		return now + 10, now >= 30
	}), 10)
	e.Add(tickFunc(func(now Time) (Time, bool) {
		e.Wake(sleeper, 20)
		return 0, true
	}), 5)
	e.Run(MaxTime)
	want := "armed@10 sleeper@20 armed@20 armed@30"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order %q, want %q", got, want)
	}
}

func TestEngineRespectsLimit(t *testing.T) {
	e := NewEngine()
	c := &counter{period: Nanosecond, left: 1 << 30}
	e.Add(c, 0)
	end := e.Run(10 * Nanosecond)
	if end > 10*Nanosecond {
		t.Errorf("engine ran past limit: %v", end)
	}
	if len(c.ticks) == 0 || len(c.ticks) > 11 {
		t.Errorf("tick count %d outside limit window", len(c.ticks))
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Min(1, 2) != 1 {
		t.Fatal("Max/Min broken")
	}
}

// TestEngineTimeMonotonic is a property test: with arbitrary positive
// periods, observed tick times never decrease.
func TestEngineTimeMonotonic(t *testing.T) {
	f := func(periods [4]uint16) bool {
		e := NewEngine()
		var seq []Time
		for _, p := range periods {
			period := Time(int64(p%1000) + 1)
			c := 5
			e.Add(tickFunc(func(now Time) (Time, bool) {
				seq = append(seq, now)
				c--
				return now + period, c == 0
			}), 0)
		}
		e.Run(MaxTime)
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStop: Run returns right after the activation that calls
// Stop, at that activation's time, and the next Run continues the same
// schedule: the activations of the stopped runs, concatenated, are
// those of one uninterrupted run.
func TestEngineStop(t *testing.T) {
	type run struct {
		end  Time
		last string // the run's final activation
	}
	activations := func(stopAt map[Time]bool) (log []string, runs []run) {
		e := NewEngine()
		for _, c := range []struct {
			name   string
			period Time
		}{{"a", 3}, {"b", 5}} {
			c, left := c, 6
			e.Add(tickFunc(func(now Time) (Time, bool) {
				log = append(log, fmt.Sprintf("%s@%d", c.name, now))
				if c.name == "b" && stopAt[now] {
					e.Stop()
				}
				left--
				return now + c.period, left == 0
			}), 0)
		}
		for {
			n := len(log)
			end := e.Run(MaxTime)
			if len(log) == n {
				return log, runs
			}
			runs = append(runs, run{end, log[len(log)-1]})
		}
	}
	want, _ := activations(nil)
	got, runs := activations(map[Time]bool{5: true, 15: true})
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("stopped runs activated %v, want %v", got, want)
	}
	// At 15, a (registered first) runs before b, so b's activation is
	// the last of the second run.
	wantRuns := []run{{5, "b@5"}, {15, "b@15"}, {25, "b@25"}}
	if fmt.Sprint(runs) != fmt.Sprint(wantRuns) {
		t.Errorf("runs ended %v, want %v", runs, wantRuns)
	}
}
