package sim

import "math/bits"

// Ticker is a clocked component driven by the Engine. Tick is called once
// per scheduled activation with the current time; it returns the time of
// the component's next activation, or a time <= now wrapped as (next,
// false) semantics via the done flag:
//
//   - next > now, done == false: reschedule at next.
//   - done == true: the component has finished and is removed.
//
// A component that is stalled waiting for an event at a known future time
// simply returns that time; a component with nothing to do until another
// component wakes it returns MaxTime (it is parked and never ticked) and
// is later rescheduled with Engine.Wake.
type Ticker interface {
	Tick(now Time) (next Time, done bool)
}

// Engine drives a set of Tickers in global-time order. Systems have at
// most a dozen or so tickers (the main core and one per checker core),
// and most checkers sit parked at any moment, so the scheduler keeps the
// armed tickers — those whose next activation is before MaxTime — in a
// bit set indexed by registration order and scans only those for the
// minimum: no heap churn, no map lookups and no allocation on the
// per-tick fast path. Ties are broken by registration order so runs are
// deterministic.
type Engine struct {
	items []engineItem // every registered ticker, in registration order
	armed []uint64     // bit i set: items[i] is armed
	now   Time
	stop  bool
}

type engineItem struct {
	t    Ticker
	at   Time
	done bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Add registers a ticker whose first activation is at time at; at ==
// MaxTime registers it parked.
func (e *Engine) Add(t Ticker, at Time) {
	i := len(e.items)
	e.items = append(e.items, engineItem{t: t, at: at})
	if i%64 == 0 {
		e.armed = append(e.armed, 0)
	}
	if at < MaxTime {
		e.arm(i)
	}
}

func (e *Engine) arm(i int)    { e.armed[i/64] |= 1 << (i % 64) }
func (e *Engine) disarm(i int) { e.armed[i/64] &^= 1 << (i % 64) }

// Wake reschedules a registered ticker to run at time at if that is
// earlier than its currently scheduled activation, arming it if it was
// parked. Waking an unregistered or finished ticker is a no-op.
func (e *Engine) Wake(t Ticker, at Time) {
	for i := range e.items {
		if it := &e.items[i]; it.t == t {
			if !it.done && at < it.at {
				it.at = at
				e.arm(i)
			}
			return
		}
	}
}

// Stop makes Run return once the activation in progress finishes, at
// that activation's time. Every ticker keeps its schedule, so a later
// Run continues where this one stopped.
func (e *Engine) Stop() { e.stop = true }

// Run executes tickers in time order until no ticker is armed, the
// time limit (MaxTime for none) is exceeded or a ticker calls Stop. It
// returns the final simulation time.
func (e *Engine) Run(limit Time) Time {
	for {
		// Earliest activation, first-registered wins ties.
		best, at := -1, MaxTime
		for w, word := range e.armed {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				if a := e.items[i].at; a < at {
					best, at = i, a
				}
			}
		}
		if best < 0 || at > limit {
			return e.now
		}
		if at > e.now {
			e.now = at
		}
		next, done := e.items[best].t.Tick(e.now)
		// The Tick may have called Wake on other items, arming them;
		// e.items[best] itself is only rescheduled here.
		it := &e.items[best]
		switch {
		case done:
			it.done = true
			e.disarm(best)
		case next == MaxTime:
			it.at = MaxTime
			e.disarm(best)
		default:
			if next <= e.now {
				next = e.now + 1
			}
			it.at = next
		}
		if e.stop {
			e.stop = false
			return e.now
		}
	}
}
