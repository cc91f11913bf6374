// Package sim provides the timing foundation shared by every component of
// the simulator: a femtosecond-resolution time type, clock-domain helpers,
// and a multi-clock ticker engine.
//
// The paper's system spans two clock domains (a 3.2 GHz out-of-order main
// core and checker cores at 125 MHz-2 GHz), so the simulation cannot be
// expressed in cycles of any single clock. All inter-component timestamps
// are sim.Time values in femtoseconds; each clocked component converts to
// and from its own cycle count via its Clock.
package sim

import "fmt"

// Time is an absolute simulation timestamp or a duration, in femtoseconds.
//
// Femtoseconds keep every realistic clock period integral: 3.2 GHz is
// 312,500 fs and 2 GHz is 500,000 fs, so no rounding error accumulates
// even over billions of cycles. An int64 holds about 2.5 hours of
// simulated time at this resolution, far beyond any run we model.
type Time int64

// Convenient duration units.
const (
	Femtosecond Time = 1
	Picosecond  Time = 1000 * Femtosecond
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit for human-readable logs.
func (t Time) String() string {
	switch {
	case t < Picosecond:
		return fmt.Sprintf("%dfs", int64(t))
	case t < Nanosecond:
		return fmt.Sprintf("%.3gps", float64(t)/float64(Picosecond))
	case t < Microsecond:
		return fmt.Sprintf("%.4gns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	default:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	}
}

// MaxTime is a sentinel "never" timestamp.
const MaxTime = Time(1<<63 - 1)

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Clock describes one clock domain.
type Clock struct {
	// Period is the duration of one cycle.
	Period Time
}

// NewClock builds a clock domain from a frequency in hertz. It panics if
// the frequency does not divide one second to an integral femtosecond
// period; every frequency used by the paper (125/250/500 MHz, 1/2/3.2 GHz)
// does.
func NewClock(hz uint64) Clock {
	const second = uint64(1e15) // femtoseconds
	if hz == 0 || second%hz != 0 {
		panic(fmt.Sprintf("sim: frequency %d Hz has a non-integral femtosecond period", hz))
	}
	return Clock{Period: Time(second / hz)}
}

// Hz reports the clock frequency in hertz.
func (c Clock) Hz() uint64 { return uint64(1e15) / uint64(c.Period) }

// Cycles converts a duration to a whole number of cycles, rounding up.
// A zero or negative duration is zero cycles.
func (c Clock) Cycles(d Time) int64 {
	if d <= 0 {
		return 0
	}
	return (int64(d) + int64(c.Period) - 1) / int64(c.Period)
}

// Duration converts a cycle count to a duration.
func (c Clock) Duration(cycles int64) Time { return Time(cycles) * c.Period }
