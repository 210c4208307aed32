// Package sim implements a cooperative discrete-event simulation kernel with
// SystemC 2.0 semantics: simulation processes (threads and methods), events
// with immediate, delta and timed notification, delta cycles, and signals
// with separate evaluate and update phases.
//
// The kernel is the substrate on which the generic RTOS model of package rtos
// is built. Exactly one simulation process executes at any instant; the
// kernel hands control to processes one at a time, so model code never needs
// synchronization and every simulation run is deterministic.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time or a duration, in picoseconds.
//
// Picosecond resolution matches the default resolution of SystemC and leaves
// ample headroom: the int64 range covers about 106 days of simulated time.
// The RTOS model never quantizes time to a clock, so preemption instants are
// exact at this resolution.
type Time int64

// Convenient duration units. Multiply: 10*sim.Us is ten microseconds.
const (
	Ps  Time = 1
	Ns  Time = 1000 * Ps
	Us  Time = 1000 * Ns
	Ms  Time = 1000 * Us
	Sec Time = 1000 * Ms
)

// TimeMax is the largest representable simulation time.
const TimeMax Time = 1<<63 - 1

// String renders the time with the coarsest unit that divides it exactly,
// falling back to a fractional representation in the most readable unit.
func (t Time) String() string {
	if t == 0 {
		return "0s"
	}
	if t == -1<<63 {
		// -t would overflow; no physical time is ever this value.
		return "-9223372036854775808ps"
	}
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	type unit struct {
		div  Time
		name string
	}
	units := []unit{{Sec, "s"}, {Ms, "ms"}, {Us, "us"}, {Ns, "ns"}}
	// Exact integral representation in a unit of at least a nanosecond.
	for _, u := range units {
		if t%u.div == 0 {
			return fmt.Sprintf("%s%d%s", neg, t/u.div, u.name)
		}
	}
	if t < Ns {
		return fmt.Sprintf("%s%dps", neg, t)
	}
	// Fractional: the largest unit not exceeding t.
	for _, u := range units {
		if t >= u.div {
			return fmt.Sprintf("%s%g%s", neg, float64(t)/float64(u.div), u.name)
		}
	}
	return fmt.Sprintf("%s%dps", neg, t)
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Sec) }

// Microseconds returns the time as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Us) }

// Scale multiplies a duration by a dimensionless factor, rounding to the
// nearest picosecond. It is useful in user overhead formulas.
func (t Time) Scale(f float64) Time { return Time(math.Round(float64(t) * f)) }

// AddSat returns a+b saturated at TimeMax; both operands must be
// non-negative. It serves wherever "now + duration" could wrap past TimeMax
// (RunFor, NotifyIn, timed waits, cross-shard promises).
func AddSat(a, b Time) Time {
	if s := a + b; s >= a {
		return s
	}
	return TimeMax
}
