package netem

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// Dynamics is a deterministic timeline of link-condition changes:
// rate/delay/loss steps, linear rate ramps and full outages. It is
// plain data — scenario specs compose timelines declaratively — and is
// realized on a concrete Link with Apply, which schedules every change
// through the simulation's own timer queue so runs stay reproducible
// for any seed and worker count.
//
// The measurement motivation: the paper's captures ran on live access
// networks whose conditions shift mid-session (cross traffic, Wi-Fi
// rate adaptation, DSLAM congestion). A frozen link can never force a
// strategy switch or merge ON-OFF cycles through a bursty-loss episode;
// a timeline can.
type Dynamics struct {
	Steps []Step
}

// Step is one scheduled change. Only the parameters whose Set* flag is
// true are touched, so a step can change rate, delay and loss together
// or independently. Outage > 0 blocks the link over [At, At+Outage)
// regardless of the other fields.
type Step struct {
	At time.Duration
	// Ramp > 0 interpolates the rate linearly from its current value to
	// Rate over [At, At+Ramp], discretized into rampTicks equal steps.
	// Ramping applies to the rate only; delay and loss always step.
	Ramp time.Duration

	SetRate bool
	Rate    Bandwidth

	SetDelay bool
	Delay    time.Duration

	SetLoss bool
	Loss    LossModel

	SetAqm bool
	Aqm    AqmConfig

	Outage time.Duration
}

// rampTicks is the fixed discretization of a ramp. A constant tick
// count (rather than a tick period) keeps the event schedule — and
// therefore every artifact — independent of the ramp duration's
// divisibility.
const rampTicks = 8

// RateStep returns a step changing the rate at t.
func RateStep(t time.Duration, r Bandwidth) Step {
	return Step{At: t, SetRate: true, Rate: r}
}

// RateRamp returns a step ramping the rate linearly to r over
// [t, t+ramp].
func RateRamp(t, ramp time.Duration, r Bandwidth) Step {
	return Step{At: t, Ramp: ramp, SetRate: true, Rate: r}
}

// DelayStep returns a step changing the propagation delay at t.
func DelayStep(t, d time.Duration) Step {
	return Step{At: t, SetDelay: true, Delay: d}
}

// LossStep returns a step switching to independent random loss at
// rate p at t.
func LossStep(t time.Duration, p float64) Step {
	return Step{At: t, SetLoss: true, Loss: RandomLoss{Rate: p}}
}

// AqmStep returns a step switching the link's queue policy at t (a
// fresh policy instance is built for the link when the step fires;
// AqmConfig{} restores drop-tail).
func AqmStep(t time.Duration, a AqmConfig) Step {
	return Step{At: t, SetAqm: true, Aqm: a}
}

// OutageStep returns a step blocking the link over [t, t+d).
func OutageStep(t, d time.Duration) Step {
	return Step{At: t, Outage: d}
}

// Empty reports whether the timeline has no steps.
func (d Dynamics) Empty() bool { return len(d.Steps) == 0 }

// Then appends steps and returns the extended timeline, for fluent
// composition in scenario specs.
func (d Dynamics) Then(steps ...Step) Dynamics {
	out := Dynamics{Steps: append(append([]Step(nil), d.Steps...), steps...)}
	return out
}

// Validate rejects timelines the scheduler could not realize.
func (d Dynamics) Validate() error {
	for i, st := range d.Steps {
		if st.At < 0 {
			return fmt.Errorf("dynamics step %d: negative time %v", i, st.At)
		}
		if st.Ramp < 0 || st.Outage < 0 {
			return fmt.Errorf("dynamics step %d: negative ramp/outage", i)
		}
		if st.SetRate && st.Rate <= 0 {
			// Rate 0 would make the link infinitely fast (TxTime treats
			// b <= 0 as "no serialization"); a dead link is an Outage.
			return fmt.Errorf("dynamics step %d: rate must be positive (use Outage to kill the link)", i)
		}
		if st.SetDelay && st.Delay < 0 {
			return fmt.Errorf("dynamics step %d: negative delay", i)
		}
		if st.SetAqm {
			if err := st.Aqm.Validate(); err != nil {
				return fmt.Errorf("dynamics step %d: %v", i, err)
			}
		}
	}
	return nil
}

// Apply schedules the timeline on l. Steps are sorted by time first so
// spec authors may list them in any order; ties keep their listed
// order. Steps whose time has already passed fire immediately.
// Apply panics on an invalid timeline — a spec bug, not a runtime
// condition.
func (d Dynamics) Apply(sch *sim.Scheduler, l *Link) {
	if err := d.Validate(); err != nil {
		panic("netem: " + err.Error())
	}
	steps := append([]Step(nil), d.Steps...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	ap := &applier{}
	for _, st := range steps {
		st := st
		at := st.At
		if now := sch.Now(); at < now {
			at = now
		}
		sch.At(at, func() { ap.applyStep(sch, l, st) })
	}
}

// applier carries the shared state of one realized timeline: rateEpoch
// counts rate events so that a ramp in progress yields to any later
// rate step instead of dragging the rate back with its queued ticks.
type applier struct {
	rateEpoch int
}

// applyStep realizes one step at its scheduled time.
func (ap *applier) applyStep(sch *sim.Scheduler, l *Link, st Step) {
	if st.Outage > 0 {
		l.SetBlocked(true)
		sch.After(st.Outage, func() { l.SetBlocked(false) })
	}
	if st.SetDelay {
		l.SetDelay(st.Delay)
	}
	if st.SetLoss {
		l.SetLoss(st.Loss)
	}
	if st.SetAqm {
		l.SetAQM(st.Aqm.New(l.QueueCap()))
	}
	if !st.SetRate {
		return
	}
	ap.rateEpoch++
	if st.Ramp <= 0 {
		l.SetRate(st.Rate)
		return
	}
	// Ramp: read the rate the link actually has when the ramp begins
	// (an earlier step may have changed it since Apply) and interpolate
	// in rampTicks equal increments, landing exactly on the target.
	// Each tick re-checks the epoch so a later rate event cancels the
	// remainder of the ramp.
	epoch := ap.rateEpoch
	from := l.Rate()
	for i := 1; i <= rampTicks; i++ {
		frac := float64(i) / rampTicks
		r := from + Bandwidth(frac)*(st.Rate-from)
		sch.After(time.Duration(frac*float64(st.Ramp)), func() {
			if ap.rateEpoch == epoch {
				l.SetRate(r)
			}
		})
	}
}
