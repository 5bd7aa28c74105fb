"""Traffic-signal schedules and their per-step phase and ramp.

A signalized intersection alternates green between its two axes on a
fixed cycle of length 2 * green.  Axis I (arms at even counterclockwise
positions) is green while (t + shift) mod 2*green falls in the first
half-cycle, axis J in the second.  The shift displaces the whole cycle,
so a second intersection can run the same program offset in time.

After a switch to green, flow does not restart instantly: the speed
adjustment LA ramps from 0 to 1 as vehicles accelerate, delayed by a
safety/reaction time.  With ``t_switch`` steps elapsed since the last
switch (counted from 1, as if the schedule had been running forever),

    LA = clip((t_switch - t_safe) * t_real * a_real / v_real, 0, 1) * LS.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SignalSchedule", "signal_phase", "ramp_value"]


@dataclass(frozen=True)
class SignalSchedule:
    """Fixed-cycle program of one signalized intersection.

    ``ccw`` lists the four arms counterclockwise; arms at positions 0 and
    2 form axis I, positions 1 and 3 axis J.  ``green`` and ``shift`` are
    in time steps, ``a_real`` in m/s^2, ``v_real`` in m/s, ``t_real`` in
    seconds per step, ``t_safe`` in steps.
    """

    ccw: tuple
    green: int
    shift: int = 0
    t_real: float = 1.0
    a_real: float = 1.5
    v_real: float = 13.888888888888889
    t_safe: int = 2

    def __post_init__(self):
        if len(self.ccw) != 4:
            raise ValueError("signal schedule needs exactly four arms")
        if self.green < 1:
            raise ValueError("green duration must be at least one step")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")

    @property
    def axis_i(self):
        return frozenset((self.ccw[0], self.ccw[2]))

    @property
    def axis_j(self):
        return frozenset((self.ccw[1], self.ccw[3]))


def signal_phase(schedule, t):
    """(axis-I green flag, steps since last switch) at time t."""
    m = (t + schedule.shift) % (2 * schedule.green)
    return m < schedule.green, (m % schedule.green) + 1


def ramp_value(schedule, t_switch):
    """Acceleration ramp in [0, 1] after t_switch steps in the current state."""
    x = (t_switch - schedule.t_safe) * schedule.t_real * schedule.a_real / schedule.v_real
    return min(1.0, max(0.0, x))

