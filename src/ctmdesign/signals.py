"""Traffic-signal schedules.

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

``SimulationEngine.signal_table`` evaluates this closed form over arrays
of schedules and steps; ``tests/reference.py`` holds the scalar oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SignalSchedule"]


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
    v_real: float = 50.0 / 3.6
    t_safe: int = 2

    def __post_init__(self):
        if len(self.ccw) != 4:
            raise ValueError("signal schedule needs exactly four arms")
        if self.green < 1:
            raise ValueError("green duration must be at least one step")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")

