import pytest

from ctmdesign.network import Route
from ctmdesign.signals import SignalSchedule, signal_phase
from reference import advance_signal


def sched(green=10, shift=0):
    return SignalSchedule(ccw=(13, 20, 15, 9), green=green, shift=shift,
                          t_real=2.88, v_real=50 / 3.6)


def test_axis_green_first_half_cycle():
    state = advance_signal(sched(green=10), t=5, via=14)
    # axis I = arms at even positions (13, 15) is green on the first half
    assert state.ls[Route(13, 14, 20)] == 1
    assert state.ls[Route(15, 14, 9)] == 1
    assert state.ls[Route(20, 14, 13)] == 0
    assert state.ls[Route(9, 14, 15)] == 0


def test_axis_swap_on_second_half_cycle():
    state = advance_signal(sched(green=10), t=15, via=14)
    assert state.ls[Route(13, 14, 20)] == 0
    assert state.ls[Route(20, 14, 13)] == 1


def test_la_zero_within_reaction_delay():
    # two steps after the switch the effective elapsed time is still zero
    state = advance_signal(sched(green=10), t=1, via=14)
    assert state.t_switch[Route(13, 14, 20)] == 2
    assert state.la[Route(13, 14, 20)] == 0.0


def test_la_ramp_value():
    # four steps into green: (4 - 2) * 2.88 * 1.5 / (50/3.6)
    state = advance_signal(sched(green=10), t=3, via=14)
    assert state.t_switch[Route(13, 14, 20)] == 4
    assert state.la[Route(13, 14, 20)] == pytest.approx(0.62208, abs=1e-5)
    # red approaches carry zero adjustment regardless of the ramp
    assert state.la[Route(9, 14, 13)] == 0.0


def test_la_saturates_at_one():
    state = advance_signal(sched(green=30), t=20, via=14)
    assert state.la[Route(13, 14, 20)] == 1.0


def test_signal_periodicity():
    s = sched(green=7, shift=3)
    for t in range(0, 60):
        a = advance_signal(s, t, via=14)
        b = advance_signal(s, t + 2 * 7, via=14)
        assert a.ls == b.ls
        assert a.la == b.la


def test_shift_displaces_cycle():
    base = sched(green=10, shift=0)
    shifted = sched(green=10, shift=4)
    for t in range(0, 40):
        g0, _ = signal_phase(base, t + 4)
        g1, _ = signal_phase(shifted, t)
        assert g0 == g1


def test_schedule_validation():
    with pytest.raises(ValueError):
        SignalSchedule(ccw=(1, 2, 3), green=10)
    with pytest.raises(ValueError):
        SignalSchedule(ccw=(1, 2, 3, 4), green=0)
    with pytest.raises(ValueError):
        advance_signal(sched(), -1)


def test_axes_disjoint():
    s = sched()
    assert s.axis_i.isdisjoint(s.axis_j)
