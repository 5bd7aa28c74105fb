import dataclasses
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmdesign.config import Scenario
from ctmdesign.network import Route
from ctmdesign.signals import SignalSchedule
from reference import advance_signal, signal_la, signal_phase


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
    ccw = sched().ccw
    assert {ccw[0], ccw[2]}.isdisjoint({ccw[1], ccw[3]})


# ---------------------------------------------------------------------------
# the engine's closed-form LA against the scalar oracle
# ---------------------------------------------------------------------------

URBAN = Scenario(json.loads(resources.files("ctmdesign.scenarios")
                            .joinpath("urban.json").read_text()))
ENGINE = URBAN.engine


@st.composite
def programs(draw):
    """One replicate's programs: every signalized urban node reprogrammed."""
    return {v: dataclasses.replace(
                base, green=draw(st.integers(1, 120)), shift=draw(st.integers(0, 120)),
                t_safe=draw(st.integers(0, 5)), t_real=draw(st.floats(0.5, 5.0)),
                a_real=draw(st.floats(0.1, 5.0)), v_real=draw(st.floats(1.0, 40.0)))
            for v, base in URBAN.signals.items()}


def oracle_la(progs, t):
    """Per-route LA of one replicate from ``advance_signal``, 1 off signals."""
    la = np.ones(ENGINE.network.n_routes)
    for v, base in URBAN.signals.items():
        sched = progs[v] if progs and v in progs else base
        for route, value in advance_signal(sched, t, via=v).la.items():
            la[ENGINE.network.route_index[route]] = value
    return la


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("batch", [None, 2, 7])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), ts=st.lists(st.integers(0, 2000), min_size=1, max_size=4))
def test_engine_la_equals_scalar_oracle(batch, data, ts):
    if batch is None:
        progs = data.draw(programs())
        want = [oracle_la(progs, t) for t in ts]
    else:
        # a mixed-program batch; None rows keep the default schedules
        progs = data.draw(st.lists(st.one_of(st.none(), programs()),
                                   min_size=batch, max_size=batch))
        # route-major: column j is replicate j
        want = [np.array([oracle_la(p, t) for p in progs]).T for t in ts]
    for t, la in zip(ts, want):
        assert_same_bits(signal_la(ENGINE, t, progs), la)
    # a table over several steps holds the same rows as one-step tables
    table = ENGINE.signal_table(progs, ts)
    for k, t in enumerate(ts):
        assert_same_bits(table[k], ENGINE.signal_table(progs, (t,))[0])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(progs=programs(), t=st.integers(0, 20000))
def test_engine_la_on_signal_periods_with_a_long_common_cycle(progs, t):
    # greens 89 and 97: periods 178 and 194, a common cycle of 17266 steps
    progs = {v: dataclasses.replace(p, green=g)
             for (v, p), g in zip(progs.items(), (89, 97))}
    assert_same_bits(signal_la(ENGINE, t, progs), oracle_la(progs, t))
