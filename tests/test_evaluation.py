import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from ctmdesign.evaluation import (AvgNetworkFlow, AvgVelocity, BenchmarkSpec,
                                  Throughput, Utility, calibrate_threshold,
                                  sequential_mc)
from ctmdesign.network import FlowRecord


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def test_utility_point_values():
    assert Utility("expectile", c=60, alpha=0.1)(60.0) == 0.0
    assert Utility("sqrt")(4.0) == pytest.approx(2.0)
    assert Utility("polynomial", c=120, alpha=2)(100.0) == pytest.approx(-400.0)
    assert Utility("identity")(3.5) == 3.5


def test_utility_monotone_on_random_pairs():
    rng = np.random.default_rng(0)
    utilities = [Utility("identity"),
                 Utility("polynomial", c=2.0, alpha=1.5),
                 Utility("expectile", c=1.0, alpha=0.2),
                 Utility("sqrt")]
    for u in utilities:
        for _ in range(200):
            x = rng.random() * 5
            y = x + rng.random()
            assert u(y) >= u(x) - 1e-12


def test_utility_domain_and_parameter_checks():
    with pytest.raises(ValueError):
        Utility("sqrt")(-1.0)
    with pytest.raises(ValueError):
        Utility("polynomial", c=0, alpha=0.5)
    with pytest.raises(ValueError):
        Utility("expectile", c=0, alpha=0.9)


# ---------------------------------------------------------------------------
# performance measures
# ---------------------------------------------------------------------------

def record(q_out, q_net=None, q_aux=None):
    q_out = np.asarray(q_out, dtype=float)
    z = np.zeros_like(q_out)
    q_net = z if q_net is None else np.asarray(q_net, float)
    return FlowRecord(q_in=z, q_out=q_out, q_net=q_net,
                      env=None if q_aux is None else np.stack((q_aux, q_net)))


def test_avg_network_flow_constant():
    m = AvgNetworkFlow()
    for t in range(10):
        m(t, None, record([2.0]))
    assert m.value() == pytest.approx(2.0)


def test_throughput_zero_when_nothing_removed():
    m = Throughput([0, 1])
    for t in range(5):
        m(t, None, record([0, 0], q_net=[0.3, 0.2], q_aux=[0.5, 0.1]))
    assert m.value() == 0.0


def test_throughput_ratio():
    m = Throughput([0, 1])
    m(0, None, record([0, 0], q_net=[-1.0, 0.5], q_aux=[2.0, 0.5]))
    m(1, None, record([0, 0], q_net=[-0.5, -0.5], q_aux=[1.0, -3.0]))
    # removed = 1.0 + 0.5 + 0.5 = 2.0; attempted = 2.0 + 0.5 + 1.0 = 3.5
    assert m.value() == pytest.approx(2.0 / 3.5)


def test_avg_velocity_free_flow_limit():
    # q_out = a * rho on both routes -> summand a each, total 2a
    m = AvgVelocity([0, 1], free_flow=[1.0, 1.0])
    for t in range(7):
        rho = np.array([1.5, 0.6])
        m(t, rho, record(rho * 1.0))
    assert m.value() == pytest.approx(2.0)


def test_avg_velocity_empty_route_uses_free_flow_factor():
    m = AvgVelocity([0], free_flow=[0.8])
    m(0, np.array([0.0]), record([0.0]))
    assert m.value() == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# benchmark calibration
# ---------------------------------------------------------------------------

def test_beta_from_sigma_targets():
    assert BenchmarkSpec(60, 0.1).beta == pytest.approx(12.0)
    assert BenchmarkSpec(55, 0.15).beta == pytest.approx(5.055555555, abs=1e-8)
    assert BenchmarkSpec(50, 0.2).beta == pytest.approx(2.625)


def test_identity_threshold_is_benchmark_mean():
    for e in (60.0, 55.0, 50.0):
        gamma = calibrate_threshold(BenchmarkSpec(e, 0.1), Utility("identity"))
        assert gamma == pytest.approx(e, rel=1e-10)


def test_sqrt_threshold_matches_monte_carlo_oracle():
    bench = BenchmarkSpec(60, 0.1)
    gamma = calibrate_threshold(bench, Utility("sqrt"))
    rng = np.random.default_rng(123)
    draws = np.sqrt(reference.benchmark_sample(bench, rng, 10_000_000))
    mc = draws.mean()
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(gamma - mc) < 3 * se


def test_expectile_threshold_matches_monte_carlo_oracle():
    bench = BenchmarkSpec(55, 0.15)
    u = Utility("expectile", c=60, alpha=0.1)
    gamma = calibrate_threshold(bench, u)
    rng = np.random.default_rng(7)
    draws = u(reference.benchmark_sample(bench, rng, 10_000_000))
    mc = draws.mean()
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(gamma - mc) < 3 * se


def test_threshold_monotone_in_benchmark_mean():
    for u in (Utility("sqrt"), Utility("identity")):
        gammas = [calibrate_threshold(BenchmarkSpec(e, 0.15), u)
                  for e in (50, 55, 60)]
        assert gammas[0] < gammas[1] < gammas[2]


# ---------------------------------------------------------------------------
# sequential Monte Carlo
# ---------------------------------------------------------------------------

def test_sequential_mc_deterministic_stops_at_n_min():
    est = sequential_mc(lambda rngs: [3.0] * len(rngs), tau_target=0.1,
                        n_min=5, n_max=100,
                        rng=np.random.default_rng(0))
    assert est.n == 5
    assert est.mu_hat == 3.0
    assert est.tau_sq == 0.0


def test_sequential_mc_zero_target_runs_to_n_max():
    est = sequential_mc(lambda rngs: [g.standard_normal() for g in rngs],
                        tau_target=0.0, n_min=5, n_max=37, rng=np.random.default_rng(1))
    assert est.n == 37


def test_sequential_mc_stop_index_tracks_variance():
    # with per-draw variance v the stop index concentrates near v / tau^2
    v = 4.0
    tau = 0.25
    target_n = v / tau ** 2  # 64
    stops = []
    for i in range(100):
        est = sequential_mc(lambda rngs: [2.0 * g.standard_normal() for g in rngs],
                            tau_target=tau, n_min=2, n_max=100000,
                            rng=np.random.default_rng(1000 + i))
        stops.append(est.n)
    assert np.mean(stops) == pytest.approx(target_n, rel=0.2)


def test_sequential_mc_sandwich_invariant():
    rng_master = np.random.default_rng(5)
    for _ in range(50):
        n_min = int(rng_master.integers(2, 10))
        n_max = n_min + int(rng_master.integers(0, 50))
        tau = float(rng_master.random() * 0.5)
        est = sequential_mc(lambda rngs: [g.standard_normal() for g in rngs],
                            tau, n_min,
                            n_max, np.random.default_rng(rng_master.integers(1e9)))
        assert n_min <= est.n <= n_max
        if est.n < n_max:
            assert est.tau_sq <= tau ** 2 + 1e-15


def test_one_pass_variance_matches_two_pass():
    rng = np.random.default_rng(2)
    draws = list(1000 * rng.random(200))
    it = iter(draws)
    est = sequential_mc(lambda rngs: [next(it) for _ in rngs], tau_target=0.0,
                        n_min=2,
                        n_max=200, rng=rng)
    ref_var = np.var(draws, ddof=1)
    assert est.tau_sq * 200 == pytest.approx(ref_var, rel=1e-10)
    assert est.mu_hat == pytest.approx(np.mean(draws), rel=1e-12)


def _stream_draw(stream):
    """draw(rngs) over one value stream, counting the values it hands out."""
    it = iter(stream)
    drawn = [0]

    def draw(rngs):
        drawn[0] += len(rngs)
        return [next(it) for _ in rngs]

    return draw, drawn


_VALUES = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n_min=st.integers(2, 30), extra=st.integers(0, 300),
       tau=st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
       stream=st.one_of(_VALUES.map(itertools.repeat),
                        st.lists(_VALUES, min_size=1, max_size=40).map(itertools.cycle),
                        st.integers(0, 2 ** 32).map(
                            lambda seed: iter(np.random.default_rng(seed)
                                              .standard_normal(2000).tolist()))),
       ahead=st.booleans())
def test_chunked_sequential_mc_equals_one_at_a_time(n_min, extra, tau, stream,
                                                    ahead):
    # n_min == n_max at extra == 0; constant, cycled and random streams
    values = list(itertools.islice(stream, n_min + extra + 64))
    n_max = n_min + extra
    draw, drawn = _stream_draw(values)
    first = draw([None] * n_min) if ahead else None
    est = sequential_mc(draw, tau, n_min, n_max, None, first=first)
    oracle_draw, _ = _stream_draw(values)
    mu_hat, tau_sq, n = reference.sequential_mc(oracle_draw, tau, n_min, n_max, None)
    assert (est.mu_hat, est.tau_sq, est.n) == (mu_hat, tau_sq, n)
    assert est.drawn == drawn[0]
    assert n <= est.drawn <= n + 63
    assert est.stop == ("target" if tau_sq <= tau ** 2 else "cap")
