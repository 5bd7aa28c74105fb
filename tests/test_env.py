import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from ctmdesign.env import (ArCopulaEnvironment, FrankCopula,
                           GaussianPairsEnvironment, replicate_rng)
from ctmdesign.network import TrafficNetwork
from ctmdesign.cells import CellSpec
from ctmdesign.solvers import InteractionRule, SimulationEngine
from reference import clamp_net_flow, engine_step, frank_sample


def frank_tau_oracle(r):
    """Kendall tau of the Frank copula via the order-1 Debye integral."""
    debye, _ = integrate.quad(lambda t: t / np.expm1(t), 0, r)
    return 1.0 - (4.0 / r) * (1.0 - debye / r)


def sample_pairs(r, n, seed=0):
    return FrankCopula(r).pairs(np.random.default_rng(seed).random((n, 2)))


def test_frank_independence_mode():
    u = sample_pairs(0.0, 100000, seed=1)
    tau, _ = stats.kendalltau(u[:, 0], u[:, 1])
    assert abs(tau) < 0.02


def test_frank_tau_matches_debye_oracle():
    u = sample_pairs(5.0, 100000, seed=2)
    tau, _ = stats.kendalltau(u[:, 0], u[:, 1])
    assert tau == pytest.approx(frank_tau_oracle(5.0), abs=0.02)
    assert frank_tau_oracle(5.0) == pytest.approx(0.457, abs=0.005)


def test_frank_marginals_uniform():
    u = sample_pairs(5.0, 100000, seed=3)
    for col in (0, 1):
        stat = stats.ks_1samp(u[:, col], stats.uniform.cdf)
        assert stat.pvalue > 0.01


def test_frank_comonotone_limit():
    u = sample_pairs(50.0, 100000, seed=4)
    tau, _ = stats.kendalltau(u[:, 0], u[:, 1])
    assert tau > 0.85


def test_frank_countermonotone_direction():
    u = sample_pairs(-50.0, 20000, seed=5)
    tau, _ = stats.kendalltau(u[:, 0], u[:, 1])
    assert tau < -0.85


def test_ar_variance_grows_linearly():
    # random-walk variance after t steps is sigma^2 * t: the attempted
    # flows of an independent (r = 0) copula environment at its last step
    sigma, t_end, reps = 0.3, 64, 4000
    net, _ = line_network()
    caps = {v: 1e9 for v in range(3)}
    routes = [(0, 1, 2), (2, 1, 0)]
    idx = [net.index_of(*r) for r in routes]
    zero = np.zeros(net.n_routes)
    env = ArCopulaEnvironment(net, caps, idx)
    finals = []
    for rep in range(reps):
        walk = env.draw(replicate_rng(6, rep), t_end, [sigma, sigma], 0.0)
        finals.append(env.with_attempts(walk).net_flows(t_end - 1, zero, zero, zero)[0][idx])
    for var in np.var(finals, axis=0):
        assert var == pytest.approx(sigma ** 2 * t_end, rel=0.15)


def test_clamp_net_flow_bounds_and_interior():
    # lower clamp empties the cell exactly
    q = clamp_net_flow(-100.0, rho=2.0, q_in=1.0, q_out=0.5, rho_cap=10.0, l_v=3.0)
    assert 2.0 + (1.0 - 0.5 + q) / 3.0 == pytest.approx(0.0)
    # upper clamp saturates the cap exactly
    q = clamp_net_flow(+100.0, rho=2.0, q_in=1.0, q_out=0.5, rho_cap=10.0, l_v=3.0)
    assert 2.0 + (1.0 - 0.5 + q) / 3.0 == pytest.approx(10.0)
    # interior attempts pass through unchanged
    assert clamp_net_flow(0.25, 2.0, 1.0, 0.5, 10.0, 3.0) == 0.25


def test_clamp_admissibility_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        rho = 5 * rng.random()
        q_in, q_out = 2 * rng.random(), 2 * rng.random()
        cap = 5 + 5 * rng.random()
        l_v = 0.5 + 3 * rng.random()
        q_aux = 40 * (rng.random() - 0.5)
        q = clamp_net_flow(q_aux, rho, q_in, q_out, cap, l_v)
        rho_next = rho + (q_in - q_out + q) / l_v
        assert -1e-12 <= rho_next <= cap + 1e-12


def line_network():
    edges = [(0, 1), (1, 0), (1, 2), (2, 1)]
    net = TrafficNetwork(3, edges, {i: 1.0 for i in range(3)},
                         allow_uturn={0, 2})
    cells = {v: CellSpec(kind="highway", s_max=5, rho_max=20, a=1, b=1, c=1)
             for v in range(3)}
    return net, cells


def test_ar_copula_environment_reproducible():
    net, cells = line_network()
    caps = {v: 20.0 for v in range(3)}
    env = ArCopulaEnvironment(net, caps, [net.index_of(0, 1, 2), net.index_of(2, 1, 0)])
    rho = np.full(net.n_routes, 2.0)
    q = np.zeros(net.n_routes)
    outs = []
    for _ in range(2):
        stepped = env.with_attempts(env.draw(replicate_rng(123, 0), 50, [0.4, 0.2], 2.5))
        vals = [stepped.net_flows(t, rho, q, q)[1].copy() for t in range(50)]
        outs.append(np.array(vals))
    assert np.array_equal(outs[0], outs[1])
    idx = net.index_of(0, 1, 2)
    assert np.any(outs[0][:, idx] != 0)


def test_gaussian_pairs_mirror_and_constants():
    net, cells = line_network()
    caps = {v: 1e9 for v in range(3)}  # no clamping
    i1, i2 = net.index_of(0, 1, 2), net.index_of(2, 1, 0)
    env = GaussianPairsEnvironment(net, caps, [(i1, 1.0)], [(i1, i2, -1.0)])
    env = env.with_attempts(env.draw(replicate_rng(9, 0), 2000, [3.0], [0.1], [0.0]))
    rho = np.full(net.n_routes, 2.0)
    q = np.zeros(net.n_routes)
    aux, netf = env.net_flows(0, rho, q, q)
    assert aux[i2] == pytest.approx(-aux[i1])
    draws = [env.net_flows(t, rho, q, q)[0][i1] for t in range(2000)]
    assert np.mean(draws) == pytest.approx(3.0, abs=0.05)
    assert np.std(draws) == pytest.approx(0.3, rel=0.1)


def test_full_trajectory_bit_reproducible():
    net, cells = line_network()
    eng = SimulationEngine(net, cells)
    caps = {v: 10.0 for v in range(3)}

    def run():
        env = ArCopulaEnvironment(net, caps, [net.index_of(0, 1, 2),
                                              net.index_of(2, 1, 0)])
        env = env.with_attempts(env.draw(replicate_rng(42, 7), 100, [0.3, 0.3], -4.0))
        rho = np.full(net.n_routes, 1.0)
        for t in range(100):
            rho, _ = engine_step(eng, t, rho, InteractionRule("dpf"), env=env)
        return rho

    a, b = run(), run()
    assert np.array_equal(a, b)


@pytest.mark.parametrize("r", [-50.0, -4.0, 0.0, 2.5, 50.0])
def test_copula_pairs_equal_scalar_samples(r):
    cop = FrankCopula(r)
    rng = np.random.default_rng(11)
    scalar = np.array([frank_sample(cop, rng) for _ in range(5000)])
    bulk = cop.pairs(np.random.default_rng(11).random((5000, 2)))
    assert np.array_equal(scalar, bulk)


def test_net_flows_clamp_each_route_like_the_scalar_rule():
    net, cells = line_network()
    caps = {v: 3.0 for v in range(3)}
    routes = [net.index_of(0, 1, 2), net.index_of(2, 1, 0), net.index_of(1, 2, 1)]
    env = GaussianPairsEnvironment(net, caps, [(routes[2], 1.0)],
                                   [(routes[0], routes[1], -1.0)])
    env = env.with_attempts(env.draw(replicate_rng(3, 0), 40, [3.0], [2.0], [-4.0]))
    rng = np.random.default_rng(4)
    clamped = 0
    for t in range(40):
        rho, q_in, q_out = 3.0 * rng.random((3, net.n_routes))
        q_aux, q_net = env.net_flows(t, rho, q_in, q_out)
        for i in routes:
            v = net.routes[i].via
            assert q_net[i] == clamp_net_flow(q_aux[i], rho[i], q_in[i], q_out[i],
                                              caps[v], net.lengths[v])
        clamped += int(np.count_nonzero(q_net != q_aux))
        untouched = np.setdiff1d(np.arange(net.n_routes), routes)
        assert np.all(q_aux[untouched] == 0) and np.all(q_net[untouched] == 0)
    assert clamped > 0


def _line_environments(net, caps):
    """A copula and a Gaussian environment of the line network, each with a
    draw function of one replicate's block."""
    r = [net.index_of(0, 1, 2), net.index_of(2, 1, 0), net.index_of(1, 2, 1)]
    ar = ArCopulaEnvironment(net, caps, r[:2])
    # a constant on a source route: the source's later column wins
    gauss = GaussianPairsEnvironment(net, caps, [(r[0], 2.0), (r[2], 0.5)],
                                     [(r[0], r[1], -1.0), (r[2], None, 1.0)])
    return [(ar, lambda g, steps: ar.draw(g, steps, [0.4, 0.3], -3.0)),
            (gauss, lambda g, steps: gauss.draw(g, steps, [2.0, 1.5], [0.8, 1.2],
                                                [-1.0, 3.0]))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_reps=st.integers(1, 6), steps=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       cap=st.sampled_from([0.5, 3.0, 1e9]))
def test_batched_blocks_step_like_one_replicate_environments(n_reps, steps, seed, cap):
    net, _ = line_network()
    caps = {v: cap for v in range(3)}
    state = np.random.default_rng(seed)
    for env, draw in _line_environments(net, caps):
        blocks = [draw(replicate_rng(seed, j), steps) for j in range(n_reps)]
        batch = env.with_attempts(np.stack(blocks, axis=2))
        singles = [env.with_attempts(block) for block in blocks]
        for t in range(steps):
            # route-major batch state: column j is replicate j
            rho, q_in, q_out = 2.0 * state.random((3, net.n_routes, n_reps))
            aux, net_flow = batch.net_flows(t, rho, q_in, q_out)
            for j, one in enumerate(singles):
                aux_j, net_j = one.net_flows(t, rho[:, j], q_in[:, j], q_out[:, j])
                assert aux[:, j].tobytes() == aux_j.tobytes()
                assert net_flow[:, j].tobytes() == net_j.tobytes()


@pytest.mark.parametrize("kind", ["ar_copula", "gaussian_pairs"])
def test_draw_rejects_a_negative_noise_scale(kind):
    net, _ = line_network()
    caps = {v: 3.0 for v in range(3)}
    i1, i2 = net.index_of(0, 1, 2), net.index_of(2, 1, 0)
    rng = replicate_rng(1, 0)
    if kind == "ar_copula":
        with pytest.raises(ValueError, match="noise standard deviation"):
            ArCopulaEnvironment(net, caps, [i1, i2]).draw(rng, 5, [0.1, -0.1], 0.0)
    else:
        with pytest.raises(ValueError, match="coefficient of variation"):
            GaussianPairsEnvironment(net, caps, [], [(i1, i2, -1.0)]).draw(
                rng, 5, [3.0], [-0.1], [])
