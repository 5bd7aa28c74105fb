import numpy as np
import pytest
from scipy.stats import chisquare

from ctmdesign.gpr import GprDataset, Kernel, posterior
from ctmdesign.learning import (DesignSpace, LevelSetEstimate, LoopConfig,
                                SobolStream, acquisition, nikodym_bound_mc,
                                pointwise_bands, rejection_sample,
                                run_active_learning, sandwich_sets)


def unit_space(dim=1):
    return DesignSpace(tuple((0.0, 1.0) for _ in range(dim)))


def fixed_posterior_1d(seed=0, noise=0.05):
    """Small fitted posterior over [0, 1] used as a fixture."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 1, 9).reshape(-1, 1)
    y = np.sin(2 * np.pi * x[:, 0]) + noise * rng.standard_normal(9)
    data = GprDataset(x, y, np.full(9, noise ** 2))
    return posterior(data, Kernel("matern32", sigma_c=1.0, length=0.25))


def loop_config(**overrides):
    base = dict(n_initial=30, n_loop=15, iterations=3,
                tau_schedule=(0.02,) * 8, n_min=2, n_max=(200,),
                c1=5.0, c2_0=2.0, c3=2.0, n_eval=20000, delta=0.05)
    base.update(overrides)
    return LoopConfig(**base)


# ---------------------------------------------------------------------------
# acquisition
# ---------------------------------------------------------------------------

def test_acquisition_peak_and_tails():
    post = fixed_posterior_1d()
    k_on_boundary = [[0.0]]  # sin(0) = 0 and gamma = 0
    val = acquisition(k_on_boundary, post, gamma=float(post.mean([[0.0]])),
                      c2=3.0)
    assert val == pytest.approx(0.5)
    far = acquisition([[0.25]], post, gamma=-50.0, c2=5.0)
    assert far < 1e-10


def test_acquisition_normal_cdf_value():
    post = fixed_posterior_1d()
    k = [[0.25]]
    m = float(post.mean(k))
    gamma = m - 1.959964
    assert acquisition(k, post, gamma, c2=1.0) == pytest.approx(0.025, abs=1e-4)


def test_acquisition_bounded_by_half():
    post = fixed_posterior_1d()
    pts = np.linspace(0, 1, 200).reshape(-1, 1)
    for variant in ("absolute", "scaled"):
        vals = acquisition(pts, post, gamma=0.1, c2=2.0, variant=variant)
        assert np.all(vals <= 0.5 + 1e-12)
        assert np.all(vals >= 0)  # far tails may underflow to exactly zero


# ---------------------------------------------------------------------------
# rejection sampling
# ---------------------------------------------------------------------------

def test_rejection_gate_closed_everywhere_returns_empty():
    post = fixed_posterior_1d(noise=0.01)
    space = unit_space()
    config = loop_config(max_trials=50)
    # posterior std is tiny near the data; an enormous tau closes the gate
    pts = rejection_sample(5, post, gamma=0.0, tau_i=10.0, c2=1.0,
                           config=config, space=space,
                           rng=np.random.default_rng(0))
    assert len(pts) == 0


def test_rejection_gate_soundness():
    post = fixed_posterior_1d(noise=0.3)
    space = unit_space()
    config = loop_config()
    tau = 0.01
    pts = rejection_sample(40, post, gamma=0.0, tau_i=tau, c2=1.0,
                           config=config, space=space,
                           rng=np.random.default_rng(1))
    assert len(pts) == 40
    stds = post.std(pts)
    assert np.all(config.c1 * tau < np.atleast_1d(stds))


def test_rejection_uniform_when_acceptance_constant():
    # c2 -> 0 makes the acceptance probability 2 * Phi(0) = 1 everywhere,
    # so accepted points are uniform
    post = fixed_posterior_1d(noise=0.3)
    space = unit_space()
    config = loop_config()
    pts = rejection_sample(10000, post, gamma=0.0, tau_i=1e-9, c2=1e-12,
                           config=config, space=space,
                           rng=np.random.default_rng(2))
    counts, _ = np.histogram(pts[:, 0], bins=20, range=(0, 1))
    res = chisquare(counts)
    assert res.pvalue > 0.01


def test_rejection_matches_normalized_acquisition_density():
    post = fixed_posterior_1d(noise=0.3)
    space = unit_space()
    config = loop_config()
    gamma, c2 = 0.0, 3.0
    passes = 0
    for seed in range(5):
        pts = rejection_sample(10000, post, gamma, 1e-9, c2, config, space,
                               rng=np.random.default_rng(100 + seed))
        grid = np.linspace(0, 1, 2001).reshape(-1, 1)
        dens = np.asarray(acquisition(grid, post, gamma, c2))
        bins = np.linspace(0, 1, 26)
        centers = 0.5 * (bins[:-1] + bins[1:])
        probs = np.interp(centers, grid[:, 0], dens)
        probs = probs / probs.sum()
        counts, _ = np.histogram(pts[:, 0], bins=bins)
        res = chisquare(counts, probs * counts.sum())
        if res.pvalue > 0.01:
            passes += 1
    assert passes >= 4


# ---------------------------------------------------------------------------
# bands, sandwich, error bound
# ---------------------------------------------------------------------------

def test_pointwise_band_widths():
    post = fixed_posterior_1d()
    pts = np.linspace(0, 1, 50).reshape(-1, 1)
    m, s = post.mean_std(pts)
    lower, upper = pointwise_bands(post, delta=1.0)
    assert np.allclose(np.asarray(lower(pts)), m)
    assert np.allclose(np.asarray(upper(pts)), m)
    lower, upper = pointwise_bands(post, delta=0.05)
    half = np.asarray(upper(pts)) - m
    assert half == pytest.approx(1.959964 * s, abs=1e-5)
    widths = []
    for delta in (0.01, 0.05, 0.2, 0.5):
        lo, hi = pointwise_bands(post, delta)
        widths.append(float(np.mean(np.asarray(hi(pts)) - np.asarray(lo(pts)))))
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_sandwich_ordering_pointwise():
    post = fixed_posterior_1d()
    gamma = 0.2
    lower, upper = pointwise_bands(post, 0.05)
    inner, outer = sandwich_sets(lower, upper, gamma)
    pts = np.linspace(0, 1, 400).reshape(-1, 1)
    est = LevelSetEstimate(iteration=0, posterior=post, gamma=gamma, delta=0.05)
    member = est.member(pts)
    assert np.all(inner(pts) <= member)
    assert np.all(member <= outer(pts))
    # a level below the global band minimum makes all three sets everything
    lo_min = float(np.min(np.asarray(lower(pts))))
    inner2, outer2 = sandwich_sets(lower, upper, lo_min - 1.0)
    assert np.all(inner2(pts))
    assert np.all(outer2(pts))


def test_nikodym_bound_analytic_band():
    space = unit_space()
    sobol = SobolStream(space)
    lower = lambda k: np.atleast_2d(k)[:, 0] - 0.1
    upper = lambda k: np.atleast_2d(k)[:, 0] + 0.1
    e_hat = nikodym_bound_mc(lower, upper, 0.5, space, sobol, 100000)
    assert e_hat == pytest.approx(0.2, abs=0.01)


def test_nikodym_bound_degenerate_bands():
    space = unit_space()
    sobol = SobolStream(space)
    m = lambda k: np.atleast_2d(k)[:, 0]
    assert nikodym_bound_mc(m, m, 2.0, space, sobol, 1000) == 0.0
    lower = lambda k: np.full(len(np.atleast_2d(k)), -np.inf)
    upper = lambda k: np.full(len(np.atleast_2d(k)), np.inf)
    assert nikodym_bound_mc(lower, upper, 0.0, space, sobol, 1000) == pytest.approx(
        space.volume)


def test_nikodym_estimator_converges_with_budget():
    space = unit_space()
    sobol = SobolStream(space)
    lower = lambda k: np.atleast_2d(k)[:, 0] - 0.07
    upper = lambda k: np.atleast_2d(k)[:, 0] + 0.07
    errors = [abs(nikodym_bound_mc(lower, upper, 0.4, space, sobol, n) - 0.14)
              for n in (1000, 10000, 100000)]
    assert errors[2] <= errors[0] + 1e-12
    assert errors[2] < 0.005


def test_sandwich_bound_dominates_grid_nikodym_distance():
    # exhaustive fine-grid volumes instantiate the error bound on a synthetic
    # truth known to lie inside the band
    space = unit_space()
    sobol = SobolStream(space)
    grid = np.linspace(0, 1, 20001).reshape(-1, 1)
    truth = lambda k: np.sin(2 * np.pi * np.atleast_2d(k)[:, 0])
    est = lambda k: truth(k) + 0.05 * np.cos(2 * np.pi * np.atleast_2d(k)[:, 0])
    lower = lambda k: est(k) - 0.08
    upper = lambda k: est(k) + 0.08
    gamma = 0.3
    member_est = est(grid) >= gamma
    member_truth = truth(grid) >= gamma
    d_n = np.mean(member_est != member_truth) * space.volume
    bound = nikodym_bound_mc(lower, upper, gamma, space, sobol, 100000)
    assert d_n <= bound


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------

def sin_simulator(noise=0.01):
    def sim(k, rng):
        return float(np.sin(2 * np.pi * np.atleast_1d(k)[0])
                     + noise * rng.standard_normal())
    return sim


def test_zero_iterations_returns_initial_estimate_only():
    estimates = run_active_learning(loop_config(iterations=0), unit_space(),
                                    sin_simulator(), gamma=0.0, master_seed=1)
    assert len(estimates) == 1
    assert estimates[0].iteration == 0


def test_loop_recovers_sin_boundary():
    config = loop_config(n_initial=40, n_loop=20, iterations=4,
                         tau_schedule=(0.01,) * 8, n_min=2, n_max=(400,))
    estimates = run_active_learning(config, unit_space(), sin_simulator(),
                                    gamma=0.0, master_seed=7)
    final = estimates[-1]
    grid = np.linspace(0, 1, 4001).reshape(-1, 1)
    member = final.member(grid)
    flips = grid[:-1, 0][np.flatnonzero(member[:-1] != member[1:])]
    # analytic superlevel set of sin(2 pi k) at 0 is [0, 1/2]; crossings at
    # the boundary 0.5 (0 and 1 are boundary-of-domain crossings)
    assert len(flips) >= 1
    assert np.min(np.abs(flips - 0.5)) < 0.02


def test_loop_dataset_sizes_and_monotone_information():
    config = loop_config(n_initial=25, n_loop=10, iterations=3,
                         tau_schedule=(0.02,) * 8)
    seen = []

    def track(est, state):
        seen.append((est.iteration, len(state.points)))

    estimates = run_active_learning(config, unit_space(), sin_simulator(0.05),
                                    gamma=0.0, master_seed=3,
                                    on_iteration=track)
    sizes = [n for _, n in seen]
    assert sizes[0] == 25
    for a, b in zip(sizes, sizes[1:]):
        assert a <= b <= a + 10
    # refitting on a superset never increases the posterior uncertainty
    grid = np.linspace(0, 1, 101).reshape(-1, 1)
    for prev, nxt in zip(estimates, estimates[1:]):
        s_prev = np.asarray(prev.posterior.std(grid))
        s_next = np.asarray(nxt.posterior.std(grid))
        assert np.all(s_next <= s_prev + 1e-9)


def test_loop_deterministic_in_seed():
    config = loop_config(iterations=2)
    a = run_active_learning(config, unit_space(), sin_simulator(), 0.0, 11)
    b = run_active_learning(config, unit_space(), sin_simulator(), 0.0, 11)
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert ea.e_hat == eb.e_hat
        assert np.array_equal(ea.posterior.dataset.points,
                              eb.posterior.dataset.points)
    c = run_active_learning(config, unit_space(), sin_simulator(), 0.0, 12)
    assert not np.array_equal(a[-1].posterior.dataset.points,
                              c[-1].posterior.dataset.points)


def test_loop_error_stop():
    config = loop_config(iterations=5, error_stop=10.0)  # stops immediately
    estimates = run_active_learning(config, unit_space(), sin_simulator(),
                                    0.0, 5)
    assert len(estimates) == 1


def test_discard_rule_flags_noisy_points():
    # a simulator with huge variance at tiny n_max forces tau_k above c3*tau
    config = loop_config(n_initial=12, n_loop=6, iterations=1,
                         tau_schedule=(5.0, 1e-4), n_min=2, n_max=(3,))

    def noisy(k, rng):
        return float(10.0 * rng.standard_normal())

    seen = {}

    def track(est, state):
        seen[est.iteration] = list(state.discarded)

    run_active_learning(config, unit_space(), noisy, 0.0, 9, on_iteration=track)
    flags = seen[max(seen)]
    assert not any(flags[:12])          # initialization is never discarded
    assert any(flags[12:]) or len(flags) == 12  # loop points get the c3 check
