import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

import reference
from ctmdesign import gpr
from ctmdesign.gpr import KERNEL_VARIANTS, GprDataset, Kernel, posterior
from ctmdesign.learning import (DesignSpace, LoopConfig, nikodym_bound_mc,
                                rejection_sample, run_active_learning,
                                sobol_points)
from reference import acquisition, credible_band


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


@pytest.mark.parametrize("n_max", [(40,), (40,) * 4, (40,) * 8])
def test_loop_config_takes_one_n_max_or_one_per_iteration(n_max):
    config = loop_config(n_max=n_max)
    assert [config.n_max_at(i) for i in range(4)] == [40] * 4


@pytest.mark.parametrize("n_max", [(40, 40), (40,) * 3, ()])
def test_loop_config_rejects_an_n_max_list_short_of_the_iterations(n_max):
    # iterations 3 reads n_max_at(0) to n_max_at(3)
    with pytest.raises(ValueError, match="n_max"):
        loop_config(n_max=n_max)


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


class _Messages(logging.Handler):
    """The messages of the log records it gets."""

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(variant=st.sampled_from(["absolute"] * 3 + ["scaled"]),
       kernel=st.sampled_from(KERNEL_VARIANTS), n=st.integers(1, 60),
       dim=st.integers(1, 3), gamma_q=st.floats(0.0, 1.0),
       gate_q=st.floats(0.0, 1.2), log_c2=st.floats(-2.0, 3.0),
       n_loop=st.integers(1, 30), max_trials=st.integers(1, 600),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rejection_sample_equals_unscreened_oracle(variant, kernel, n, dim, gamma_q,
                                                   gate_q, log_c2, n_loop,
                                                   max_trials, seed):
    # the "absolute" sampler solves a std only where p < 2 I(k); the oracle
    # queries every candidate's std
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    post = posterior(GprDataset(x, np.sin(4.0 * x[:, 0]) + 0.3 * rng.normal(size=n),
                                0.01 + 0.2 * rng.random(n), mu_bar=0.0, s_bar=1.0),
                     Kernel(kernel, float(rng.uniform(0.5, 2.0)),
                            float(rng.uniform(0.05, 1.0))))
    space = unit_space(dim)
    probe = rng.random((512, dim))
    gamma = float(np.quantile(post.mean(probe), gamma_q))
    config = loop_config(max_trials=max_trials, acquisition_variant=variant)
    tau = gate_q * float(np.max(post.std(probe))) / config.c1
    c2 = 10.0 ** log_c2
    state = int(rng.integers(2 ** 32))
    handler = _Messages()
    for name in ("ctmdesign.learning", "reference"):
        logging.getLogger(name).addHandler(handler)
        logging.getLogger(name).setLevel(logging.INFO)
    try:
        runs = []
        for sampler in (rejection_sample, reference.rejection_sample):
            handler.messages = []
            draws = np.random.default_rng(state)
            pts = sampler(n_loop, post, gamma, tau, c2, config, space, draws)
            runs.append((pts, draws.bit_generator.state, handler.messages))
    finally:
        for name in ("ctmdesign.learning", "reference"):
            logging.getLogger(name).removeHandler(handler)
            logging.getLogger(name).setLevel(logging.NOTSET)
    (got, got_rng, got_log), (want, want_rng, want_log) = runs
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got_rng == want_rng  # the same candidates were drawn
    assert got_log == want_log


def test_rejection_sample_counts_the_solved_candidates():
    post = fixed_posterior_1d(noise=0.3)
    space = unit_space()
    counts = {}
    for variant in ("absolute", "scaled"):
        solved = []
        rejection_sample(40, post, 0.0, 0.01, 3.0,
                         loop_config(acquisition_variant=variant), space,
                         np.random.default_rng(1), solved=solved)
        counts[variant] = solved
    # every accepted candidate needed its std; the scaled variant needs all
    assert 40 <= counts["absolute"][0] < counts["scaled"][0]
    assert counts["scaled"][0] % 256 == 0


# ---------------------------------------------------------------------------
# bands, sandwich, error bound
# ---------------------------------------------------------------------------

def test_pointwise_band_widths():
    post = fixed_posterior_1d()
    pts = np.linspace(0, 1, 50).reshape(-1, 1)
    m, s = post.mean_std(pts)
    _, _, lower, upper = credible_band(post, pts, delta=1.0)
    assert np.allclose(lower, m)
    assert np.allclose(upper, m)
    _, _, lower, upper = credible_band(post, pts, delta=0.05)
    half = upper - m
    assert half == pytest.approx(1.959964 * s, abs=1e-5)
    widths = []
    for delta in (0.01, 0.05, 0.2, 0.5):
        _, _, lo, hi = credible_band(post, pts, delta)
        widths.append(float(np.mean(hi - lo)))
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_sandwich_ordering_pointwise():
    post = fixed_posterior_1d()
    gamma = 0.2
    pts = np.linspace(0, 1, 400).reshape(-1, 1)
    m, _, lower, upper = credible_band(post, pts, 0.05)
    member = m >= gamma
    assert np.all((lower >= gamma) <= member)
    assert np.all(member <= (upper >= gamma))


@pytest.mark.parametrize("n", [2 ** 14, 100000])
@pytest.mark.parametrize("dim", range(1, 7))
def test_sobol_points_equal_scipy_unscrambled_sobol(dim, n):
    import warnings

    from scipy.stats import qmc

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # n not a power of 2
        expected = qmc.Sobol(d=dim, scramble=False).random(n)
    assert sobol_points(unit_space(dim), n).tobytes() == expected.tobytes()


def test_nikodym_bound_analytic_band():
    space = unit_space()
    k = sobol_points(space, 100000)[:, 0]
    e_hat = nikodym_bound_mc(k - 0.1, k + 0.1, 0.5, space.volume)
    assert e_hat == pytest.approx(0.2, abs=0.01)


def test_nikodym_bound_degenerate_bands():
    space = unit_space()
    m = sobol_points(space, 1000)[:, 0]
    assert nikodym_bound_mc(m, m, 2.0, space.volume) == 0.0
    lower = np.full(len(m), -np.inf)
    upper = np.full(len(m), np.inf)
    assert nikodym_bound_mc(lower, upper, 0.0, space.volume) == pytest.approx(
        space.volume)


def test_nikodym_estimator_converges_with_budget():
    space = unit_space()
    errors = []
    for n in (1000, 10000, 100000):
        k = sobol_points(space, n)[:, 0]
        errors.append(abs(nikodym_bound_mc(k - 0.07, k + 0.07, 0.4,
                                           space.volume) - 0.14))
    assert errors[2] <= errors[0] + 1e-12
    assert errors[2] < 0.005


def test_sandwich_bound_dominates_grid_nikodym_distance():
    # exhaustive fine-grid volumes instantiate the error bound on a synthetic
    # truth known to lie inside the band
    space = unit_space()
    grid = np.linspace(0, 1, 20001).reshape(-1, 1)
    truth = lambda k: np.sin(2 * np.pi * np.atleast_2d(k)[:, 0])
    est = lambda k: truth(k) + 0.05 * np.cos(2 * np.pi * np.atleast_2d(k)[:, 0])
    gamma = 0.3
    member_est = est(grid) >= gamma
    member_truth = truth(grid) >= gamma
    d_n = np.mean(member_est != member_truth) * space.volume
    sobol = sobol_points(space, 100000)
    bound = nikodym_bound_mc(est(sobol) - 0.08, est(sobol) + 0.08, gamma,
                             space.volume)
    assert d_n <= bound


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------

def sin_simulator(noise=0.01):
    def sim(ks, rngs):
        return [float(np.sin(2 * np.pi * k[0]) + noise * rng.standard_normal())
                for k, rng in zip(ks, rngs)]
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
    member = np.asarray(final.posterior.mean(grid)) >= final.gamma
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


def sincos_simulator(ks, rngs):
    return [float(np.sin(2 * np.pi * k[0]) * np.cos(2 * np.pi * k[1])
                  + 0.1 * rng.standard_normal()) for k, rng in zip(ks, rngs)]


def nested_fits(seed, after_first_fit=None, n_eval=2 ** 14, **overrides):
    """A 2-D loop on datasets of 50, 60, ..., 120 points, as synthetic_small
    (other sizes through ``overrides`` of the config).

    Returns the config, the space, one estimate per fit and the loop state.
    """
    config = loop_config(**{**dict(n_initial=50, n_loop=10, iterations=7,
                                   tau_schedule=(0.01,) * 8, n_min=20, n_max=(500,),
                                   n_eval=n_eval), **overrides})
    space = unit_space(2)
    fits, states = [], []

    def track(est, state):
        if not fits or fits[-1].posterior is not est.posterior:
            fits.append(est)
        if est.iteration == 0 and after_first_fit is not None:
            after_first_fit()
        states.append(state)

    run_active_learning(config, space, sincos_simulator, 0.0, seed,
                        on_iteration=track)
    return config, space, fits, states[-1]


@pytest.mark.parametrize("seed, overrides", [
    pytest.param(1, {}, id="1"), pytest.param(47, {}, id="47"),
    # 430, 440, ..., 500 points: up to the paper budget
    pytest.param(1, {"n_initial": 430, "c1": 1.5}, id="1-to-500-points"),
])
def test_error_bound_screen_equals_the_full_band_on_nested_fits(seed, overrides):
    config, space, fits, state = nested_fits(seed, **overrides)
    sobol = sobol_points(space, config.n_eval)
    assert len(state.variance_points) == len(fits) >= 4
    assert len(fits[-1].posterior.dataset) <= config.n_initial + 70
    assert state.variance_points[0] == config.n_eval
    assert all(0 < v < config.n_eval for v in state.variance_points[1:])
    # a variance is solved only where the mean was computed
    assert len(state.mean_points) == len(fits) and state.mean_points[0] == config.n_eval
    assert all(v <= m < config.n_eval for v, m in zip(state.variance_points[1:],
                                                      state.mean_points[1:]))
    s_prev = None
    for est in fits:
        _, s, lower, upper = credible_band(est.posterior, sobol, config.delta)
        assert est.e_hat == nikodym_bound_mc(lower, upper, est.gamma, space.volume)
        # refitting on a superset never increases the posterior uncertainty
        if s_prev is not None:
            assert np.all(s <= s_prev + 1e-9)
        s_prev = s


def test_error_bound_solves_every_variance_after_a_jitter_change(monkeypatch):
    # more jitter can raise a variance, so the first fit with the new jitter
    # has no bound to screen with; the fits after it screen again
    config, space, fits, state = nested_fits(
        1, lambda: monkeypatch.setattr(gpr, "_JITTERS", (1e-6,)), n_eval=4096)
    sobol = sobol_points(space, config.n_eval)
    jitters = [est.posterior.jitter for est in fits]
    assert jitters[0] == 0.0 and set(jitters[1:]) == {1e-6}
    for solved in (state.mean_points, state.variance_points):
        assert solved[0] == solved[1] == config.n_eval
        assert len(solved) >= 3 and all(v < config.n_eval for v in solved[2:])
    for est in fits:
        _, _, lower, upper = credible_band(est.posterior, sobol, config.delta)
        assert est.e_hat == nikodym_bound_mc(lower, upper, est.gamma, space.volume)


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


#: e_hat of each fit, and the Sobol means and variances each computed, in the
#: loop below, from the code that bounded each fit as it came (before the
#: bounds moved into one pass over the Sobol points)
_BOUNDS_BY_FIT = ([0.24169921875, 0.2119140625, 0.17529296875, 0.14788818359375,
                   0.13433837890625, 0.1258544921875, 0.11614990234375, 0.115478515625],
                  [16384, 6267, 5798, 7362, 6967, 8088, 8132, 8058],
                  [16384, 4086, 3612, 3116, 2558, 2390, 2269, 2214])


@pytest.mark.parametrize("error_stop", [None, 0.14])
def test_error_bounds_equal_the_bounds_computed_fit_by_fit(error_stop):
    # with error_stop set the stop rule reads each bound as its fit comes, and
    # the loop stops where it did; without it the callback sees no bound
    config = loop_config(n_initial=50, n_loop=10, iterations=7, tau_schedule=(0.01,) * 8,
                         n_min=20, n_max=(500,), n_eval=2 ** 14, error_stop=error_stop)
    seen, states = [], []

    def track(est, state):
        seen.append(est.e_hat)
        states.append(state)

    estimates = run_active_learning(config, unit_space(2), sincos_simulator, 0.0, 1,
                                    on_iteration=track)
    fits = 5 if error_stop else 8
    e_hat, means, variances = (values[:fits] for values in _BOUNDS_BY_FIT)
    assert [est.e_hat for est in estimates] == e_hat
    assert seen == (e_hat if error_stop else [None] * fits)
    assert states[-1].mean_points == means and states[-1].variance_points == variances


def test_discard_rule_flags_noisy_points():
    # a simulator with huge variance at tiny n_max forces tau_k above c3*tau
    config = loop_config(n_initial=12, n_loop=6, iterations=1,
                         tau_schedule=(5.0, 1e-4), n_min=2, n_max=(3,))

    def noisy(ks, rngs):
        return [float(10.0 * rng.standard_normal()) for rng in rngs]

    seen = {}

    def track(est, state):
        seen[est.iteration] = [e.discarded for e in state.estimates]

    run_active_learning(config, unit_space(), noisy, 0.0, 9, on_iteration=track)
    flags = seen[max(seen)]
    assert not any(flags[:12])          # initialization is never discarded
    assert any(flags[12:]) or len(flags) == 12  # loop points get the c3 check
