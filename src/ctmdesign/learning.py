"""Acquisition-driven estimation of acceptable-design level sets.

The target is the superlevel set  D = { k : mu(k) >= gamma }  of the
expected-utility surface mu over a bounded box of design parameters.
The loop alternates between

1. estimating mu at selected points by sequential Monte Carlo with a
   per-iteration target noise tau_i,
2. refitting the Gaussian process posterior on all points collected so
   far (hyperparameters and standardization frozen after the initial
   fit), and
3. proposing new points by rejection sampling from the acquisition
   density  I(k) = Phi(-c2_i * |m(k) - gamma|),  gated by the
   requirement that Monte Carlo can still help:  c1 * tau_i < sigma(k).

Each iteration yields a plug-in estimate {m_i >= gamma} together with
pointwise credible bands m_i +/- z_{1-delta/2} sigma_i, the inner/outer
sandwich sets they induce, and a quasi-Monte Carlo estimate of the
volume between the sandwich sets, which bounds the Nikodym estimation
error with probability 1 - delta pointwise.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .evaluation import sequential_mc
from .gpr import GprDataset, fit_hyperparameters, posterior

__all__ = [
    "DesignSpace",
    "LoopConfig",
    "SobolStream",
    "LevelSetEstimate",
    "acquisition",
    "rejection_sample",
    "pointwise_bands",
    "sandwich_sets",
    "nikodym_bound_mc",
    "run_active_learning",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DesignSpace:
    """Axis-aligned bounded box of design vectors."""

    bounds: tuple  # ((lo, hi), ...) per dimension

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"invalid design bounds [{lo}, {hi}]")

    @property
    def dim(self):
        return len(self.bounds)

    @property
    def volume(self):
        return float(np.prod([hi - lo for lo, hi in self.bounds]))

    def uniform(self, rng, n):
        return self.scale_unit(rng.random((n, self.dim)))

    def scale_unit(self, u):
        """Map points of the unit cube into the box."""
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return lo + (hi - lo) * u


@dataclass
class LoopConfig:
    """Budgets and constants of the estimation loop.

    ``tau_schedule`` holds the target noise standard deviations, entry 0
    for the initialization and entry i for loop iteration i; ``n_max``
    may be a single bound or one per entry of the schedule.  ``c2``
    either lists the acquisition sharpness per iteration or is derived
    as c2_0 * i from ``c2_0``.
    """

    n_initial: int
    n_loop: int
    iterations: int
    tau_schedule: tuple
    n_min: int = 20
    n_max: tuple = (3000,)
    c1: float = 5.0
    c2_0: float = None
    c2: tuple = None
    c3: float = 2.0
    max_trials: int = 10000
    acquisition_variant: str = "absolute"   # or "scaled" (divides by sigma)
    delta: float = 0.05
    n_eval: int = 100000
    error_stop: float = None
    kernel_variant: str = "matern32"

    def __post_init__(self):
        if self.n_initial < 1 or self.n_loop < 1 or self.iterations < 0:
            raise ValueError("budgets must be positive")
        if len(self.tau_schedule) < self.iterations + 1:
            raise ValueError("tau schedule must cover init + all iterations")
        if any(t <= 0 for t in self.tau_schedule):
            raise ValueError("target noises must be positive")
        if self.c1 <= 1:
            raise ValueError("c1 must exceed 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.acquisition_variant not in ("absolute", "scaled"):
            raise ValueError("unknown acquisition variant")
        if self.c2 is not None:
            if len(self.c2) < self.iterations:
                raise ValueError("c2 schedule must cover all iterations")
            if any(b <= a for a, b in zip(self.c2, self.c2[1:])):
                raise ValueError("c2 schedule must be increasing")

    def tau(self, i):
        return self.tau_schedule[i]

    def n_max_at(self, i):
        return self.n_max[i] if len(self.n_max) > 1 else self.n_max[0]

    def c2_at(self, i):
        """Acquisition sharpness of iteration i >= 1."""
        if self.c2 is not None:
            return self.c2[i - 1]
        if self.c2_0 is None:
            raise ValueError("either c2 schedule or c2_0 must be configured")
        return self.c2_0 * i


class SobolStream:
    """First points of the (unscrambled) Sobol sequence over a design space.

    The same sequence is reused across iterations so error-bound
    comparisons are free of Monte Carlo fluctuation.
    """

    def __init__(self, space):
        self.space = space
        self._cache = np.zeros((0, space.dim))

    def points(self, n):
        if n > len(self._cache):
            from scipy.stats import qmc

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                u = qmc.Sobol(d=self.space.dim, scramble=False).random(n)
            self._cache = self.space.scale_unit(u)
        return self._cache[:n]


@dataclass
class LevelSetEstimate:
    """One iteration's estimate: posterior, plug-in set, bands, error bound."""

    iteration: int
    posterior: object
    gamma: float
    delta: float
    e_hat: float = None

    def member(self, k):
        """Plug-in membership m(k) >= gamma."""
        return np.atleast_1d(self.posterior.mean(np.atleast_2d(k))) >= self.gamma

    def bands(self):
        return pointwise_bands(self.posterior, self.delta)


def acquisition(k, post, gamma, c2, variant="absolute"):
    """Informative potential of sampling at k, in (0, 1/2].

    Phi(-c2 |m(k) - gamma|), optionally with the gap scaled by the
    posterior standard deviation ("scaled" variant).
    """
    k = np.atleast_2d(k)
    if variant == "absolute":
        m, s = post.mean(k), None
    else:
        m, s = post.mean_std(k)
    out = ndtr(-c2 * _gap(m, s, gamma, variant))
    return out if out.size > 1 else float(out[0])


def _gap(m, s, gamma, variant):
    """|m - gamma|, divided by the posterior std in the "scaled" variant."""
    gap = np.abs(np.atleast_1d(m) - gamma)
    if variant == "absolute":
        return gap
    return gap / np.maximum(np.atleast_1d(s), 1e-300)


def rejection_sample(n_loop, post, gamma, tau_i, c2, config, space, rng):
    """Propose up to n_loop points from the acquisition density.

    Uniform candidates are kept only when the posterior uncertainty
    still dominates the Monte Carlo target (c1 * tau_i < sigma(k)), then
    accepted with probability 2 * I(k).  A candidate budget per point
    avoids spinning when the gate is closed almost everywhere; points
    that exhaust it are skipped with a log entry.  Candidates are drawn
    and evaluated in batches; the per-point trial accounting matches the
    one-at-a-time loop.
    """
    batch = 256
    found = []
    j = 0
    trials = 0
    candidates = iter(())
    while j < n_loop:
        item = next(candidates, None)
        if item is None:
            ks = space.uniform(rng, batch)
            ps = rng.random(batch)
            m, s = post.mean_std(ks)
            acc = ndtr(-c2 * _gap(m, s, gamma, config.acquisition_variant))
            gate = config.c1 * tau_i < np.atleast_1d(s)
            candidates = iter(zip(ks, gate, ps, acc))
            continue
        k, open_gate, p, prob = item
        trials += 1
        accepted = open_gate and p < 2.0 * prob
        if accepted:
            found.append(k)
            j += 1
            trials = 0
        elif trials >= config.max_trials:
            # no acceptable point within the budget: the uncertainty gate
            # is (almost) closed, so the whole iteration moves on
            log.info("rejection sampling: point %d/%d exhausted %d trials; "
                     "skipping the rest of this iteration", j + 1, n_loop,
                     config.max_trials)
            break
    return np.array(found) if found else np.zeros((0, space.dim))


def pointwise_bands(post, delta):
    """Pointwise credible band functions m -+ z_{1-delta/2} sigma."""
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    z = ndtri(1.0 - delta / 2.0)

    def lower(k):
        m, s = post.mean_std(np.atleast_2d(k))
        return m - z * s

    def upper(k):
        m, s = post.mean_std(np.atleast_2d(k))
        return m + z * s

    return lower, upper


def sandwich_sets(lower, upper, gamma):
    """Inner/outer membership predicates {band >= gamma}; inner <= outer."""

    def inner(k):
        return np.atleast_1d(lower(k)) >= gamma

    def outer(k):
        return np.atleast_1d(upper(k)) >= gamma

    return inner, outer


def nikodym_bound_mc(lower, upper, gamma, space, sobol, n_eval):
    """Volume of {upper >= gamma > lower} by quasi-Monte Carlo.

    Evaluated on the first n_eval points of the stream's fixed
    low-discrepancy sequence; bounds the Nikodym error of the plug-in
    set whenever lower/upper form a credible band.
    """
    if n_eval < 1:
        raise ValueError("n_eval must be positive")
    pts = sobol.points(n_eval)
    lo = np.atleast_1d(lower(pts))
    hi = np.atleast_1d(upper(pts))
    if np.any(lo > hi):
        raise ValueError("band functions are not ordered")
    inside = (hi >= gamma) & (gamma > lo)
    return space.volume * float(inside.mean())


@dataclass
class _LoopState:
    points: list = field(default_factory=list)
    values: list = field(default_factory=list)
    noises: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    discarded: list = field(default_factory=list)
    iteration_born: list = field(default_factory=list)

    def add(self, k, est, iteration):
        self.points.append(np.asarray(k, dtype=float))
        self.values.append(est.mu_hat)
        self.noises.append(est.tau_sq)
        self.counts.append(est.n)
        self.discarded.append(est.discarded)
        self.iteration_born.append(iteration)

    def kept(self):
        keep = ~np.array(self.discarded, dtype=bool)
        pts = np.array(self.points)[keep]
        vals = np.array(self.values)[keep]
        noi = np.array(self.noises)[keep]
        return pts, vals, noi


def run_active_learning(config, space, simulator, gamma, master_seed,
                        on_iteration=None):
    """Full estimation loop; returns the per-iteration LevelSetEstimates.

    ``simulator(k, rng)`` draws one replicate of u(Q_k).  The loop is a
    pure function of (config, space, simulator, gamma, master_seed):
    every random stream is derived deterministically from the seed.
    Iteration i's estimate is produced after refitting on the cumulative
    dataset (an iteration that accepted no point keeps the previous fit
    and bound); index 0 is the initialization.

    ``on_iteration(estimate, state)`` is called after each iteration,
    e.g. to persist artifacts; failures abort with partial results
    already delivered through the callback.
    """
    from .env import replicate_rng

    state = _LoopState()

    def estimate_at(points, iteration, check_discard):
        tau_i = config.tau(iteration)
        n_max = config.n_max_at(iteration)
        for j, k in enumerate(points):
            rng = replicate_rng(master_seed, 1, iteration, j)
            est = sequential_mc(lambda r: simulator(k, r), tau_i,
                                config.n_min, n_max, rng)
            if check_discard and np.sqrt(est.tau_sq) >= config.c3 * tau_i:
                est.discarded = True
            state.add(k, est, iteration)

    # Phase 1: uniform exploration, frozen hyperparameters and scaling
    init_rng = replicate_rng(master_seed, 0)
    x0 = space.uniform(init_rng, config.n_initial)
    estimate_at(x0, 0, check_discard=False)
    pts, vals, noi = state.kept()
    base = GprDataset(pts, vals, noi)
    kern = fit_hyperparameters(base, config.kernel_variant,
                               rng=replicate_rng(master_seed, 2))
    post = posterior(base, kern)

    sobol = SobolStream(space)
    estimates = []

    def error_bound(post_i):
        lower, upper = pointwise_bands(post_i, config.delta)
        return nikodym_bound_mc(lower, upper, gamma, space, sobol, config.n_eval)

    def finish_iteration(i, post_i, e_hat):
        est = LevelSetEstimate(iteration=i, posterior=post_i, gamma=gamma,
                               delta=config.delta, e_hat=e_hat)
        estimates.append(est)
        if on_iteration is not None:
            on_iteration(est, state)

    e_hat = error_bound(post)
    finish_iteration(0, post, e_hat)

    for i in range(1, config.iterations + 1):
        if config.error_stop is not None and e_hat <= config.error_stop:
            log.info("error bound %.4g below stop threshold; ending loop", e_hat)
            break
        rng_i = replicate_rng(master_seed, 3, i)
        new_points = rejection_sample(config.n_loop, post, gamma,
                                      config.tau(i), config.c2_at(i),
                                      config, space, rng_i)
        if len(new_points) == 0:
            # unchanged data: the previous posterior and bound still hold
            log.info("iteration %d: uncertainty gate closed everywhere", i)
        else:
            estimate_at(new_points, i, check_discard=True)
            pts, vals, noi = state.kept()
            data_i = GprDataset(pts, vals, noi, mu_bar=base.mu_bar, s_bar=base.s_bar)
            post = posterior(data_i, kern)
            e_hat = error_bound(post)
        finish_iteration(i, post, e_hat)

    return estimates
