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
   Phi(x) is erfc(-x sqrt(1/2)) / 2 with libm's erfc, per element,
   within 1e-13 relative of ``scipy.special.ndtr``; it feeds only the
   accept test p < 2 I(k), with p uniform on the 2^-53 grid.

Each iteration yields a plug-in estimate {m_i >= gamma} together with
the pointwise credible band m_i +/- z_{1-delta/2} sigma_i.  The band
gives inner and outer sets {lower >= gamma} and {upper >= gamma}; the
volume between them, estimated by quasi-Monte Carlo on Sobol points
drawn once per run, bounds the Nikodym estimation error with
probability 1 - delta pointwise.  ``band`` gives both band edges from
m and sigma.

Within a run the kernel and the standardization stay the same and the
kept data only grows, new points appended at the end.  Each refit
extends the last fit's Cholesky factor by the factor of S below (the
factor chain of ``gpr.posterior``) when the last fit needed no jitter
and S can be factored; otherwise the factor is computed afresh, with the
jitter it needs, and a fit whose jitter differs from the last one's
starts the bound afresh.  Between such fits the posterior std can only
fall from fit to fit, and the mean moves boundedly: with r the new
points' standardized residuals against the previous posterior and S
their covariance there plus diag(tau~^2 + jitter), the batch kriging
update (Chevalier, Ginsbourger & Emery 2014) reads
m_i(k) - m_{i-1}(k) = c_{i-1}(k, X_new) S^{-1} r, and by Cauchy-Schwarz

    |m_i(k) - m_{i-1}(k)| <= rho_i * s_{i-1}(k),    rho_i = ||S^{-1/2} r||.

The bound keeps, per Sobol point, the last known std s_ref and the mean
m_ref of the last fit that computed it.  All the points added since that
fit make one batch, whose rho (at most the sum of the fits' rho) bounds
the mean's move.  So a point with |m_ref - gamma| >= (z + rho) * s_ref
(plus a rounding slack) lies outside the band for certain and gets no
kernel row at all; of the others, only those with |m - gamma| within
z * s_ref (plus the slack) have their variance solved.  Likewise the
"absolute" rejection sampler solves sigma only for the candidates whose
acceptance draw needs the gate.  Neither changes a bit of the results,
as the queried points keep the bits of a full query (see
``GprPosterior``); the manifest of ``estimate-levelset`` records how many
means and variances were computed.

The loop itself needs no bound unless ``error_stop`` is set, so the
fits are bounded after it, in one pass over blocks of Sobol points
(``_ErrorBound``): a point's state goes through the fits in their
order, so every screen, count and bound is the one of a pass per fit,
while each block's kernel columns are built once, against the last
fit's data (``gpr.nested_query``); with ``error_stop`` set, each fit
as it comes, by the same screens.  So ``estimate-levelset`` writes the
grids and error bounds once after the loop in every mode, and a run
that fails inside the loop leaves none of them.
"""

from __future__ import annotations

import logging
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .evaluation import sequential_mc
from .gpr import GprDataset, fit_hyperparameters, nested_query, posterior, scipy_file
from .normal import ndtri

__all__ = [
    "DesignSpace",
    "LoopConfig",
    "LevelSetEstimate",
    "sobol_points",
    "band",
    "rejection_sample",
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


#: acquisition variants: I(k) from the gap |m(k) - gamma| as it is, or
#: divided by sigma(k)
ACQUISITION_VARIANTS = ("absolute", "scaled")


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
    acquisition_variant: str = "absolute"   # see ACQUISITION_VARIANTS
    delta: float = 0.05
    n_eval: int = 100000
    error_stop: float = None
    kernel_variant: str = "matern32"

    def __post_init__(self):
        if self.n_initial < 1 or self.n_loop < 1 or self.iterations < 0:
            raise ValueError("budgets must be positive")
        if len(self.tau_schedule) < self.iterations + 1:
            raise ValueError("tau schedule must cover init + all iterations")
        if len(self.n_max) != 1 and len(self.n_max) < self.iterations + 1:
            raise ValueError("n_max must be one bound or cover init + all iterations")
        if any(t <= 0 for t in self.tau_schedule):
            raise ValueError("target noises must be positive")
        if self.c1 <= 1:
            raise ValueError("c1 must exceed 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.n_eval < 1:
            raise ValueError("n_eval must be at least 1")
        if self.acquisition_variant not in ACQUISITION_VARIANTS:
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


#: bits of the Sobol integers; the sequence has at most 2^30 points
_SOBOL_BITS = 30


def _sobol_directions(dim):
    """Direction numbers v[d, b] of the first ``dim`` Sobol axes.

    The primitive polynomials and initial numbers are the Joe-Kuo set
    that scipy ships as a data file for ``scipy.stats.qmc.Sobol``; it is
    read directly, so ``scipy.stats`` is never imported.  The remaining
    numbers follow the recurrence of Bratley & Fox (1988), Algorithm 659.
    """
    with np.load(scipy_file("stats", "_sobol_direction_numbers.npz")) as data:
        poly, vinit = data["poly"][:dim], data["vinit"][:dim]
    v = np.zeros((dim, _SOBOL_BITS), dtype=np.int64)
    v[0] = 1
    for d in range(1, dim):
        p = int(poly[d])
        m = p.bit_length() - 1
        v[d, :m] = vinit[d, :m]
        for j in range(m, _SOBOL_BITS):
            new = int(v[d, j - m])
            for i in range(m):
                if (p >> (m - 1 - i)) & 1:
                    new ^= int(v[d, j - i - 1]) << (i + 1)
            v[d, j] = new
    return v << np.arange(_SOBOL_BITS - 1, -1, -1)


def sobol_points(space, n):
    """First n points of the unscrambled Sobol sequence, scaled into the box.

    Point i is the XOR of the direction numbers selected by the Gray code
    of i, built in index order by one cumulative XOR, over 30 bits; the
    points equal ``scipy.stats.qmc.Sobol(d, scramble=False).random(n)``
    bit for bit.  The loop draws them once per run, so error-bound
    comparisons across iterations are free of Monte Carlo fluctuation.
    """
    if n > 2 ** _SOBOL_BITS:
        raise ValueError(f"at most 2^{_SOBOL_BITS} Sobol points, got {n}")
    v = _sobol_directions(space.dim)
    j = np.arange(1, n, dtype=np.int64)
    # point j = point j-1 XOR the direction of the lowest set bit of j
    low_bit = np.frexp((j & -j).astype(float))[1] - 1
    x = np.zeros((n, space.dim), dtype=np.int64)
    np.bitwise_xor.accumulate(v[:, low_bit].T, axis=0, out=x[1:])
    return space.scale_unit(x * 2.0 ** -_SOBOL_BITS)


@dataclass
class LevelSetEstimate:
    """One iteration's estimate: posterior, threshold, band level, error bound."""

    iteration: int
    posterior: object
    gamma: float
    delta: float
    e_hat: float = None


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _phi(x):
    """The standard normal CDF of a float array, from libm's erfc."""
    return 0.5 * _ERFC(x * -math.sqrt(0.5)).astype(float)


def _acceptance(m, s, gamma, c2, variant):
    """Phi(-c2 |m - gamma|), the gap divided by s in the "scaled" variant."""
    gap = np.abs(np.atleast_1d(m) - gamma)
    if variant != "absolute":
        gap = gap / np.maximum(np.atleast_1d(s), 1e-300)
    return _phi(-c2 * gap)


def rejection_sample(n_loop, post, gamma, tau_i, c2, config, space, rng,
                     solved=None):
    """Propose up to n_loop points from the acquisition density.

    Uniform candidates are kept only when the posterior uncertainty
    still dominates the Monte Carlo target (c1 * tau_i < sigma(k)), then
    accepted with probability 2 * I(k).  A candidate budget per point
    avoids spinning when the gate is closed almost everywhere; points
    that exhaust it are skipped with a log entry.  Candidates are drawn
    and evaluated in batches; the per-point trial accounting matches the
    one-at-a-time loop.  In the "absolute" variant I(k) needs the mean
    alone, so sigma(k) is solved only for the candidates with
    p < 2 * I(k), the only ones whose gate is read.  ``solved``, a list,
    gets the number of candidates whose std was solved appended.
    """
    batch = 256
    absolute = config.acquisition_variant == "absolute"
    found = []
    j = 0
    trials = 0
    n_solved = 0
    candidates = iter(())
    while j < n_loop:
        item = next(candidates, None)
        if item is None:
            ks = space.uniform(rng, batch)
            ps = rng.random(batch)
            if absolute:
                acc = np.empty(batch)
                wanted = np.empty(batch, dtype=bool)

                def screen(m, block):
                    acc[block] = _acceptance(m, None, gamma, c2, "absolute")
                    wanted[block] = ps[block] < 2.0 * acc[block]
                    return wanted[block]

                _, s = post.mean_std(ks, screen)
                n_solved += int(np.count_nonzero(wanted))
            else:
                m, s = post.mean_std(ks)
                acc = _acceptance(m, s, gamma, c2, config.acquisition_variant)
                n_solved += batch
            gate = config.c1 * tau_i < s
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
    if solved is not None:
        solved.append(n_solved)
    return np.array(found) if found else np.zeros((0, space.dim))


def band(m, s, z):
    """(lower, upper) = m -+ z s, the pointwise credible band at z = z_{1-delta/2}.

    {lower >= gamma} and {upper >= gamma} are the inner and outer sets
    around the plug-in set {m >= gamma}.
    """
    half = z * s
    return m - half, m + half


def _in_band(lower, upper, gamma):
    """Which points lie in the band: upper >= gamma > lower."""
    return (upper >= gamma) & (gamma > lower)


def nikodym_bound_mc(lower, upper, gamma, volume, n=None):
    """Volume of {upper >= gamma > lower} by quasi-Monte Carlo.

    ``lower`` and ``upper`` are a credible band evaluated at the run's
    Sobol points in a box of the given volume, or at those of its ``n``
    points that can lie in the band; the result bounds the Nikodym error
    of the plug-in set.
    """
    inside = int(np.count_nonzero(_in_band(lower, upper, gamma)))
    return volume * (inside / (len(lower) if n is None else n))


@contextmanager
def timed(seconds, phase):
    """Add the wall time of the ``with`` body to ``seconds[phase]``, a float."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        seconds[phase] += time.perf_counter() - t0


class _ErrorBound:
    """Nikodym error bounds of a run's fits on its Sobol points.

    Per Sobol point it keeps the last known std s_ref, and the mean m_ref
    of the last fit that computed it with that fit's index; per fit since
    the bound started afresh, the fit's data size (see the module
    docstring).  Called with the run's next estimates, in order, it sets
    their ``e_hat``: it replays their fits' screens point by point in one
    pass over the Sobol blocks, each block's kernel columns built once,
    against the last fit's data (``nested_query``), when a fit's screen
    first needs them.  A point's state goes through the fits in their
    order, so each bound, and each count of means and variances, is the
    one of a pass per fit.  An estimate that shares the posterior before
    it (an idle iteration) shares its bound.
    """

    def __init__(self, space, config, gamma, state):
        self.sobol = sobol_points(space, config.n_eval)
        self.volume, self.gamma = space.volume, gamma
        self.z = ndtri(1.0 - config.delta / 2.0)
        self.state = state
        n = len(self.sobol)
        self.bound = np.empty(n)
        self.m_ref = np.zeros(n)
        self.ref_fit = np.zeros(n, dtype=np.min_scalar_type(config.iterations))
        self.sizes = []
        self.jitter = None
        self.last = self.e_hat = None  # the last posterior bounded, and its bound

    def __call__(self, estimates):
        """Set ``e_hat`` of ``estimates``, the run's next ones in order."""
        fits, last = [], self.last
        for est in estimates:
            post = est.posterior
            if post is last:
                continue
            last = post
            reset = post.jitter != self.jitter
            if reset:  # more jitter can raise the variance
                self.sizes.clear()
                self.jitter = post.jitter
            self.sizes.append(len(post.dataset))
            # per reference fit: rho of all the points added since
            drift = np.array([post.residual_norm(n) for n in self.sizes])
            fits.append((post, reset, drift, len(self.sizes) - 1, 1e-3 * post.prior_std))
        bounds = iter(self._bounds(fits) if fits else ())
        for est in estimates:
            if est.posterior is not self.last:
                self.last, self.e_hat = est.posterior, next(bounds)
            est.e_hat = self.e_hat

    def _bounds(self, fits):
        """The bounds of ``fits``, (posterior, reset, drift, index, slack) each."""
        gamma, z = self.gamma, self.z
        # per fit: the band at the points in it, block by block
        inside = [([], []) for _ in fits]
        n_means, n_vars = [0] * len(fits), [0] * len(fits)
        for block, cols in nested_query([fit[0] for fit in fits], self.sobol):
            bound, m_ref, ref_fit = self.bound[block], self.m_ref[block], self.ref_fit[block]
            for f, (post, reset, drift, index, slack) in enumerate(fits):
                if reset:
                    bound.fill(np.inf)
                    ref_fit.fill(0)
                # the mean moved by at most drift * s_ref since m_ref
                reach = (z + drift[ref_fit]) * bound * (1 + 1e-6) + slack
                pts = np.flatnonzero(np.abs(m_ref - gamma) < reach)
                m = cols.mean(post, pts if len(pts) < len(m_ref) else None)
                # only a point within z * s_ref of gamma can lie in the band
                solved = np.abs(m - gamma) < z * (bound[pts] * (1 + 1e-6) + slack)
                m_ref[pts] = m
                ref_fit[pts] = index
                s = cols.std(post, pts[solved])
                bound[pts[solved]] = s
                # only a point with a solved variance has a band of nonzero width
                lower, upper = band(m[solved], s, z)
                near = _in_band(lower, upper, gamma)
                inside[f][0].append(lower[near])
                inside[f][1].append(upper[near])
                n_means[f] += len(pts)
                n_vars[f] += len(s)
        self.state.mean_points.extend(n_means)
        self.state.variance_points.extend(n_vars)
        return [nikodym_bound_mc(np.concatenate(lows), np.concatenate(ups), gamma,
                                 self.volume, len(self.sobol)) for lows, ups in inside]


@dataclass
class _LoopState:
    # per design point: the point, its Monte Carlo estimate (a
    # SequentialEstimate) and the iteration that added it
    points: list = field(default_factory=list)
    estimates: list = field(default_factory=list)
    born: list = field(default_factory=list)
    # per fit: Sobol points whose mean and whose variance were computed;
    # per rejection sampling: candidates whose std was solved
    mean_points: list = field(default_factory=list)
    variance_points: list = field(default_factory=list)
    std_candidates: list = field(default_factory=list)
    # wall seconds per loop phase
    seconds: dict = field(default_factory=lambda: dict.fromkeys(
        ("smc", "fit", "rejection", "bound_pass"), 0.0))

    def add(self, k, est, iteration):
        self.points.append(np.asarray(k, dtype=float))
        self.estimates.append(est)
        self.born.append(iteration)

    def replicate_counts(self):
        """Replicates used (sum of n) and drawn, and why the points stopped."""
        stops = [est.stop for est in self.estimates]
        return {"replicates_used": sum(est.n for est in self.estimates),
                "replicates_drawn": sum(est.drawn for est in self.estimates),
                "target_stops": stops.count("target"),
                "cap_stops": stops.count("cap")}

    def kept(self):
        """Points, values and noises of the points not discarded."""
        keep = [not est.discarded for est in self.estimates]
        pts = np.array(self.points)[keep]
        vals = np.array([est.mu_hat for est in self.estimates])[keep]
        noi = np.array([est.tau_sq for est in self.estimates])[keep]
        return pts, vals, noi


def run_active_learning(config, space, simulator, gamma, master_seed,
                        on_iteration=None):
    """Full estimation loop; returns the per-iteration LevelSetEstimates.

    ``simulator(ks, rngs)`` draws one replicate of u(Q_k) per generator
    in the list ``rngs``, replicate j at design ``ks[j]`` (``ks`` has one
    row per generator), and returns their values in order, consuming each
    generator as consecutive one-generator calls would.  Each design point
    has its own generator.  The first n_min replicates of all of an
    iteration's points are drawn as one list (point 0's generator n_min
    times, then point 1's, and so on); ``sequential_mc`` then continues
    each point in chunks from its own generator.  The loop is a pure
    function of (config, space, simulator, gamma, master_seed): every
    random stream is derived deterministically from the seed.
    Iteration i's estimate is produced after refitting on the cumulative
    dataset (an iteration that accepted no point keeps the previous fit
    and bound); index 0 is the initialization.

    ``on_iteration(estimate, state)`` is called as each iteration ends,
    e.g. to persist the dataset; a failure aborts the loop, and only
    what the callback saved remains.  The error bounds ``e_hat`` are
    set by ``_ErrorBound``: for all fits in one pass over the Sobol
    points after the loop, so the callback sees ``estimate.e_hat`` None
    and the returned estimates carry it; with ``config.error_stop`` set,
    each fit's as it comes, for the stop rule, so the callback sees it
    too.  Either way the bounds are the same.
    """
    from .env import replicate_rng

    state = _LoopState()
    seconds = state.seconds

    def estimate_at(points, iteration, check_discard):
        tau_i = config.tau(iteration)
        n_max = config.n_max_at(iteration)
        n_min = config.n_min
        rngs = [replicate_rng(master_seed, 1, iteration, j)
                for j in range(len(points))]
        first = simulator(np.repeat(points, n_min, axis=0),
                          [g for g in rngs for _ in range(n_min)])
        for j, (k, rng) in enumerate(zip(points, rngs)):
            def draw(chunk, k=k):
                return simulator(np.broadcast_to(k, (len(chunk), len(k))), chunk)

            est = sequential_mc(draw, tau_i, n_min, n_max, rng,
                                first=first[j * n_min:(j + 1) * n_min])
            if check_discard and np.sqrt(est.tau_sq) >= config.c3 * tau_i:
                est.discarded = True
            state.add(k, est, iteration)

    # Phase 1: uniform exploration, frozen hyperparameters and scaling
    init_rng = replicate_rng(master_seed, 0)
    x0 = space.uniform(init_rng, config.n_initial)
    with timed(seconds, "smc"):
        estimate_at(x0, 0, check_discard=False)
    with timed(seconds, "fit"):
        pts, vals, noi = state.kept()
        base = GprDataset(pts, vals, noi)
        kern = fit_hyperparameters(base, config.kernel_variant,
                                   rng=replicate_rng(master_seed, 2))
        post = posterior(base, kern)

    error_bound = _ErrorBound(space, config, gamma, state)
    estimates = []

    def finish_iteration(i, post_i):
        estimates.append(LevelSetEstimate(iteration=i, posterior=post_i, gamma=gamma,
                                          delta=config.delta))
        if config.error_stop is not None:
            with timed(seconds, "bound_pass"):
                error_bound(estimates[-1:])
        if on_iteration is not None:
            on_iteration(estimates[-1], state)

    finish_iteration(0, post)

    for i in range(1, config.iterations + 1):
        e_hat = estimates[-1].e_hat
        if config.error_stop is not None and e_hat <= config.error_stop:
            log.info("error bound %.4g below stop threshold; ending loop", e_hat)
            break
        rng_i = replicate_rng(master_seed, 3, i)
        with timed(seconds, "rejection"):
            new_points = rejection_sample(config.n_loop, post, gamma,
                                          config.tau(i), config.c2_at(i),
                                          config, space, rng_i,
                                          solved=state.std_candidates)
        if len(new_points) == 0:
            # unchanged data: the previous posterior and bound still hold
            log.info("iteration %d: uncertainty gate closed everywhere", i)
        else:
            with timed(seconds, "smc"):
                estimate_at(new_points, i, check_discard=True)
            with timed(seconds, "fit"):
                pts, vals, noi = state.kept()
                data_i = GprDataset(pts, vals, noi, mu_bar=base.mu_bar, s_bar=base.s_bar)
                post = posterior(data_i, kern, post)
        finish_iteration(i, post)

    if config.error_stop is None:
        with timed(seconds, "bound_pass"):
            error_bound(estimates)
    return estimates
