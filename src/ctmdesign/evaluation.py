"""Utilities, performance statistics, benchmark thresholds, sequential MC.

A simulated trajectory is scored by a performance statistic Q, mapped
through a non-decreasing utility u, and averaged over replicates to
estimate mu(k) = E[u(Q_k)].  Replication stops once the sample noise
(sample variance / n) falls below a target, subject to a minimum and
maximum number of replicates:

    n = min( min{ n >= n_min : var_n / n <= tau^2 }, n_max ).

The first n_min replicates always run, so the caller may draw them ahead
(the level-set loop draws those of all of an iteration's points as one
batch).  ``sequential_mc`` then continues in chunks sized by the running
variance, the count var_n / tau^2 - n that it predicts is still needed,
and throws away the draws of a chunk that fall past the stopping index.
Values are pushed in index order, so the estimate is the same as
drawing every replicate alone.

Acceptance thresholds gamma are calibrated as expected utilities of
benchmark flow distributions e * 2 * X with X ~ Beta(beta, beta), where
beta is chosen to match a target standard deviation of X through
sigma(X) = 1 / sqrt(8 beta + 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Utility",
    "AvgNetworkFlow",
    "Throughput",
    "AvgVelocity",
    "BenchmarkSpec",
    "calibrate_threshold",
    "SequentialEstimate",
    "sequential_mc",
]


# ---------------------------------------------------------------------------
# Utility functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Utility:
    """Non-decreasing scalar utility; callable on floats and arrays.  Its
    values are taken as given (``config.SCENARIO_SCHEMA`` states each kind's
    parameters and ranges); identity and sqrt have no c and alpha (None)."""

    kind: str
    c: float
    alpha: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            out = x
        elif self.kind == "polynomial":
            out = -np.abs(x - self.c) ** self.alpha * (x <= self.c)
        elif self.kind == "expectile":
            gap = x - self.c
            out = self.alpha * np.maximum(gap, 0) - (1 - self.alpha) * np.maximum(-gap, 0)
        else:
            if np.any(x < 0):
                raise ValueError("square-root utility requires x >= 0")
            out = np.sqrt(x)
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Performance measures (streaming observers over a trajectory)
#
# Each observer follows one replicate's (n_routes,) arrays (a float
# statistic) or a batch's route-major (n_routes, B) ones (B statistics,
# each equal to the one-replicate value; see ``ctmdesign.solvers``).
# ---------------------------------------------------------------------------

def _route_sum(x):
    """Sum over the route axis, through a contiguous (B, k) copy in a batch."""
    return np.add.reduce(np.ascontiguousarray(x.T) if x.ndim == 2 else x, axis=-1)


class AvgNetworkFlow:
    """Time-averaged total outflow over all routes."""

    def __init__(self):
        self._sum = 0.0
        self._steps = 0

    def __call__(self, t, rho_before, record):
        self._sum += _route_sum(record.q_out)
        self._steps += 1

    def value(self):
        return self._sum / self._steps if self._steps else 0.0


class Throughput:
    """Removed flow over attempted inflow on the source/sink routes.

    Numerator: negative parts of the realized net flows.  Denominator:
    positive parts of the attempted flows.  Both restricted to the
    environment's source/sink routes and time-averaged; the averaging
    factors cancel.
    """

    def __init__(self, route_indices):
        self.idx = np.asarray(route_indices, dtype=np.intp)
        self._removed = 0.0
        self._attempted = 0.0

    def __call__(self, t, rho_before, record):
        if record.env is None:
            return
        # one gather of q_aux and q_net, stacked: max(q_aux, 0), max(-q_net, 0)
        flows = record.env.take(self.idx, 1)
        np.negative(flows[1], out=flows[1])
        np.maximum(flows, 0.0, out=flows)
        if flows.ndim == 3:  # one contiguous (2, B, k) copy, as _route_sum's
            flows = np.ascontiguousarray(flows.transpose(0, 2, 1))
        attempted, removed = np.add.reduce(flows, axis=-1)
        self._removed += removed
        self._attempted += attempted

    def value(self):
        attempted = np.asarray(self._attempted, dtype=float)
        out = np.zeros_like(attempted)
        np.divide(self._removed, attempted, out=out, where=attempted > 0)
        return out if out.ndim else float(out)


class AvgVelocity:
    """Time-averaged flow/density ratio on two designated routes.

    When a route is (numerically) empty the summand is taken to be the
    node's free-flow speed factor, the free-flow limit of q_out / rho.
    """

    EMPTY = 1e-12

    def __init__(self, route_indices, free_flow):
        self.idx = np.asarray(route_indices, dtype=np.intp)
        self.free_flow = np.asarray(free_flow, dtype=float)
        self._sum = 0.0
        self._steps = 0

    def __call__(self, t, rho_before, record):
        rho = rho_before.take(self.idx, 0)
        q = record.q_out.take(self.idx, 0)
        free_flow = self.free_flow.reshape(rho.shape[:1] + (1,) * (rho.ndim - 1))
        ratio = np.where(rho < self.EMPTY, free_flow, q / np.maximum(rho, self.EMPTY))
        self._sum += _route_sum(ratio)
        self._steps += 1

    def value(self):
        return self._sum / self._steps if self._steps else 0.0


# ---------------------------------------------------------------------------
# Benchmark calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkSpec:
    """Benchmark flow distribution e * 2 * X, X ~ Beta(beta, beta); the
    schema keeps ``sigma_target`` in (0, 1/2)."""

    e: float
    sigma_target: float

    @property
    def beta(self):
        """Shape solving 1 / sqrt(8 beta + 4) = sigma_target."""
        return (1.0 / self.sigma_target ** 2 - 4.0) / 8.0


#: relative tolerance of the benchmark quadrature
_QUAD_REL_TOL = 1e-8


def calibrate_threshold(bench, utility):
    """Expected utility of the benchmark flow, by adaptive quadrature.

    gamma = E[u(e * 2 * X)] with X ~ Beta(beta, beta), computed to the
    relative tolerance ``_QUAD_REL_TOL``.  Deterministic, so thresholds
    are reproducible across runs.
    """
    # imported here: scipy.stats and scipy.integrate take most of the
    # package's import time, and only calibration needs them
    from scipy import integrate
    from scipy.stats import beta as beta_dist

    b = bench.beta
    pdf = beta_dist(b, b).pdf
    scale = 2.0 * bench.e

    def integrand(x):
        return utility(scale * x) * pdf(x)

    # pass interior kinks of the piecewise utilities as breakpoints
    points = []
    if utility.kind in ("polynomial", "expectile"):
        kink = utility.c / scale
        if 0.0 < kink < 1.0:
            points.append(kink)
    value, err = integrate.quad(integrand, 0.0, 1.0,
                                points=points or None, epsrel=_QUAD_REL_TOL,
                                epsabs=0.0, limit=200)
    if not math.isfinite(value):
        raise ArithmeticError("benchmark quadrature did not converge")
    if abs(err) > max(1e-12, 100 * _QUAD_REL_TOL * abs(value)):
        raise ArithmeticError(
            f"benchmark quadrature error {err} too large for value {value}")
    return value


# ---------------------------------------------------------------------------
# Sequential Monte Carlo estimation of a function value
# ---------------------------------------------------------------------------

#: most replicates one continuation chunk asks for; at most this many
#: minus one are drawn past the stopping index
_MAX_CHUNK = 64


@dataclass
class SequentialEstimate:
    """Stopped sample mean with its realized noise tau^2 = var / n.

    ``drawn`` counts every replicate drawn, including those of the last
    chunk past the stopping index; ``stop`` is ``"target"`` when the
    noise target was met and ``"cap"`` when n_max ended the sampling.
    """

    mu_hat: float
    tau_sq: float
    n: int
    drawn: int
    stop: str
    discarded: bool = False


class _RunningMoments:
    """Numerically stable one-pass mean and variance (Welford)."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, x):
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def variance(self):
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0


def sequential_mc(draw, tau_target, n_min, n_max, rng, first=None):
    """Estimate a mean by i.i.d. replication with a noise-targeted stop.

    ``draw(rngs)`` produces one replicate of u(Q_k) per generator in the
    list ``rngs``, consuming each generator as consecutive one-generator
    calls would.  Every replicate is drawn from ``rng``.  The first n_min
    always run: they are ``first`` when the caller drew them ahead from
    ``rng``, else one batch ``draw([rng] * n_min)``.  Sampling stops at
    the first n >= n_min with var_n / n <= tau_target^2, or at n_max.

    After n_min the sampling continues in chunks ``draw([rng] * c)``:
    c = ceil(var_n / tau_target^2) - n, the count the running variance
    predicts is still needed, clipped to [1, min(64, n_max - n)]
    (min(64, n_max - n) when tau_target is 0).  Values are pushed in
    index order and the stopping rule is checked after each, so the
    estimate is bit-identical to drawing one replicate at a time; the
    draws of the last chunk past the stopping index, at most 63, are
    thrown away.
    """
    if n_min < 2:
        raise ValueError("n_min must be at least 2")
    if n_max < n_min:
        raise ValueError("n_max must be at least n_min")
    if tau_target < 0:
        raise ValueError("target noise must be non-negative")
    acc = _RunningMoments()
    target = tau_target ** 2
    values = draw([rng] * n_min) if first is None else first
    drawn = len(values)
    for value in values:
        acc.push(float(value))

    def done():
        return acc.n >= n_max or not acc.variance / acc.n > target

    while not done():
        c = min(_MAX_CHUNK, n_max - acc.n)
        if target > 0 and acc.variance / target < acc.n + c:
            c = max(1, math.ceil(acc.variance / target) - acc.n)
        chunk = draw([rng] * c)
        drawn += c
        for value in chunk:
            acc.push(float(value))
            if done():
                break
    tau_sq = acc.variance / acc.n
    return SequentialEstimate(mu_hat=acc.mean, tau_sq=tau_sq, n=acc.n,
                              drawn=drawn,
                              stop="target" if tau_sq <= target else "cap")
