"""Utilities, performance statistics, benchmark thresholds, sequential MC.

A simulated trajectory is scored by a performance statistic Q, mapped
through a non-decreasing utility u, and averaged over replicates to
estimate mu(k) = E[u(Q_k)].  Replication stops once the sample noise
(sample variance / n) falls below a target, subject to a minimum and
maximum number of replicates:

    n = min( min{ n >= n_min : var_n / n <= tau^2 }, n_max ).

Acceptance thresholds gamma are calibrated as expected utilities of
benchmark flow distributions e * 2 * X with X ~ Beta(beta, beta), where
beta is chosen to match a target standard deviation of X through
sigma(X) = 1 / sqrt(8 beta + 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.stats import beta as beta_dist

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
    """Non-decreasing scalar utility; callable on floats and arrays."""

    kind: str
    c: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "polynomial", "expectile", "sqrt"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.kind == "polynomial" and self.alpha < 1:
            raise ValueError("polynomial utility requires alpha >= 1")
        if self.kind == "expectile" and self.alpha > 0.5:
            raise ValueError("expectile utility requires alpha <= 1/2")

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
# ---------------------------------------------------------------------------

class AvgNetworkFlow:
    """Time-averaged total outflow over all routes."""

    name = "avg_network_flow"

    def __init__(self):
        self._sum = 0.0
        self._steps = 0

    def __call__(self, t, rho_before, record):
        self._sum += float(record.q_out.sum())
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

    name = "throughput"

    def __init__(self, route_indices):
        self.idx = np.asarray(route_indices, dtype=np.intp)
        self._removed = 0.0
        self._attempted = 0.0

    def __call__(self, t, rho_before, record):
        if record.q_aux is None:
            return
        net = record.q_net[self.idx]
        aux = record.q_aux[self.idx]
        self._removed += float(np.maximum(-net, 0.0).sum())
        self._attempted += float(np.maximum(aux, 0.0).sum())

    def value(self):
        return self._removed / self._attempted if self._attempted > 0 else 0.0


class AvgVelocity:
    """Time-averaged flow/density ratio on two designated routes.

    When a route is (numerically) empty the summand is taken to be the
    node's free-flow speed factor, the free-flow limit of q_out / rho.
    """

    name = "avg_velocity"
    EMPTY = 1e-12

    def __init__(self, route_indices, free_flow):
        self.idx = np.asarray(route_indices, dtype=np.intp)
        self.free_flow = np.asarray(free_flow, dtype=float)
        self._sum = 0.0
        self._steps = 0

    def __call__(self, t, rho_before, record):
        rho = rho_before[self.idx]
        q = record.q_out[self.idx]
        ratio = np.where(rho < self.EMPTY, self.free_flow, q / np.maximum(rho, self.EMPTY))
        self._sum += float(ratio.sum())
        self._steps += 1

    def value(self):
        return self._sum / self._steps if self._steps else 0.0


# ---------------------------------------------------------------------------
# Benchmark calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkSpec:
    """Benchmark flow distribution e * 2 * X, X ~ Beta(beta, beta)."""

    e: float
    sigma_target: float

    def __post_init__(self):
        if not 0 < self.sigma_target < 0.5:
            raise ValueError("sigma target must lie in (0, 1/2)")

    @property
    def beta(self):
        """Shape solving 1 / sqrt(8 beta + 4) = sigma_target."""
        return (1.0 / self.sigma_target ** 2 - 4.0) / 8.0

    def sample(self, rng, n):
        return self.e * 2.0 * rng.beta(self.beta, self.beta, size=n)


def calibrate_threshold(bench, utility, rel_tol=1e-8):
    """Expected utility of the benchmark flow, by adaptive quadrature.

    gamma = E[u(e * 2 * X)] with X ~ Beta(beta, beta), computed to the
    requested relative tolerance.  Deterministic, so thresholds are
    reproducible across runs.
    """
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
                                points=points or None, epsrel=rel_tol,
                                epsabs=0.0, limit=200)
    if not math.isfinite(value):
        raise ArithmeticError("benchmark quadrature did not converge")
    if abs(err) > max(1e-12, 100 * rel_tol * abs(value)):
        raise ArithmeticError(
            f"benchmark quadrature error {err} too large for value {value}")
    return value


# ---------------------------------------------------------------------------
# Sequential Monte Carlo estimation of a function value
# ---------------------------------------------------------------------------

@dataclass
class SequentialEstimate:
    """Stopped sample mean with its realized noise tau^2 = var / n."""

    mu_hat: float
    tau_sq: float
    n: int
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


def sequential_mc(draw, tau_target, n_min, n_max, rng):
    """Estimate a mean by i.i.d. replication with a noise-targeted stop.

    ``draw(rng)`` produces one replicate of u(Q_k).  Sampling stops at
    the first n >= n_min with var_n / n <= tau_target^2, or at n_max.
    Replicates are generated in index order so the stopping decision is
    reproducible regardless of any parallel scheduling upstream.
    """
    if n_min < 2:
        raise ValueError("n_min must be at least 2")
    if n_max < n_min:
        raise ValueError("n_max must be at least n_min")
    if tau_target < 0:
        raise ValueError("target noise must be non-negative")
    acc = _RunningMoments()
    target = tau_target ** 2
    while True:
        acc.push(float(draw(rng)))
        if acc.n >= n_min and acc.variance / acc.n <= target:
            break
        if acc.n >= n_max:
            break
    return SequentialEstimate(mu_hat=acc.mean, tau_sq=acc.variance / acc.n, n=acc.n)

