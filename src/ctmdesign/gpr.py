"""Heteroscedastic Gaussian process regression on a design space.

The unknown response surface is modeled as a zero-mean Gaussian process
after an affine standardization of the observations: with sample mean
mu_bar and sample standard deviation s_bar of the raw values,

    nu_k = (mu_hat_k - mu_bar) / s_bar,      noise tau_k^2 / s_bar^2.

The posterior given noisy observations is

    m(k)     = Sigma(X, k)^T (Sigma(X, X) + diag(tau^2))^{-1} nu
    c(k, k') = c(k, k') - Sigma(X, k)^T (Sigma(X, X) + diag(tau^2))^{-1} Sigma(X, k')

evaluated through a cached Cholesky factorization (never an explicit
inverse) and retransformed by m -> m * s_bar + mu_bar, sigma -> sigma *
s_bar.  Hyperparameters (signal standard deviation, length scale) are
selected once on the initial dataset by maximizing the log marginal
likelihood with derivative-free multi-start search and are frozen for
the rest of a run.

Kernels: squared exponential and the half-integer Matern family
(nu = 1/2, 3/2, 5/2) through their closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "Kernel",
    "GprDataset",
    "GprPosterior",
    "posterior",
    "log_marginal_likelihood",
    "fit_hyperparameters",
]

KERNEL_VARIANTS = ("squared_exponential", "matern12", "matern32", "matern52")

#: jitter escalation for the SPD factorization, relative to sigma_c^2
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance with signal std-dev sigma_c and length scale l."""

    variant: str
    sigma_c: float
    length: float

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if not self.sigma_c > 0 or not self.length > 0:
            raise ValueError("kernel hyperparameters must be positive")

    def matrix(self, x1, x2):
        """Cross-covariance matrix between two point sets (n1, r), (n2, r)."""
        x1 = np.atleast_2d(np.asarray(x1, dtype=float))
        x2 = np.atleast_2d(np.asarray(x2, dtype=float))
        if x1.shape[1] != x2.shape[1]:
            raise ValueError("kernel inputs must share the design dimension")
        d2 = (np.sum(x1 ** 2, axis=1)[:, None] + np.sum(x2 ** 2, axis=1)[None, :]
              - 2.0 * x1 @ x2.T)
        dist = np.sqrt(np.maximum(d2, 0.0)) / self.length
        s2 = self.sigma_c ** 2
        if self.variant == "squared_exponential":
            return s2 * np.exp(-0.5 * dist ** 2)
        if self.variant == "matern12":
            return s2 * np.exp(-dist)
        if self.variant == "matern32":
            z = _SQRT3 * dist
            return s2 * (1.0 + z) * np.exp(-z)
        z = _SQRT5 * dist
        return s2 * (1.0 + z + z ** 2 / 3.0) * np.exp(-z)


class GprDataset:
    """Noisy observations (k, mu_hat_k, tau_k^2) plus standardization constants.

    ``mu_bar`` and ``s_bar`` default to the sample statistics of the
    values; a degenerate spread falls back to s_bar = 1 with a warning.
    Construct with explicit constants to bypass standardization.
    """

    def __init__(self, points, values, noises, mu_bar=None, s_bar=None):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.values = np.asarray(values, dtype=float)
        self.noises = np.asarray(noises, dtype=float)
        n = len(self.points)
        if len(self.values) != n or len(self.noises) != n:
            raise ValueError("points, values and noises must have equal length")
        if np.any(self.noises < 0):
            raise ValueError("noise variances must be non-negative")
        if mu_bar is None:
            mu_bar = float(self.values.mean()) if n else 0.0
        if s_bar is None:
            s_bar = float(self.values.std(ddof=1)) if n > 1 else 0.0
            if not s_bar > 0:
                warnings.warn("degenerate value spread; standardizing with s_bar = 1")
                s_bar = 1.0
        if not s_bar > 0:
            raise ValueError("s_bar must be positive")
        self.mu_bar = float(mu_bar)
        self.s_bar = float(s_bar)

    def __len__(self):
        return len(self.points)

    @property
    def standardized_values(self):
        return (self.values - self.mu_bar) / self.s_bar

    @property
    def standardized_noises(self):
        return self.noises / self.s_bar ** 2


def _factor(kern, dataset):
    """Cholesky factor of Sigma + diag(tau~^2), with jitter escalation."""
    sigma = kern.matrix(dataset.points, dataset.points)
    noise = np.diag(dataset.standardized_noises)
    s2 = kern.sigma_c ** 2
    last_err = None
    for jitter in _JITTERS:
        try:
            return cho_factor(sigma + noise + jitter * s2 * np.eye(len(dataset)),
                              lower=True)
        except np.linalg.LinAlgError as err:
            last_err = err
    raise np.linalg.LinAlgError(
        f"covariance factorization failed after jitter escalation: {last_err}")


class GprPosterior:
    """Evaluable posterior mean and standard deviation over the design space.

    Immutable and shareable: evaluation at query points has no side
    effects.  Mean and std-dev are returned on the original (raw) scale.
    Large query batches are processed in blocks to keep the cross-kernel
    matrices small.
    """

    QUERY_BLOCK = 8192

    def __init__(self, dataset, kern):
        self.dataset = dataset
        self.kernel = kern
        self._cho = _factor(kern, dataset)
        self._alpha = cho_solve(self._cho, dataset.standardized_values)

    def _blocks(self, queries):
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        for start in range(0, len(queries), self.QUERY_BLOCK):
            yield queries[start:start + self.QUERY_BLOCK]

    def _mean_var_block(self, block, want_var):
        kx = self.kernel.matrix(self.dataset.points, block)
        m_std = kx.T @ self._alpha
        if not want_var:
            return m_std, None
        # var = c(k,k) - ||L^{-1} kx||^2, one triangular solve per block
        from scipy.linalg import solve_triangular

        factor, lower = self._cho
        v = solve_triangular(factor, kx, lower=lower, trans=0 if lower else 1,
                             check_finite=False)
        var = self.kernel.sigma_c ** 2 - np.einsum("ij,ij->j", v, v)
        return m_std, var

    def mean(self, queries):
        """Posterior mean at the query points (raw scale)."""
        parts = [self._mean_var_block(b, False)[0] for b in self._blocks(queries)]
        out = np.concatenate(parts) * self.dataset.s_bar + self.dataset.mu_bar
        return out if out.size > 1 else float(out[0])

    def std(self, queries):
        """Posterior standard deviation at the query points (raw scale)."""
        parts = [self._mean_var_block(b, True)[1] for b in self._blocks(queries)]
        var = np.concatenate(parts)
        out = np.sqrt(np.maximum(var, 0.0)) * self.dataset.s_bar
        return out if out.size > 1 else float(out[0])

    def mean_std(self, queries):
        means, variances = [], []
        for block in self._blocks(queries):
            m, v = self._mean_var_block(block, True)
            means.append(m)
            variances.append(v)
        m_std = np.concatenate(means)
        var = np.concatenate(variances)
        return (m_std * self.dataset.s_bar + self.dataset.mu_bar,
                np.sqrt(np.maximum(var, 0.0)) * self.dataset.s_bar)

    @property
    def prior_std(self):
        """Upper bound of the posterior std-dev, sigma_c on the raw scale."""
        return self.kernel.sigma_c * self.dataset.s_bar


def posterior(dataset, kern):
    """Posterior of the zero-mean prior given the standardized dataset."""
    return GprPosterior(dataset, kern)


def log_marginal_likelihood(dataset, kern):
    """Log evidence of the standardized observations under the kernel.

    -(1/2) nu^T K^{-1} nu - (1/2) log det K - (n/2) log 2 pi  with
    K = Sigma + diag(tau~^2).
    """
    cho = _factor(kern, dataset)
    nu = dataset.standardized_values
    alpha = cho_solve(cho, nu)
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    n = len(dataset)
    return float(-0.5 * nu @ alpha - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi))


def fit_hyperparameters(dataset, variant, n_starts=10, rng=None, tol=1e-6):
    """Maximize the log marginal likelihood over (sigma_c, length).

    Derivative-free local searches (Nelder-Mead in log-parameters) from
    ``n_starts`` points drawn log-uniformly over [1e-2, 1e2] times the
    data scale.  The best local maximum wins; if every start fails the
    fallback (sample std-dev, median pairwise distance) is returned with
    a warning.
    """
    from scipy.optimize import minimize

    if len(dataset) < 3:
        raise ValueError("hyperparameter fitting needs at least 3 points")
    if len(np.unique(dataset.points, axis=0)) < 3:
        raise ValueError("hyperparameter fitting needs at least 3 distinct points")
    rng = np.random.default_rng(rng)

    diffs = dataset.points[:, None, :] - dataset.points[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=-1))
    pos = dists[dists > 0]
    length_scale = float(np.median(pos)) if len(pos) else 1.0
    value_scale = 1.0  # data is standardized

    def objective(log_params):
        sigma_c, length = np.exp(log_params)
        try:
            return -log_marginal_likelihood(
                dataset, Kernel(variant, sigma_c, length))
        except (np.linalg.LinAlgError, FloatingPointError, ValueError):
            return 1e30

    best = None
    for _ in range(n_starts):
        start = np.log([value_scale, length_scale]) + rng.uniform(
            math.log(1e-2), math.log(1e2), size=2)
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": tol, "fatol": tol, "maxiter": 500})
        if not np.isfinite(res.fun) or res.fun >= 1e29:
            continue
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        warnings.warn("all hyperparameter searches failed; using data-scale fallback")
        return Kernel(variant, value_scale, length_scale)
    sigma_c, length = np.exp(best.x)
    return Kernel(variant, float(sigma_c), float(length))
