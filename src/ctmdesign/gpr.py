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
(nu = 1/2, 3/2, 5/2) through their closed forms.  A kernel matrix is
evaluated in place, in the IEEE operation order of the plain expression
(kept in the tests as the oracle): the gemm (2 x1) x2^T, the broadcast
sum of squared norms minus it, max(., 0), sqrt and / l into one (n1, n2)
buffer, then the variant's closed form, e.g. s2 * (1 + z) * exp(-z) for
Matern-3/2, with the gemm result reused as the exp buffer.  Posterior
queries run in cache-sized blocks of 1024 points (see ``GprPosterior``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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
        """Cross-covariance matrix between two point sets (n1, r), (n2, r).

        Evaluated in place, bit-identical to the plain expression (see the
        module docstring for the operation order).
        """
        x1 = np.atleast_2d(np.asarray(x1, dtype=float))
        x2 = np.atleast_2d(np.asarray(x2, dtype=float))
        if x1.shape[1] != x2.shape[1]:
            raise ValueError("kernel inputs must share the design dimension")
        g = (2.0 * x1) @ x2.T
        out = np.add(np.sum(x1 ** 2, axis=1)[:, None],
                     np.sum(x2 ** 2, axis=1)[None, :])
        np.subtract(out, g, out=out)
        np.maximum(out, 0.0, out=out)
        np.sqrt(out, out=out)
        np.divide(out, self.length, out=out)  # out = dist
        s2 = self.sigma_c ** 2
        if self.variant == "squared_exponential":
            np.multiply(out, out, out=out)
            np.multiply(out, -0.5, out=out)
            np.exp(out, out=out)
            return np.multiply(out, s2, out=out)
        if self.variant == "matern12":
            np.negative(out, out=out)
            np.exp(out, out=out)
            return np.multiply(out, s2, out=out)
        np.multiply(out, _SQRT3 if self.variant == "matern32" else _SQRT5, out=out)
        np.negative(out, out=g)
        np.exp(g, out=g)  # g = exp(-z)
        if self.variant == "matern32":
            np.add(out, 1.0, out=out)
        else:
            zz3 = np.multiply(out, out)
            np.divide(zz3, 3.0, out=zz3)
            np.add(out, 1.0, out=out)
            np.add(out, zz3, out=out)
        np.multiply(out, s2, out=out)
        return np.multiply(out, g, out=out)


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
    # scipy.linalg is imported where it is used, so that commands which
    # fit no GP (simulate, calibrate) do not pay for it at start-up
    from scipy.linalg import cho_factor

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
    Queries are evaluated in blocks of ``QUERY_BLOCK`` columns into
    preallocated outputs.  At 1024 columns a block's (n, 1024) buffers
    stay cache-sized (1 MB at n = 120, 4 MB at n = 500) and are reused
    from the heap, where 8192-column blocks made about ten fresh,
    page-faulting temporaries of 8-33 MB each and passed over them at
    memory speed: a 100,000-point query at n = 500 peaks at about 10 MB
    instead of 190 MB.  Widths from 512 to 2048 ran within about 10% of
    each other.  The mean is bit-identical for any width from 256 up; the
    triangular solve of the variance is too up to about 400 data points,
    above which the BLAS may move the variance's last bits.
    """

    QUERY_BLOCK = 1024

    def __init__(self, dataset, kern):
        self.dataset = dataset
        self.kernel = kern
        from scipy.linalg import cho_solve

        self._cho = _factor(kern, dataset)
        self._alpha = cho_solve(self._cho, dataset.standardized_values)

    def _query(self, queries, want_mean, want_std):
        """(mean, std) at the query points (raw scale), None where not wanted."""
        from scipy.linalg import solve_triangular

        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        n = len(queries)
        mean = np.empty(n) if want_mean else None
        var = np.empty(n) if want_std else None
        factor, lower = self._cho
        for lo in range(0, n, self.QUERY_BLOCK):
            hi = lo + self.QUERY_BLOCK
            kx = self.kernel.matrix(self.dataset.points, queries[lo:hi])
            if want_mean:
                np.matmul(kx.T, self._alpha, out=mean[lo:hi])
            if want_std:
                # var = c(k,k) - ||L^{-1} kx||^2, one triangular solve per block
                kx = solve_triangular(factor, kx, lower=lower,
                                      trans=0 if lower else 1, check_finite=False)
                np.einsum("ij,ij->j", kx, kx, out=var[lo:hi])
            del kx  # freed before the next block's kernel matrix is built
        data = self.dataset
        if want_mean:
            np.multiply(mean, data.s_bar, out=mean)
            np.add(mean, data.mu_bar, out=mean)
        if want_std:
            np.subtract(self.kernel.sigma_c ** 2, var, out=var)
            np.maximum(var, 0.0, out=var)
            np.sqrt(var, out=var)
            np.multiply(var, data.s_bar, out=var)
        return mean, var

    def mean(self, queries):
        """Posterior mean at the query points (raw scale); a float at one point."""
        out = self._query(queries, True, False)[0]
        return float(out[0]) if out.size == 1 else out

    def std(self, queries):
        """Posterior standard deviation at the query points (raw scale)."""
        out = self._query(queries, False, True)[1]
        return float(out[0]) if out.size == 1 else out

    def mean_std(self, queries):
        """Posterior mean and standard deviation arrays (raw scale)."""
        return self._query(queries, True, True)

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
    from scipy.linalg import cho_solve

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
