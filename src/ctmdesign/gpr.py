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
the rest of a run.  The search is an in-package Nelder-Mead, a port of
scipy's that visits the same points (scipy's ``minimize`` is the test
oracle), and each of its likelihood evaluations starts from the
dataset's distance matrix, computed once: it divides by the length
scale, applies the closed form, adds noise and jitter to the diagonal in
place and calls LAPACK's potrf and potrs directly, with the same bits as
``cho_factor``/``cho_solve`` of the summed matrix.

LAPACK and BLAS come from scipy's compiled f2py modules
``scipy.linalg._flapack`` (dpotrf for the factor, dpotrs for alpha = K^{-1}
nu) and ``scipy.linalg._fblas`` (dtrsm for L^{-1} Sigma(X, k) per query
block).  Each is loaded once, from its file in scipy's install directory,
at its first use (``import scipy`` and the extension, about 15 ms), so
``scipy/linalg/__init__.py`` and the array-API chain it imports (150-260
ms) never run.  ``cho_factor`` and ``cho_solve`` call the same wrappers
with the same arguments (for a lower, Fortran-ordered factor), as does
``scipy.linalg.blas.dtrsm``, so the bits are the same; the tests keep
those calls as oracles.  cho_solve's checks are kept: a non-finite value
or factor raises ValueError.

Kernels: squared exponential and the half-integer Matern family
(nu = 1/2, 3/2, 5/2) through their closed forms.  A kernel matrix is
evaluated in place, in the IEEE operation order of the plain expression
(kept in the tests as the oracle): the gemm (2 x1) x2^T, the broadcast
sum of squared norms minus it, max(., 0), sqrt and / l into one (n1, n2)
buffer, then the variant's closed form, e.g. s2 * (1 + z) * exp(-z) for
Matern-3/2, with the gemm result reused as the exp buffer.  Posterior
queries run in cache-sized blocks of 1024 points (see ``GprPosterior``).

Nested posteriors share their kernel rows and their solves.  When each
dataset of a list of posteriors is a prefix of the largest one and all
share one kernel (as in a level-set run, whose kept points are only
appended), ``nested_query`` builds a query block's kernel columns once,
against the largest dataset, and each posterior reads the leading n_i
rows.  A row of ``Kernel.matrix(X, Q)`` has the same bits as the row of
``Kernel.matrix(X[:n], Q)`` for n >= 2 on this BLAS build (pinned by
``tests/test_gpr.py``), so every posterior gets the bits of its own
``mean_std``.  Not for n = 1: numpy's
matmul takes a gemv for a one-row gemm, whose bits can differ; a fit
needs 3 points, so no loop posterior has one.

A refit forms one factor chain with the fit before it:
``posterior(dataset, kern, previous)`` copies ``previous``'s factor L0
and extends it by the new points' block, B = K21 L0^{-T} by dtrsm and
L_S = chol(K22 + diag(tau~^2 + jitter sigma_c^2) - B B^T) by dpotrf
(Chevalier, Ginsbourger & Emery 2014, "Corrected kriging update formulae
for batch-sequential data assimilation"), with the jitter
``_JITTERS[0]``.  It does so when the previous points and standardized
noises are a prefix of the new ones, the kernel is the same and the
previous factor has the jitter ``_JITTERS[0]``; otherwise, or when S
cannot be factored, the factor is computed afresh, as without
``previous``.  Every factor of a chain is then a leading block of the
last one, bit for bit.  The leading n columns of a right-side dtrsm by a
factor have the bits of the solve by its leading n x n block, and so do
their einsum sums of squares (pinned by ``tests/test_gpr.py``, a
property of this BLAS build).  So one variance solve per query block and
chain, by its largest factor, serves every posterior of the chain with
the bits of its own ``mean_std``.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np

__all__ = [
    "Kernel",
    "GprDataset",
    "GprPosterior",
    "posterior",
    "nested_query",
    "log_marginal_likelihood",
    "fit_hyperparameters",
]

KERNEL_VARIANTS = ("squared_exponential", "matern12", "matern32", "matern52")

#: jitter escalation for the SPD factorization, relative to sigma_c^2
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)

#: points of a query pack: 8 per CPU.  OpenBLAS shares a solve's rows evenly
#: among its threads, one per CPU unless set lower; with a thread count that
#: divides the CPU count, each share is whole 8-row groups (see GprPosterior)
_PACK = 8 * (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())

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
        dist, g = _distances(x1, x2)
        return self.of_distances(dist, out=dist, exp_buf=g)

    def of_distances(self, dist, out=None, exp_buf=None):
        """The covariance at unscaled distances ``dist``: / l, then the closed form.

        Writes into ``out`` (a fresh array if None; it may be ``dist``) and
        uses ``exp_buf``, an array shaped like ``dist``, as the exp buffer.
        """
        out = np.divide(dist, self.length, out=out)
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
        g = np.empty_like(out) if exp_buf is None else exp_buf
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


def _distances(x1, x2):
    """Unscaled distances between (n1, r) and (n2, r), and the spare gemm buffer."""
    g = (2.0 * x1) @ x2.T
    out = np.add(np.sum(x1 ** 2, axis=1)[:, None],
                 np.sum(x2 ** 2, axis=1)[None, :])
    np.subtract(out, g, out=out)
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    return out, g


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

    # computed once: every likelihood evaluation of a fit reads them

    @functools.cached_property
    def distances(self):
        """Unscaled distances between the points, in Fortran order for LAPACK."""
        return np.asfortranarray(_distances(self.points, self.points)[0])

    @functools.cached_property
    def standardized_values(self):
        return (self.values - self.mu_bar) / self.s_bar

    @functools.cached_property
    def standardized_noises(self):
        return self.noises / self.s_bar ** 2


def scipy_file(*parts):
    """A path inside scipy's install directory; imports only the top-level package."""
    import scipy

    return Path(scipy.__file__).parent.joinpath(*parts)


@functools.cache
def _compiled(name):
    """scipy's compiled module ``scipy.linalg.<name>``, loaded at its first use.

    Loaded from its file, so ``scipy/linalg/__init__.py`` and the array-API
    chain it imports never run.
    """
    name = f"scipy.linalg.{name}"
    directory = scipy_file("linalg")
    spec = PathFinder.find_spec(name, [str(directory)])
    if spec is None:
        raise ImportError(f"{name} not found in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lapack(name):
    """The float64 LAPACK routine ``name`` (``potrf`` -> ``dpotrf``)."""
    return getattr(_compiled("_flapack"), "d" + name)


def _trsm(factor, rows):
    """``rows`` L^{-T} for the lower factor L, solved in place when ``rows``
    is Fortran-ordered: the row-wise form of L^{-1} ``rows.T``."""
    return _compiled("_fblas").dtrsm(1.0, factor, rows, side=1, lower=1, trans_a=1,
                                     overwrite_b=1)


def _packed(rows):
    """``rows`` repeated cyclically to a whole number of ``_PACK``-row packs."""
    if len(rows) % _PACK == 0:
        return rows
    return np.resize(rows, (-(-len(rows) // _PACK) * _PACK, *rows.shape[1:]))


def _check_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _factor(kern, dataset):
    """Lower Cholesky factor of Sigma + diag(tau~^2) and the jitter it needed.

    As ``cho_factor(..., lower=True)`` of the summed matrix: the same bits,
    the same ValueError on non-finite entries, escalation where it failed.
    """
    sigma = kern.of_distances(dataset.distances)
    _check_finite(sigma)  # then only the diagonal can turn non-finite below
    noise = dataset.standardized_noises
    s2 = kern.sigma_c ** 2
    potrf = _lapack("potrf")
    for jitter in _JITTERS:
        c = sigma.copy(order="F")
        diag = c.ravel(order="F")[:: len(c) + 1]
        np.add(diag, noise, out=diag)
        np.add(diag, jitter * s2, out=diag)
        _check_finite(diag)
        c, info = potrf(c, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return c, jitter
    raise np.linalg.LinAlgError(
        "covariance factorization failed after jitter escalation: "
        f"{info}-th leading minor of the array is not positive definite")


def _extended(previous, kern, dataset):
    """``previous``'s factor extended to ``dataset`` by its Schur block, with
    the jitter ``_JITTERS[0]``; None where the chain cannot continue (see
    the module docstring)."""
    n0, n = len(previous.dataset), len(dataset)
    noise = dataset.standardized_noises
    if (previous.kernel != kern or previous.jitter != _JITTERS[0] or not 0 < n0 <= n
            or not np.array_equal(previous.dataset.points, dataset.points[:n0])
            or not np.array_equal(previous.dataset.standardized_noises, noise[:n0])):
        return None
    if n == n0:
        return previous._chol, _JITTERS[0]
    rows = kern.of_distances(dataset.distances[n0:])  # (K21 | K22), Fortran-ordered
    b = _trsm(previous._chol, rows[:, :n0])
    s = rows[:, n0:]
    diag = np.arange(n - n0)
    s[diag, diag] += noise[n0:]
    s[diag, diag] += _JITTERS[0] * kern.sigma_c ** 2
    s -= b @ b.T
    if not np.isfinite(s).all():
        return None
    s, info = _lapack("potrf")(s, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return None
    c = np.zeros((n, n), order="F")
    c[:n0, :n0] = previous._chol
    c[n0:, :n0] = b
    c[n0:, n0:] = s
    return c, _JITTERS[0]


def _factor_solve(kern, dataset, previous=None):
    """The factor L and its jitter, extended from ``previous``'s where it can
    be (``_extended``), else ``_factor``'s, and alpha = K^{-1} nu by potrs.

    As ``cho_solve``: finite values only, info != 0 is an error, and an
    empty dataset (the prior) has an empty alpha.  cho_solve's check of
    the factor is left to the caller: the fit's thousands of likelihood
    evaluations skip it.
    """
    chained = previous is not None and _extended(previous, kern, dataset)
    c, jitter = chained or _factor(kern, dataset)
    nu = dataset.standardized_values
    _check_finite(nu)
    if not len(nu):
        return c, jitter, np.empty(0)
    alpha, info = _lapack("potrs")(c, nu, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return c, jitter, alpha


def _keep_none(m, block):
    """A ``mean_std`` screen that keeps no point: the mean alone."""
    return np.zeros(len(m), dtype=bool)


class GprPosterior:
    """Evaluable posterior mean and standard deviation over the design space.

    Immutable and shareable: evaluation at query points has no side
    effects.  Mean and std-dev are returned on the original (raw) scale.
    Queries are evaluated in blocks of ``QUERY_BLOCK`` columns (see
    ``QueryBlock``).  At 1024 columns a block's (n, 1024) buffers
    stay cache-sized (1 MB at n = 120, 4 MB at n = 500) and are reused
    from the heap, where 8192-column blocks made about ten fresh,
    page-faulting temporaries of 8-33 MB each and passed over them at
    memory speed: a 100,000-point query at n = 500 peaks at about 10 MB
    instead of 190 MB.  Widths from 512 to 2048 ran within about 10% of
    each other.

    Each block is padded to a whole number of packs of ``_PACK`` points
    (8 per CPU) by repeating its points, and the variance solves only
    packs: dtrsm from the right on the block's F-ordered view ``kx.T``,
    in place, so no copy is made.  With OpenBLAS (0.3.30 for scipy's
    dtrsm, 0.3.31 for numpy's gemm and gemv) a row of a solve, and a
    column of the distances' gemm and of the mean's gemv, then has the
    same bits in every pack layout: whatever its block and whichever
    points are queried or solved with it (measured at n up to 700 in all
    four kernels; ``tests/test_gpr.py`` pins it).  An OpenBLAS solve
    shares its rows evenly among its threads, and 8-row groups keep each
    share off the kernels' remainder paths.  So ``mean_std`` can screen a
    block exactly: the variance is then solved only on the points the
    screen keeps, gathered into packs from the block already built.
    """

    QUERY_BLOCK = 1024

    def __init__(self, dataset, kern, previous=None):
        self.dataset = dataset
        self.kernel = kern
        self._chol, self.jitter, self._alpha = _factor_solve(kern, dataset, previous)
        _check_finite(self._chol)  # cho_solve's check of the factor

    def _query(self, queries, screen=None):
        """(mean, std) at the query points (raw scale); see ``mean_std``.

        ``mean``, ``std`` and ``mean_std`` each call it once, so a wrapper
        of any of them sees every query exactly once.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        mean, std = np.empty(len(queries)), np.empty(len(queries))
        for block, cols in nested_query([self], queries):
            mean[block] = cols.mean(self)
            if screen is None:
                std[block] = cols.std(self)
            else:
                keep = np.flatnonzero(screen(mean[block], block))
                s = std[block]
                s[:] = 0.0  # a screened-out point reads s = 0
                s[keep] = cols.std(self, keep)
        return mean, std

    def mean(self, queries):
        """Posterior mean at the query points (raw scale); a float at one point."""
        out = self._query(queries, _keep_none)[0]
        return float(out[0]) if out.size == 1 else out

    def std(self, queries):
        """Posterior standard deviation at the query points (raw scale)."""
        out = self._query(queries)[1]
        return float(out[0]) if out.size == 1 else out

    def mean_std(self, queries, screen=None):
        """Posterior mean and standard deviation arrays (raw scale).

        ``screen(m, block)``, if given, is called once per query block with
        the block's raw-scale mean and its slice of the queries; it returns
        a boolean mask of the block's points whose std is needed.  The
        others are not solved and read 0.
        """
        return self._query(queries, screen)

    def residual_norm(self, start):
        """rho = ||S^{-1/2} r|| of the data from index ``start`` on.

        r are their standardized residuals against the posterior of the
        data before them (same kernel, standardization and jitter), and S
        their posterior covariance there plus diag(tau~^2 + jitter).  S is
        the Schur complement of the leading block of K, so L^{-1} nu is
        (L_old^{-1} nu_old, L_S^{-1} r) and rho the norm of its tail.
        """
        nu = self.dataset.standardized_values[None, :].copy()  # solved in place
        w = _trsm(self._chol, nu)[0, start:]
        return math.sqrt(w @ w)

    @property
    def prior_std(self):
        """Upper bound of the posterior std-dev, sigma_c on the raw scale."""
        return self.kernel.sigma_c * self.dataset.s_bar


def posterior(dataset, kern, previous=None):
    """Posterior of the zero-mean prior given the standardized dataset.

    Its factor extends ``previous``'s, a posterior on a prefix of the
    data, where it can (see the module docstring).
    """
    return GprPosterior(dataset, kern, previous)


def nested_query(posts, queries):
    """Query blocks of one point set, shared by nested posteriors.

    ``posts`` share one kernel, and each one's data points are a prefix of
    the largest dataset's (see the module docstring).  Yields, per block
    of queries, its slice of the queries and a ``QueryBlock``, whose
    kernel columns against the largest dataset are built once and read
    by every posterior, and whose whole-block variances are solved once
    per factor chain.  A block has ``GprPosterior.QUERY_BLOCK`` queries.
    """
    posts = list(posts)
    points = max((p.dataset.points for p in posts), key=len)
    kern = posts[0].kernel
    for p in posts:
        if p.kernel != kern or not np.array_equal(
                p.dataset.points, points[:len(p.dataset)], equal_nan=True):
            raise ValueError("nested posteriors need one kernel, and data points "
                             "that are a prefix of the largest dataset's")
    # per posterior, the largest one whose factor begins with its own
    tops, heads = {}, []
    for p in sorted(posts, key=lambda p: len(p.dataset), reverse=True):
        n = len(p.dataset)
        top = next((t for t in heads if t is p or np.array_equal(t._chol[:n, :n], p._chol)),
                   None)
        if top is None:
            heads.append(top := p)
        tops[id(p)] = top
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    n, width = len(queries), GprPosterior.QUERY_BLOCK
    for lo in range(0, n, width):
        block = slice(lo, min(lo + width, n))
        yield block, QueryBlock(kern, points, queries[block], tops)


class QueryBlock:
    """One block of queries and its kernel columns against a dataset's points.

    Columns are built in packs (``_packed``) of the queries asked for, for
    every row at once, and kept until a request needs one that is not
    built: its columns are then built afresh.  ``mean`` and ``std`` of a
    posterior on the first n points read the leading n rows: the mean by
    one gemv over every built column, the variance of some queries by a
    dtrsm on a packed gather.  The variance of the whole block is solved
    once per factor chain, by its largest factor, and each posterior of
    the chain reads the leading n columns of the solve: on a copy of the
    columns, or in place by the last chain to solve (so read the means
    first).
    """

    def __init__(self, kern, points, queries, tops):
        self.queries = queries
        self._kernel, self._points = kern, points
        self._tops = tops  # id(posterior) -> the posterior whose solve serves it
        self._chains = len({id(top) for top in tops.values()})
        self._k = None  # the columns built, (len(points), packed count)
        self._col = None  # each query's column in _k, -1 if none; None: its index
        self._solved = {}  # id(top) -> the whole block solved by its factor

    def _build(self, idx):
        """Hold the columns of the queries ``idx`` (None: all)."""
        if self._k is not None and (self._col is None or (
                idx is not None and (self._col[idx] >= 0).all())):
            return
        q = self.queries if idx is None else self.queries[idx]
        self._k = self._kernel.matrix(self._points, _packed(q))
        self._col = None
        if idx is not None:
            self._col = np.full(len(self.queries), -1)
            self._col[idx] = np.arange(len(idx))

    def _positions(self, idx):
        return idx if self._col is None else self._col[idx]

    def mean(self, post, idx=None):
        """Raw-scale posterior mean of ``post`` at the queries ``idx`` of the
        block (sorted indices; None for all of them)."""
        if idx is not None and not len(idx):
            return np.empty(0)
        self._build(idx)
        m = self._k[:len(post.dataset)].T @ post._alpha  # every built column
        m = m[:len(self.queries)] if idx is None else m[self._positions(idx)]
        np.multiply(m, post.dataset.s_bar, out=m)
        return np.add(m, post.dataset.mu_bar, out=m)

    def std(self, post, idx=None):
        """Raw-scale posterior std-dev of ``post`` at the queries ``idx``."""
        w = len(self.queries) if idx is None else len(idx)
        if not w:
            return np.empty(0)
        n = len(post.dataset)
        if idx is None:
            rows = self._chain_solve(self._tops[id(post)])[:, :n]
        else:
            self._build(idx)
            rows = np.take(self._k[:n], _packed(self._positions(idx)), axis=1).T
            if rows.size:  # none without data
                rows = _trsm(post._chol, rows)
        v = np.einsum("ij,ij->i", rows, rows)[:w]
        del rows  # freed before the caller's next block is built
        s2 = post.kernel.sigma_c ** 2
        np.subtract(s2, v, out=v)
        np.maximum(v, 0.0, out=v)
        np.sqrt(v, out=v)
        return np.multiply(v, post.dataset.s_bar, out=v)

    def _chain_solve(self, top):
        """kx^T L^{-T} of the whole block by ``top``'s factor L, solved once."""
        rows = self._solved.get(id(top))
        if rows is None:
            n = len(top.dataset)
            self._build(None)
            if len(self._solved) == self._chains - 1:  # the last to solve
                rows, self._k = self._k[:n].T, None
            else:
                rows = self._k[:n].copy().T
            # var = c(k,k) - ||L^{-1} kx||^2, row-wise from kx^T L^{-T}
            if rows.size:  # none without data
                rows = _trsm(top._chol, rows)
            self._solved[id(top)] = rows
        return rows


def log_marginal_likelihood(dataset, kern):
    """Log evidence of the standardized observations under the kernel.

    -(1/2) nu^T K^{-1} nu - (1/2) log det K - (n/2) log 2 pi  with
    K = Sigma + diag(tau~^2).
    """
    c, _, alpha = _factor_solve(kern, dataset)
    nu = dataset.standardized_values
    logdet = 2.0 * float(np.log(c.diagonal()).sum())
    n = len(dataset)
    return float(-0.5 * nu @ alpha - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi))


def _nelder_mead(func, x0, xatol, fatol, maxiter):
    """(x, fun) of a Nelder-Mead search for a minimum of ``func`` from ``x0``.

    A port of scipy 1.17's ``_minimize_neldermead`` (standard coefficients,
    no bounds, no evaluation cap) that evaluates ``func`` at the same points
    in the same order as scipy's ``minimize(method="Nelder-Mead")``,
    the tests' oracle.  It keeps scipy's expressions and its two sorts (the
    vectorized argsort need not be stable).
    """
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        sim[k + 1] = x0
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([func(x) for x in sim], dtype=float)
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    for _ in range(1, maxiter):
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = func(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = func(xc)
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def _distinct_rows(points):
    """How many distinct rows ``points`` has; numpy's ``unique`` over rows
    would import ``numpy.ma`` on its first call."""
    rows = points[np.lexsort(points.T)]
    return 1 + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))


def _median(x):
    """The median of a non-empty 1-D array without NaN, with the bits of
    numpy's ``median``, which would import ``numpy.ma`` on its first call:
    the mean of the middle order statistics."""
    k = len(x) // 2
    lo = k - 1 + len(x) % 2
    return np.partition(x, (lo, k))[lo:k + 1].mean()


def fit_hyperparameters(dataset, variant, n_starts=10, rng=None, tol=1e-6):
    """Maximize the log marginal likelihood over (sigma_c, length).

    Derivative-free local searches (Nelder-Mead in log-parameters) from
    ``n_starts`` points drawn log-uniformly over [1e-2, 1e2] times the
    data scale.  The best local maximum wins; if every start fails the
    fallback (sample std-dev, median pairwise distance) is returned with
    a warning.
    """
    if len(dataset) < 3:
        raise ValueError("hyperparameter fitting needs at least 3 points")
    if _distinct_rows(dataset.points) < 3:
        raise ValueError("hyperparameter fitting needs at least 3 distinct points")
    rng = np.random.default_rng(rng)

    diffs = dataset.points[:, None, :] - dataset.points[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=-1))
    # three distinct points: some distance is positive
    length_scale = float(_median(dists[dists > 0]))
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
        x, fun = _nelder_mead(objective, start, tol, tol, maxiter=500)
        if not np.isfinite(fun) or fun >= 1e29:
            continue
        if best is None or fun < best[1]:
            best = (x, fun)
    if best is None:
        warnings.warn("all hyperparameter searches failed; using data-scale fallback")
        return Kernel(variant, value_scale, length_scale)
    sigma_c, length = np.exp(best[0])
    return Kernel(variant, float(sigma_c), float(length))
