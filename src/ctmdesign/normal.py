"""The standard normal quantile, bit for bit that of scipy.special.

``ndtri`` (Phi^{-1}) evaluates the Cephes rational approximation (S. L.
Moshier, *Methods and Programs for Mathematical Functions*, 1989) that
``scipy.special.ndtri`` evaluates, with the same coefficients, branches
and operation order, so every result equals scipy's by ``==``.  It
spares the replicate path the import of ``scipy.special``, which takes
most of the package's start-up.  (The acquisition's Phi is libm's
``erfc``; see ``learning``.)

``log`` and ``exp`` are libm's, called once per element through
``math``, as scipy's compiled code calls them.  numpy's vectorized
``np.log`` rounds some results differently from libm (about 0.35% of
uniform draws, numpy 2.4 on an AVX-512 x86-64 CPU), which would change
the drawn trajectories.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["libm_exp", "libm_log", "ndtri"]

_EXP = np.frompyfunc(math.exp, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)


def libm_exp(x):
    """libm's exp of each element of a float array."""
    return _EXP(x).astype(float)


def libm_log(x):
    """libm's log of each element of a positive float array."""
    return _LOG(x).astype(float)


# Cephes' tables; each denominator's leading 1.0 is implicit there (p1evl).
# ndtri: central interval, then z = sqrt(-2 log y) below and above 8
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2, 2.00260212380060660359E2,
       -8.20372256168333339912E1, 1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1, 2.50464946208309415979E0,
       -1.42182922854787788574E-1, -3.80806407691578277194E-2,
       -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1, 1.34204006088543189037E-2,
       3.28014464682127739104E-4, 2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y):
    """Phi^{-1}(y) elementwise: -inf at 0, inf at 1, nan outside [0, 1]."""
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.full(flat.shape, np.nan)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    upper = flat > 1.0 - _EXPM2
    t = np.where(upper, 1.0 - flat, flat)
    mid = np.flatnonzero(t > _EXPM2)
    c = t[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0))) * _S2PI
    tail = np.flatnonzero((t > 0.0) & (t <= _EXPM2))
    x = np.sqrt(-2.0 * libm_log(t[tail]))
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)  # y < exp(-32)
    x1[far] = z[far] * _polevl(z[far], _P2) / _polevl(z[far], _Q2)
    x = x - libm_log(x) / x - x1
    np.negative(x, out=x, where=~upper[tail])
    out[tail] = x
    return out.reshape(y.shape)[()]

