"""The standard normal CDF and quantile, bit for bit those of scipy.special.

``ndtri`` (Phi^{-1}) and ``ndtr`` (Phi) evaluate the Cephes rational
approximations (S. L. Moshier, *Methods and Programs for Mathematical
Functions*, 1989) that ``scipy.special.ndtri`` and ``scipy.special.ndtr``
evaluate, with the same coefficients, branches and operation order, so
every result equals scipy's by ``==``.  They spare the replicate path the
import of ``scipy.special``, which takes most of the package's start-up.

``log`` and ``exp`` are libm's, called once per element through
``math``, as scipy's compiled code calls them.  numpy's vectorized
``np.log`` rounds some results differently from libm (about 0.35% of
uniform draws, numpy 2.4 on an AVX-512 x86-64 CPU), which would change
the drawn trajectories.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["libm_exp", "libm_log", "ndtr", "ndtri"]

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
# erf on |x| <= 1 (T/U); erfc below x = 8 (P/Q) and from 8 on (R/S)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_SQRTH = 7.07106781186547524401E-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)


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


def _erf(x):
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x):
    """Cephes erfc for x >= sqrt(1/2), 0 where exp(-x^2) underflows."""
    out = np.zeros(x.shape)
    low = x < 1.0
    out[low] = 1.0 - _erf(x[low])
    hi = np.flatnonzero(~low)
    # -x^2 < -MAXLOG from x = 26.65 on: the clip changes no branch and
    # keeps x^2 and the polynomials finite
    w = np.minimum(x[hi], 27.0)
    z = -w * w
    keep = z >= -_MAXLOG
    hi, w, z = hi[keep], w[keep], z[keep]
    near = w < 8.0
    p = np.where(near, _polevl(w, _P), _polevl(w, _R))
    q = np.where(near, _polevl(w, _Q), _polevl(w, _S))
    out[hi] = libm_exp(z) * p / q
    return out


def ndtr(a):
    """Phi(a) elementwise; nan stays nan."""
    x = np.asarray(a, dtype=float) * _SQRTH
    z = np.abs(x)
    out = np.full(x.shape, np.nan)
    mid = z < _SQRTH
    out[mid] = 0.5 + 0.5 * _erf(x[mid])
    tail = z >= _SQRTH
    y = 0.5 * _erfc(z[tail])
    out[tail] = np.where(x[tail] > 0, 1.0 - y, y)
    return out[()]
