"""The in-package normal quantile and CDF against scipy.special.

Every quantile case compares the bits of each result with
``scipy.special.ndtri``'s, and NaN positions with NaN positions.  The
acquisition's CDF (libm's erfc) is compared with ``scipy.special.ndtr``
to a relative 1e-12.  RuntimeWarnings are errors under the project's
pytest settings, so no input may overflow or divide by zero along the
way either.
"""

import math

import numpy as np
import scipy.special as sc
from hypothesis import given, settings, strategies as st

from ctmdesign.env import _U_CLIP
from ctmdesign.learning import _phi
from ctmdesign.normal import ndtri

ORACLE = settings(max_examples=300, deadline=None, derandomize=True)

EXPM2 = math.exp(-2.0)
#: the x = 8 switch of ndtri's tail: y = exp(-32)
EXPM32 = math.exp(-32.0)
#: where exp(-a^2 / 2) underflows and Cephes' erfc turns to 0
UNDERFLOW = -math.sqrt(2.0 * 7.09782712893383996843E2)


def assert_same(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    nan = np.isnan(theirs)
    assert np.array_equal(np.isnan(ours), nan)
    assert np.array_equal(ours[~nan].view(np.int64), theirs[~nan].view(np.int64))


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def near(x, rel):
    """Floats within a relative distance ``rel`` of x."""
    lo, hi = sorted((x * (1 - rel), x * (1 + rel)))
    return st.floats(lo, hi)


uniforms = st.floats(0.0, 1.0)
log_uniforms = st.floats(-323.3, 0.0).map(lambda e: 10.0 ** e)  # down to 5e-324
near_one = st.integers(1, 17).map(lambda k: 1.0 - 10.0 ** -k)
quantile_inputs = st.one_of(uniforms, log_uniforms, near_one, near(EXPM32, 1e-6),
                            near(EXPM2, 1e-12), near(1.0 - EXPM2, 1e-12))


@ORACLE
@given(st.lists(quantile_inputs, min_size=1, max_size=64))
def test_ndtri_equals_scipy(ys):
    assert_same(ndtri(np.array(ys)), sc.ndtri(np.array(ys)))


def test_ndtri_equals_scipy_on_a_block_of_draws():
    # numpy's np.log rounds differently from libm on a few in 10,000 tail
    # values, too rarely for the examples above to meet one; the sources
    # draw (steps, n_sources) blocks
    rng = np.random.default_rng(0)
    ys = np.stack([rng.random(100_000), EXPM2 * rng.random(100_000)], axis=1)
    assert_same(ndtri(ys), sc.ndtri(ys))


def test_ndtri_edges_equal_scipy():
    ys = [0.0, 1.0, 5e-324, 2.2250738585072014e-308, _U_CLIP, 1.0 - _U_CLIP,
          *neighbours(EXPM2), *neighbours(1.0 - EXPM2), *neighbours(EXPM32),
          *neighbours(0.5), -0.0, -1e-300, -1.0, math.nextafter(1.0, 2.0), 2.0,
          np.inf, -np.inf, np.nan]
    assert_same(ndtri(np.array(ys)), sc.ndtri(np.array(ys)))
    for y in ys:
        assert_same(ndtri(y), sc.ndtri(y))
    assert type(ndtri(0.975)) is type(sc.ndtri(0.975))
    assert_same(ndtri(np.zeros((3, 0))), sc.ndtri(np.zeros((3, 0))))


normals = st.floats(-8.0, 8.0)
cdf_inputs = st.one_of(
    normals, st.floats(-40.0, 40.0), st.floats(allow_nan=True, allow_infinity=True),
    *(near(sign * edge, 1e-12) for sign in (1, -1)
      for edge in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0))),
    near(UNDERFLOW, 1e-9), near(UNDERFLOW, 1e-3))


def assert_close_to_ndtr(xs):
    """Within 1e-12 relative of scipy's Phi where that exceeds 1e-300, NaN
    where it is NaN, and below that both within 1e-300 of each other."""
    xs = np.asarray(xs, dtype=float)
    ours, theirs = _phi(xs), sc.ndtr(xs)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    nan = np.isnan(theirs)
    assert np.array_equal(np.isnan(ours), nan)
    big = theirs > 1e-300
    assert np.all(np.abs(ours[big] - theirs[big]) <= 1e-12 * theirs[big])
    tiny = ~nan & ~big
    assert np.all(np.abs(ours[tiny] - theirs[tiny]) <= 1e-300)


@ORACLE
@given(st.lists(cdf_inputs, min_size=1, max_size=64))
def test_phi_is_close_to_scipy(xs):
    assert_close_to_ndtr(xs)


def test_ndtr_equals_scipy_on_a_block_of_draws():
    # the largest relative gap found on a grid of [-40, 40] was 5.7e-14
    assert_close_to_ndtr(np.linspace(-40.0, 40.0, 400_001))
    assert_close_to_ndtr(12.0 * np.random.default_rng(0).standard_normal(200_000))


def test_ndtr_edges_equal_scipy():
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), -UNDERFLOW, 1e300,
             np.finfo(float).max, np.inf]
    xs = [0.0, -0.0, 5e-324, -5e-324, np.nan]
    for edge in edges:
        xs += neighbours(edge) + neighbours(-edge)
    assert_close_to_ndtr(xs)
    for x in xs:
        assert_close_to_ndtr([x])
    assert_close_to_ndtr(np.zeros((0, 2)))
