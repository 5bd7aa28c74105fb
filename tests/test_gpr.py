import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as gamma_fn, kv

import reference
from ctmdesign import gpr
from ctmdesign.gpr import (KERNEL_VARIANTS, GprDataset, GprPosterior, Kernel,
                           _nelder_mead, fit_hyperparameters, log_marginal_likelihood,
                           posterior)
from reference import kernel_eval, kernel_matrix


def matern_bessel_oracle(nu, sigma_c, length, dist):
    """General-nu Matern covariance via the modified Bessel function."""
    if dist == 0:
        return sigma_c ** 2
    z = math.sqrt(2 * nu) * dist / length
    return sigma_c ** 2 * (2 ** (1 - nu) / gamma_fn(nu)) * z ** nu * kv(nu, z)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_at_zero_distance_is_signal_variance():
    for variant in ("squared_exponential", "matern12", "matern32", "matern52"):
        kern = Kernel(variant, sigma_c=1.7, length=0.9)
        assert kernel_eval(kern, [0.3, 0.4], [0.3, 0.4]) == pytest.approx(1.7 ** 2)


def test_squared_exponential_at_one_length_scale():
    kern = Kernel("squared_exponential", sigma_c=2.0, length=0.5)
    assert kernel_eval(kern, [0.0], [0.5]) == pytest.approx(4.0 * math.exp(-0.5))


def test_matern32_closed_form_and_bessel_oracle():
    kern = Kernel("matern32", sigma_c=1.0, length=1.0)
    got = kernel_eval(kern, [0.0], [1.0])
    assert got == pytest.approx((1 + math.sqrt(3)) * math.exp(-math.sqrt(3)))
    assert got == pytest.approx(0.48335, abs=1e-5)
    rng = np.random.default_rng(0)
    for variant, nu in (("matern12", 0.5), ("matern32", 1.5), ("matern52", 2.5)):
        kern = Kernel(variant, sigma_c=1.3, length=0.7)
        for _ in range(20):
            d = float(rng.random() * 3)
            assert kernel_eval(kern, [0.0], [d]) == pytest.approx(
                matern_bessel_oracle(nu, 1.3, 0.7, d), rel=1e-9)


def test_kernel_dimension_mismatch():
    kern = Kernel("squared_exponential", 1.0, 1.0)
    with pytest.raises(ValueError):
        kernel_eval(kern, [0.0, 1.0], [0.0])


def test_gram_matrices_positive_semidefinite():
    rng = np.random.default_rng(3)
    for variant in ("squared_exponential", "matern32"):
        kern = Kernel(variant, sigma_c=1.0, length=0.4)
        for _ in range(10):
            x = rng.random((12, 2))
            gram = kern.matrix(x, x)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() >= -1e-8


@settings(max_examples=300, deadline=None, derandomize=True)
@given(variant=st.sampled_from(KERNEL_VARIANTS), sigma_c=st.floats(0.05, 5.0),
       length=st.floats(0.01, 5.0), dim=st.integers(1, 6), n1=st.integers(1, 40),
       n2=st.integers(1, 40), scale=st.floats(0.01, 20.0), same=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_matrix_equals_expression_oracle(variant, sigma_c, length, dim, n1,
                                                n2, scale, same, seed):
    # the in-place evaluation keeps the expression's IEEE operation order
    kern = Kernel(variant, sigma_c, length)
    rng = np.random.default_rng(seed)
    x1 = scale * rng.random((n1, dim))
    x2 = x1 if same else scale * rng.random((n2, dim))
    got = kern.matrix(x1, x2)
    assert got.shape == (n1, len(x2))
    assert np.all(got == kernel_matrix(kern, x1, x2))
    # one row, given as a single design vector
    assert np.all(kern.matrix(x1[0], x2) == kernel_matrix(kern, x1[0], x2))


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------

def naive_posterior(dataset, kern, queries):
    """Direct dense-inverse transcription of the posterior formulas."""
    k_dd = kernel_matrix(kern, dataset.points, dataset.points)
    k_inv = np.linalg.inv(k_dd + np.diag(dataset.standardized_noises))
    k_dq = kernel_matrix(kern, dataset.points, queries)
    nu = dataset.standardized_values
    mean_std = k_dq.T @ k_inv @ nu
    var_std = kern.sigma_c ** 2 - np.einsum("ij,ji->i", k_dq.T, k_inv @ k_dq)
    mean = mean_std * dataset.s_bar + dataset.mu_bar
    std = np.sqrt(np.maximum(var_std, 0)) * dataset.s_bar
    return mean, std


def test_noise_free_interpolation_exact():
    kern = Kernel("squared_exponential", 1.0, 1.0)
    data = GprDataset([[0.2]], [3.7], [0.0], mu_bar=0.0, s_bar=1.0)
    post = posterior(data, kern)
    assert post.mean([[0.2]]) == pytest.approx(3.7, abs=1e-8)
    assert post.std([[0.2]]) == pytest.approx(0.0, abs=1e-6)


def test_single_noisy_observation_half_weight():
    # noise variance equal to the signal variance halves the update
    kern = Kernel("squared_exponential", sigma_c=1.0, length=1.0)
    data = GprDataset([[0.0]], [2.0], [1.0], mu_bar=0.0, s_bar=1.0)
    post = posterior(data, kern)
    assert post.mean([[0.0]]) == pytest.approx(1.0)


def test_far_query_reverts_to_prior():
    kern = Kernel("squared_exponential", sigma_c=1.0, length=0.1)
    data = GprDataset([[0.0], [0.1]], [5.0, 7.0], [0.01, 0.01])
    post = posterior(data, kern)
    far = [[50.0]]
    assert post.mean(far) == pytest.approx(data.mu_bar, abs=1e-6)
    assert post.std(far) == pytest.approx(kern.sigma_c * data.s_bar, abs=1e-6)


def test_posterior_matches_naive_formulas():
    rng = np.random.default_rng(17)
    for n in (1, 3, 7, 10):
        x = rng.random((n, 2))
        y = rng.normal(size=n)
        noise = 0.1 * rng.random(n)
        with (pytest.warns(UserWarning, match="degenerate value spread") if n == 1
              else contextlib.nullcontext()):  # one value: s_bar falls back to 1
            data = GprDataset(x, y, noise)
        for variant in ("squared_exponential", "matern32"):
            kern = Kernel(variant, sigma_c=0.8, length=0.5)
            post = posterior(data, kern)
            queries = rng.random((6, 2))
            ref_mean, ref_std = naive_posterior(data, kern, queries)
            got_mean, got_std = post.mean_std(queries)
            assert got_mean == pytest.approx(ref_mean, abs=1e-8)
            assert got_std == pytest.approx(ref_std, abs=1e-8)


B = GprPosterior.QUERY_BLOCK


@pytest.mark.parametrize("m", [0, 1, B - 1, B, B + 1, 3 * B + 5])
def test_posterior_queries_across_block_edges_match_naive(m):
    rng = np.random.default_rng(53)
    x = rng.random((30, 2))
    data = GprDataset(x, np.sin(5.0 * x[:, 0]) + 0.1 * rng.normal(size=30),
                      0.05 + 0.05 * rng.random(30))
    kern = Kernel("matern32", sigma_c=0.9, length=0.4)
    post = posterior(data, kern)
    q = rng.random((m, 2))
    ref_mean, ref_std = naive_posterior(data, kern, q)
    mean, std = post.mean_std(q)
    assert mean.shape == std.shape == (m,)
    np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(std, ref_std, rtol=0, atol=1e-12)
    if m == 1:  # one point gives floats
        assert post.mean(q) == mean[0] and post.std(q) == std[0]
    else:
        assert np.array_equal(post.mean(q), mean) and post.mean(q).shape == (m,)
        assert np.array_equal(post.std(q), std) and post.std(q).shape == (m,)


def test_posterior_query_memory_stays_block_sized():
    # 100,000 queries at 500 data points: the parent's 8192-wide expression
    # form peaked at 189 MB; the block buffers and outputs take about 10 MB
    rng = np.random.default_rng(59)
    x = rng.random((500, 2))
    post = posterior(GprDataset(x, np.sin(5.0 * x[:, 0]), np.full(500, 0.01)),
                     Kernel("matern32", 0.9, 0.3))
    q = rng.random((100_000, 2))
    tracemalloc.start()
    try:
        post.mean_std(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def _same_bits(got, want):
    """Equal float64 bit patterns, NaN positions matched (their payloads not)."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(variant=st.sampled_from(KERNEL_VARIANTS),
       n=st.one_of(st.integers(1, 500), st.sampled_from([333, 400, 401, 500])),
       m=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 1]), dim=st.integers(1, 3),
       log_length=st.floats(-4.0, 2.0), n_dup=st.integers(0, 3),
       noise_scale=st.sampled_from([0.0, 1e-13, 0.1]),
       bad_query=st.sampled_from([None] * 4 + [np.nan, np.inf]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_posterior_equals_cho_solve_and_solve_triangular_oracle(
        variant, n, m, dim, log_length, n_dup, noise_scale, bad_query, seed):
    # potrs and dtrsm, called directly, are the routines cho_solve and
    # scipy.linalg.blas.dtrsm call with the same arguments: alpha, mean and
    # std-dev keep their bits at any size and block count.  The variance is
    # as accurate as solve_triangular's, within the factor's conditioning
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    x[1:1 + n_dup] = x[0]
    data = GprDataset(x, np.sin(3.0 * x[:, 0]) + rng.normal(size=n),
                      noise_scale * rng.random(n), mu_bar=rng.normal(),
                      s_bar=rng.uniform(0.5, 2.0))
    kern = Kernel(variant, float(rng.uniform(0.5, 2.0)), math.exp(log_length))
    queries = rng.random((m, dim))
    if bad_query is not None:
        queries[m // 2, 0] = bad_query
    want = _outcome(reference.posterior_alpha, kern, data)
    if isinstance(want, type):  # no jitter made the matrix factorizable
        assert _outcome(posterior, data, kern) is want
        return
    post = posterior(data, kern)
    assert _same_bits(post._alpha, want)
    with np.errstate(invalid="ignore"):  # inf - inf in a bad query's distances
        got = post.mean_std(queries)
        oracle = reference.posterior_mean_std(kern, data, queries, gpr._PACK)
        var, cond = reference.posterior_variance(kern, data, queries)
    for g, w in zip(got, oracle):
        assert _same_bits(g, w)
    s2 = kern.sigma_c ** 2
    got_var = (got[1] / data.s_bar) ** 2
    assert np.array_equal(np.isnan(got_var), np.isnan(var))
    ok = ~np.isnan(var)
    tol = 8 * (n + 1) * np.finfo(float).eps * cond * s2
    assert np.all(np.abs(got_var[ok] - np.maximum(var[ok], 0.0)) <= tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(variant=st.sampled_from(KERNEL_VARIANTS),
       n=st.one_of(st.integers(0, 700), st.sampled_from([1, 2, 384, 385, 500, 700])),
       m=st.sampled_from([1, 2, B - 1, B, B + 1, 2 * B + 1]), dim=st.integers(1, 3),
       log_length=st.floats(-4.0, 1.0),
       kept=st.sampled_from(["none", "one", "two", "sparse", "dense", "all"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_screened_query_keeps_the_bits_of_the_full_query(variant, n, m, dim,
                                                         log_length, kept, seed):
    # a point's std has the same bits whichever points are solved with it
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    data = GprDataset(x, np.sin(3.0 * x[:, 0]) + rng.normal(size=n),
                      0.01 + 0.1 * rng.random(n), mu_bar=rng.normal(),
                      s_bar=rng.uniform(0.5, 2.0))
    post = posterior(data, Kernel(variant, float(rng.uniform(0.5, 2.0)),
                                  math.exp(log_length)))
    queries = rng.random((m, dim))
    mean, std = post.mean_std(queries)
    masks = []

    def screen(m_block, block):
        assert _same_bits(m_block, mean[block])
        w = len(m_block)
        p = {"none": 0.0, "sparse": 0.05, "dense": 0.7, "all": 1.0}.get(kept)
        if p is None:
            mask = np.zeros(w, dtype=bool)
            mask[rng.choice(w, size=min(w, 1 if kept == "one" else 2),
                            replace=False)] = True
        else:
            mask = rng.random(w) < p
        masks.append(mask)
        return mask

    got_mean, got_std = post.mean_std(queries, screen)
    need = np.concatenate(masks)
    assert len(need) == m
    assert _same_bits(got_mean, mean)
    assert _same_bits(got_std[need], std[need])
    assert np.all(got_std[~need] == 0.0)


@pytest.mark.parametrize("m, step", [(2, 1), (B, 7)])
def test_each_lone_screened_column_keeps_the_bits_of_the_full_query(m, step):
    # a lone kept point is solved in a pack of copies of itself
    rng = np.random.default_rng(3)
    x = rng.random((120, 2))
    post = posterior(GprDataset(x, np.sin(3.0 * x[:, 0]) + rng.normal(size=120),
                                0.01 + 0.1 * rng.random(120)),
                     Kernel("matern32", 1.3, 0.4))
    queries = rng.random((m, 2))
    std = post.std(queries)
    for j in range(0, m, step):
        _, got = post.mean_std(queries, lambda _, block: np.arange(m)[block] == j)
        assert got[j] == std[j] and np.count_nonzero(got) == 1


@pytest.mark.parametrize("n", [120, 385, 500, 700])
def test_packed_queries_keep_the_bits_of_the_full_block(n):
    # a property of the BLAS build, not of the mathematics: kernel columns,
    # means and dtrsm rows of points gathered into whole packs have the bits
    # they have in a full block, which the exact screens rely on
    rng = np.random.default_rng(n)
    for variant, dim in zip(KERNEL_VARIANTS, (1, 2, 3, 5)):
        x = rng.random((n, dim))
        post = posterior(GprDataset(x, np.sin(3.0 * x[:, 0]) + rng.normal(size=n),
                                    0.01 + 0.1 * rng.random(n)),
                         Kernel(variant, 1.3, 0.4))
        q = rng.random((B, dim))
        kx = post.kernel.matrix(x, q)
        mean = kx.T @ post._alpha
        rows = gpr._trsm(post._chol, kx.T.copy(order="F"))
        for k in (1, 7, gpr._PACK + 3, 333, 49 * gpr._PACK - 3, B - 1):
            pick = gpr._packed(rng.choice(B, size=k, replace=False))
            kg = post.kernel.matrix(x, q[pick])
            same = [_same_bits(kg, kx[:, pick]),
                    _same_bits(kg.T @ post._alpha, mean[pick]),
                    _same_bits(gpr._trsm(post._chol, kg.T), rows[pick])]
            assert all(same), (
                f"{variant}, n = {n}, {len(pick)} gathered points: kernel columns, "
                f"means, dtrsm rows keep their bits: {same}.  This is a property of "
                "the BLAS build (measured with OpenBLAS 0.3.30 and 0.3.31) that the "
                "exact screens of ctmdesign.learning rely on; this BLAS, or its "
                "share of a solve among threads, does not have it")


@pytest.mark.parametrize("n_max", [3, 120, 500])
def test_kernel_row_prefixes_keep_the_bits_of_the_full_matrix(n_max):
    # a property of the BLAS build, not of the mathematics: the leading n
    # rows of a kernel block have the bits of the block built on the first n
    # points alone, for n >= 2, which nested posteriors (gpr.nested_query)
    # rely on; for n = 1 numpy's matmul takes a gemv, whose bits can differ.
    # Blocks are built in whole packs; widths below about 100 keep the bits
    # too, but larger ones that are no multiple of 8 (255, 500, 1023) do not
    rng = np.random.default_rng(n_max)
    widths = (1, 5, gpr._PACK + 3, 3 * gpr._PACK + 1, gpr._PACK, 3 * gpr._PACK,
              49 * gpr._PACK, B)
    for variant, dim in zip(KERNEL_VARIANTS, (1, 2, 3, 5)):
        kern = Kernel(variant, 1.3, 0.4)
        x = rng.random((n_max, dim))
        for w in widths:
            q = rng.random((w, dim))
            full = kern.matrix(x, q)
            for n in sorted({2, 3, n_max // 2, n_max - 1, n_max} - {0, 1}):
                assert _same_bits(kern.matrix(x[:n], q), full[:n]), (
                    f"{variant}, {n} of {n_max} points, {w} queries: the leading "
                    "rows of a kernel block do not keep the bits of the block of "
                    "those points alone.  This is a property of the BLAS build "
                    "(measured with OpenBLAS 0.3.31) that the nested posteriors of "
                    "ctmdesign.gpr.nested_query rely on; this BLAS does not have it")


@pytest.mark.parametrize("n_max", [3, 120, 500])
def test_leading_columns_of_a_solve_keep_the_bits_of_the_leading_block(n_max):
    # a property of the BLAS build, not of the mathematics: the leading n
    # columns of a right-side dtrsm by a factor, kx^T L^{-T}, have the bits
    # of the solve by the factor's leading n x n block, and so do their
    # einsum sums of squares; one solve by the last factor of a chain then
    # serves every posterior of the chain (gpr.QueryBlock)
    rng = np.random.default_rng(n_max)
    widths = (1, 5, gpr._PACK + 3, 3 * gpr._PACK + 1, gpr._PACK, 3 * gpr._PACK,
              49 * gpr._PACK, B)
    for variant, dim in zip(KERNEL_VARIANTS, (1, 2, 3, 5)):
        x = rng.random((n_max, dim))
        post = posterior(GprDataset(x, np.sin(3.0 * x[:, 0]) + rng.normal(size=n_max),
                                    0.01 + 0.1 * rng.random(n_max)),
                         Kernel(variant, 1.3, 0.4))
        for w in widths:
            kx = post.kernel.matrix(x, rng.random((w, dim)))
            full = gpr._trsm(post._chol, kx.T.copy(order="F"))
            for n in sorted({1, 2, n_max // 2, n_max - 1, n_max} - {0}):
                lead = full[:, :n]
                part = gpr._trsm(np.asfortranarray(post._chol[:n, :n]),
                                 kx[:n].T.copy(order="F"))
                same = [_same_bits(lead, part),
                        _same_bits(np.einsum("ij,ij->i", lead, lead),
                                   np.einsum("ij,ij->i", part, part))]
                assert all(same), (
                    f"{variant}, {n} of {n_max} points, {w} queries: the leading "
                    f"columns of a dtrsm and their einsum keep the bits of the solve "
                    f"by the leading block: {same}.  This is a property of the BLAS "
                    "build (measured with OpenBLAS 0.3.30) that the factor chains "
                    "of ctmdesign.gpr rely on; this BLAS does not have it")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(variant=st.sampled_from(KERNEL_VARIANTS),
       sizes=st.lists(st.integers(1, 160), min_size=2, max_size=5).map(sorted),
       dim=st.integers(1, 3), noise_scale=st.sampled_from([0.0, 1e-6, 0.01, 0.1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_an_extended_factor_begins_with_its_parents_and_factors_the_matrix(
        variant, sizes, dim, noise_scale, seed):
    from scipy.linalg import cho_solve

    # the chain copies the parent's factor and appends the Schur block's;
    # where the parent needed no jitter and S factors it must extend, and
    # otherwise it factors afresh, exactly as without a parent
    rng = np.random.default_rng(seed)
    n = sizes[-1]
    x = rng.random((n, dim))
    data = GprDataset(x, np.sin(3.0 * x[:, 0]) + rng.normal(size=n),
                      noise_scale * rng.random(n), mu_bar=rng.normal(),
                      s_bar=rng.uniform(0.5, 2.0))
    kern = Kernel(variant, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 1.0)))
    prev = None
    for m in sizes:
        prefix = GprDataset(x[:m], data.values[:m], data.noises[:m],
                            mu_bar=data.mu_bar, s_bar=data.s_bar)
        post = posterior(prefix, kern, prev)
        fresh = posterior(prefix, kern)
        extended = None if prev is None else gpr._extended(prev, kern, prefix)
        if prev is not None and prev.jitter == 0.0 and noise_scale >= 0.01:
            assert extended is not None  # such an S factors
        if extended is not None:
            n0 = len(prev.dataset)
            assert post.jitter == 0.0 and _same_bits(post._chol, extended[0])
            assert _same_bits(post._chol[:n0, :n0], prev._chol)
        else:
            assert _same_bits(post._chol, fresh._chol) and post.jitter == fresh.jitter
        assert _same_bits(post._alpha, cho_solve((post._chol, True),
                                                 prefix.standardized_values))
        low_err, err, cond = reference.factor_error(post._chol, kern, prefix, post.jitter)
        scale = kern.sigma_c ** 2 + prefix.standardized_noises.max()
        assert low_err <= 16 * (m + 1) * np.finfo(float).eps * scale
        assert err <= 16 * (m + 1) * np.finfo(float).eps * cond * math.sqrt(scale)
        prev = post


def test_a_schur_block_that_cannot_be_factored_falls_back_to_a_fresh_factor(monkeypatch):
    # a first jitter below zero makes the Schur block of a repeated,
    # noise-free point indefinite: the refit is factored afresh, with the
    # jitter escalated as for any fresh factor
    monkeypatch.setattr(gpr, "_JITTERS", (-1e-3, 1e-6))
    rng = np.random.default_rng(8)
    x = 10.0 * rng.random((10, 2))
    x = np.vstack([x, x[:1]])
    kern = Kernel("matern32", 1.0, 0.1)
    data = GprDataset(x, rng.normal(size=11), np.zeros(11), mu_bar=0.0, s_bar=1.0)
    prev = posterior(GprDataset(x[:10], data.values[:10], data.noises[:10],
                                mu_bar=0.0, s_bar=1.0), kern)
    assert prev.jitter == -1e-3
    assert gpr._extended(prev, kern, data) is None
    post, fresh = posterior(data, kern, prev), posterior(data, kern)
    assert post.jitter == fresh.jitter == 1e-6
    assert _same_bits(post._chol, fresh._chol) and _same_bits(post._alpha, fresh._alpha)


def test_a_chain_needs_a_jitter_free_parent_on_a_prefix_with_one_kernel(monkeypatch):
    rng = np.random.default_rng(9)
    x = rng.random((30, 2))
    data = GprDataset(x, np.sin(3.0 * x[:, 0]), 0.01 + 0.1 * rng.random(30),
                      mu_bar=0.0, s_bar=1.0)
    kern = Kernel("matern52", 1.2, 0.3)

    def head(m, **changes):
        parts = {"points": x[:m], "values": data.values[:m], "noises": data.noises[:m],
                 **changes}
        return GprDataset(parts["points"], parts["values"], parts["noises"],
                          mu_bar=0.0, s_bar=parts.get("s_bar", 1.0))

    prev = posterior(head(20), kern)
    assert gpr._extended(prev, kern, data) is not None
    # the values and mu_bar do not enter the factor
    assert gpr._extended(posterior(head(20, values=-data.values[:20]), kern), kern,
                         data) is not None
    for parent, k in [(posterior(head(20), Kernel("matern52", 1.2, 0.31)), kern),
                      (prev, Kernel("matern52", 1.2, 0.31)),
                      (posterior(head(20, points=x[10:30]), kern), kern),
                      (posterior(head(20, noises=data.noises[:20] * 2), kern), kern),
                      (posterior(head(20, s_bar=2.0), kern), kern),
                      (posterior(GprDataset(np.empty((0, 2)), [], [], 0.0, 1.0), kern),
                       kern)]:
        assert gpr._extended(parent, k, data) is None
    with monkeypatch.context() as mp:
        mp.setattr(gpr, "_JITTERS", (1e-8,))
        jittered = posterior(head(20), kern)
    assert jittered.jitter == 1e-8 and gpr._extended(jittered, kern, data) is None
    assert gpr._extended(posterior(data, kern), kern, head(20)) is None  # not a prefix
    whole = posterior(data, kern)  # the same data: nothing to append
    chol, jitter = gpr._extended(whole, kern, data)
    assert chol is whole._chol and jitter == 0.0


def _nested_posteriors(variant, sizes, dim, jittered, rng, chained=False):
    """Posteriors on the leading ``sizes`` of one dataset; those at the
    indices ``jittered`` are factored with the jitter 1e-6.  If
    ``chained``, each extends the one before where it can (a factor chain)."""
    n = sizes[-1]
    x = rng.random((n, dim))
    data = GprDataset(x, np.sin(3.0 * x[:, 0]) + rng.normal(size=n),
                      0.01 + 0.1 * rng.random(n), mu_bar=rng.normal(),
                      s_bar=rng.uniform(0.5, 2.0))
    kern = Kernel(variant, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 1.0)))
    posts = []
    for j, m in enumerate(sizes):
        if posts and len(posts[-1].dataset) == m and j % 2:
            posts.append(posts[-1])  # an iteration that accepted no point
            continue
        prefix = GprDataset(x[:m], data.values[:m], data.noises[:m],
                            mu_bar=data.mu_bar, s_bar=data.s_bar)
        with pytest.MonkeyPatch.context() as mp:
            if j in jittered:
                mp.setattr(gpr, "_JITTERS", (1e-6,))
            posts.append(posterior(prefix, kern, posts[-1] if chained and posts else None))
    return posts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(variant=st.sampled_from(KERNEL_VARIANTS),
       sizes=st.lists(st.integers(2, 160), min_size=1, max_size=6).map(sorted),
       dim=st.integers(1, 3), m=st.sampled_from([1, 7, B - 1, B + 1, 2 * B + 3]),
       jittered=st.sets(st.integers(0, 5), max_size=2),
       screened=st.sampled_from([None, 0.0, 0.3, 1.0]), chained=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nested_query_equals_each_posteriors_own_query(variant, sizes, dim, m, jittered,
                                                       screened, chained, seed):
    # one block's kernel columns serve every posterior: each reads its
    # leading rows and gets the bits of its own mean_std, whichever of the
    # block's points it asks for and in whichever order the fits come; the
    # posteriors of one factor chain share one variance solve
    rng = np.random.default_rng(seed)
    posts = _nested_posteriors(variant, sizes, dim, jittered, rng, chained)
    queries = rng.random((m, dim))
    want = [post.mean_std(queries) for post in posts]
    got = [(np.full(m, np.nan), np.full(m, np.nan)) for _ in posts]
    for block, cols in gpr.nested_query(posts, queries):
        w = len(cols.queries)
        for post, (mean, std) in zip(posts, got):
            idx = None if screened is None else np.flatnonzero(rng.random(w) < 0.5)
            mean[block][slice(None) if idx is None else idx] = cols.mean(post, idx)
            if screened is None:
                std[block] = cols.std(post)
            else:
                keep = np.flatnonzero(rng.random(w) < screened)
                std[block][keep] = cols.std(post, keep)
    for (mean, std), (m_want, s_want) in zip(got, want):
        for g, w_ in ((mean, m_want), (std, s_want)):
            asked = ~np.isnan(g)
            assert _same_bits(g[asked], w_[asked])
        if screened is None:
            assert not np.isnan(mean).any() and not np.isnan(std).any()


def test_nested_query_refuses_posteriors_that_are_not_nested():
    rng = np.random.default_rng(5)
    x = rng.random((20, 2))
    data = GprDataset(x, np.sin(x[:, 0]), np.full(20, 0.01))
    kern = Kernel("matern32", 1.0, 0.4)
    post = posterior(data, kern)
    other = posterior(GprDataset(x[::-1][:10], np.sin(x[::-1][:10, 0]), np.full(10, 0.01)),
                      kern)
    wider = posterior(data, Kernel("matern32", 1.0, 0.5))
    for posts in ([other, post], [post, wider]):
        with pytest.raises(ValueError, match="nested posteriors"):
            next(gpr.nested_query(posts, rng.random((3, 2))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(variant=st.sampled_from(KERNEL_VARIANTS), n_old=st.integers(1, 80),
       n_new=st.integers(0, 30), dim=st.integers(1, 3), log_length=st.floats(-3.0, 1.0),
       noise_scale=st.sampled_from([0.0, 1e-6, 1e-3, 0.1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mean_moves_at_most_rho_times_the_previous_std(variant, n_old, n_new, dim,
                                                      log_length, noise_scale, seed):
    # appending data moves the mean by c_old(k, X_new) S^{-1} r, so by
    # Cauchy-Schwarz |m_new - m_old| <= rho * s_old with rho = ||S^{-1/2} r||
    rng = np.random.default_rng(seed)
    n = n_old + n_new
    x = rng.random((n, dim))
    full = GprDataset(x, np.sin(3.0 * x[:, 0]) + rng.normal(size=n),
                      noise_scale * rng.random(n), mu_bar=rng.normal(),
                      s_bar=rng.uniform(0.5, 2.0))
    old = GprDataset(x[:n_old], full.values[:n_old], full.noises[:n_old],
                     mu_bar=full.mu_bar, s_bar=full.s_bar)
    kern = Kernel(variant, float(rng.uniform(0.5, 2.0)), math.exp(log_length))
    post_old, post_new = posterior(old, kern), posterior(full, kern)
    if post_old.jitter != post_new.jitter:  # the screen starts afresh then
        return
    values = full.standardized_values.copy()
    rho = post_new.residual_norm(n_old)
    assert post_new.residual_norm(n_old) == rho
    assert np.array_equal(full.standardized_values, values)
    if noise_scale >= 1e-3 and n_new:  # rho as its expression
        s2 = kern.sigma_c ** 2
        k = kernel_matrix(kern, x, x) + np.diag(full.standardized_noises
                                                + post_new.jitter * s2)
        gain = np.linalg.solve(k[:n_old, :n_old], k[:n_old, n_old:])
        r = values[n_old:] - gain.T @ values[:n_old]
        schur = k[n_old:, n_old:] - k[n_old:, :n_old] @ gain
        assert rho == pytest.approx(math.sqrt(r @ np.linalg.solve(schur, r)), rel=1e-6)
    q = np.concatenate([rng.random((200, dim)), x])
    m_old, s_old = post_old.mean_std(q)
    # rounding, which grows with the conditioning; the loop allows 1e-3
    cond = np.linalg.cond(np.tril(post_new._chol)) ** 2
    slack = (1e-9 + 10 * np.finfo(float).eps * cond) * post_new.prior_std
    assert np.all(np.abs(post_new.mean(q) - m_old) <= rho * s_old * (1 + 1e-6) + slack)
    assert (rho == 0.0) == (n_new == 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_posterior_rejects_a_non_finite_value_like_cho_solve(bad):
    # the factor sees only the points and noises; cho_solve checked the values
    data = GprDataset([[0.0], [0.5], [1.0]], [0.0, bad, 1.0], [0.01] * 3,
                      mu_bar=0.0, s_bar=1.0)
    kern = Kernel("matern32", 1.0, 0.5)
    for build in (posterior, lambda d, k: reference.posterior_alpha(k, d)):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            build(data, kern)


def test_posterior_of_no_data_is_the_prior():
    data = GprDataset(np.empty((0, 2)), [], [], mu_bar=3.0, s_bar=2.0)
    kern = Kernel("squared_exponential", 1.5, 0.4)
    post = posterior(data, kern)
    assert post._alpha.shape == (0,)
    mean, std = post.mean_std(np.zeros((3, 2)))
    assert np.all(mean == 3.0) and np.all(std == 3.0)


def test_posterior_std_bounded_by_prior_and_shrinks_with_data():
    rng = np.random.default_rng(23)
    kern = Kernel("matern32", sigma_c=1.2, length=0.3)
    x = rng.random((15, 2))
    y = rng.normal(size=15)
    noise = 0.05 * np.ones(15)
    queries = rng.random((40, 2))
    small = GprDataset(x[:8], y[:8], noise[:8], mu_bar=0.0, s_bar=1.0)
    big = GprDataset(x, y, noise, mu_bar=0.0, s_bar=1.0)
    post_small = posterior(small, kern)
    post_big = posterior(big, kern)
    s_small = post_small.std(queries)
    s_big = post_big.std(queries)
    assert np.all(s_small <= post_small.prior_std + 1e-10)
    assert np.all(s_big <= s_small + 1e-9)


def test_heteroscedastic_reduces_to_homoscedastic():
    rng = np.random.default_rng(29)
    x = rng.random((8, 1))
    y = np.sin(4 * x[:, 0])
    kern = Kernel("squared_exponential", 1.0, 0.4)
    data = GprDataset(x, y, np.full(8, 0.09), mu_bar=0.0, s_bar=1.0)
    post = posterior(data, kern)
    # homoscedastic reference: K + sigma_n^2 I with sigma_n^2 = 0.09
    k_dd = kern.matrix(x, x) + 0.09 * np.eye(8)
    alpha = np.linalg.solve(k_dd, y)
    queries = rng.random((10, 1))
    ref = kern.matrix(x, queries).T @ alpha
    assert post.mean(queries) == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# marginal likelihood
# ---------------------------------------------------------------------------

def test_log_marginal_likelihood_single_point():
    kern = Kernel("squared_exponential", 1.0, 1.0)
    data = GprDataset([[0.0]], [0.0], [0.0], mu_bar=0.0, s_bar=1.0)
    assert log_marginal_likelihood(data, kern) == pytest.approx(
        -0.5 * math.log(2 * math.pi))


def naive_log_ml(dataset, kern):
    k = (kern.matrix(dataset.points, dataset.points)
         + np.diag(dataset.standardized_noises))
    nu = dataset.standardized_values
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    return float(-0.5 * nu @ np.linalg.inv(k) @ nu - 0.5 * logdet
                 - 0.5 * len(nu) * math.log(2 * math.pi))


def test_log_marginal_likelihood_matches_naive():
    rng = np.random.default_rng(31)
    for n in (2, 5, 10):
        x = rng.random((n, 2))
        y = rng.normal(size=n)
        data = GprDataset(x, y, 0.1 * rng.random(n))
        for variant in ("squared_exponential", "matern52"):
            kern = Kernel(variant, sigma_c=1.1, length=0.6)
            assert log_marginal_likelihood(data, kern) == pytest.approx(
                naive_log_ml(data, kern), abs=1e-8)


def _outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the type is compared
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(variant=st.sampled_from(KERNEL_VARIANTS), n=st.integers(1, 40),
       dim=st.integers(1, 4), scale=st.floats(1e-2, 1e2),
       log_sigma=st.floats(-10.0, 400.0), log_length=st.floats(-10.0, 10.0),
       n_dup=st.integers(0, 3), noise_scale=st.sampled_from([0.0, 1e-13, 0.1]),
       bad_value=st.sampled_from([None] * 4 + [np.nan, np.inf]),
       bad_noise=st.sampled_from([None] * 6 + [np.nan, np.inf]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_log_marginal_likelihood_equals_expression_oracle(
        variant, n, dim, scale, log_sigma, log_length, n_dup, noise_scale, bad_value,
        bad_noise, seed):
    # the lean evaluation (cached distances, diagonal added in place, LAPACK
    # called directly) returns the same float, or fails the same way:
    # duplicated points with little or no noise escalate the jitter (added
    # after the noise), and an overflowing sigma_c or a non-finite value or
    # noise raises ValueError
    rng = np.random.default_rng(seed)
    x = scale * rng.random((n, dim))
    x[1:1 + n_dup] = x[0]
    noises = noise_scale * rng.random(n)
    values = rng.normal(size=n)
    if bad_value is not None:
        values[-1] = bad_value
    if bad_noise is not None:
        noises[0] = bad_noise
    data = GprDataset(x, values, noises, mu_bar=0.0, s_bar=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # np.float64, as the fit passes them: sigma_c ** 2 overflows to inf
        kern = Kernel(variant, np.exp(log_sigma), np.exp(log_length))
        got = _outcome(log_marginal_likelihood, data, kern)
        want = _outcome(reference.log_marginal_likelihood, data, kern)
    assert got == want or (got != got and want != want)  # NaN equals NaN


def _rank_one():
    # three copies of one point without noise
    return (GprDataset([[0.3, 0.4]] * 3 + [[0.9, 0.1]], [0.1, 0.2, 0.3, 1.0],
                       [0.0] * 4, mu_bar=0.0, s_bar=1.0),
            Kernel("squared_exponential", 1.3, 0.5))


def _smooth_with_tiny_noise():
    # a long length scale and noise below 1e-15; s2 just below 1, so the
    # jitter moves the diagonal into the next binade and adding it before
    # the noise would round differently
    rng = np.random.default_rng(14)
    return (GprDataset(rng.random((12, 1)), rng.normal(size=12),
                       1e-15 * rng.random(12), mu_bar=0.0, s_bar=1.0),
            Kernel("squared_exponential", (1 - 3e-11) ** 0.5, 3.0))


@pytest.mark.parametrize("case", [_rank_one, _smooth_with_tiny_noise])
def test_log_marginal_likelihood_escalates_jitter_like_oracle(case):
    from scipy.linalg import cho_factor

    data, kern = case()
    sigma = kernel_matrix(kern, data.points, data.points)
    with pytest.raises(np.linalg.LinAlgError):  # the first jitter is needed
        cho_factor(sigma + np.diag(data.standardized_noises), lower=True)
    assert log_marginal_likelihood(data, kern) == reference.log_marginal_likelihood(
        data, kern)


@pytest.mark.parametrize("variant", ["matern32", "matern52"])
def test_log_marginal_likelihood_rejects_an_infinite_off_diagonal_like_oracle(variant):
    # s2 just below the largest double: (1 + z) * s2 overflows off the
    # diagonal while the diagonal stays s2, and cho_factor's ValueError
    # must not turn into a failed factorization
    data = GprDataset([[0.0], [0.5]], [0.0, 1.0], [0.0, 0.0], mu_bar=0.0, s_bar=1.0)
    kern = Kernel(variant, np.sqrt(1.7e308), 1.0)
    with np.errstate(over="ignore"):
        assert np.isinf(kernel_matrix(kern, data.points, data.points)[0, 1])
        for lml in (log_marginal_likelihood, reference.log_marginal_likelihood):
            with pytest.raises(ValueError) as err:
                lml(data, kern)
            assert err.type is ValueError  # not its subclass LinAlgError


def _test_objective(kind, center):
    """One of five 2-D objectives: smooth, curved, plateaued, tied, kinked."""
    def f(x):
        d = x - center
        if kind == "quadratic":
            return float(d @ d)
        if kind == "rosenbrock":
            return float(100.0 * (d[1] - d[0] ** 2) ** 2 + (1.0 - d[0]) ** 2)
        if kind == "plateau":  # the fit's 1e30 for a failed evaluation
            return 1e30 if abs(d[0]) > 1.0 else float(d @ d)
        if kind == "ties":
            return float(np.round(d @ d, 1))
        return float(np.abs(d).sum())
    return f


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["quadratic", "rosenbrock", "plateau", "ties", "abs"]),
       center=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
       x0=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
       zero=st.sampled_from([None, 0, 1]), tol=st.sampled_from([1e-6, 1e-3]),
       maxiter=st.sampled_from([500, 7]))
def test_nelder_mead_equals_scipy_oracle(kind, center, x0, zero, tol, maxiter):
    from scipy.optimize import minimize

    # the port evaluates the same points in the same order and ends at the
    # same x and fun; a zero start coordinate takes the 0.00025 step
    f = _test_objective(kind, np.array(center))
    x0 = np.array(x0)
    if zero is not None:
        x0[zero] = 0.0
    seen_scipy, seen_port = [], []
    res = minimize(lambda x: seen_scipy.append(np.array(x)) or f(x), x0,
                   method="Nelder-Mead",
                   options={"xatol": tol, "fatol": tol, "maxiter": maxiter})
    x, fun = _nelder_mead(lambda x: seen_port.append(np.array(x)) or f(x), x0,
                          tol, tol, maxiter)
    assert len(seen_port) == len(seen_scipy)
    assert all(np.array_equal(a, b) for a, b in zip(seen_port, seen_scipy))
    assert np.array_equal(x, res.x) and fun == res.fun


def test_inflating_noise_of_outlier_improves_likelihood():
    # a far-off point fits badly; doubling its noise variance raises the
    # evidence
    x = np.array([[0.0], [0.2], [0.4], [0.5]])
    y = np.array([0.0, 0.05, 0.1, 5.0])
    kern = Kernel("squared_exponential", 1.0, 0.3)
    noises = np.array([0.01, 0.01, 0.01, 0.01])
    base = GprDataset(x, y, noises, mu_bar=0.0, s_bar=1.0)
    inflated = GprDataset(x, y, noises * [1, 1, 1, 8], mu_bar=0.0, s_bar=1.0)
    assert (log_marginal_likelihood(inflated, kern)
            > log_marginal_likelihood(base, kern))


# ---------------------------------------------------------------------------
# hyperparameter fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_length_scale_within_factor_two():
    rng = np.random.default_rng(37)
    true = Kernel("squared_exponential", sigma_c=1.0, length=0.3)
    hits = 0
    for trial in range(3):
        x = rng.random((60, 1))
        gram = true.matrix(x, x) + 1e-10 * np.eye(60)
        y = np.linalg.cholesky(gram) @ rng.standard_normal(60)
        y += 0.02 * rng.standard_normal(60)
        data = GprDataset(x, y, np.full(60, 0.02 ** 2))
        kern = fit_hyperparameters(data, "squared_exponential",
                                   rng=np.random.default_rng(trial))
        if 0.15 <= kern.length <= 0.6:
            hits += 1
    assert hits >= 2


def test_fit_invariant_to_value_shift():
    rng = np.random.default_rng(41)
    x = rng.random((20, 1))
    y = np.sin(5 * x[:, 0]) + 0.05 * rng.standard_normal(20)
    noise = np.full(20, 0.01)
    a = fit_hyperparameters(GprDataset(x, y, noise), "matern32",
                            rng=np.random.default_rng(0))
    b = fit_hyperparameters(GprDataset(x, y + 100.0, noise), "matern32",
                            rng=np.random.default_rng(0))
    assert a.sigma_c == pytest.approx(b.sigma_c)
    assert a.length == pytest.approx(b.length)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(variant=st.sampled_from(KERNEL_VARIANTS), n=st.integers(3, 12),
       dim=st.integers(1, 3), noise=st.sampled_from([0.0, 1e-4, 0.05]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fit_hyperparameters_equals_scipy_oracle(variant, n, dim, noise, seed):
    # the in-package Nelder-Mead over the lean likelihood returns the
    # kernel that scipy.optimize.minimize over the expression form returns
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    data = GprDataset(x, np.sin(4.0 * x.sum(axis=1)) + 0.1 * rng.normal(size=n),
                      noise * rng.random(n))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _outcome(fit_hyperparameters, data, variant, 10, seed)
        want = _outcome(reference.fit_hyperparameters, data, variant, 10, seed)
    assert got == want


def test_fit_needs_three_distinct_points():
    data = GprDataset([[0.0], [1.0]], [0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        fit_hyperparameters(data, "squared_exponential")
    dup = GprDataset([[0.0], [0.0], [0.0]], [0.0, 1.0, 2.0], [0, 0, 0])
    with pytest.raises(ValueError):
        fit_hyperparameters(dup, "squared_exponential")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dim=st.integers(1, 3), data=st.data())
def test_distinct_rows_equal_numpy_unique(dim, data):
    # few values, so rows repeat; 0.0 and -0.0 are one value
    value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3e300])
    rows = data.draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1,
                              max_size=12))
    points = np.array(rows)
    assert gpr._distinct_rows(points) == len(np.unique(points, axis=0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
def test_median_equals_numpy_median(values):
    x = np.array(values)
    got, want = gpr._median(x), np.median(x)
    assert got == want and np.signbit(got) == np.signbit(want)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardize_then_retransform_identity():
    rng = np.random.default_rng(43)
    x = rng.random((12, 2))
    y = 50 + 10 * rng.random(12)
    noise = rng.random(12)
    data = GprDataset(x, y, noise)
    back = data.standardized_values * data.s_bar + data.mu_bar
    assert back == pytest.approx(y, abs=1e-12)
    assert data.standardized_values.mean() == pytest.approx(0.0, abs=1e-12)
    assert data.standardized_values.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
    assert data.standardized_noises * data.s_bar ** 2 == pytest.approx(noise)


def test_posterior_std_scales_with_s_bar():
    rng = np.random.default_rng(47)
    x = rng.random((6, 1))
    y = rng.normal(size=6)
    kern = Kernel("squared_exponential", 1.0, 0.5)
    raw = GprDataset(x, y, np.full(6, 0.1), mu_bar=0.0, s_bar=1.0)
    scaled = GprDataset(x, y, np.full(6, 0.1), mu_bar=0.0, s_bar=2.5)
    q = rng.random((5, 1))
    # same standardized data (values divided by s_bar differ, so rebuild on
    # identical standardized content): compare the retransformation factor
    post_raw = posterior(raw, kern)
    post_scaled = posterior(GprDataset(x, y * 2.5, np.full(6, 0.1) * 2.5 ** 2,
                                       mu_bar=0.0, s_bar=2.5), kern)
    assert post_scaled.std(q) == pytest.approx(2.5 * np.asarray(post_raw.std(q)))


def test_degenerate_spread_falls_back_with_warning():
    with pytest.warns(UserWarning):
        data = GprDataset([[0.0], [1.0]], [3.0, 3.0], [0.0, 0.0])
    assert data.s_bar == 1.0
