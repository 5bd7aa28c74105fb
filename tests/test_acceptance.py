"""Acceptance criteria, one test per criterion, one printed verdict line each.

Runtimes on a single core: criteria 3 and 9 dominate (a few minutes each,
they replicate the bundled urban scenario thousands of times); everything
else finishes in seconds.
"""

import hashlib
import json
import math
import time
from importlib import resources

import numpy as np
from scipy import integrate, stats

from ctmdesign.config import Scenario
from ctmdesign.env import FrankCopula, replicate_rng
from ctmdesign.gpr import GprDataset, Kernel, fit_hyperparameters, posterior
from ctmdesign.learning import (DesignSpace, LoopConfig, nikodym_bound_mc,
                                rejection_sample, run_active_learning, sobol_points)
from ctmdesign.solvers import InteractionRule
from reference import (DensityState, LocalProblem, acquisition, solve_cooperative,
                       solve_cpf, solve_dpf, solve_priority, total_mass)

SEED = 20240807


def report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {verdict}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def urban_scenario():
    raw = json.loads(resources.files("ctmdesign.scenarios")
                     .joinpath("urban.json").read_text())
    return Scenario(raw, origin="urban.json")


# ---------------------------------------------------------------------------
# 1. conservation
# ---------------------------------------------------------------------------

def test_criterion_01_conservation():
    t0 = time.time()
    scen = urban_scenario()
    engine = scen.engine
    rho0 = scen.initial_densities()
    m0 = total_mass(DensityState(rho0), scen.network)
    worst = 0.0
    for rule in ("dpf", "cpf", "priority", "cooperative"):
        rho = engine.run(rho0, 1000, InteractionRule(rule))
        drift = abs(total_mass(DensityState(rho), scen.network) - m0)
        worst = max(worst, drift)
    elapsed = time.time() - t0
    report(1, worst <= 1e-9 and elapsed < 10,
           f"max |mass drift| over 1000 steps, four rules = {worst:.3g} "
           f"(tol 1e-9), {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2. solver oracles
# ---------------------------------------------------------------------------

def _feasible(p, q, tol=1e-9):
    return (np.all(q >= -tol) and np.all(q <= p.sendings + tol)
            and np.all(p.fractions.T @ q <= p.receivings + tol))


def _dpf_oracle(p):
    if _feasible(p, p.sendings, tol=1e-12):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        (lo, hi) = (mid, hi) if _feasible(p, mid * p.sendings, tol=1e-12) \
            else (lo, mid)
    return lo


def _cpf_oracle(p, d):
    def slack(lam):
        q = np.minimum(lam * d, 1.0) * p.sendings
        return float(np.min(p.receivings - p.fractions.T @ q))

    if slack(np.inf) >= 0:
        return np.inf
    lo, hi = 0.0, 1.0
    while slack(hi) > 0:
        hi *= 2
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        (lo, hi) = (mid, hi) if slack(mid) >= 0 else (lo, mid)
    return lo


def test_criterion_02_solver_oracles():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst_dpf = worst_cpf = 0.0
    dominated = True
    for i in range(1000):
        n_up = rng.integers(1, 5)
        n_down = rng.integers(1, 5)
        s = 5 * rng.random(n_up)
        r = 4 * rng.random(n_down)
        f = rng.random((n_up, n_down)) + 0.05
        f /= f.sum(axis=1, keepdims=True)
        if i % 2 == 0:
            f = np.tile(f[0], (n_up, 1))
        p = LocalProblem(s, r, f)
        lam, q_dpf = solve_dpf(p)
        worst_dpf = max(worst_dpf, abs(lam - _dpf_oracle(p)))
        d = rng.random(n_up)
        d /= d.sum()
        lam_c, q_cpf = solve_cpf(p, d)
        ref = _cpf_oracle(p, d)
        if np.isfinite(ref) or np.isfinite(lam_c):
            worst_cpf = max(worst_cpf, abs(lam_c - ref))
        q_coop = solve_cooperative(p)
        q_pri = solve_priority(p)
        total = q_coop.sum()
        if not (total >= q_dpf.sum() - 1e-9 and total >= q_cpf.sum() - 1e-9
                and total >= q_pri.sum() - 1e-9):
            dominated = False
    elapsed = time.time() - t0
    report(2, worst_dpf <= 1e-8 and worst_cpf <= 1e-8 and dominated
           and elapsed < 30,
           f"1000 random problems: |dpf - oracle| <= {worst_dpf:.2g}, "
           f"|cpf - bisection| <= {worst_cpf:.2g}, cooperative dominates: "
           f"{dominated}, {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 3. Table-2 reproduction
# ---------------------------------------------------------------------------

TABLE2 = {(20, 75): (60.48, 65.78), (20, 10): (60.49, 64.71),
          (30, 30): (61.75, 64.29), (30, 20): (64.28, None)}


def test_criterion_03_table2_reproduction():
    t0 = time.time()
    scen = urban_scenario()
    scen.engine
    configs = ((20, 75), (20, 10), (30, 30), (30, 20))
    dpf_refs = (60.48, 60.49, 61.75, 59.17)
    cdbm_refs = (65.78, 64.71, 64.29, 64.28)
    lines = []
    ok = True
    for ci, (tg, ts) in enumerate(configs):
        k = (2.5, 0.01, 0.01, float(tg), float(ts))
        dpf_vals = scen.run_replicate(
            k, [replicate_rng(SEED, 30, ci, i) for i in range(500)],
            rule=InteractionRule("dpf"))
        cdbm_vals = scen.run_replicate(
            k, [replicate_rng(SEED, 31, ci, i) for i in range(100)],
            rule=InteractionRule("cooperative"))
        m_dpf = float(np.mean(dpf_vals))
        m_cdbm = float(np.mean(cdbm_vals))
        dev_dpf = m_dpf / dpf_refs[ci] - 1
        dev_cdbm = m_cdbm / cdbm_refs[ci] - 1
        sub_ok = (abs(dev_dpf) <= 0.05 and abs(dev_cdbm) <= 0.08
                  and m_cdbm > m_dpf)
        ok = ok and sub_ok
        lines.append(f"({tg},{ts}): DPF {m_dpf:.2f} [{dev_dpf:+.1%} of "
                     f"{dpf_refs[ci]}], CDBM {m_cdbm:.2f} [{dev_cdbm:+.1%} of "
                     f"{cdbm_refs[ci]}], CDBM>DPF={m_cdbm > m_dpf}")
    elapsed = time.time() - t0
    report(3, ok, "500 DPF / 100 CDBM replicates per configuration; "
           + "; ".join(lines) + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. signal periodicity
# ---------------------------------------------------------------------------

def test_criterion_04_signal_periodicity():
    t0 = time.time()
    scen = urban_scenario()
    scen.engine

    def trajectory_hash(ts):
        digest = hashlib.sha256()

        def absorb(t, rho_before, record):
            digest.update(rho_before.tobytes())
            digest.update(record.q_out.tobytes())

        scen.run_replicate((2.5, 0.01, 0.01, 20.0, ts),
                           replicate_rng(SEED, 40),
                           extra_observers=(absorb,))
        return digest.hexdigest()

    h1 = trajectory_hash(15.0)
    h2 = trajectory_hash(15.0 + 2 * 20.0)
    h3 = trajectory_hash(25.0)
    elapsed = time.time() - t0
    report(4, h1 == h2 and h1 != h3 and elapsed < 10,
           f"trajectories at shift s and s + 2*green bit-identical: {h1 == h2}"
           f" (distinct shift differs: {h1 != h3}), {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 5. GPR correctness
# ---------------------------------------------------------------------------

def test_criterion_05_gpr_correctness():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for n in (2, 5, 10):
        x = rng.random((n, 2))
        data = GprDataset(x, rng.normal(size=n), 0.1 * rng.random(n))
        kern = Kernel("matern32", 0.9, 0.4)
        post = posterior(data, kern)
        queries = rng.random((8, 2))
        k_dd = kern.matrix(x, x) + np.diag(data.standardized_noises)
        k_inv = np.linalg.inv(k_dd)
        k_dq = kern.matrix(x, queries)
        ref_m = (k_dq.T @ k_inv @ data.standardized_values) * data.s_bar \
            + data.mu_bar
        ref_v = kern.sigma_c ** 2 - np.einsum("ij,ji->i", k_dq.T, k_inv @ k_dq)
        ref_s = np.sqrt(np.maximum(ref_v, 0)) * data.s_bar
        m, s = post.mean_std(queries)
        worst = max(worst, float(np.max(np.abs(m - ref_m))),
                    float(np.max(np.abs(s - ref_s))))

    exact = GprDataset([[0.1], [0.7]], [2.0, -1.0], [0.0, 0.0],
                       mu_bar=0.0, s_bar=1.0)
    post = posterior(exact, Kernel("squared_exponential", 1.0, 0.5))
    # the vanishing posterior variance is checked on the variance scale:
    # its square root inflates float rounding to ~1e-8 by construction
    interp_err = max(abs(post.mean([[0.1]]) - 2.0),
                     abs(post.mean([[0.7]]) + 1.0),
                     post.std([[0.1]]) ** 2, post.std([[0.7]]) ** 2)

    grid = rng.random((200, 2))
    bigdata = GprDataset(rng.random((25, 2)), rng.normal(size=25),
                         0.05 * np.ones(25))
    bigpost = posterior(bigdata, Kernel("matern32", 1.0, 0.3))
    bounded = bool(np.all(np.asarray(bigpost.std(grid))
                          <= bigpost.prior_std + 1e-10))

    hits = 0
    for trial in range(3):
        true = Kernel("squared_exponential", 1.0, 0.3)
        x = rng.random((60, 1))
        gram = true.matrix(x, x) + 1e-10 * np.eye(60)
        y = (np.linalg.cholesky(gram) @ rng.standard_normal(60)
             + 0.02 * rng.standard_normal(60))
        fitted = fit_hyperparameters(GprDataset(x, y, np.full(60, 4e-4)),
                                     "squared_exponential",
                                     rng=np.random.default_rng(trial))
        if 0.15 <= fitted.length <= 0.6:
            hits += 1
    elapsed = time.time() - t0
    report(5, worst <= 1e-8 and interp_err <= 1e-8 and bounded and hits >= 2
           and elapsed < 30,
           f"posterior vs naive formulas |err| <= {worst:.2g} (tol 1e-8), "
           f"noise-free interpolation err {interp_err:.2g}, std bounded by "
           f"prior: {bounded}, length recovered in {hits}/3 trials, "
           f"{elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 6. rejection sampler distribution
# ---------------------------------------------------------------------------

def test_criterion_06_rejection_sampler():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 6)
    x = np.linspace(0, 1, 9).reshape(-1, 1)
    y = np.sin(2 * np.pi * x[:, 0]) + 0.3 * rng.standard_normal(9)
    post = posterior(GprDataset(x, y, np.full(9, 0.09)),
                     Kernel("matern32", 1.0, 0.25))
    space = DesignSpace(((0.0, 1.0),))
    config = LoopConfig(n_initial=2, n_loop=2, iterations=0,
                        tau_schedule=(1e-9,), n_min=2, n_max=(10,),
                        c2_0=1.0, max_trials=100000)
    gamma, c2 = 0.0, 3.0
    grid = np.linspace(0, 1, 2001).reshape(-1, 1)
    dens = np.asarray(acquisition(grid, post, gamma, c2))
    bins = np.linspace(0, 1, 26)
    centers = 0.5 * (bins[:-1] + bins[1:])
    probs = np.interp(centers, grid[:, 0], dens)
    probs /= probs.sum()
    passes = 0
    for seed in range(5):
        pts = rejection_sample(10000, post, gamma, 1e-9, c2, config, space,
                               np.random.default_rng(SEED + 60 + seed))
        counts, _ = np.histogram(pts[:, 0], bins=bins)
        if stats.chisquare(counts, probs * counts.sum()).pvalue > 0.01:
            passes += 1
    elapsed = time.time() - t0
    report(6, passes >= 4 and elapsed < 30,
           f"chi-square at 1% level passed for {passes}/5 seeds "
           f"(need >= 4), {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 7. level-set recovery on the synthetic surface
# ---------------------------------------------------------------------------

def test_criterion_07_level_set_recovery():
    t0 = time.time()
    space = DesignSpace(((0.0, 1.0), (0.0, 1.0)))
    config = LoopConfig(n_initial=150, n_loop=50, iterations=7,
                        tau_schedule=(0.01,) * 8, n_min=20, n_max=(500,),
                        c1=5.0, c2_0=2.0, c3=2.0, n_eval=2 ** 14, delta=0.05)

    def simulator(ks, rngs):
        return [float(np.sin(2 * np.pi * k[0]) * np.cos(2 * np.pi * k[1])
                      + 0.1 * rng.standard_normal()) for k, rng in zip(ks, rngs)]

    grid_axis = (np.arange(400) + 0.5) / 400
    aa, bb = np.meshgrid(grid_axis, grid_axis, indexing="ij")
    grid = np.column_stack([aa.ravel(), bb.ravel()])
    truth = (np.sin(2 * np.pi * grid[:, 0])
             * np.cos(2 * np.pi * grid[:, 1])) >= 0.0

    distances, bounded = [], 0
    for run in range(20):
        estimates = run_active_learning(config, space, simulator, 0.0,
                                        SEED + 700 + run)
        final = estimates[-1]
        member = np.asarray(final.posterior.mean(grid)) >= 0.0
        d_n = float(np.mean(member != truth)) * space.volume
        distances.append(d_n)
        if final.e_hat >= d_n:
            bounded += 1
    worst = max(distances)
    elapsed = time.time() - t0
    report(7, worst <= 0.03 and bounded >= 19 and elapsed < 600,
           f"20 runs: max Nikodym distance {worst:.4f} (tol 0.03), error "
           f"bound covered the measured distance in {bounded}/20 "
           f"(need >= 19), {elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 8. error-bound estimator
# ---------------------------------------------------------------------------

def test_criterion_08_error_bound_estimator():
    t0 = time.time()
    space = DesignSpace(((0.0, 1.0),))
    k = sobol_points(space, 100000)[:, 0]
    e_hat = nikodym_bound_mc(k - 0.1, k + 0.1, 0.5, space.volume)
    elapsed = time.time() - t0
    report(8, abs(e_hat - 0.2) <= 0.01 and elapsed < 5,
           f"synthetic band k +- 0.1 at gamma 0.5: e_hat = {e_hat:.5f} "
           f"(target 0.2 +- 0.01), {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# 9. qualitative case-study shape
# ---------------------------------------------------------------------------

def test_criterion_09_urban_shape():
    t0 = time.time()
    scen = urban_scenario()
    scen.engine
    tg_axis = np.linspace(5, 100, 11)
    ts_axis = np.linspace(0, 100, 11)
    reps = 50

    def cell_stats(tg, ts, tag):
        vals = scen.run_replicate((2.5, 0.01, 0.01, tg, ts),
                                  [replicate_rng(SEED, 90, tag, i)
                                   for i in range(reps)])
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(reps))

    # the checks below read the T_s = 0 column and the T_g = 5 row of the
    # (T_g, T_s) grid; each cell keeps its grid-position stream tag
    surface = {}
    tag = 0
    for tg in tg_axis:
        for ts in ts_axis:
            if ts == 0.0 or tg == 5.0:
                surface[(tg, ts)] = cell_stats(float(tg), float(ts), tag)
            tag += 1

    # unimodality along T_g at T_s = 0 within two standard errors
    col = [surface[(tg, 0.0)] for tg in tg_axis]
    means = np.array([m for m, _ in col])
    ses = np.array([s for _, s in col])
    peak = int(np.argmax(means))
    unimodal = 0 < peak < len(means) - 1
    for i in range(len(means) - 1):
        comb = 2 * math.hypot(ses[i], ses[i + 1])
        if i < peak and means[i + 1] < means[i] - comb:
            unimodal = False
        if i >= peak and means[i + 1] > means[i] + comb:
            unimodal = False
    rises = means[peak] - means[0] > 2 * math.hypot(ses[0], ses[peak])
    falls = means[peak] - means[-1] > 2 * math.hypot(ses[-1], ses[peak])

    # period-2T_g symmetry: at T_g = 5 the grid contains (T_s, T_s + 10)
    # pairs; the aggregated mean difference must vanish within two SEs
    diffs, variances = [], []
    for ts in ts_axis[:-1]:
        (m1, s1) = surface[(5.0, float(ts))]
        (m2, s2) = surface[(5.0, float(ts + 10.0))]
        diffs.append(m1 - m2)
        variances.append(s1 ** 2 + s2 ** 2)
    mean_diff = float(np.mean(diffs))
    se_diff = float(np.sqrt(np.sum(variances)) / len(diffs))
    symmetric = abs(mean_diff) <= 2 * se_diff

    elapsed = time.time() - t0
    report(9, unimodal and rises and falls and symmetric,
           f"mean-Q along T_g at T_s=0: {np.round(means, 1).tolist()} "
           f"(peak at T_g={tg_axis[peak]:.1f}, unimodal={unimodal}, "
           f"rises={rises}, falls={falls}); period-2T_g mean gap "
           f"{mean_diff:+.3f} +- {2 * se_diff:.3f} (symmetric={symmetric}); "
           f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. copula
# ---------------------------------------------------------------------------

def test_criterion_10_copula():
    t0 = time.time()

    def tau_of(r, seed):
        u = FrankCopula(r).pairs(np.random.default_rng(seed).random((100000, 2)))
        return stats.kendalltau(u[:, 0], u[:, 1]).statistic

    debye, _ = integrate.quad(lambda t: t / np.expm1(t), 0, 5.0)
    tau_ref = 1.0 - (4.0 / 5.0) * (1.0 - debye / 5.0)
    tau_5 = tau_of(5.0, SEED + 100)
    tau_0 = tau_of(0.0, SEED + 101)
    elapsed = time.time() - t0
    report(10, abs(tau_5 - tau_ref) <= 0.02 and abs(tau_0) < 0.02
           and elapsed < 10,
           f"Kendall tau at r=5: {tau_5:.4f} vs Debye oracle {tau_ref:.4f} "
           f"(tol 0.02); independence tau {tau_0:+.4f} (tol 0.02); "
           f"{elapsed:.1f}s (< 10s)")
