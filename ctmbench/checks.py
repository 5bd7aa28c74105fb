"""Output checks of the benchmark workloads.

Each check recomputes what it compares from the scenario file, the seed
and the method's definitions, never from stored program output:

* stepper invariants, replayed in-process under a step observer:
  conservation, density and outflow bounds, per-edge supply
  feasibility and the local max-flow optimum, with sending and
  receiving recomputed from the cell formulas (``NetworkModel``);
* the performance statistic, recomputed by the observer;
* simulate summaries, recomputed from ``replicates.csv``, and each
  rule's mean against a reference sample (``reference/``);
* level-set runs: the SMC stopping and discard rules on every dataset
  row, the last grid against a plain-numpy GP posterior, the sandwich
  order inner <= member <= outer, and ``e_hat`` against scipy's Sobol
  points;
* synthetic runs: the SMC replayed from the seed streams with the
  benchmark's own sin*cos draws, a chi-square test of the standardized
  residuals, and the final plug-in set against the true set.

Every function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: relative tolerance for values the program prints with 12 digits
PRINT_RTOL = 1e-10
#: slack for invariants that hold in exact arithmetic
INVARIANT_TOL = 1e-9
#: agreement of the numpy posterior with the printed grid, relative to
#: the posterior scale s_bar * sigma_c (the two differ by O(1e-11)); an
#: ill-conditioned covariance widens it to 10 * cond * machine epsilon
GP_RTOL = 1e-10
#: |z| bound of the two-sample comparison with the reference sample
REFERENCE_Z = 5.0
#: two-sided tail probability below which the chi-square test fails
CHI2_ALPHA = 1e-6
REPLAYED_REPLICATES = 2
REPLAYED_POINTS = 2
MAX_PROBLEMS = 5


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def seed_stream(seed, *key):
    """The generator of stream ``key`` under master ``seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key)))


def close(a, b, rtol=PRINT_RTOL, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# stepper: an independent model of the cell formulas
# ---------------------------------------------------------------------------

class NetworkModel:
    """Sending, receiving and density caps of every route, from the JSON.

    Route order and node lengths come from the program's network (they
    are the inputs); the formulas are written out here from the model
    definition.  Supply and max-flow checks need receiving functions,
    which are written out for the highway, simplified-intersection and
    signalized-intersection kinds.
    """

    SUPPLY_KINDS = ("highway", "simplified_intersection", "signalized_intersection")

    def __init__(self, scenario):
        raw = scenario.raw
        net_cfg = raw["network"]
        network = scenario.network
        labels = scenario.node_labels
        index = {lab: i for i, lab in enumerate(labels)}
        group_of = {n: g for g, members in net_cfg["groups"].items() for n in members}
        self.routes = network.routes
        n = len(self.routes)
        self.n = n
        self.length = np.array([network.lengths[r.via] for r in self.routes])
        self.via = np.array([r.via for r in self.routes])
        self.t_real = float(raw["run"].get("t_real", 1.0))

        self.kind = []
        cols = {k: np.zeros(n) for k in ("s_max", "a", "b", "c", "rho_max", "zeta",
                                         "frac", "cap")}
        route_id = {tuple(r): i for i, r in enumerate(self.routes)}
        self.left_turns = []          # (route, opposing route toward src, toward dst)
        self.signal_routes = {}       # node -> (route indices, in axis-I flags)
        approach_key = np.zeros(n, dtype=int)
        env_cfg = raw.get("environment", {"kind": "none"})
        env_cap = float(env_cfg.get("rho_cap_fraction", 1.0))
        source_routes = set()
        for s in env_cfg.get("sources", []):
            source_routes.add(tuple(index[x] for x in s["route"]))
            if "pair_route" in s:
                source_routes.add(tuple(index[x] for x in s["pair_route"]))
        for e in env_cfg.get("constants", []):
            source_routes.add(tuple(index[x] for x in e["route"]))

        signals = net_cfg.get("signals", {})
        ccw_of = {int(k): v for k, v in net_cfg.get("roundabout_ccw", {}).items()}
        ccw_of.update({int(k): v["ccw"] for k, v in signals.items()})
        for i, r in enumerate(self.routes):
            lab = labels[r.via]
            cell = net_cfg["cells"][group_of[lab]]
            kind = cell["kind"]
            self.kind.append(kind)
            for key in ("s_max", "a", "b", "rho_max"):
                cols[key][i] = float(cell[key])
            cols["c"][i] = float(cell.get("c", 1.0))
            cols["zeta"][i] = float(cell.get("zeta", 0.0))
            rho_max, c = cols["rho_max"][i], cols["c"][i]
            if kind == "highway":
                cap = rho_max / 2 / c
            elif kind == "simplified_intersection":
                cap = rho_max / c
            elif kind == "signalized_intersection":
                cols["frac"][i] = float(cell.get("approach_capacity_fraction", 0.25))
                cap = cols["frac"][i] * rho_max
                ccw = [index[x] for x in ccw_of[lab]]
                pos_src, pos_dst = ccw.index(r.src), ccw.index(r.dst)
                approach_key[i] = r.via * 10000 + r.src
                if (pos_dst - pos_src) % 4 == 3:
                    opp = ccw[(pos_src + 2) % 4]
                    self.left_turns.append((i, route_id.get((opp, r.via, r.src)),
                                            route_id.get((opp, r.via, r.dst))))
                idx, flags = self.signal_routes.setdefault(lab, ([], []))
                idx.append(i)
                flags.append(pos_src % 2 == 0)
            elif kind == "uni_roundabout":
                ccw = [index[x] for x in ccw_of[lab]]
                hops = (ccw.index(r.dst) - ccw.index(r.src)) % 4
                cap = hops / 4 * rho_max / c
            else:
                cap = rho_max
            if tuple(r) in source_routes:
                cap = max(cap, env_cap * rho_max)
            cols["cap"][i] = cap
        for key, arr in cols.items():
            setattr(self, key, arr)
        self.kind = np.array(self.kind)
        self.approach_key = approach_key
        self.supply_ok = all(k in self.SUPPLY_KINDS for k in set(self.kind))

        # local problems: one per directed edge (u, v); uniform turning
        # over the exits of v other than u, so f = 1 / len(downs)
        groups = {}
        for i, r in enumerate(self.routes):
            groups.setdefault((r.via, r.dst), [[], []])[0].append(i)
        for i, r in enumerate(self.routes):
            if (r.src, r.via) in groups:
                groups[(r.src, r.via)][1].append(i)
        edges = [g for g in groups.values() if g[0] and g[1]]
        self.ups = np.concatenate([g[0] for g in edges])
        self.up_ptr = np.cumsum([0] + [len(g[0]) for g in edges])[:-1]
        self.downs = np.concatenate([g[1] for g in edges])
        self.down_ptr = np.cumsum([0] + [len(g[1]) for g in edges])[:-1]
        self.fan = np.array([len(g[1]) for g in edges], dtype=float)
        self.down_group = np.repeat(np.arange(len(edges)), [len(g[1]) for g in edges])

    def signal_la(self, t, programs):
        """Per-route signal adjustment at step t; programs: label -> dict."""
        la = np.ones(self.n)
        for lab, (idx, flags) in self.signal_routes.items():
            p = programs[lab]
            m = (t + p["shift"]) % (2 * p["green"])
            axis_i_green = m < p["green"]
            t_switch = m % p["green"] + 1
            ramp = (t_switch - p["t_safe"]) * self.t_real * p["a_real"] / p["v_real"]
            ramp = min(1.0, max(0.0, ramp))
            for i, in_i in zip(idx, flags):
                la[i] = ramp if in_i == axis_i_green else 0.0
        return la

    def sending(self, rho, la):
        node_total = np.bincount(self.via, weights=rho, minlength=self.via.max() + 1)
        damp = np.ones(self.n)
        simple = self.kind == "simplified_intersection"
        damp[simple] = np.exp(-self.zeta[simple] * node_total[self.via[simple]])
        for i, j1, j2 in self.left_turns:
            block = (rho[j1] if j1 is not None else 0.0) + (rho[j2] if j2 is not None else 0.0)
            damp[i] = math.exp(-self.zeta[i] * block)
        return np.minimum(self.s_max, la * self.a * rho * damp)

    def receiving(self, rho):
        node_total = np.bincount(self.via, weights=rho, minlength=self.via.max() + 1)
        _, inverse = np.unique(self.approach_key, return_inverse=True)
        approach = np.bincount(inverse, weights=rho)[inverse]
        r = np.zeros(self.n)
        for kind in set(self.kind):
            m = self.kind == kind
            if kind == "highway":
                r[m] = self.b[m] * (self.rho_max[m] / 2 - self.c[m] * rho[m])
            elif kind == "simplified_intersection":
                r[m] = self.b[m] * (self.rho_max[m] - self.c[m] * node_total[self.via[m]])
            elif kind == "signalized_intersection":
                r[m] = self.b[m] * (self.frac[m] * self.rho_max[m] - approach[m])
        return np.maximum(r, 0.0)

    def local_optimum(self, s, r):
        """Max-flow optimum of every local problem: min(sum S, min_w R_w / f)."""
        sum_s = np.add.reduceat(s[self.ups], self.up_ptr)
        budget = np.minimum.reduceat(r[self.downs], self.down_ptr) * self.fan
        return np.minimum(sum_s, budget)


class StepRecorder:
    """Step observer keeping every step's state and flows."""

    def __init__(self):
        self.rho = []
        self.records = []

    def __call__(self, t, rho_before, record):
        self.rho.append(np.array(rho_before, copy=True))
        self.records.append(record)


def validate_trajectory(model, rec, rule, programs=None):
    """Invariants of every recorded step; returns a list of problems."""
    problems = []

    def fail(t, what):
        if len(problems) < MAX_PROBLEMS:
            problems.append(f"step {t}: {what}")

    steps = len(rec.records)
    for t in range(steps):
        rho = rec.rho[t]
        q = rec.records[t]
        scale = 1.0 + float(np.abs(rho).max())
        tol = INVARIANT_TOL * scale
        if rho.min() < -tol or np.any(rho > model.cap + tol):
            i = int(np.argmax(np.maximum(-rho, rho - model.cap)))
            fail(t, f"density {rho[i]:.6g} of route {model.routes[i]} outside "
                    f"[0, {model.cap[i]:.6g}]")
        if q.q_out.min() < -tol or np.any(
                q.q_out > np.minimum(model.s_max, model.a * rho) + tol):
            fail(t, "outflow outside [0, min(s_max, a * rho)]")
        if t + 1 < steps:
            mass_change = float(np.dot(model.length, rec.rho[t + 1] - rho))
            net = float(q.q_net.sum())
            if abs(mass_change - net) > INVARIANT_TOL * (1.0 + float(
                    np.dot(model.length, rho))):
                fail(t, f"mass changed by {mass_change:.12g}, net flow {net:.12g}")
        if not model.supply_ok:
            continue
        la = model.signal_la(t, programs) if model.signal_routes else np.ones(model.n)
        s = model.sending(rho, la)
        r = model.receiving(rho)
        if np.any(q.q_out > s + tol):
            fail(t, "outflow above the recomputed sending bound")
        sum_q = np.add.reduceat(q.q_out[model.ups], model.up_ptr)
        inflow = sum_q[model.down_group] / model.fan[model.down_group]
        if np.any(inflow > r[model.downs] + tol):
            fail(t, "supply constraint sum f q <= R_w violated")
        opt = model.local_optimum(s, r)
        if rule == "cooperative" and np.any(np.abs(sum_q - opt) > tol):
            fail(t, "cooperative total differs from the local max-flow optimum")
        if np.any(sum_q > opt + tol):
            fail(t, f"{rule} total exceeds the local max-flow optimum")
    return problems


def recompute_statistic(scenario, rec):
    """The performance statistic of a recorded trajectory."""
    measure = scenario.raw.get("evaluation", {}).get("measure",
                                                     {"kind": "avg_network_flow"})
    if measure["kind"] == "avg_network_flow":
        return sum(float(q.q_out.sum()) for q in rec.records) / len(rec.records)
    if measure["kind"] == "throughput":
        labels = {lab: i for i, lab in enumerate(scenario.node_labels)}
        env_cfg = scenario.raw["environment"]
        triples = [s["route"] for s in env_cfg.get("sources", [])]
        triples += [s["pair_route"] for s in env_cfg.get("sources", [])
                    if "pair_route" in s]
        triples += [e["route"] for e in env_cfg.get("constants", [])]
        ids = {tuple(r): i for i, r in enumerate(scenario.network.routes)}
        idx = np.array([ids[tuple(labels[x] for x in t)] for t in triples])
        removed = sum(float(np.maximum(-q.q_net[idx], 0.0).sum()) for q in rec.records)
        tried = sum(float(np.maximum(q.q_aux[idx], 0.0).sum()) for q in rec.records)
        return removed / tried if tried > 0 else 0.0
    raise ValueError(f"no recomputation for measure {measure['kind']!r}")


def integerized_programs(scenario, k, rng):
    """Signal programs of one replicate; consumes the integerization draws."""
    raw = scenario.raw
    params = dict(zip(raw["design"]["names"], (float(x) for x in k)))
    for name in raw["design"].get("integerized", []):
        x = params[name]
        frac = x - math.floor(x)
        params[name] = math.floor(x) + (1.0 if rng.random() < frac else 0.0)

    def value(v):
        return params[v["design"]] if isinstance(v, dict) else v

    programs = {}
    for lab, sig in raw["network"].get("signals", {}).items():
        programs[int(lab)] = {
            "green": max(1, int(value(sig["green"]))),
            "shift": max(0, int(value(sig.get("shift", 0)))),
            "a_real": float(sig.get("a_real", 1.5)),
            "v_real": float(sig.get("v_real_kmh", 50.0)) / 3.6,
            "t_safe": int(sig.get("t_safe", 2)),
        }
    return programs


def replay(scenario, model, k, rng_key, seed, rule, n_reps=1):
    """Replicates of design k from stream rng_key; the first one observed.

    Returns (values, problems) with the stepper invariants and the
    recomputed statistic of the first replicate checked.
    """
    from ctmdesign.solvers import InteractionRule

    k = np.asarray(k, dtype=float)
    programs = integerized_programs(scenario, k, seed_stream(seed, *rng_key))
    rng = seed_stream(seed, *rng_key)
    rec = StepRecorder()
    rule_obj = InteractionRule(rule) if rule else None
    values = [scenario.run_replicate(k, rng, extra_observers=(rec,), rule=rule_obj)]
    values += [scenario.run_replicate(k, rng, rule=rule_obj) for _ in range(n_reps - 1)]
    effective = rule or scenario.raw["run"].get("rule", "dpf")
    problems = validate_trajectory(model, rec, effective, programs)
    mine = recompute_statistic(scenario, rec)
    if not close(mine, values[0], rtol=1e-12):
        problems.append(f"observer statistic {mine!r} != replicate value {values[0]!r}")
    return values, problems


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def check_simulate(out_dir, scenario, design, rule, seed):
    """replicates.csv / summary.csv of one simulate command."""
    out_dir = Path(out_dir)
    problems = []
    rows = read_csv(out_dir / "replicates.csv")
    values = np.array([float(r["value"]) for r in rows])
    if [int(r["replicate"]) for r in rows] != list(range(len(rows))):
        problems.append("replicates.csv: replicate indices out of order")
    summary = read_csv(out_dir / "summary.csv")[0]
    n = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n))
    if int(summary["n"]) != n:
        problems.append(f"summary n={summary['n']} but {n} replicates")
    if not close(float(summary["mean"]), mean, rtol=1e-9):
        problems.append(f"summary mean {summary['mean']} != recomputed {mean!r}")
    if not close(float(summary["std_error"]), se, rtol=1e-9):
        problems.append(f"summary std_error {summary['std_error']} != recomputed {se!r}")

    model = NetworkModel(scenario)
    for i in range(min(REPLAYED_REPLICATES, n)):
        got, issues = replay(scenario, model, design, (0, i), seed, rule)
        problems += [f"{rule} replicate {i}: {p}" for p in issues]
        if not close(got[0], values[i]):
            problems.append(f"{rule} replicate {i}: replayed {got[0]!r}, "
                            f"replicates.csv {values[i]!r}")

    ref = np.array([float(r["value"])
                    for r in read_csv(REFERENCE_DIR / f"urban_{rule}.csv")])
    z = (mean - ref.mean()) / math.sqrt(values.var(ddof=1) / n
                                        + ref.var(ddof=1) / len(ref))
    if abs(z) > REFERENCE_Z:
        problems.append(f"{rule} mean {mean:.4f} is {z:+.2f} standard errors from "
                        f"the reference mean {ref.mean():.4f}")
    return problems


# ---------------------------------------------------------------------------
# level-set runs
# ---------------------------------------------------------------------------

def kernel_matrix(variant, sigma_c, length, x1, x2):
    d = np.sqrt(((x1[:, None, :] - x2[None, :, :]) ** 2).sum(axis=-1)) / length
    s2 = sigma_c ** 2
    if variant == "squared_exponential":
        return s2 * np.exp(-0.5 * d ** 2)
    if variant == "matern12":
        return s2 * np.exp(-d)
    if variant == "matern32":
        z = math.sqrt(3.0) * d
        return s2 * (1.0 + z) * np.exp(-z)
    z = math.sqrt(5.0) * d
    return s2 * (1.0 + z + z * z / 3.0) * np.exp(-z)


class NumpyGP:
    """Heteroscedastic GP posterior written with numpy.linalg only."""

    BLOCK = 4096

    def __init__(self, points, values, noises, hp):
        self.x = np.asarray(points, dtype=float)
        self.hp = hp
        self.mu_bar, self.s_bar = hp["mu_bar"], hp["s_bar"]
        nu = (np.asarray(values) - self.mu_bar) / self.s_bar
        k = self._k(self.x, self.x) + np.diag(np.asarray(noises) / self.s_bar ** 2)
        self.rtol = max(GP_RTOL, 10 * np.linalg.cond(k) * np.finfo(float).eps)
        for jitter in (0.0, 1e-10, 1e-8, 1e-6):
            try:
                self.chol = np.linalg.cholesky(
                    k + jitter * hp["sigma_c"] ** 2 * np.eye(len(k)))
                break
            except np.linalg.LinAlgError:
                continue
        self.alpha = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, nu))

    def _k(self, a, b):
        return kernel_matrix(self.hp["variant"], self.hp["sigma_c"],
                             self.hp["length"], a, b)

    def mean_var(self, queries):
        """Raw-scale mean and variance at the query points."""
        means, variances = [], []
        for start in range(0, len(queries), self.BLOCK):
            kx = self._k(self.x, queries[start:start + self.BLOCK])
            means.append(kx.T @ self.alpha)
            v = np.linalg.solve(self.chol, kx)
            variances.append(self.hp["sigma_c"] ** 2 - (v * v).sum(axis=0))
        m = np.concatenate(means) * self.s_bar + self.mu_bar
        var = np.maximum(np.concatenate(variances), 0.0) * self.s_bar ** 2
        return m, var


def loop_budgets(raw):
    """(tau schedule, n_max schedule) of a learning block."""
    lc = raw["learning"]
    if "tau_values" in lc:
        taus = [float(t) for t in lc["tau_values"]]
    else:
        taus = [float(f) * float(lc["tau_scale"]) for f in lc["tau_fractions"]]
    n_max = lc.get("n_max", [3000])
    n_max = [n_max] if isinstance(n_max, int) else list(n_max)
    return taus, n_max


def check_dataset(rows, raw):
    """SMC stopping rule and discard rule on every dataset row."""
    lc = raw["learning"]
    taus, n_max = loop_budgets(raw)
    n_min, c3 = int(lc.get("n_min", 20)), float(lc.get("c3", 2.0))
    bounds = raw["design"]["bounds"]
    names = raw["design"]["names"]
    problems = []
    for r_i, row in enumerate(rows):
        it, n = int(row["iteration"]), int(row["n"])
        tau = taus[it]
        cap = n_max[it] if len(n_max) > 1 else n_max[0]
        tau_sq = float(row["tau_sq"])
        where = f"dataset row {r_i} (iteration {it})"
        if not n_min <= n <= cap:
            problems.append(f"{where}: n={n} outside [{n_min}, {cap}]")
        if n < cap and tau_sq > tau * tau * (1 + PRINT_RTOL):
            problems.append(f"{where}: stopped at n={n} < n_max with "
                            f"tau_sq={tau_sq:.6g} > target {tau * tau:.6g}")
        gap = math.sqrt(tau_sq) - c3 * tau
        if abs(gap) > PRINT_RTOL * c3 * tau:
            should = it >= 1 and gap >= 0
            if bool(int(row["discarded"])) != should:
                problems.append(f"{where}: discarded={row['discarded']} but the "
                                f"discard rule gives {int(should)}")
        for name, (lo, hi) in zip(names, bounds):
            if not lo <= float(row[name]) <= hi:
                problems.append(f"{where}: {name} outside the design space")
    counts = np.bincount([int(r["iteration"]) for r in rows])
    if counts[0] != int(lc["n_initial"]) or np.any(counts[1:] > int(lc["n_loop"])):
        problems.append(f"points per iteration {counts.tolist()} break the budgets")
    return problems[:MAX_PROBLEMS]


def grid_points(raw, res):
    names = raw["design"]["names"]
    grid = raw["learning"].get("grid", {})
    axes = grid.get("axes", names[:2])
    (a_lo, a_hi) = raw["design"]["bounds"][names.index(axes[0])]
    (b_lo, b_hi) = raw["design"]["bounds"][names.index(axes[1])]
    aa, bb = np.meshgrid(np.linspace(a_lo, a_hi, res), np.linspace(b_lo, b_hi, res),
                         indexing="ij")
    pts = np.zeros((res * res, len(names)))
    for j, name in enumerate(names):
        if name == axes[0]:
            pts[:, j] = aa.ravel()
        elif name == axes[1]:
            pts[:, j] = bb.ravel()
        else:
            lo, hi = raw["design"]["bounds"][j]
            pts[:, j] = float(grid.get("fixed", {}).get(name, (lo + hi) / 2.0))
    return pts, axes


def check_grid_sets(path, gamma, z, scale):
    """inner <= member <= outer, and each bit agrees with the printed band."""
    cols = np.loadtxt(path, delimiter=",", skiprows=1)
    m, s = cols[:, 2], cols[:, 3]
    member, inner, outer = (cols[:, i].astype(int) for i in (4, 5, 6))
    problems = []
    if np.any(inner > member) or np.any(member > outer):
        problems.append(f"{path.name}: inner <= member <= outer broken on "
                        f"{int(np.sum((inner > member) | (member > outer)))} rows")
    tol = 1e-9 * scale
    for bits, value, label in ((member, m, "member"), (inner, m - z * s, "inner"),
                               (outer, m + z * s, "outer")):
        clear = np.abs(value - gamma) > tol
        wrong = clear & (bits != (value >= gamma))
        if np.any(wrong):
            problems.append(f"{path.name}: {int(wrong.sum())} {label} bits disagree "
                            "with the printed mean and std")
    return problems


def sobol_points(raw, n):
    from scipy.stats import qmc

    bounds = np.array(raw["design"]["bounds"], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        u = qmc.Sobol(d=len(bounds), scramble=False).random(n)
    return bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * u


def check_levelset(out_dir, raw, seed, analytic_truth=None):
    """Artifacts of one estimate-levelset command.

    ``analytic_truth(points)`` gives the true surface for the synthetic
    scenario; with it the SMC replay, the residual test and the true-set
    comparison run too.
    """
    out_dir = Path(out_dir)
    lc = raw["learning"]
    rows = read_csv(out_dir / "dataset.csv")
    problems = check_dataset(rows, raw)
    names = raw["design"]["names"]
    hp = json.loads((out_dir / "hyperparameters.json").read_text())
    gamma, delta = hp["gamma"], hp["delta"]
    z = NormalDist().inv_cdf(1.0 - delta / 2.0)

    errors = read_csv(out_dir / "errors.csv")
    iters = [int(e["iteration"]) for e in errors]
    if iters != list(range(len(errors))):
        problems.append(f"errors.csv iterations {iters}")
    for e in errors:
        i = int(e["iteration"])
        born = [r for r in rows if int(r["iteration"]) <= i]
        if int(e["points"]) != len(born) or int(e["discarded"]) != sum(
                int(r["discarded"]) for r in born):
            problems.append(f"errors.csv iteration {i}: point counts disagree "
                            "with dataset.csv")

    kept = [r for r in rows if not int(r["discarded"])]
    pts = np.array([[float(r[n]) for n in names] for r in kept])
    gp = NumpyGP(pts, [float(r["mu_hat"]) for r in kept],
                 [float(r["tau_sq"]) for r in kept], hp)
    scale = hp["s_bar"] * max(1.0, hp["sigma_c"])

    last = iters[-1]
    res = int(lc.get("grid", {}).get("resolution", 200))
    gpts, axes = grid_points(raw, res)
    grid = np.loadtxt(out_dir / f"grid_{last}.csv", delimiter=",", skiprows=1)
    ia, ib = names.index(axes[0]), names.index(axes[1])
    if grid.shape[0] != len(gpts) or not (
            np.allclose(grid[:, 0], gpts[:, ia], rtol=PRINT_RTOL, atol=0)
            and np.allclose(grid[:, 1], gpts[:, ib], rtol=PRINT_RTOL, atol=0)):
        problems.append(f"grid_{last}.csv: coordinates are not the configured grid")
    else:
        m, var = gp.mean_var(gpts)
        dm = np.abs(grid[:, 2] - m)
        dv = np.abs(grid[:, 3] ** 2 - var)
        if dm.max() > gp.rtol * scale or dv.max() > gp.rtol * scale ** 2:
            problems.append(f"grid_{last}.csv: mean/std differ from the numpy "
                            f"posterior by {dm.max():.3g} / {dv.max():.3g} (variance)")
    for i in iters:
        problems += check_grid_sets(out_dir / f"grid_{i}.csv", gamma, z, scale)

    # e_hat of the last iteration on scipy's Sobol points
    space = np.array(raw["design"]["bounds"], dtype=float)
    volume = float(np.prod(space[:, 1] - space[:, 0]))
    n_eval = int(lc.get("n_eval", 100000))
    spts = sobol_points(raw, n_eval)
    m, var = gp.mean_var(spts)
    s = np.sqrt(var)
    lo, hi = m - z * s, m + z * s
    straddle = (hi >= gamma) & (gamma > lo)
    unsure = (np.abs(lo - gamma) < 1e-9 * scale) | (np.abs(hi - gamma) < 1e-9 * scale)
    e_mine = volume * float(straddle.mean())
    e_prog = float(errors[-1]["e_hat"])
    if abs(e_mine - e_prog) > volume * (unsure.sum() + 1e-9) / n_eval + 1e-11 * volume:
        problems.append(f"e_hat {e_prog!r} != {e_mine!r} recomputed on Sobol points")

    if analytic_truth is not None:
        problems += check_synthetic(rows, raw, seed, analytic_truth)
        truth = analytic_truth(spts) >= gamma
        plug_in = m >= gamma
        miss = volume * float(np.mean(truth != plug_in))
        if miss > e_prog:
            problems.append(f"plug-in set misses the true set on volume {miss:.4g} "
                            f"> e_hat {e_prog:.4g}")
    return problems


def check_synthetic(rows, raw, seed, truth):
    """Replay the SMC of every row with the benchmark's own draws."""
    from scipy.stats import chi2

    lc = raw["learning"]
    taus, n_max = loop_budgets(raw)
    n_min = int(lc.get("n_min", 20))
    noise = float(raw["simulator"]["noise"])
    names = raw["design"]["names"]
    bounds = np.array(raw["design"]["bounds"], dtype=float)
    x0 = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * seed_stream(seed, 0).random(
        (int(lc["n_initial"]), len(bounds)))
    problems = []
    index_in_iteration = {}
    z_sq = 0.0
    for r_i, row in enumerate(rows):
        it = int(row["iteration"])
        j = index_in_iteration.get(it, 0)
        index_in_iteration[it] = j + 1
        k = np.array([float(row[n]) for n in names])
        if it == 0:
            if not np.allclose(k, x0[j], rtol=PRINT_RTOL, atol=1e-15):
                problems.append(f"dataset row {r_i}: initial point differs from "
                                "the seed's uniform design")
            k = x0[j]
        cap = n_max[it] if len(n_max) > 1 else n_max[0]
        draws = truth(k[None, :])[0] + noise * seed_stream(seed, 1, it, j).standard_normal(cap)
        n_arr = np.arange(1, cap + 1)
        mean = np.cumsum(draws) / n_arr
        dev = np.cumsum(draws ** 2) - n_arr * mean ** 2
        var = np.divide(dev, n_arr - 1, out=np.zeros(cap), where=n_arr > 1)
        stop = np.flatnonzero((n_arr >= n_min) & (var / n_arr <= taus[it] ** 2))
        n = int(stop[0]) + 1 if len(stop) else cap
        got_n = int(row["n"])
        mu = float(row["mu_hat"])
        if got_n != n or not close(mu, mean[n - 1], rtol=1e-9, atol=1e-9) or not close(
                float(row["tau_sq"]), var[n - 1] / n, rtol=1e-6):
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"dataset row {r_i}: (n, mu_hat) = ({got_n}, {mu!r}), "
                                f"replayed ({n}, {mean[n - 1]!r})")
        z_sq += (mu - truth(k[None, :])[0]) ** 2 * got_n / noise ** 2
    dof = len(rows)
    tail = min(chi2.cdf(z_sq, dof), chi2.sf(z_sq, dof))
    if tail < CHI2_ALPHA / 2:
        problems.append(f"standardized residuals: chi2={z_sq:.1f} on {dof} dof "
                        f"(tail probability {tail:.2g})")
    return problems


def sincos(points):
    return np.sin(2 * np.pi * points[:, 0]) * np.cos(2 * np.pi * points[:, 1])


def check_highway_replay(out_dir, scenario, seed):
    """Replay the first initial-design points under the step observer."""
    raw = scenario.raw
    rows = read_csv(Path(out_dir) / "dataset.csv")
    names = raw["design"]["names"]
    bounds = np.array(raw["design"]["bounds"], dtype=float)
    x0 = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * seed_stream(seed, 0).random(
        (int(raw["learning"]["n_initial"]), len(bounds)))
    model = NetworkModel(scenario)
    problems = []
    for j in range(REPLAYED_POINTS):
        row = rows[j]
        k = x0[j]
        if not np.allclose([float(row[n]) for n in names], k, rtol=PRINT_RTOL, atol=0):
            problems.append(f"dataset row {j}: not the seed's uniform design point")
            continue
        values, issues = replay(scenario, model, k, (1, 0, j), seed, None,
                                n_reps=int(row["n"]))
        problems += [f"point {j}: {p}" for p in issues]
        values = np.array(values)
        mu, tau_sq = values.mean(), values.var(ddof=1) / len(values)
        if not close(float(row["mu_hat"]), mu) or not close(float(row["tau_sq"]),
                                                             tau_sq, rtol=1e-8):
            problems.append(f"point {j}: replayed (mu_hat, tau_sq) = ({mu!r}, "
                            f"{tau_sq!r}), dataset ({row['mu_hat']}, {row['tau_sq']})")
    return problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _option(args, flag):
    return args[args.index(flag) + 1] if flag in args else None


def check_workload(workload, ops, seed, root):
    """Problems found in one round's artifacts of ``workload``."""
    import sys

    src = str(Path(root) / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from ctmdesign.config import load_scenario

    problems = []
    for op in ops:
        config = Path(root) / _option(op.args, "--config")
        raw = json.loads(config.read_text())
        if workload == "urban-simulate":
            design = [float(x) for x in _option(op.args, "--design").split(",")]
            problems += check_simulate(op.out_dir, load_scenario(config), design,
                                       _option(op.args, "--rule"), seed)
        elif workload == "highway-levelset":
            problems += check_levelset(op.out_dir, raw, seed)
            problems += check_highway_replay(op.out_dir, load_scenario(config), seed)
        else:
            problems += check_levelset(op.out_dir, raw, seed, analytic_truth=sincos)
    return problems
