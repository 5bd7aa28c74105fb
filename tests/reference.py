"""Scalar reference implementations that the package's tests compare against.

Each function restates one piece of the model route by route, with
dict-keyed densities and flows: the cells' S and R (``CellTable`` in the
package), the turning table of the scenario rule ``uniform_no_uturn``,
inflow aggregation and the density update (the engine's phases 3 and 5),
the four interaction regimes as one local flow problem per directed edge,
solved one at a time (the cooperative one by a HiGHS LP when the turning
fractions depend on the upstream route; the engine's phase 2), the
signal phase, ramp and state of an intersection (the engine's
``signal_table``), the engine's edge groups by a scan of every route
per edge and a group sum added one row at a time (``solvers``), one
Frank-copula pair (``FrankCopula.pairs``),
the truncation of one attempted net flow (the environments'
``net_flows``), the conserved mass, the covariance of two single design
points and the kernel's cross-covariance matrix in expression form
(``Kernel.matrix``), the log marginal likelihood through ``cho_factor``
and the hyperparameter fit through ``scipy.optimize.minimize``
(``gpr.log_marginal_likelihood`` and ``gpr.fit_hyperparameters``), the
posterior through ``cho_solve`` and scipy's public ``dtrsm``, and its
variance through ``solve_triangular`` (``GprPosterior``), the rejection sampler with every candidate's std
queried (``learning.rejection_sample``), the acquisition density and
the credible band at a point set from one posterior query each, draws of
a benchmark flow (``BenchmarkSpec``), and one-at-a-time sequential Monte
Carlo.  Two helpers step an engine one step at a time, which the
package does only inside ``SimulationEngine.run``, and ``cell_spec``
builds a cell from the parameters its kind reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ctmdesign.cells import CellError, CellSpec, overlap_matrix
from ctmdesign.env import _U_CLIP
from ctmdesign.network import NetworkError, Route

#: turning-fraction rows must sum to one within this tolerance.
TURNING_ROW_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

def cell_spec(**values):
    """A ``CellSpec`` of ``values``; a parameter left out is None, as
    ``config.Scenario`` builds it for a kind that does not read it."""
    return CellSpec(**{**dict.fromkeys(f.name for f in fields(CellSpec)), **values})


def _density(densities, route):
    try:
        return densities[route]
    except KeyError:
        raise CellError(f"density map is missing route {route}") from None


def _node_total(densities, via):
    return sum(rho for r, rho in densities.items() if r.via == via)


def sending(cell, route, densities, signal=None):
    """Demand bound S of ``route`` given the densities through its node.

    ``signal`` must be a SignalState when the cell is a signalized
    intersection and must be omitted otherwise.  The result satisfies
    0 <= S <= min(s_max, rho_route).
    """
    rho = _density(densities, route)
    if cell.kind == "signalized_intersection":
        if signal is None:
            raise CellError("signalized intersection requires a signal state")
        la = signal.la[route]
        if cell.hops(route) == 3:
            opp = cell.arm(cell.position(route.src) + 2)
            blocking = (_density(densities, Route(opp, route.via, route.src))
                        + _density(densities, Route(opp, route.via, route.dst)))
            return min(cell.s_max,
                       la * cell.a * rho * math.exp(-cell.zeta * blocking))
        return min(cell.s_max, la * cell.a * rho)
    if signal is not None:
        raise CellError(f"cell kind {cell.kind} does not take a signal state")
    if cell.kind == "simplified_intersection":
        total = _node_total(densities, route.via)
        return min(cell.s_max, cell.a * rho * math.exp(-cell.zeta * total))
    # highway, bidirectional_interface, pedestrian_square, roundabouts
    return min(cell.s_max, cell.a * rho)


def receiving(cell, route, densities):
    """Supply bound R of ``route`` given the densities through its node."""
    rho = _density(densities, route)
    if cell.kind == "highway":
        return max(cell.b * (cell.rho_max / 2 - cell.c * rho), 0.0)
    if cell.kind == "bidirectional_interface":
        counter = _density(densities, Route(route.dst, route.via, route.src))
        return max(cell.b * (cell.rho_max - cell.c * rho - cell.d * counter), 0.0)
    if cell.kind == "pedestrian_square":
        cross = sum(r_ for r, r_ in densities.items()
                    if r.via == route.via and r.src != route.src and r.dst != route.dst
                    and r != route)
        return max(cell.b * (cell.rho_max - cell.c * rho - cell.d * cross), 0.0)
    if cell.kind == "simplified_intersection":
        total = _node_total(densities, route.via)
        return max(cell.b * (cell.rho_max - cell.c * total), 0.0)
    if cell.kind == "signalized_intersection":
        approach = sum(r_ for r, r_ in densities.items()
                       if r.via == route.via and r.src == route.src)
        cap = cell.approach_capacity_fraction * cell.rho_max
        return max(cell.b * (cap - approach), 0.0)
    if cell.kind in ("uni_roundabout", "bi_roundabout"):
        weights, capacity = overlap_matrix(cell.kind, tuple(cell.ccw), route.via)
        cross = sum(w * _density(densities, other)
                    for (own, other), w in weights.items() if own == route)
        cap = capacity[route] * cell.rho_max
        return max(cell.b * (cap - cell.c * rho - cell.d * cross), 0.0)
    raise CellError(f"no receiving rule for kind {cell.kind!r}")


# ---------------------------------------------------------------------------
# network state and conservation
# ---------------------------------------------------------------------------

@dataclass
class DensityState:
    """Per-route densities at a time index.  Owned by exactly one replicate."""

    rho: np.ndarray
    time_index: int = 0


def update_density(rho, l_v, q_in, q_out, q_net):
    """One-route density update: rho + (q_in - q_out + q_net) / l_v.

    The caller guarantees non-negativity of the result through the flow
    constraints and net-flow clamping; this function only checks inputs.
    """
    values = (rho, l_v, q_in, q_out, q_net)
    if not all(math.isfinite(x) for x in values):
        raise NetworkError(f"non-finite input to density update: {values}")
    if l_v <= 0:
        raise NetworkError(f"node length must be positive, got {l_v}")
    return rho + (q_in - q_out + q_net) / l_v


def _exits(network, route):
    """Nodes a route's outflow may continue toward: those of the routes
    (via, dst, w) that exist, so a U-turn only where the node allows one."""
    return [w for w in set(np.flatnonzero(network.adjacency[route.dst]))
            if Route(route.via, route.dst, w) in network.route_index]


class TurningFractions:
    """Fractions f[(route, w)] of a route's outflow continuing toward w.

    For every route (x, u, v) the fractions over w in O(v) must sum to
    one (first-in-first-out conservation).  Fractions may be supplied as
    an explicit table or generated uniformly over the non-U-turn exits.
    """

    def __init__(self, table):
        self._table = dict(table)

    @classmethod
    def uniform_no_uturn(cls, network):
        """Split every route's outflow equally over its end node's exits.

        U-turn continuations are excluded except at nodes that opt in.
        """
        table = {}
        for route in network.routes:
            exits = _exits(network, route)
            if not exits:
                continue
            f = 1.0 / len(exits)
            for w in exits:
                table[(route, w)] = f
        return cls(table)

    def fraction(self, route, w):
        return self._table.get((route, w), 0.0)


def aggregate_inflows(outflows, turning, network):
    """Aggregate route inflows from upstream outflows and turning fractions.

    q_in[(u, v, w)] = sum over x in I(u) of  f[(x,u,v) -> w] * q_out[(x,u,v)].

    ``outflows`` maps Route -> flow; the result has the same form.  Turning
    rows are validated to sum to one for every route with positive exits.
    """
    by_route = {}
    for route, q in outflows.items():
        exits = _exits(network, route)
        if not exits:
            continue
        total = sum(turning.fraction(route, w) for w in exits)
        if abs(total - 1.0) > TURNING_ROW_TOLERANCE:
            raise NetworkError(
                f"turning fractions out of route {route} sum to {total!r}, expected 1"
            )
        for w in exits:
            key = Route(route.via, route.dst, w)
            by_route[key] = by_route.get(key, 0.0) + turning.fraction(route, w) * q
    result = {}
    for route in network.routes:
        result[route] = by_route.get(route, 0.0)
    return result


def total_mass(state, network):
    """Total vehicle count: sum over routes of l_v * rho."""
    return float(np.dot(network.route_lengths, state.rho))


# ---------------------------------------------------------------------------
# local flow problems
# ---------------------------------------------------------------------------

_WEIGHT_TOLERANCE = 1e-12


@dataclass
class LocalProblem:
    """One decoupled flow problem on a directed edge (u, v).

    ``sendings`` has one entry per upstream route (x, u, v) in canonical
    (sorted-x) order, ``receivings`` one per downstream route (u, v, w),
    and ``fractions[i, j]`` is the turning fraction from upstream route i
    toward downstream route j.
    """

    sendings: np.ndarray
    receivings: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        self.sendings = np.asarray(self.sendings, dtype=float)
        self.receivings = np.asarray(self.receivings, dtype=float)
        self.fractions = np.asarray(self.fractions, dtype=float)
        if self.fractions.shape != (len(self.sendings), len(self.receivings)):
            raise ValueError("fraction matrix shape mismatch")
        if np.any(self.sendings < 0) or np.any(self.receivings < 0):
            raise ValueError("sendings and receivings must be non-negative")


def solve_dpf(problem):
    """Largest feasible common proportionality factor and the outflows.

    lambda = min(1, min_w R_w / sum_x f[x->w] S_x), ratios with zero
    denominator imposing no constraint.  Only ratios below one are
    formed, so a subnormal demand cannot overflow.
    """
    demand = problem.fractions.T @ problem.sendings
    lam = 1.0
    for d, r in zip(demand, problem.receivings):
        if d > r:
            lam = min(lam, r / d)
    return lam, lam * problem.sendings


def solve_cpf(problem, weights):
    """Capacity-proportional outflows min(lambda * d_x, 1) * S_x.

    lambda is the smallest value at which some receiving constraint
    binds, found exactly by walking the breakpoints 1/d_x of the
    piecewise-linear demand curve.  If no constraint ever binds the
    flows are uncapped (q = S), mirroring the zero-denominator
    convention of the demand-proportional rule.
    """
    d = np.asarray(weights, dtype=float)
    if d.shape != problem.sendings.shape:
        raise ValueError("one weight per upstream route required")
    if np.any(d < 0) or abs(d.sum() - 1.0) > _WEIGHT_TOLERANCE:
        raise ValueError("cpf weights must be non-negative and sum to one")

    s = problem.sendings
    lam = np.inf
    for j, r_w in enumerate(problem.receivings):
        terms = problem.fractions[:, j] * s
        total = terms.sum()
        if total <= r_w:
            continue  # never binds for this w
        # walk the breakpoints of sum_x terms_x * min(lambda d_x, 1) = r_w
        order = np.argsort([np.inf if dx == 0 else 1.0 / dx for dx in d])
        level = 0.0          # value at current lambda
        slope = float(np.dot(terms, d))
        cur = 0.0
        root = None
        for i in order:
            if d[i] == 0:
                continue
            bp = 1.0 / d[i]
            if slope > 0 and level + slope * (bp - cur) >= r_w:
                root = cur + (r_w - level) / slope
                break
            level += slope * (bp - cur)
            slope -= terms[i] * d[i]
            cur = bp
        if root is None:
            # crossing happens on the final flat/linear piece
            root = cur if slope <= 0 else cur + (r_w - level) / slope
        lam = min(lam, root)

    if not np.isfinite(lam):
        return lam, s.copy()
    return lam, np.minimum(lam * d, 1.0) * s


def solve_priority(problem, order=None):
    """Hierarchical outflows: earlier claimants take supply first."""
    n = len(problem.sendings)
    if order is None:
        order = range(n)
    else:
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the upstream routes")
    q = np.zeros(n)
    residual = problem.receivings.astype(float).copy()
    for i in order:
        bound = problem.sendings[i]
        for j, r_w in enumerate(residual):
            f = problem.fractions[i, j]
            if f > 0:
                bound = min(bound, r_w / f)
        q[i] = max(bound, 0.0)
        residual -= problem.fractions[i] * q[i]
        np.maximum(residual, 0.0, out=residual)
    return q


def _uniform_fractions(fractions):
    """Row vector if every upstream route turns identically, else None."""
    if fractions.shape[0] == 0:
        return None
    first = fractions[0]
    if np.all(fractions == first):
        return first
    return None


def _greedy_fill(sendings, capacity):
    """Lexicographic fill of a shared outflow budget."""
    q = np.zeros_like(sendings)
    left = capacity
    for i, s in enumerate(sendings):
        if left <= 0:
            break
        q[i] = min(s, left)
        left -= q[i]
    return q


def solve_cooperative(problem):
    """Maximize total outflow; lexicographic tie-break in canonical order.

    Groups whose turning fractions do not depend on the upstream route
    reduce to a single aggregate supply constraint and are solved by a
    greedy fill.  General groups use a dense LP (scipy/HiGHS), followed
    by one LP per variable to pin the lexicographically maximal optimum.
    """
    s = problem.sendings
    n = len(s)
    if n == 0:
        return np.zeros(0)
    row = _uniform_fractions(problem.fractions)
    if row is not None:
        cap = s.sum()
        for f, r_w in zip(row, problem.receivings):
            if f > 0:
                cap = min(cap, r_w / f)
        return _greedy_fill(s, cap)

    from scipy.optimize import linprog

    a_ub = problem.fractions.T
    b_ub = problem.receivings
    bounds = [(0.0, float(x)) for x in s]

    res = linprog(-np.ones(n), A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise NetworkError(f"cooperative LP failed: {res.message}")
    total = -res.fun

    # pin the lexicographic optimum: fix the achieved total, then maximize
    # each coordinate in canonical order, fixing it before moving on
    fixed = np.full(n, np.nan)
    a_eq = [np.ones(n)]
    b_eq = [total]
    q = res.x
    for i in range(n):
        c = np.zeros(n)
        c[i] = -1.0
        res_i = linprog(c, A_ub=a_ub, b_ub=b_ub,
                        A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                        bounds=bounds, method="highs")
        if not res_i.success:
            break  # keep the plain optimum from the previous solve
        fixed[i] = res_i.x[i]
        row_i = np.zeros(n)
        row_i[i] = 1.0
        a_eq.append(row_i)
        b_eq.append(fixed[i])
        q = res_i.x
    return np.maximum(q, 0.0)


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------

@dataclass
class SignalState:
    """Signal values at one time step: 0/1 light state, ramp LA in [0,1]."""

    ls: dict
    la: dict
    t_switch: dict


def signal_phase(schedule, t):
    """(axis-I green flag, steps since last switch) at time t."""
    m = (t + schedule.shift) % (2 * schedule.green)
    return m < schedule.green, (m % schedule.green) + 1


def ramp_value(schedule, t_switch):
    """Acceleration ramp in [0, 1] after t_switch steps in the current state."""
    x = (t_switch - schedule.t_safe) * schedule.t_real * schedule.a_real / schedule.v_real
    return min(1.0, max(0.0, x))


def advance_signal(schedule, t, via=None):
    """Signal state of all twelve routes of the intersection at time t.

    Routes are keyed as (u, via, w) over distinct arm pairs; ``via`` is
    only used to label the routes and defaults to -1.
    """
    if t < 0:
        raise ValueError("time index must be non-negative")
    node = -1 if via is None else via
    i_green, t_switch = signal_phase(schedule, t)
    la_on = ramp_value(schedule, t_switch)
    ls, la, tsw = {}, {}, {}
    for pu, u in enumerate(schedule.ccw):
        green = i_green if pu % 2 == 0 else not i_green
        for w in schedule.ccw:
            if w == u:
                continue
            route = Route(u, node, w)
            ls[route] = 1 if green else 0
            la[route] = la_on if green else 0.0
            tsw[route] = t_switch
    return SignalState(ls=ls, la=la, t_switch=tsw)


# ---------------------------------------------------------------------------
# the engine's groups and group sums
# ---------------------------------------------------------------------------

def edge_groups(network):
    """The engine's local problems by a scan of every route per edge:
    [((u, v), upstream route indices, downstream route indices)] for
    each edge (u, v) with an upstream route (x, u, v), in (v, u) order,
    the downstream routes being the (u, v, w), both in route order."""
    groups = []
    for v in range(network.n_nodes):
        for u in np.flatnonzero(network.adjacency[:, v]):
            ups = [network.route_index[r] for r in network.routes
                   if r.via == u and r.dst == v]
            if ups:
                downs = [int(i) for i in network.routes_through(v)
                         if network.routes[i].src == u]
                groups.append(((u, v), ups, downs))
    return groups


def group_sum(rows):
    """rows[0] + (((rows[1] + rows[2]) + rows[3]) + ...), one add at a time."""
    if len(rows) == 1:
        return rows[0]
    tail = rows[1]
    for row in rows[2:]:
        tail = tail + row
    return rows[0] + tail


# ---------------------------------------------------------------------------
# one engine step (the engine itself steps only through ``run``)
# ---------------------------------------------------------------------------

def signal_la(eng, t, programs=None):
    """Per-route LA of the engine ``eng`` at time t, or None without
    scheduled nodes.

    One step of ``signal_table``: shape (n_routes,) for None or one
    mapping of ``programs``, route-major (n_routes, B) for a sequence of B.
    """
    table = eng.signal_table(programs, (t,))
    if table is None:
        return None
    la = np.ones((eng.network.n_routes,) + table.shape[2:])
    la[eng._signal_idx] = table[0][eng._signal_row]
    return la


def engine_step(eng, t, rho, rule, env=None, programs=None):
    """Advance ``eng`` one step; returns (new densities, FlowRecord).

    ``rho`` is not modified.  ``env`` supplies the net flows of phase
    4 (None means a closed system), ``programs`` per-replicate
    schedule overrides for the signalized nodes.
    """
    return eng._step_with_la(t, rho, rule, env, signal_la(eng, t, programs))


# ---------------------------------------------------------------------------
# Gaussian process kernel
# ---------------------------------------------------------------------------

def kernel_eval(kern, k1, k2):
    """Covariance between two single design points."""
    return float(kern.matrix(np.atleast_2d(k1), np.atleast_2d(k2))[0, 0])


def kernel_matrix(kern, x1, x2):
    """Cross-covariance matrix in expression form (``Kernel.matrix`` in place)."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    d2 = (np.sum(x1 ** 2, axis=1)[:, None] + np.sum(x2 ** 2, axis=1)[None, :]
          - 2.0 * x1 @ x2.T)
    dist = np.sqrt(np.maximum(d2, 0.0)) / kern.length
    s2 = kern.sigma_c ** 2
    if kern.variant == "squared_exponential":
        return s2 * np.exp(-0.5 * dist ** 2)
    if kern.variant == "matern12":
        return s2 * np.exp(-dist)
    if kern.variant == "matern32":
        z = math.sqrt(3.0) * dist
        return s2 * (1.0 + z) * np.exp(-z)
    z = math.sqrt(5.0) * dist
    return s2 * (1.0 + z + z ** 2 / 3.0) * np.exp(-z)


# ---------------------------------------------------------------------------
# Gaussian process fit
# ---------------------------------------------------------------------------

_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)


def cho_factor_jittered(kern, dataset):
    """``cho_factor`` of Sigma + diag(tau~^2) + jitter * s2 * I, escalating the jitter."""
    from scipy.linalg import cho_factor

    sigma = kernel_matrix(kern, dataset.points, dataset.points)
    noise = np.diag(dataset.standardized_noises)
    s2 = kern.sigma_c ** 2
    for jitter in _JITTERS:
        try:
            return cho_factor(sigma + noise + jitter * s2 * np.eye(len(dataset)),
                              lower=True)
        except np.linalg.LinAlgError:
            pass
    raise np.linalg.LinAlgError("covariance factorization failed after jitter escalation")


def log_marginal_likelihood(dataset, kern):
    """Log evidence in expression form, through ``cho_factor`` and ``cho_solve``."""
    from scipy.linalg import cho_solve

    cho = cho_factor_jittered(kern, dataset)
    nu = dataset.standardized_values
    alpha = cho_solve(cho, nu)
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    n = len(dataset)
    return float(-0.5 * nu @ alpha - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi))


def posterior_alpha(kern, dataset):
    """K^{-1} nu through ``cho_factor`` and ``cho_solve`` (``GprPosterior._alpha``)."""
    from scipy.linalg import cho_solve

    return cho_solve(cho_factor_jittered(kern, dataset), dataset.standardized_values)


def factor_error(factor, kern, dataset, jitter):
    """How far a lower factor L of K = Sigma + diag(tau~^2 + jitter s2) is
    from it: max |L L^T - K|, max |L - L_c| for ``cho_factor``'s factor L_c
    of K, and the 2-norm condition number of K."""
    from scipy.linalg import cho_factor

    k = kernel_matrix(kern, dataset.points, dataset.points) + np.diag(
        dataset.standardized_noises + jitter * kern.sigma_c ** 2)
    low = np.tril(factor)
    want = np.tril(cho_factor(k, lower=True)[0])
    return np.abs(low @ low.T - k).max(), np.abs(low - want).max(), np.linalg.cond(k)


def posterior_mean_std(kern, dataset, queries, pack, block=1024):
    """Posterior mean and std-dev (raw scale): per block of ``block`` queries,
    its points repeated cyclically to a whole number of ``pack``-point
    packs, one ``scipy.linalg.blas.dtrsm`` from the right on the kernel
    block's transpose and one ``einsum``."""
    from scipy.linalg.blas import dtrsm

    factor, _ = cho_factor_jittered(kern, dataset)
    alpha = posterior_alpha(kern, dataset)
    means, variances = [], []
    for lo in range(0, len(queries), block):
        q = queries[lo:lo + block]
        w = len(q)
        kx = kernel_matrix(kern, dataset.points,
                           np.resize(q, (-(-w // pack) * pack, q.shape[1])))
        means.append((kx.T @ alpha)[:w])
        v = dtrsm(1.0, factor, kx.T, side=1, lower=1, trans_a=1) if kx.size else kx.T
        variances.append(np.einsum("ij,ij->i", v, v)[:w])
    mean = np.concatenate(means) * dataset.s_bar + dataset.mu_bar
    var = np.maximum(kern.sigma_c ** 2 - np.concatenate(variances), 0.0)
    return mean, np.sqrt(var) * dataset.s_bar


def posterior_variance(kern, dataset, queries):
    """Posterior variance (standardized scale) through ``solve_triangular``,
    with the 2-norm condition number of the factor it solved with."""
    from scipy.linalg import solve_triangular

    factor, lower = cho_factor_jittered(kern, dataset)
    kx = kernel_matrix(kern, dataset.points, queries)
    v = solve_triangular(factor, kx, lower=lower, check_finite=False)
    cond = np.linalg.cond(np.tril(factor)) if len(dataset) else 1.0
    return kern.sigma_c ** 2 - np.einsum("ij,ij->j", v, v), cond


def fit_hyperparameters(dataset, variant, n_starts=10, rng=None, tol=1e-6):
    """The multi-start fit through ``scipy.optimize.minimize(method="Nelder-Mead")``."""
    from scipy.optimize import minimize

    from ctmdesign.gpr import Kernel

    rng = np.random.default_rng(rng)
    diffs = dataset.points[:, None, :] - dataset.points[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=-1))
    pos = dists[dists > 0]
    length_scale = float(np.median(pos)) if len(pos) else 1.0

    def objective(log_params):
        sigma_c, length = np.exp(log_params)
        try:
            return -log_marginal_likelihood(dataset, Kernel(variant, sigma_c, length))
        except (np.linalg.LinAlgError, FloatingPointError, ValueError):
            return 1e30

    best = None
    for _ in range(n_starts):
        start = np.log([1.0, length_scale]) + rng.uniform(
            math.log(1e-2), math.log(1e2), size=2)
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": tol, "fatol": tol, "maxiter": 500})
        if not np.isfinite(res.fun) or res.fun >= 1e29:
            continue
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        return Kernel(variant, 1.0, length_scale)
    sigma_c, length = np.exp(best.x)
    return Kernel(variant, float(sigma_c), float(length))


# ---------------------------------------------------------------------------
# active learning
# ---------------------------------------------------------------------------

def acquisition(k, post, gamma, c2, variant="absolute"):
    """Informative potential of sampling at k, in (0, 1/2].

    Phi(-c2 |m(k) - gamma|), optionally with the gap scaled by the
    posterior standard deviation ("scaled" variant).
    """
    from ctmdesign.learning import _acceptance

    k = np.atleast_2d(k)
    if variant == "absolute":
        m, s = post.mean(k), None
    else:
        m, s = post.mean_std(k)
    out = _acceptance(m, s, gamma, c2, variant)
    return out if out.size > 1 else float(out[0])


def credible_band(post, pts, delta):
    """(m, s, lower, upper) at pts from one posterior query (see
    ``learning.band``)."""
    from ctmdesign.learning import band
    from ctmdesign.normal import ndtri

    m, s = post.mean_std(pts)
    return m, s, *band(m, s, ndtri(1.0 - delta / 2.0))


def rejection_sample(n_loop, post, gamma, tau_i, c2, config, space, rng):
    """``learning.rejection_sample`` with the mean and std of every candidate
    queried; it logs its skip message to the ``reference`` logger."""
    import logging

    from ctmdesign.learning import _acceptance

    batch = 256
    found = []
    j = 0
    trials = 0
    candidates = iter(())
    while j < n_loop:
        item = next(candidates, None)
        if item is None:
            ks = space.uniform(rng, batch)
            ps = rng.random(batch)
            m, s = post.mean_std(ks)
            acc = _acceptance(m, s, gamma, c2, config.acquisition_variant)
            gate = config.c1 * tau_i < np.atleast_1d(s)
            candidates = iter(zip(ks, gate, ps, acc))
            continue
        k, open_gate, p, prob = item
        trials += 1
        accepted = open_gate and p < 2.0 * prob
        if accepted:
            found.append(k)
            j += 1
            trials = 0
        elif trials >= config.max_trials:
            logging.getLogger("reference").info(
                "rejection sampling: point %d/%d exhausted %d trials; "
                "skipping the rest of this iteration", j + 1, n_loop,
                config.max_trials)
            break
    return np.array(found) if found else np.zeros((0, space.dim))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _log_mix(a, b, s):
    """log(a + b * exp(s)) without overflow, for a, b >= 0."""
    if s <= 0:
        return math.log(a + b * math.exp(s))
    return s + math.log(a * math.exp(-s) + b)


def frank_sample(copula, rng):
    """One pair (u1, u2) of ``copula`` from two uniforms of ``rng``, u1 first."""
    u1 = rng.random()
    p = rng.random()
    u1 = min(max(u1, _U_CLIP), 1.0 - _U_CLIP)
    p = min(max(p, _U_CLIP), 1.0 - _U_CLIP)
    if copula.independent:
        return u1, p
    r = copula.r
    # u2 = u1 - (1/r) * [log((1-p) + p e^{-r(1-u1)}) - log(p + (1-p) e^{-r u1})]
    num = _log_mix(1.0 - p, p, -r * (1.0 - u1))
    den = _log_mix(p, 1.0 - p, -r * u1)
    u2 = u1 - (num - den) / r
    return u1, min(max(u2, _U_CLIP), 1.0 - _U_CLIP)


def clamp_net_flow(q_aux, rho, q_in, q_out, rho_cap, l_v):
    """Truncate an attempted net flow so the updated density lands in [0, rho_cap].

    Returns the realized q_net: equal to q_aux whenever the update stays
    inside the bounds, otherwise the value that attains the violated
    boundary exactly under rho' = rho + (q_in - q_out + q_net) / l_v.
    """
    lo = -rho * l_v - q_in + q_out
    hi = (rho_cap - rho) * l_v - q_in + q_out
    return min(max(q_aux, lo), hi)


# ---------------------------------------------------------------------------
# benchmark flows
# ---------------------------------------------------------------------------

def benchmark_sample(bench, rng, n):
    """n draws of a ``BenchmarkSpec``'s flow e * 2 * X, X ~ Beta(beta, beta)."""
    return bench.e * 2.0 * rng.beta(bench.beta, bench.beta, size=n)


# ---------------------------------------------------------------------------
# sequential Monte Carlo
# ---------------------------------------------------------------------------

def sequential_mc(draw, tau_target, n_min, n_max, rng):
    """(mu_hat, tau_sq, n): the first n_min replicates as one batch, then
    one ``draw([rng])`` at a time until var_n / n <= tau_target^2 or n_max.

    Welford's one-pass mean and variance, pushed in index order.
    """
    n, mean, m2 = 0, 0.0, 0.0

    def push(x):
        nonlocal n, mean, m2
        n += 1
        delta = x - mean
        mean += delta / n
        m2 += delta * (x - mean)

    def variance():
        return m2 / (n - 1) if n > 1 else 0.0

    for value in draw([rng] * n_min):
        push(float(value))
    while n < n_max and variance() / n > tau_target ** 2:
        push(float(draw([rng])[0]))
    return mean, variance() / n, n
