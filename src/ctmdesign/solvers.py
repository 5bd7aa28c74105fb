"""Realized outflows per step under the four interaction regimes.

Each time step decouples into local problems, one per directed edge
(u, v): choose outflows q_x for the routes (x, u, v) subject to

    0 <= q_x <= S_x                       (demand)
    sum_x f[x -> w] * q_x <= R_w          (supply, for every w in O(v))

The regimes differ in how the feasible set is resolved:

* ``dpf``          demand proportional: q_x = lambda * S_x with the
                   largest feasible lambda in [0, 1] (closed form).
* ``cpf``          capacity proportional: q_x = min(lambda * d_x, 1) * S_x
                   with weights d summing to one; the smallest lambda at
                   which a supply constraint binds is found by walking
                   the breakpoints of the piecewise-linear demand curve.
* ``priority``     a fixed ordering of the upstream nodes claims flow
                   hierarchically, each claimant taking what the
                   remaining supply allows.
* ``cooperative``  the myopic benchmark: maximize sum_x q_x; ties are
                   broken by lexicographically maximizing the outflows
                   in canonical upstream order.

The step engine (``SimulationEngine``) evaluates all cells, solves all
local problems, aggregates inflows, applies the environment's net flows,
and advances the densities.  Turning fractions must not depend on the
upstream node (the scenario schema only offers uniform turning), so
every local problem reduces to one shared outflow budget and all of
them are solved in closed form across the whole network with
vectorized operations.  The per-problem ``solve_*`` functions are the
reference definitions of the four regimes.

Signals enter through the sending factor LA.  ``run`` evaluates the
closed form of every step at once (``signal_table``: one column per
signalized node and axis, over the replicates' own programs) and copies
row t onto the signalized routes of one LA buffer at step t.

Every phase works on the last axis: a (n_routes,) state is one
replicate and a (B, n_routes) state is B replicates stepped together.
Each row of a batch goes through the same floating-point operations in
the same order as a one-replicate run (one gemv per row for the cell
products, segment sums along contiguous rows), so it is bit-identical
to it; a batch only amortizes numpy's per-call overhead.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .cells import CellTable
from .network import FlowRecord, NetworkError, clamp_densities, take_routes

__all__ = [
    "LocalProblem",
    "InteractionRule",
    "solve_dpf",
    "solve_cpf",
    "solve_priority",
    "solve_cooperative",
    "SimulationEngine",
]

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


@dataclass(frozen=True)
class InteractionRule:
    """Interaction regime of the step engine: cpf uses uniform weights and
    priority the canonical upstream order."""

    variant: str

    VARIANTS = ("dpf", "cpf", "priority", "cooperative")

    def __post_init__(self):
        if self.variant not in self.VARIANTS:
            raise ValueError(f"unknown interaction rule {self.variant!r}")


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
# Step engine
# ---------------------------------------------------------------------------

class SimulationEngine:
    """Compiled five-phase stepper for one network.

    The engine is immutable after construction and shared across
    replicates; all mutable per-replicate state (densities, signal
    programs, environment) is passed through ``step`` or ``run``, for
    one replicate or a batch (see the module docstring).

    Parameters
    ----------
    network : TrafficNetwork
    node_cells : mapping node -> CellSpec
    turning : TurningFractions, independent of the upstream node on
        every edge (``NetworkError`` otherwise)
    schedules : mapping node -> SignalSchedule, for signalized nodes.
        These are the default programs; ``step`` and ``run`` accept
        per-replicate ones.
    """

    def __init__(self, network, node_cells, turning, schedules=None):
        self.network = network
        self.cells = CellTable(network, node_cells)
        self.turning = turning
        self._schedules = dict(schedules or {})

        up_lists, down_lists, rows = [], [], []
        group_edges = []
        for v in range(network.n_nodes):
            for u in sorted(network.neighbors_in(v)):
                ups = [network.route_index[r] for r in network.routes
                       if r.via == u and r.dst == v]
                if not ups:
                    continue
                downs = [i for i in network.routes_through(v)
                         if network.routes[i].src == u]
                f = np.zeros((len(ups), len(downs)))
                for i, ri in enumerate(ups):
                    for j, rj in enumerate(downs):
                        f[i, j] = turning.fraction(network.routes[ri],
                                                   network.routes[rj].dst)
                row = _uniform_fractions(f)
                if row is None:
                    raise NetworkError(
                        f"turning fractions on edge ({u},{v}) depend on the "
                        "upstream node")
                group_edges.append((u, v))
                up_lists.append(np.array(ups, dtype=np.intp))
                down_lists.append(np.array([int(j) for j in downs], dtype=np.intp))
                rows.append(row)

        self.group_edges = group_edges
        self.n_groups = len(group_edges)

        # flat layout: each group's upstream routes share one row vector
        # f_w of fractions toward its downstream routes
        self._up_concat = (np.concatenate(up_lists) if up_lists
                           else np.zeros(0, np.intp))
        up_sizes = [len(u) for u in up_lists]
        self._up_sizes = np.array(up_sizes, dtype=np.intp)
        self._up_ptr = np.cumsum([0] + up_sizes)[:-1]
        # every route is an upstream route of exactly one group, its edge
        # (via, dst), so the upstream layout is a permutation of the routes
        self._route_order = np.argsort(self._up_concat)
        self._group_of_up = np.repeat(np.arange(self.n_groups), up_sizes)
        down_sizes = [len(d) for d in down_lists if len(d)]
        self._down_concat = (np.concatenate([d for d in down_lists if len(d)])
                             if down_sizes else np.zeros(0, np.intp))
        self._down_ptr = np.cumsum([0] + down_sizes)[:-1]
        self._groups_with_down = np.array(
            [g for g, d in enumerate(down_lists) if len(d)], dtype=np.intp)
        self._group_of_down = np.repeat(self._groups_with_down, down_sizes)
        f_down = np.concatenate(
            [rows[g] for g in self._groups_with_down]) if down_sizes else np.zeros(0)
        self._f_down = f_down
        self._exits = np.flatnonzero(f_down == 0)
        with np.errstate(divide="ignore"):
            self._inv_f_down = np.where(f_down > 0, 1.0 / f_down, np.inf)

        # signal table columns: 2 j + 0 (axis I) and 2 j + 1 (axis J) of the
        # j-th scheduled node; each signalized route reads its arm's axis
        col_of = {v: 2 * j for j, v in enumerate(self._schedules)}
        signal = [(i, col_of[v] + (not in_axis_i))
                  for i, v, in_axis_i in self.cells.signal_routes if v in col_of]
        self._signal_idx = np.array([i for i, _ in signal], dtype=np.intp)
        self._signal_col = np.array([c for _, c in signal], dtype=np.intp)
        self.route_lengths = network.route_lengths

    # -- per-step pieces ---------------------------------------------------

    def signal_table(self, programs, steps):
        """LA of both axes of every scheduled node at each of ``steps``.

        ``programs`` is None (the default schedules), one mapping node ->
        SignalSchedule, or a sequence of B such mappings (or Nones); a node
        missing from a mapping keeps its default.  Returns an array of shape
        (len(steps), [B,] 2 * n_signals), or None without scheduled nodes.
        Each element goes through the IEEE operations of the scalar
        definition in order: the integer t_switch - t_safe, then * t_real,
        * a_real and / v_real, then max with 0.0 and min with 1.0.
        """
        if not self._schedules:
            return None
        single = programs is None or isinstance(programs, Mapping)
        scheds = [[p[v] if p and v in p else default
                   for v, default in self._schedules.items()]
                  for p in ([programs] if single else programs)]

        def field(name):
            values = np.array([[getattr(s, name) for s in row] for row in scheds])
            return values[0] if single else values

        green = field("green")
        t = np.asarray(steps).reshape((-1,) + (1,) * green.ndim)
        m = (t + field("shift")) % (2 * green)
        x = (m % green + 1 - field("t_safe")) * field("t_real") * field("a_real") \
            / field("v_real")
        # Python's max(0.0, x) and min(1.0, x): -0.0 and NaN give +0.0
        ramp = np.where(x > 0.0, x, 0.0)
        ramp = np.where(ramp < 1.0, ramp, 1.0)
        # axis I is green while m < green, axis J otherwise
        axis_green = (m < green)[..., None] == np.array([True, False])
        table = np.where(axis_green, ramp[..., None], 0.0)
        return table.reshape(table.shape[:-2] + (-1,))

    def signal_la(self, t, programs=None):
        """Per-route LA at time t, or None without scheduled nodes.

        One step of ``signal_table``: shape (n_routes,) for None or one
        mapping of ``programs``, (B, n_routes) for a sequence of B.
        """
        table = self.signal_table(programs, (t,))
        if table is None:
            return None
        la = np.ones(table.shape[1:-1] + (self.network.n_routes,))
        la.T[self._signal_idx] = table[0].T[self._signal_col]
        return la

    def outflows(self, s, r, rule):
        """Phase 2: realized outflows per route under the interaction rule.

        Works on the last axis: ``s`` and ``r`` are (n_routes,) for one
        replicate or (B, n_routes) for a batch.
        """
        if not self.n_groups:
            return np.zeros(s.shape)
        s_up = take_routes(s, self._up_concat)
        sum_s = np.add.reduceat(s_up, self._up_ptr, axis=-1)
        # shared outflow budget per group: min over w of R_w / f_w; exits
        # (f_w = 0) and groups without downstream routes never bind
        if self._down_concat.size:
            ratios = take_routes(r, self._down_concat) * self._inv_f_down
            if self._exits.size:
                ratios.T[self._exits] = np.inf
            cap = np.minimum.reduceat(ratios, self._down_ptr, axis=-1)
        if len(self._groups_with_down) < self.n_groups:
            full = np.full(s.shape[:-1] + (self.n_groups,), np.inf)
            if self._down_concat.size:
                full.T[self._groups_with_down] = cap.T
            cap = full

        if rule.variant in ("dpf", "cpf"):
            # lambda = min(1, cap / sum_s), divided only where it binds so
            # that a subnormal sum_s cannot overflow the quotient
            lam = np.ones(cap.shape)
            np.divide(cap, sum_s, out=lam, where=sum_s > cap)
            q_up = take_routes(lam, self._group_of_up) * s_up
        else:
            # priority (canonical order) and cooperative (lexicographic
            # tie-break) coincide under x-independent fractions: fill the
            # budget in canonical order
            if rule.variant == "cooperative":
                cap = np.minimum(cap, sum_s)
            cs = np.cumsum(s_up, axis=-1)
            first = take_routes(cs - s_up, self._up_ptr)
            before = cs - s_up - take_routes(first, self._group_of_up)
            q_up = np.clip(take_routes(cap, self._group_of_up) - before, 0.0, s_up)
        return take_routes(q_up, self._route_order)

    def inflows(self, q_out):
        """Phase 3: aggregate inflows from outflows and turning fractions."""
        q_in = np.zeros(q_out.shape)
        if self._down_concat.size:
            sum_q = np.add.reduceat(take_routes(q_out, self._up_concat),
                                    self._up_ptr, axis=-1)
            q_in.T[self._down_concat] = (
                self._f_down * take_routes(sum_q, self._group_of_down)).T
        return q_in

    def step(self, t, rho, rule, env=None, programs=None):
        """Advance one step; returns (new densities, FlowRecord).

        ``rho`` is not modified.  ``env`` supplies the net flows of phase
        4 (None means a closed system), ``programs`` per-replicate
        schedule overrides for the signalized nodes.
        """
        return self._step_with_la(t, rho, rule, env, self.signal_la(t, programs))

    def _step_with_la(self, t, rho, rule, env, la):
        s, r = self.cells.evaluate(rho, la)
        q_out = self.outflows(s, r, rule)
        q_in = self.inflows(q_out)
        if env is not None:
            q_aux, q_net = env.net_flows(t, rho, q_in, q_out)
        else:
            q_aux = None
            q_net = np.zeros(rho.shape)
        rho_new = rho + (q_in - q_out + q_net) / self.route_lengths
        clamp_densities(rho_new)
        return rho_new, FlowRecord(q_in=q_in, q_out=q_out, q_net=q_net, q_aux=q_aux)

    def run(self, rho0, n_steps, rule, env=None, programs=None, observers=()):
        """Run ``n_steps`` steps from rho0, feeding each step to the observers.

        ``rho0`` is one replicate (n_routes,) with ``programs`` one mapping
        node -> SignalSchedule, or a batch (B, n_routes) with ``programs``
        a sequence of B such mappings; None means the default schedules.
        Each observer is called as observer(t, rho_before, record).
        Returns the final density array.
        """
        rho = np.array(rho0, dtype=float)
        table = self.signal_table(programs, range(n_steps))
        if table is not None:
            # one LA buffer; only the signalized routes change per step
            la = np.ones(table.shape[1:-1] + (self.network.n_routes,))
        else:
            la = None
        for t in range(n_steps):
            if la is not None:
                la.T[self._signal_idx] = table[t].T[self._signal_col]
            rho_next, record = self._step_with_la(t, rho, rule, env, la)
            for obs in observers:
                obs(t, rho, record)
            rho = rho_next
        return rho

