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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import CellTable
from .network import FlowRecord, NetworkError, clamp_densities
from .signals import ramp_value, signal_phase

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

@dataclass
class _SignalBlock:
    """Static signal data of one intersection: schedule + route indices."""

    schedule: object
    route_idx: np.ndarray
    in_axis_i: np.ndarray


class SimulationEngine:
    """Compiled five-phase stepper for one network.

    The engine is immutable after construction and shared across
    replicates; all mutable per-replicate state (densities, signal
    programs, environment) is passed through ``step``.

    Parameters
    ----------
    network : TrafficNetwork
    node_cells : mapping node -> CellSpec
    turning : TurningFractions, independent of the upstream node on
        every edge (``NetworkError`` otherwise)
    schedules : mapping node -> SignalSchedule, for signalized nodes.
        Green/shift values in these schedules act as defaults; ``step``
        accepts per-replicate overrides.
    """

    def __init__(self, network, node_cells, turning, schedules=None):
        self.network = network
        self.cells = CellTable(network, node_cells)
        self.turning = turning
        schedules = dict(schedules or {})

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
        self._up_ptr = np.cumsum([0] + up_sizes)[:-1]
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
        with np.errstate(divide="ignore"):
            self._inv_f_down = np.where(f_down > 0, 1.0 / f_down, np.inf)

        self._signal_blocks = {}
        for v, sched in schedules.items():
            info = [(i, axis) for (i, node, axis) in self.cells.signal_routes
                    if node == v]
            self._signal_blocks[v] = _SignalBlock(
                schedule=sched,
                route_idx=np.array([i for i, _ in info], dtype=np.intp),
                in_axis_i=np.array([a for _, a in info], dtype=bool),
            )
        self.route_lengths = network.route_lengths

    # -- per-step pieces ---------------------------------------------------

    def signal_la(self, t, programs=None):
        """Per-route LA array at time t, or None without signalized nodes.

        ``programs`` optionally overrides the schedule per node for the
        current replicate (e.g. with integer-randomized green/shift).
        """
        if not self._signal_blocks:
            return None
        la = np.ones(self.network.n_routes)
        for v, block in self._signal_blocks.items():
            sched = block.schedule
            if programs and v in programs:
                sched = programs[v]
            i_green, t_switch = signal_phase(sched, t)
            value = ramp_value(sched, t_switch)
            green_routes = block.in_axis_i == i_green
            la[block.route_idx] = np.where(green_routes, value, 0.0)
        return la

    def outflows(self, s, r, rule):
        """Phase 2: realized outflows per route under the interaction rule."""
        s_up = s[self._up_concat]
        sum_s = np.add.reduceat(s_up, self._up_ptr) if len(s_up) else np.zeros(0)
        # shared outflow budget per group: min over w of R_w / f_w
        cap = np.full(self.n_groups, np.inf)
        if len(self._down_concat):
            ratios = r[self._down_concat] * self._inv_f_down
            ratios[self._f_down == 0] = np.inf  # unconstrained exits
            cap[self._groups_with_down] = np.minimum.reduceat(
                ratios, self._down_ptr)

        q_out = np.zeros_like(s)
        if rule.variant in ("dpf", "cpf"):
            # lambda = min(1, cap / sum_s), divided only where it binds so
            # that a subnormal sum_s cannot overflow the quotient
            lam = np.ones(self.n_groups)
            binds = sum_s > cap
            lam[binds] = cap[binds] / sum_s[binds]
            q_out[self._up_concat] = lam[self._group_of_up] * s_up
            return q_out

        # priority (canonical order) and cooperative (lexicographic
        # tie-break) coincide under x-independent fractions: fill the
        # budget in canonical order
        if rule.variant == "cooperative":
            cap = np.minimum(cap, sum_s)
        cs = np.cumsum(s_up)
        if len(s_up):
            sizes = np.diff(np.append(self._up_ptr, len(s_up)))
            start = np.repeat(cs[self._up_ptr] - s_up[self._up_ptr], sizes)
        else:
            start = np.zeros(0)
        before = cs - s_up - start
        q_out[self._up_concat] = np.clip(cap[self._group_of_up] - before, 0.0, s_up)
        return q_out

    def inflows(self, q_out):
        """Phase 3: aggregate inflows from outflows and turning fractions."""
        q_in = np.zeros_like(q_out)
        if len(self._down_concat):
            sum_q = np.add.reduceat(q_out[self._up_concat], self._up_ptr)
            q_in[self._down_concat] = self._f_down * sum_q[self._group_of_down]
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
            q_net = np.zeros_like(rho)
        rho_new = rho + (q_in - q_out + q_net) / self.route_lengths
        clamp_densities(rho_new)
        return rho_new, FlowRecord(q_in=q_in, q_out=q_out, q_net=q_net, q_aux=q_aux)

    def signal_table(self, programs=None):
        """Precomputed LA vectors over one full signal period, or None.

        All signal programs share the period 2 * green of their own cycle;
        the table covers the least common multiple, or is None when that
        exceeds 8192 steps (``run`` then evaluates each step's LA).
        """
        if not self._signal_blocks:
            return None
        periods = []
        for v, block in self._signal_blocks.items():
            sched = block.schedule if not (programs and v in programs) \
                else programs[v]
            periods.append(2 * sched.green)
        period = periods[0]
        for p in periods[1:]:
            period = period * p // math.gcd(period, p)
            if period > 8192:
                return None
        return np.array([self.signal_la(t, programs) for t in range(period)])

    def run(self, rho0, n_steps, rule, env=None, programs=None, observers=()):
        """Run ``n_steps`` steps from rho0, feeding each step to the observers.

        Each observer is called as observer(t, rho_before, record).
        Returns the final density array.
        """
        rho = np.asarray(rho0, dtype=float).copy()
        table = self.signal_table(programs)
        for t in range(n_steps):
            la = (table[t % len(table)] if table is not None
                  else self.signal_la(t, programs))
            rho_next, record = self._step_with_la(t, rho, rule, env, la)
            for obs in observers:
                obs(t, rho, record)
            rho = rho_next
        return rho
