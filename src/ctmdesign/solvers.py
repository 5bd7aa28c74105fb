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
and advances the densities.  The scenario schema offers one turning
rule, ``uniform_no_uturn``: every upstream route (x, u, v) of the edge
(u, v) splits its outflow equally over the downstream routes (u, v, w),
whatever x is.  So every local problem reduces to one shared outflow
budget, and all of them are solved in closed form across the whole
network with vectorized operations.  The reference definitions of the
four regimes, one local problem at a time (with an LP for fractions
that depend on the upstream route), and the turning table they are
checked with live in ``tests/reference.py``.

Signals enter through the sending factor LA.  ``run`` evaluates the
closed form of every step at once (``signal_table``: one row per
signalized node and axis, over the replicates' own programs) and copies
the signalized routes' rows of step t into one LA buffer at step t.

Layout and bits
---------------
A (n_routes,) state is one replicate.  A batch of B replicates steps
route-major: ``run`` takes and returns (B, n_routes) and transposes once
on the way in and once on the way out, and inside it the state, every
per-step array and every ``FlowRecord`` that observers see is a
C-contiguous (n_routes, B) array.  A gather of routes is then a row copy
``x.take(idx, 0)`` and a scatter a row assignment ``x[idx] = rows`` in
either layout.  Per-route parameters are (n,) arrays for one replicate
and are expanded to (n, B) once per batch run (``RouteParameters``).
A one-replicate run keeps the 1-D state: as (n, 1) it was 25% slower.

Every column of a batch goes through the floating-point operations of a
one-replicate run in the same order, so it is bit-identical to it:

* elementwise operations are the same in either layout;
* a group sum (``_GroupSums``) adds rows in one order for every group
  size, x0 + (((x1 + x2) + x3) + ...), which is the order of numpy's
  ``add.reduceat`` over a group of up to 8 routes; a group minimum is
  exact in any order;
* the priority fill's running sum is a cumulative sum along the route
  axis, the same sequential recurrence in either layout;
* in the cell products (``CellTable``), a ``W`` row whose one stored
  entry is on the diagonal is w * rho elementwise, exact because every
  other product of the row is +-0; the other ``W`` rows and the nonzero
  rows of ``E`` run one gemv per replicate over their row sub-matrix,
  ``np.matmul(M_rows, rho.T[..., None])``, whose rows have the bits of
  the full gemv ``np.matmul(M, rho[..., None])`` (a property of the BLAS
  build, which ``tests/test_cells.py`` pins); ``rho @ M.T`` would be a
  gemm with another summation order; past 512 routes ``W`` and ``E``
  are CSR, whose product ``M_rows @ rho`` sums each row's entries in
  one order for every column;
* observers reduce over routes through a contiguous (B, k) copy, whose
  rows sum in the order of a one-replicate (k,) sum; a sum down axis 0
  would not.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .cells import CellTable
from .network import FlowRecord, RouteParameters, clamp_densities

__all__ = ["InteractionRule", "SimulationEngine"]


@dataclass(frozen=True)
class InteractionRule:
    """Interaction regime of the step engine: cpf uses uniform weights and
    priority the canonical upstream order."""

    variant: str

    VARIANTS = ("dpf", "cpf", "priority", "cooperative")

    def __post_init__(self):
        if self.variant not in self.VARIANTS:
            raise ValueError(f"unknown interaction rule {self.variant!r}")


# ---------------------------------------------------------------------------
# Group sums
# ---------------------------------------------------------------------------

class _GroupSums:
    """Sums over groups of rows, each as x0 + (((x1 + x2) + x3) + ...).

    For a group of up to 8 rows this is the order of numpy's
    ``add.reduceat``, which sums a segment as x0 + pairwise(x1, ...),
    where a pairwise sum of fewer than 8 elements adds them in turn onto
    -0.0, the identity.  ``groups`` lists each group's row indices,
    largest first.  The rows are gathered in one copy, column by column:
    column j holds the j-th row of every group that has one, and those
    groups lead, so column j adds onto a prefix of column 1, and then
    column 1 onto a prefix of column 0.
    """

    def __init__(self, groups):
        sizes = [len(g) for g in groups]
        if sizes != sorted(sizes, reverse=True) or 0 in sizes:
            raise ValueError("groups must be non-empty, largest first")
        columns = [[g[j] for g in groups if len(g) > j]
                   for j in range(max(sizes, default=0))]
        self._flat = np.array([i for col in columns for i in col], dtype=np.intp)
        start = np.cumsum([0] + [len(col) for col in columns])
        # (prefix of the accumulating column, column added onto it), in order
        self._adds = [(slice(start[1], start[1] + len(columns[j])),
                       slice(start[j], start[j + 1])) for j in range(2, len(columns))]
        if len(columns) > 1:
            self._adds.append((slice(0, len(columns[1])), slice(start[1], start[2])))
        self._n_groups = len(groups)

    def __call__(self, x):
        """The group sums of ``x``'s rows: (n_groups,) or (n_groups, B)."""
        flat = x.take(self._flat, 0)
        for acc, part in self._adds:
            total = flat[acc]
            total += flat[part]
        return flat[:self._n_groups]


# ---------------------------------------------------------------------------
# Step engine
# ---------------------------------------------------------------------------

def _edge_groups(network):
    """The local problems of a step, one per edge (u, v) with an upstream
    route: the edges in (v, u) order, and each one's upstream routes
    (x, u, v) and downstream routes (u, v, w) as index arrays in route
    order, from one pass over the routes."""
    up_of, down_of = {}, {}
    for i, r in enumerate(network.routes):
        up_of.setdefault((r.via, r.dst), []).append(i)
        down_of.setdefault((r.src, r.via), []).append(i)
    edges = sorted(up_of, key=lambda e: (e[1], e[0]))
    return (edges, [np.array(up_of[e], dtype=np.intp) for e in edges],
            [np.array(down_of.get(e, []), dtype=np.intp) for e in edges])


class SimulationEngine:
    """Compiled five-phase stepper for one network.

    The engine is immutable after construction and shared across
    replicates; all mutable per-replicate state (densities, signal
    programs, environment) is passed through ``run``, for one replicate
    or a batch (see the module docstring).

    Parameters
    ----------
    network : TrafficNetwork
    node_cells : mapping node -> CellSpec
    schedules : mapping node -> SignalSchedule, for signalized nodes.
        These are the default programs; ``run`` accepts per-replicate
        ones.
    """

    def __init__(self, network, node_cells, schedules=None):
        self.network = network
        self.cells = CellTable(network, node_cells)
        self._schedules = dict(schedules or {})
        n = network.n_routes

        self.group_edges, up_lists, down_lists = _edge_groups(network)
        self.n_groups = len(self.group_edges)
        # the sums, budgets and fractions of a step take the groups in
        # slots, largest upstream group first
        slots = sorted(range(self.n_groups), key=lambda g: -len(up_lists[g]))
        slot_of = np.argsort(slots)
        self._up_sums = _GroupSums([up_lists[g] for g in slots])
        # each budget is the minimum over a column of the group's downstream
        # routes, repeated to one width; a group without downstream routes
        # has no budget (+inf)
        width = max([1] + [len(d) for d in down_lists])
        downs = [down_lists[g] if len(down_lists[g]) else [0] for g in slots]
        self._down_table = np.array([np.resize(d, width) for d in downs],
                                    dtype=np.intp).reshape(-1, width).T
        self._unbounded = np.array([slot for slot, g in enumerate(slots)
                                    if not len(down_lists[g])], dtype=np.intp)

        # the flat upstream layout, in group order, of the priority fill:
        # every route is an upstream route of exactly one group, its edge
        # (via, dst), so the layout is a permutation of the routes
        up_sizes = [len(u) for u in up_lists]
        self._up_concat = (np.concatenate(up_lists) if up_lists
                           else np.zeros(0, np.intp))
        self._route_order = np.argsort(self._up_concat)
        self._slot_of_up = np.repeat(slot_of, up_sizes)
        self._first_of_up = np.repeat(np.cumsum([0] + up_sizes)[:-1], up_sizes)
        self._slot_of_route = self._slot_of_up[self._route_order]

        # uniform_no_uturn: f_w = 1 / len(downs), as the group's downstream
        # routes are exactly the exits each upstream route splits over.  A
        # route is downstream of at most one group, (src, via); a route of
        # none has no inflow
        f_in = np.ones(n)
        self._slot_into = np.zeros(n, dtype=np.intp)
        inflow = np.zeros(n, dtype=bool)
        for g, downs in enumerate(down_lists):
            if len(downs):
                f_in[downs] = 1.0 / len(downs)
                self._slot_into[downs] = slot_of[g]
                inflow[downs] = True
        self._no_inflow = np.flatnonzero(~inflow)
        self._params = RouteParameters(network.route_lengths, f_in, 1.0 / f_in)

        # signal table rows: 2 j + 0 (axis I) and 2 j + 1 (axis J) of the
        # j-th scheduled node; each signalized route reads its arm's axis
        row_of = {v: 2 * j for j, v in enumerate(self._schedules)}
        signal = [(i, row_of[v] + (not in_axis_i))
                  for i, v, in_axis_i in self.cells.signal_routes if v in row_of]
        self._signal_idx = np.array([i for i, _ in signal], dtype=np.intp)
        self._signal_row = np.array([c for _, c in signal], dtype=np.intp)

    # -- per-step pieces ---------------------------------------------------

    def signal_table(self, programs, steps):
        """LA of both axes of every scheduled node at each of ``steps``.

        ``programs`` is None (the default schedules), one mapping node ->
        SignalSchedule, or a sequence of B such mappings (or Nones); a node
        missing from a mapping keeps its default.  Returns an array of shape
        (len(steps), 2 * n_signals[, B]), the stepping layout, or None
        without scheduled nodes.  Each element goes through the IEEE
        operations of the scalar definition in order: the integer
        t_switch - t_safe, then * t_real, * a_real and / v_real, then max
        with 0.0 and min with 1.0.
        """
        if not self._schedules:
            return None
        single = programs is None or isinstance(programs, Mapping)
        scheds = [[p[v] if p and v in p else default
                   for v, default in self._schedules.items()]
                  for p in ([programs] if single else programs)]

        def field(name):
            values = np.array([[getattr(s, name) for s in row] for row in scheds])
            return values[0] if single else values.T

        green = field("green")
        m = np.asarray(steps).reshape((-1,) + (1,) * green.ndim) + field("shift")
        m %= 2 * green
        # axis I is green while m < green, axis J otherwise
        axis_i = m < green
        m %= green
        m += 1
        m -= field("t_safe")
        x = np.multiply(m, field("t_real"), dtype=float)
        del m
        x *= field("a_real")
        x /= field("v_real")
        # Python's max(0.0, x) and min(1.0, x): -0.0 and NaN give +0.0
        np.copyto(x, 0.0, where=~(x > 0.0))
        np.copyto(x, 1.0, where=~(x < 1.0))
        table = np.zeros(x.shape[:2] + (2,) + x.shape[2:])
        np.copyto(table[:, :, 0], x, where=axis_i)
        np.copyto(table[:, :, 1], x, where=~axis_i)
        return table.reshape((len(x), 2 * x.shape[1]) + x.shape[2:])

    def outflows(self, s, r, rule):
        """Phase 2: realized outflows per route under the interaction rule.

        ``s`` and ``r`` are (n_routes,) for one replicate or route-major
        (n_routes, B) for a batch.
        """
        if not self.n_groups:
            return np.zeros(s.shape)
        _, _, inv_f = self._params[s.shape]
        sum_s = self._up_sums(s)
        # shared outflow budget per group: min over w of R_w / f_w
        cap = np.minimum.reduce((r * inv_f).take(self._down_table, 0))
        if len(self._unbounded):
            cap[self._unbounded] = np.inf

        if rule.variant in ("dpf", "cpf"):
            # lambda = min(1, cap / sum_s), divided only where it binds so
            # that a subnormal sum_s cannot overflow the quotient
            lam = np.empty(cap.shape)   # half the cost of np.ones at B = 1
            lam.fill(1.0)
            np.divide(cap, sum_s, out=lam, where=sum_s > cap)
            return lam.take(self._slot_of_route, 0) * s
        # priority (canonical order) and cooperative (lexicographic
        # tie-break) coincide under x-independent fractions: fill the
        # budget in canonical order
        if rule.variant == "cooperative":
            cap = np.minimum(cap, sum_s)
        s_up = s.take(self._up_concat, 0)
        prior = np.add.accumulate(s_up, axis=0) - s_up   # cumsum
        before = prior - prior.take(self._first_of_up, 0)
        q_up = np.clip(cap.take(self._slot_of_up, 0) - before, 0.0, s_up)
        return q_up.take(self._route_order, 0)

    def inflows(self, q_out):
        """Phase 3: aggregate inflows from outflows and turning fractions."""
        if not self.n_groups:
            return np.zeros(q_out.shape)
        _, f_in, _ = self._params[q_out.shape]
        q_in = f_in * self._up_sums(q_out).take(self._slot_into, 0)
        if len(self._no_inflow):
            q_in[self._no_inflow] = 0.0
        return q_in

    def _step_with_la(self, t, rho, rule, env, la):
        """One step with the per-route LA ``la``: (new densities, FlowRecord)."""
        s, r = self.cells.evaluate(rho, la)
        q_out = self.outflows(s, r, rule)
        q_in = self.inflows(q_out)
        if env is not None:
            flows = env.net_flows(t, rho, q_in, q_out)
            q_net = flows[1]
        else:
            flows = None
            q_net = np.zeros(rho.shape)
        lengths, _, _ = self._params[rho.shape]
        rho_new = rho + (q_in - q_out + q_net) / lengths
        clamp_densities(rho_new)
        return rho_new, FlowRecord(q_in=q_in, q_out=q_out, q_net=q_net, env=flows)

    def run(self, rho0, n_steps, rule, env=None, programs=None, observers=()):
        """Run ``n_steps`` steps from rho0, feeding each step to the observers.

        ``rho0`` is one replicate (n_routes,) with ``programs`` one mapping
        node -> SignalSchedule, or a batch (B, n_routes) with ``programs``
        a sequence of B such mappings; None means the default schedules.
        Each observer is called as observer(t, rho_before, record), with
        (n_routes,) arrays for one replicate and route-major (n_routes, B)
        arrays for a batch.  Returns the final densities, shaped as rho0.
        """
        rho = np.array(rho0, dtype=float)
        batch = rho.ndim == 2
        if batch:
            rho = np.ascontiguousarray(rho.T)
        table = self.signal_table(programs, range(n_steps))
        la = None
        if table is not None:
            if batch and table.ndim == 2:  # one program for every replicate
                table = table[..., None]
            # one LA buffer; only the signalized routes change per step
            la = np.ones(rho.shape)
        try:
            for t in range(n_steps):
                if la is not None:
                    la[self._signal_idx] = table[t].take(self._signal_row, 0)
                rho_next, record = self._step_with_la(t, rho, rule, env, la)
                for obs in observers:
                    obs(t, rho, record)
                rho = rho_next
        finally:
            # a batch's expanded parameters live for one run
            self._params.release()
            self.cells._params.release()
        return np.ascontiguousarray(rho.T) if batch else rho
