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
from .network import FlowRecord, clamp_densities, take_routes

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
# Step engine
# ---------------------------------------------------------------------------

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

        up_lists, down_lists = [], []
        group_edges = []
        for v in range(network.n_nodes):
            for u in sorted(network.neighbors_in(v)):
                ups = [network.route_index[r] for r in network.routes
                       if r.via == u and r.dst == v]
                if not ups:
                    continue
                downs = [i for i in network.routes_through(v)
                         if network.routes[i].src == u]
                group_edges.append((u, v))
                up_lists.append(np.array(ups, dtype=np.intp))
                down_lists.append(np.array([int(j) for j in downs], dtype=np.intp))

        self.group_edges = group_edges
        self.n_groups = len(group_edges)

        # flat layout: each group's upstream routes share one row vector
        # f_w of fractions toward its downstream routes
        self._up_concat = (np.concatenate(up_lists) if up_lists
                           else np.zeros(0, np.intp))
        up_sizes = [len(u) for u in up_lists]
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
        # uniform_no_uturn: f_w = 1 / len(downs), as the group's downstream
        # routes are exactly the exits each upstream route splits over
        self._f_down = 1.0 / np.repeat(np.array(down_sizes, dtype=float), down_sizes)
        self._inv_f_down = 1.0 / self._f_down

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

    def outflows(self, s, r, rule):
        """Phase 2: realized outflows per route under the interaction rule.

        Works on the last axis: ``s`` and ``r`` are (n_routes,) for one
        replicate or (B, n_routes) for a batch.
        """
        if not self.n_groups:
            return np.zeros(s.shape)
        s_up = take_routes(s, self._up_concat)
        sum_s = np.add.reduceat(s_up, self._up_ptr, axis=-1)
        # shared outflow budget per group: min over w of R_w / f_w; groups
        # without downstream routes never bind
        if self._down_concat.size:
            ratios = take_routes(r, self._down_concat) * self._inv_f_down
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

    def _step_with_la(self, t, rho, rule, env, la):
        """One step with the per-route LA ``la``: (new densities, FlowRecord)."""
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

