"""Sending and receiving functions for the supported traffic-node types.

Every node type defines, per route (u, v, w) through it, a demand bound
S (the flow that may be sent out next step) and a supply bound R (the
flow that may be received).  All S respect the occupancy bound
S <= rho_route, all R are non-negative.

Node types and their parameters:

``highway``
    Separated lanes, no interaction between directions.
    S = min(s_max, a * rho),  R = max(b * (rho_max / 2 - c * rho), 0).

``bidirectional_interface``
    Opposing flows share the space (pedestrian corridors).
    R subtracts d times the counter-density.

``pedestrian_square``
    Fully symmetric n-arm area; R subtracts d times the densities of all
    routes sharing neither origin nor destination.

``simplified_intersection``
    Unsignalized junction; S is damped by exp(-zeta * total occupancy),
    R = max(b * (rho_max - c * total occupancy), 0).

``signalized_intersection``
    Four arms identified with Z_4 in counterclockwise order.  (u, v, u+1)
    is a right turn, (u, v, u+2) straight, (u, v, u+3) a left turn whose
    sending is additionally damped by the oncoming straight and oncoming
    left-turn densities.  Sendings scale with the signal adjustment LA
    (see signals module); receivings cap each approach at
    approach_capacity_fraction * rho_max (default one quarter).

``uni_roundabout`` / ``bi_roundabout``
    Four arms on Z_4.  Receivings subtract overlap-weighted densities of
    the other paths through the ring; the weights and per-path capacity
    fractions are tabulated in OVERLAP_TABLES and expanded per node by
    ``overlap_matrix`` at construction time.

``CellTable`` compiles the cells of a whole network into arrays and
evaluates every route's S and R in one vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import Route, RouteParameters

__all__ = [
    "CellSpec",
    "CellTable",
    "CellError",
    "overlap_matrix",
]

KINDS = (
    "highway",
    "bidirectional_interface",
    "pedestrian_square",
    "simplified_intersection",
    "signalized_intersection",
    "uni_roundabout",
    "bi_roundabout",
)


class CellError(ValueError):
    """Invalid cell parameters or a density map not covering the node."""


@dataclass(frozen=True)
class CellSpec:
    """Parameters of one traffic node.

    ``ccw`` gives the adjacent nodes in counterclockwise order and is
    required for the Z_4-structured kinds (signalized intersections and
    roundabouts).  ``approach_capacity_fraction`` is the share of
    rho_max available per approach of a signalized intersection.
    """

    kind: str
    s_max: float
    rho_max: float
    a: float
    b: float
    c: float = 1.0
    d: float = None
    zeta: float = None
    ccw: tuple = None
    approach_capacity_fraction: float = 0.25

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CellError(f"unknown cell kind {self.kind!r}")
        if not self.s_max > 0:
            raise CellError("s_max must be positive")
        if not self.rho_max > 0:
            raise CellError("rho_max must be positive")
        if not 0 < self.a <= 1:
            raise CellError("free-flow speed factor a must be in (0, 1]")
        if not 0 < self.b <= 1:
            raise CellError("congestion wave speed b must be in (0, 1]")
        if not self.c > 0:
            raise CellError("interaction parameter c must be positive")
        if self.kind in ("bidirectional_interface", "pedestrian_square",
                         "uni_roundabout", "bi_roundabout"):
            if self.d is None or not self.d > 0:
                raise CellError(f"kind {self.kind} requires d > 0")
        if self.kind in ("simplified_intersection", "signalized_intersection"):
            if self.zeta is None or not self.zeta > 0:
                raise CellError(f"kind {self.kind} requires zeta > 0")
        if self.kind in ("signalized_intersection", "uni_roundabout", "bi_roundabout"):
            if self.ccw is None or len(self.ccw) != 4:
                raise CellError(f"kind {self.kind} requires a ccw tuple of 4 arms")

    def position(self, node):
        try:
            return self.ccw.index(node)
        except ValueError:
            raise CellError(f"node {node} is not an arm of this cell") from None

    def arm(self, position):
        return self.ccw[position % 4]

    def hops(self, route):
        """Counterclockwise distance from entry arm to exit arm."""
        return (self.position(route.dst) - self.position(route.src)) % 4


# ---------------------------------------------------------------------------
# Roundabout overlap geometry
# ---------------------------------------------------------------------------

# Overlap weights keyed by the hop count m of the receiving route.  Each entry
# ((src_off, dst_off), weight) refers to the interfering route whose entry and
# exit arms sit src_off and dst_off positions counterclockwise of the entry
# arm u. Vehicles are uniform over their path's ring segments, so the weight
# is the occupied fraction of the interfering path that lies on the receiving
# path. cap is the fraction of rho_max available to an m-hop path.
OVERLAP_TABLES = {
    "uni_roundabout": {
        1: (0.25, [((0, 2), 1 / 2), ((0, 3), 1 / 3), ((2, 1), 1 / 3),
                   ((3, 1), 1 / 2), ((3, 2), 1 / 3)]),
        2: (0.50, [((0, 1), 1.0), ((0, 3), 2 / 3), ((1, 2), 1.0),
                   ((1, 3), 1 / 2), ((1, 0), 1 / 3), ((2, 1), 1 / 3),
                   ((3, 1), 1 / 2), ((3, 2), 2 / 3)]),
        # the (2, 1) weight is 2/3 by the uniform-over-segments rule (the
        # interfering three-hop path shares two of its segments), restoring
        # the mirror symmetry with the (1, 0) term
        3: (0.75, [((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0),
                   ((1, 3), 1.0), ((1, 0), 2 / 3), ((2, 3), 1.0),
                   ((2, 0), 1 / 2), ((2, 1), 2 / 3), ((3, 1), 1 / 2),
                   ((3, 2), 2 / 3)]),
    },
    # Pedestrians walk the short way around; the two-hop route is a tie
    # that the turning fractions split, and it sees the whole ring.
    "bi_roundabout": {
        1: (0.25, [((0, 2), 1 / 4), ((1, 0), 1.0), ((1, 3), 1 / 4),
                   ((2, 0), 1 / 4), ((3, 1), 1 / 4)]),
        2: (1.00, "all_disjoint"),
        3: (0.25, [((0, 2), 1 / 4), ((1, 3), 1 / 4), ((2, 0), 1 / 4),
                   ((3, 0), 1.0), ((3, 1), 1 / 4)]),
    },
}


@lru_cache(maxsize=None)
def overlap_matrix(kind, ccw, via):
    """(weights, capacity) of a roundabout node from the tabulated weights.

    ``weights`` maps (receiving Route, interfering Route) -> fraction, the
    own route excluded (self-interaction is carried by c); ``capacity``
    maps Route -> fraction of rho_max available to that path.
    """
    table = OVERLAP_TABLES[kind]
    weights = {}
    capacity = {}
    routes = [Route(ccw[s], via, ccw[t]) for s in range(4) for t in range(4) if s != t]
    for s in range(4):
        for t in range(4):
            if s == t:
                continue
            own = Route(ccw[s], via, ccw[t])
            m = (t - s) % 4
            cap, entries = table[m]
            capacity[own] = cap
            if entries == "all_disjoint":
                for other in routes:
                    if other != own and other.src != own.src and other.dst != own.dst:
                        weights[(own, other)] = 1.0
                continue
            for (src_off, dst_off), w in entries:
                other = Route(ccw[(s + src_off) % 4], via, ccw[(s + dst_off) % 4])
                weights[(own, other)] = w
    return weights, capacity


# ---------------------------------------------------------------------------
# Compiled vectorized evaluation (used by the simulation engine)
# ---------------------------------------------------------------------------

#: networks of at most this many routes keep W and E as dense arrays
_DENSE_MAX_ROUTES = 512


def _assemble(rows, cols, vals, n, dense):
    """The n x n matrix of (row, col, value) entries, repeats summed.

    Dense for small networks (``np.add.at`` sums a repeated entry as CSR
    assembly does); a CSR matrix otherwise, the only use of scipy.sparse.
    """
    if dense:
        m = np.zeros((n, n))
        index = (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))
        np.add.at(m, index, np.asarray(vals, dtype=float))
        return m
    from scipy import sparse

    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


class CellTable:
    """Vectorized S/R evaluation over all routes of a network.

    Both bounds reduce to a common shape:

        S = min(s_max, a * la * rho * exp(-(E @ rho)))
        R = max(b * (cap - W @ rho), 0)

    where W carries the self term c and all cross terms, E carries the
    zeta-weighted damping terms, and la is the per-route signal
    adjustment (1 for unsignalized routes).  W and E are assembled once
    per network; la is filled in per step by the engine.  The products
    are split by rows: a W row whose one stored entry is on its diagonal
    is that weight times rho, the other W rows and the nonzero E rows are
    products over their row sub-matrix; rows of E without entries skip
    the damping (see ``ctmdesign.solvers`` for the layout and bits).
    """

    def __init__(self, network, node_cells):
        n = network.n_routes
        self.network = network
        self.s_max = np.zeros(n)
        self.a = np.zeros(n)
        self.b = np.zeros(n)
        self.cap = np.zeros(n)
        self.signal_routes = []  # (route index, node, axis flag in I)

        w_rows, w_cols, w_vals = [], [], []
        e_rows, e_cols, e_vals = [], [], []

        def w_add(i, j, v):
            w_rows.append(i)
            w_cols.append(j)
            w_vals.append(v)

        for v in range(network.n_nodes):
            idx = network.routes_through(v)
            if len(idx) == 0:
                continue
            cell = node_cells[v]
            routes = [network.routes[i] for i in idx]
            local = {r: int(i) for r, i in zip(routes, idx)}
            self.s_max[idx] = cell.s_max
            self.a[idx] = cell.a
            self.b[idx] = cell.b

            if cell.kind == "highway":
                self.cap[idx] = cell.rho_max / 2
                for i in idx:
                    w_add(i, i, cell.c)
            elif cell.kind == "bidirectional_interface":
                self.cap[idx] = cell.rho_max
                for r, i in local.items():
                    w_add(i, i, cell.c)
                    counter = Route(r.dst, r.via, r.src)
                    if counter in local:
                        w_add(i, local[counter], cell.d)
            elif cell.kind == "pedestrian_square":
                self.cap[idx] = cell.rho_max
                for r, i in local.items():
                    w_add(i, i, cell.c)
                    for r2, j in local.items():
                        if r2 != r and r2.src != r.src and r2.dst != r.dst:
                            w_add(i, j, cell.d)
            elif cell.kind == "simplified_intersection":
                self.cap[idx] = cell.rho_max
                for i in idx:
                    for j in idx:
                        w_add(int(i), int(j), cell.c)
                        e_rows.append(int(i))
                        e_cols.append(int(j))
                        e_vals.append(cell.zeta)
            elif cell.kind == "signalized_intersection":
                self.cap[idx] = cell.approach_capacity_fraction * cell.rho_max
                for r, i in local.items():
                    for r2, j in local.items():
                        if r2.src == r.src:
                            w_add(i, j, 1.0)
                    if cell.hops(r) == 3:
                        opp = cell.arm(cell.position(r.src) + 2)
                        for dst in (r.src, r.dst):
                            j = local.get(Route(opp, v, dst))
                            if j is not None:
                                e_rows.append(i)
                                e_cols.append(j)
                                e_vals.append(cell.zeta)
                    in_axis_i = cell.position(r.src) % 2 == 0
                    self.signal_routes.append((i, v, in_axis_i))
            elif cell.kind in ("uni_roundabout", "bi_roundabout"):
                weights, capacity = overlap_matrix(cell.kind, tuple(cell.ccw), v)
                for r, i in local.items():
                    self.cap[i] = capacity[r] * cell.rho_max
                    w_add(i, i, cell.c)
                for (own, other), wgt in weights.items():
                    if own in local and other in local:
                        w_add(local[own], local[other], cell.d * wgt)
            else:
                raise CellError(f"no engine rule for kind {cell.kind!r}")

        # small networks run faster through dense BLAS than sparse dispatch
        self._dense = n <= _DENSE_MAX_ROUTES
        self.W = _assemble(w_rows, w_cols, w_vals, n, self._dense)
        self.E = _assemble(e_rows, e_cols, e_vals, n, self._dense)
        w_nnz, e_nnz = (np.count_nonzero(m, axis=1) if self._dense
                        else np.diff(m.indptr) for m in (self.W, self.E))
        diagonal = self.W.diagonal()
        single = (w_nnz == 1) & (diagonal != 0)
        self._w_rows = np.flatnonzero(~single)
        self._W_rows = self.W[self._w_rows]
        self._e_rows = np.flatnonzero(e_nnz)
        self._E_rows = self.E[self._e_rows]
        # the diagonal weight is 0.0 on the rows of _w_rows
        self._params = RouteParameters(self.a, self.s_max, self.b, self.cap,
                                       np.where(single, diagonal, 0.0))

    def _apply(self, m, rho):
        """m @ rho over the route axis of one replicate's (n,) or a batch's
        (n, B) state: one gemv per replicate if m is dense."""
        if self._dense:
            return np.matmul(m, rho.T[..., None])[..., 0].T
        return m @ rho

    def _damping(self, rho):
        """E @ rho on the rows of E with entries (``_e_rows``)."""
        return self._apply(self._E_rows, rho)

    def _load(self, rho):
        """W @ rho: w * rho on the single-entry diagonal rows, the
        sub-matrix product on the others (``_w_rows``)."""
        w_diag = self._params[rho.shape][4]
        load = w_diag * rho
        if len(self._w_rows):
            load[self._w_rows] = self._apply(self._W_rows, rho)
        return load

    def evaluate(self, rho, la=None):
        """Return (S, R) arrays for the whole network at densities ``rho``.

        ``rho`` is one replicate (n_routes,) or a route-major batch
        (n_routes, B); ``la`` has its shape.
        """
        a, s_max, b, cap, _ = self._params[rho.shape]
        base = a * rho
        if la is not None:
            base *= la
        if len(self._e_rows):
            damp = self._damping(rho)
            np.negative(damp, out=damp)
            np.exp(damp, out=damp)
            base[self._e_rows] = base.take(self._e_rows, 0) * damp
        s = np.minimum(s_max, base, out=base)
        load = self._load(rho)
        r = b * np.subtract(cap, load, out=load)
        return s, np.maximum(r, 0.0, out=r)
