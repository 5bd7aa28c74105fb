"""Traffic graph, route-indexed state, and conservation dynamics.

UNIT CONVENTIONS
----------------
Time is discrete, t = 0, 1, 2, ...  One step corresponds to ``t_real``
seconds of wall-clock time (a scenario-level constant that only matters
for signal ramp-up and reporting).

Space is normalized: a node v has a dimensionless length ``l_v > 0``
expressing its size relative to the reference cell (l = 1).  Densities
are vehicles per normalized cell length, flows are vehicles per time
step, so one unit of flow into a node of length l raises its density
by 1/l.

A *route* (u, v, w) is a direction of travel through node v, arriving
from u and departing toward w.  Routes are the atomic unit carrying a
density and flows.  U-turn routes (w == u) are excluded by default and
can be enabled per node.

The density update per route is

    rho(t+1) = rho(t) + (q_in - q_out + q_net) / l_v

which conserves the total mass  sum_routes l_v * rho  exactly when the
net flows vanish and inflows are aggregated from outflows with
row-normalized turning fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Route",
    "TurningFractions",
    "TrafficNetwork",
    "FlowRecord",
    "NetworkError",
    "clamp_densities",
]

#: densities this far below zero are treated as floating-point noise and
#: clamped; anything larger indicates a solver bug and raises.
NEGATIVE_DENSITY_TOLERANCE = 1e-12


class NetworkError(ValueError):
    """Invalid network structure, route, or state."""


@dataclass(frozen=True, order=True)
class Route:
    """Direction of travel through node ``via``: from ``src`` toward ``dst``."""

    src: int
    via: int
    dst: int

    def __iter__(self):
        return iter((self.src, self.via, self.dst))

    def __repr__(self):
        return f"({self.src},{self.via},{self.dst})"


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
            exits = [w for w in network.neighbors_out(route.dst)
                     if w != route.via or network.allows_uturn(route.dst)]
            if not exits:
                continue
            f = 1.0 / len(exits)
            for w in exits:
                table[(route, w)] = f
        return cls(table)

    def fraction(self, route, w):
        return self._table.get((route, w), 0.0)


class TrafficNetwork:
    """Directed traffic graph with per-node lengths and enumerated routes.

    The network is immutable after construction and safe to share across
    concurrent simulation replicates.  Routes are enumerated once, in a
    deterministic order (sorted by (via, src, dst)), and all route-indexed
    state is stored as dense arrays over that enumeration.

    Parameters
    ----------
    n_nodes : int
        Number of nodes; node ids are 0 .. n_nodes - 1.
    edges : iterable of (int, int)
        Directed edges.
    lengths : mapping or sequence
        Positive length l_v per node.
    allow_uturn : set of int, optional
        Nodes at which routes with w == u are admissible.
    """

    def __init__(self, n_nodes, edges, lengths, allow_uturn=None):
        if n_nodes <= 0:
            raise NetworkError("network needs at least one node")
        self.n_nodes = int(n_nodes)
        adj = np.zeros((n_nodes, n_nodes), dtype=bool)
        for u, v in edges:
            self._check_node(u)
            self._check_node(v)
            if u == v:
                raise NetworkError(f"self-loop edge ({u},{u}) not allowed")
            adj[u, v] = True
        self.adjacency = adj
        self.adjacency.setflags(write=False)

        self.lengths = np.zeros(n_nodes)
        for v in range(n_nodes):
            l_v = lengths[v]
            if not (l_v > 0) or not math.isfinite(l_v):
                raise NetworkError(f"length of node {v} must be positive, got {l_v}")
            self.lengths[v] = l_v
        self.lengths.setflags(write=False)

        self._allow_uturn = frozenset(allow_uturn or ())
        self._in = [tuple(np.flatnonzero(adj[:, v])) for v in range(n_nodes)]
        self._out = [tuple(np.flatnonzero(adj[v, :])) for v in range(n_nodes)]

        routes = []
        for v in range(n_nodes):
            for u in self._in[v]:
                for w in self._out[v]:
                    if w == u and v not in self._allow_uturn:
                        continue
                    routes.append(Route(u, v, w))
        routes.sort(key=lambda r: (r.via, r.src, r.dst))
        self.routes = tuple(routes)
        self.route_index = {r: i for i, r in enumerate(self.routes)}
        self.route_via = np.array([r.via for r in self.routes], dtype=np.intp)
        self.route_via.setflags(write=False)
        self.route_lengths = self.lengths[self.route_via]
        self.route_lengths.setflags(write=False)

    # -- structure queries -------------------------------------------------

    def _check_node(self, v):
        if not (0 <= v < self.n_nodes):
            raise NetworkError(f"invalid node id {v} (n_nodes={self.n_nodes})")

    def allows_uturn(self, v):
        return v in self._allow_uturn

    def neighbors_in(self, v):
        """Set of nodes u with an edge (u, v): the nodes which can reach v."""
        self._check_node(v)
        return set(self._in[v])

    def neighbors_out(self, v):
        """Set of nodes w with an edge (v, w): the nodes reachable from v."""
        self._check_node(v)
        return set(self._out[v])

    def routes_through(self, v):
        """Route indices through node v, in enumeration order."""
        self._check_node(v)
        return np.flatnonzero(self.route_via == v)

    @property
    def n_routes(self):
        return len(self.routes)

    def index_of(self, src, via, dst):
        try:
            return self.route_index[Route(src, via, dst)]
        except KeyError:
            raise NetworkError(f"route ({src},{via},{dst}) does not exist") from None


@dataclass
class FlowRecord:
    """Realized flows of one step, vehicles per time step per route."""

    q_in: np.ndarray
    q_out: np.ndarray
    q_net: np.ndarray
    q_aux: np.ndarray = field(default=None)


def clamp_densities(rho):
    """Zero out negative densities below the noise tolerance; raise otherwise."""
    worst = rho.min() if len(rho) else 0.0
    if worst < -NEGATIVE_DENSITY_TOLERANCE:
        raise NetworkError(
            f"density {worst} below -{NEGATIVE_DENSITY_TOLERANCE}: solver bug"
        )
    np.maximum(rho, 0.0, out=rho)
    return rho
