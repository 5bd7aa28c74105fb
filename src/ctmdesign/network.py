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
    "TrafficNetwork",
    "FlowRecord",
    "NetworkError",
    "RouteParameters",
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

        allow_uturn = frozenset(allow_uturn or ())
        routes = []
        for v in range(n_nodes):
            out = np.flatnonzero(adj[v, :])
            for u in np.flatnonzero(adj[:, v]):
                for w in out:
                    if w == u and v not in allow_uturn:
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
    """Realized flows of one step, vehicles per time step per route: (n,)
    arrays for one replicate, route-major (n, B) ones for a batch.

    ``env`` stacks the environment's attempted flows q_aux and the net
    flows q_net, (2, n) or (2, n, B); None in a closed system.
    """

    q_in: np.ndarray
    q_out: np.ndarray
    q_net: np.ndarray
    env: np.ndarray = field(default=None)

    @property
    def q_aux(self):
        """The attempted flows; None in a closed system."""
        return None if self.env is None else self.env[0]


class RouteParameters(dict):
    """Per-route parameter arrays keyed by the shape of a state: as given
    under (n,), for one replicate, and expanded to C-contiguous (n, B)
    under (n, B), for a route-major batch.

    An expansion is made when a batch shape is first asked for and kept
    until ``release``, so a run makes it once.  Elementwise operations on
    equal shapes run about twice as fast as with an (n, 1) column
    broadcast over B, at B = 16-64.
    """

    def __init__(self, *arrays):
        super().__init__({arrays[0].shape: arrays})

    def __missing__(self, shape):
        expanded = tuple(np.repeat(x[:, None], shape[1], axis=1)
                         for x in self[shape[:1]])
        self[shape] = expanded
        return expanded

    def release(self):
        """Drop the batch expansions."""
        for key in list(self):
            if len(key) > 1:
                self.pop(key, None)


def clamp_densities(rho):
    """Zero out negative densities below the noise tolerance; raise otherwise.

    ``rho`` is one replicate's densities or a batch of them (any shape).
    """
    worst = rho.min() if rho.size else 0.0
    if worst < -NEGATIVE_DENSITY_TOLERANCE:
        raise NetworkError(
            f"density {worst} below -{NEGATIVE_DENSITY_TOLERANCE}: solver bug"
        )
    np.maximum(rho, 0.0, out=rho)
    return rho
