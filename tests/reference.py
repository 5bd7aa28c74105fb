"""Scalar reference implementations that the package's tests compare against.

Each function restates one piece of the model route by route, with
dict-keyed densities and flows: the cells' S and R (``CellTable`` in the
package), inflow aggregation and the density update (the engine's phases
3 and 5), the signal state of an intersection (``signal_la``), the
conserved mass, and the covariance of two single design points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ctmdesign.cells import CellError, overlap_matrix
from ctmdesign.network import NetworkError, Route
from ctmdesign.signals import ramp_value, signal_phase

#: turning-fraction rows must sum to one within this tolerance.
TURNING_ROW_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

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
        om = overlap_matrix(cell.kind, tuple(cell.ccw), route.via)
        cross = sum(w * _density(densities, other)
                    for (own, other), w in om.weights.items() if own == route)
        cap = om.capacity[route] * cell.rho_max
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


def aggregate_inflows(outflows, turning, network):
    """Aggregate route inflows from upstream outflows and turning fractions.

    q_in[(u, v, w)] = sum over x in I(u) of  f[(x,u,v) -> w] * q_out[(x,u,v)].

    ``outflows`` maps Route -> flow; the result has the same form.  Turning
    rows are validated to sum to one for every route with positive exits.
    """
    by_route = {}
    for route, q in outflows.items():
        exits = [w for w in network.neighbors_out(route.dst)
                 if w != route.via or network.allows_uturn(route.dst)]
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
# signals
# ---------------------------------------------------------------------------

@dataclass
class SignalState:
    """Signal values at one time step: 0/1 light state, ramp LA in [0,1]."""

    ls: dict
    la: dict
    t_switch: dict


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
# Gaussian process kernel
# ---------------------------------------------------------------------------

def kernel_eval(kern, k1, k2):
    """Covariance between two single design points."""
    return float(kern.matrix(np.atleast_2d(k1), np.atleast_2d(k2))[0, 0])
