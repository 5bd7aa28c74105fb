"""Exogenous randomness: copula-coupled random walks and Gaussian flows.

Sources and sinks act through the net-flow term of the density update.
Each source route carries an *attempted* flow q_aux for the step; the
realized q_net is q_aux truncated so that the updated density lands in
[0, rho_cap] exactly.  The truncation works in density units (the flow
bounds are scaled by the node length), so the stated density bounds
hold under the 1/l_v update.

Two environment families are provided:

* ``ArCopulaEnvironment`` (urban): two order-1 random walks
  q_ar(t+1) = q_ar(t) + eps(t+1), whose innovations are coupled through
  a Frank copula and transformed to normals by inverse CDF.
* ``GaussianPairsEnvironment`` (highway): independent per-step normal
  attempts N(xi, (psi * xi)^2) on source routes, each mirrored by a
  paired route carrying the same draw (optionally negated), plus
  deterministic constant flows.

All randomness flows through one numpy Generator per replicate, seeded
from (master seed, replicate index), so trajectories are reproducible
bit for bit.  An environment draws its whole block of uniforms when it
is built and tabulates the attempted flows of every step; ``net_flows``
only clamps them.  ``stack`` joins the environments of B replicates
into one that steps a (B, n_routes) state, with every entry equal to
the one-replicate result.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .network import take_routes
from .normal import libm_exp, libm_log, ndtri

__all__ = [
    "FrankCopula",
    "ArSourceSink",
    "GaussianSourceSink",
    "ArCopulaEnvironment",
    "GaussianPairsEnvironment",
    "replicate_rng",
]

#: |r| below this is treated as the independence limit of the Frank copula.
INDEPENDENCE_EPS = 1e-8

#: keep copula uniforms strictly inside (0, 1) for the normal inverse CDF
_U_CLIP = 1e-15


def replicate_rng(master_seed, *key):
    """Independent generator for one replicate of one estimation task."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key)))


def _log_mix_array(a, b, s):
    """log(a + b * exp(s)) elementwise without overflow, for a, b >= 0."""
    out = np.empty(s.shape)
    low = s <= 0
    high = ~low
    out[low] = libm_log(a[low] + b[low] * libm_exp(s[low]))
    out[high] = s[high] + libm_log(a[high] * libm_exp(-s[high]) + b[high])
    return out


class FrankCopula:
    """One-parameter dependence model on (0,1)^2.

    Interpolates from countermonotonicity (r -> -inf) through
    independence (r -> 0) to comonotonicity (r -> +inf).  Sampling uses
    the closed-form inverse of the conditional distribution given the
    first coordinate, so each pair consumes exactly two uniforms.
    """

    def __init__(self, r):
        self.r = float(r)

    @property
    def independent(self):
        return abs(self.r) <= INDEPENDENCE_EPS

    def pairs(self, uniforms):
        """Pairs (u1, u2) from the uniform pairs (u1, p) on the last axis.

        Each pair is bit-identical to the scalar closed form evaluated with
        ``math`` on u1 and then p.
        """
        u = np.clip(uniforms, _U_CLIP, 1.0 - _U_CLIP)
        if self.independent:
            return u
        r = self.r
        u1, p = u[..., 0], u[..., 1]
        # u2 = u1 - (1/r) * [log((1-p) + p e^{-r(1-u1)}) - log(p + (1-p) e^{-r u1})]
        num = _log_mix_array(1.0 - p, p, -r * (1.0 - u1))
        den = _log_mix_array(p, 1.0 - p, -r * u1)
        u2 = np.clip(u1 - (num - den) / r, _U_CLIP, 1.0 - _U_CLIP)
        return np.stack([u1, u2], axis=-1)


@dataclass(frozen=True)
class ArSourceSink:
    """Order-1 random-walk attempted flow on one route; starts at zero.

    ``ArCopulaEnvironment`` runs the walk.
    """

    route: tuple
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("noise standard deviation must be non-negative")


@dataclass(frozen=True)
class GaussianSourceSink:
    """Independent per-step normal attempted flow N(xi, (psi*xi)^2).

    ``pair_route`` optionally names a second route that receives the
    same realization multiplied by ``pair_sign``.
    """

    route: tuple
    xi: float
    psi: float
    pair_route: tuple = None
    pair_sign: float = -1.0

    def __post_init__(self):
        if self.psi < 0:
            raise ValueError("coefficient of variation must be non-negative")


class _EnvironmentBase:
    """Clamps precomputed attempted flows into realized net flows.

    ``attempts[t, j]`` is the attempted flow of step t on route
    ``routes[j]``; when a route is listed twice, the later column wins.
    A batch of B replicates carries ``attempts`` as (steps, B, m) and
    steps a (B, n_routes) state (see ``stack``).
    """

    def __init__(self, network, node_caps, routes, attempts):
        last = {r: j for j, r in enumerate(routes)}
        self._idx = np.array(list(last), dtype=np.intp)
        self._attempts = attempts[:, list(last.values())]
        via = network.route_via[self._idx]
        self._l_v = network.lengths[via]
        self._neg_l_v = -self._l_v
        self._cap = np.array([node_caps[v] for v in via], dtype=float)

    @staticmethod
    def stack(envs):
        """One environment for the replicates of ``envs`` (same scenario)."""
        out = copy.copy(envs[0])
        out._attempts = np.stack([e._attempts for e in envs], axis=1)
        return out

    def net_flows(self, t, rho, q_in, q_out):
        """(q_aux, q_net) of step t.

        q_net is q_aux truncated so that the update lands in [0, rho_cap]:
        lo = -rho * l_v - q_in + q_out, hi = (rho_cap - rho) * l_v - q_in
        + q_out, q_net = min(max(q_aux, lo), hi).
        """
        idx = self._idx
        aux = self._attempts[t]
        rho_s = take_routes(rho, idx)
        q_in_s, q_out_s = take_routes(q_in, idx), take_routes(q_out, idx)
        lo = rho_s * self._neg_l_v - q_in_s + q_out_s   # (-rho) * l_v exactly
        hi = (self._cap - rho_s) * self._l_v - q_in_s + q_out_s
        q_aux = np.zeros(rho.shape)
        q_net = np.zeros(rho.shape)
        q_aux.T[idx] = aux.T
        q_net.T[idx] = np.minimum(np.maximum(aux, lo), hi).T
        return q_aux, q_net


class ArCopulaEnvironment(_EnvironmentBase):
    """Copula-coupled random-walk sources on a pair of routes.

    One copula pair is drawn per step; its coordinates drive the
    innovations of the sources in listed order via the normal inverse
    CDF, eps_j = sigma_j * Phi^{-1}(u_j).  All ``steps`` pairs are drawn
    at construction, as one block of 2 * steps uniforms.
    """

    def __init__(self, network, sources, copula, node_caps, rng, steps):
        if len(sources) != 2:
            raise ValueError("the copula environment couples exactly two sources")
        u = copula.pairs(rng.random((steps, 2)))
        eps = np.array([src.sigma for src in sources]) * ndtri(u)
        walk = np.cumsum(eps, axis=0)
        super().__init__(network, node_caps,
                         [network.index_of(*src.route) for src in sources], walk)


class GaussianPairsEnvironment(_EnvironmentBase):
    """Independent Gaussian attempted flows with mirrored partner routes.

    ``constants`` maps routes to deterministic attempted flows (e.g.
    fixed sinks).  Random sources draw one normal per source per step,
    in listed order; all ``steps`` rows are drawn at construction, as
    one block of steps * len(sources) uniforms.
    """

    def __init__(self, network, sources, constants, node_caps, rng, steps):
        u = np.clip(rng.random((steps, len(sources))), _U_CLIP, 1.0 - _U_CLIP)
        xi = np.array([src.xi for src in sources])
        draws = xi + np.array([src.psi * src.xi for src in sources]) * ndtri(u)
        routes, columns = [], []
        for route, value in constants:
            routes.append(network.index_of(*route))
            columns.append(np.full(steps, float(value)))
        for j, src in enumerate(sources):
            routes.append(network.index_of(*src.route))
            columns.append(draws[:, j])
            if src.pair_route is not None:
                routes.append(network.index_of(*src.pair_route))
                columns.append(src.pair_sign * draws[:, j])
        attempts = (np.stack(columns, axis=1) if columns
                    else np.zeros((steps, 0)))
        super().__init__(network, node_caps, routes, attempts)
