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
bit for bit.  An environment is built once per scenario, from the
route indices its sources act on.  ``draw`` returns one replicate's
(steps, m) block of attempted flows; ``with_attempts`` returns the
environment that steps it, or the (steps, m, B) blocks of B replicates
as one route-major (n_routes, B) state, every entry equal to the
one-replicate result.  ``net_flows`` only clamps the attempts.
"""

from __future__ import annotations

import copy

import numpy as np

from .network import RouteParameters
from .normal import libm_exp, libm_log, ndtri

__all__ = [
    "FrankCopula",
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


class _EnvironmentBase:
    """Clamps attempted flows into realized net flows.

    Column j of a block of attempted flows acts on route ``routes[j]``;
    when a route is listed twice, the later column wins.
    """

    def __init__(self, network, node_caps, routes):
        last = {r: j for j, r in enumerate(routes)}
        self._idx = np.array(list(last), dtype=np.intp)
        self._columns = np.array(list(last.values()), dtype=np.intp)
        via = network.route_via[self._idx]
        l_v = network.lengths[via]
        self._params = RouteParameters(l_v, -l_v,
                                       np.array([node_caps[v] for v in via], dtype=float))

    def with_attempts(self, attempts):
        """The environment stepping ``attempts``: one replicate's (steps, m)
        block, or the (steps, m, B) blocks of B replicates, which step a
        route-major (n_routes, B) state."""
        out = copy.copy(self)
        out._attempts = attempts.take(self._columns, 1)
        # a fresh table: a batch's (m, B) expansion ends with this copy
        out._params = RouteParameters(*self._params[self._idx.shape])
        return out

    def net_flows(self, t, rho, q_in, q_out):
        """(q_aux, q_net) of step t, stacked in one (2, *rho.shape) array.

        q_net is q_aux truncated so that the update lands in [0, rho_cap]:
        lo = -rho * l_v - q_in + q_out, hi = (rho_cap - rho) * l_v - q_in
        + q_out, q_net = min(max(q_aux, lo), hi).
        """
        idx = self._idx
        aux = self._attempts[t]
        rho_s, q_in_s, q_out_s = rho.take(idx, 0), q_in.take(idx, 0), q_out.take(idx, 0)
        l_v, neg_l_v, cap = self._params[rho_s.shape]
        lo = rho_s * neg_l_v - q_in_s + q_out_s   # (-rho) * l_v exactly
        hi = (cap - rho_s) * l_v - q_in_s + q_out_s
        flows = np.zeros((2, *rho.shape))
        flows[0, idx] = aux
        flows[1, idx] = np.minimum(np.maximum(aux, lo), hi)
        return flows


class ArCopulaEnvironment(_EnvironmentBase):
    """Copula-coupled random-walk sources on a pair of routes.

    Each source's attempted flow is an order-1 random walk that starts at
    zero.  One copula pair is drawn per step; its coordinates drive the
    innovations of the sources in listed order via the normal inverse
    CDF, eps_j = sigma_j * Phi^{-1}(u_j).
    """

    def draw(self, rng, steps, sigma, r):
        """One replicate's (steps, 2) walks from one block of 2 * steps
        uniforms of ``rng``; ``sigma`` lists the noise standard deviations
        and ``r`` is the Frank copula parameter."""
        if any(s < 0 for s in sigma):
            raise ValueError("noise standard deviation must be non-negative")
        u = FrankCopula(r).pairs(rng.random((steps, 2)))
        return np.cumsum(np.array(sigma) * ndtri(u), axis=0)


class GaussianPairsEnvironment(_EnvironmentBase):
    """Independent Gaussian attempted flows with mirrored partner routes.

    ``constants`` lists (route, scale) pairs of deterministic attempted
    flows (e.g. fixed sinks); ``sources`` lists (route, pair_route,
    pair_sign) triples of random sources, each drawing N(xi, (psi*xi)^2)
    per step, and its partner route (None for none) carrying the same
    draw times ``pair_sign``.
    """

    def __init__(self, network, node_caps, constants, sources):
        # the source column and sign of each random route; a source's own
        # route takes sign 1.0, and x * 1.0 is x, bit for bit
        columns = [(j, r, s) for j, (route, pair_route, pair_sign) in enumerate(sources)
                   for r, s in ((route, 1.0), (pair_route, pair_sign)) if r is not None]
        self._scale = np.array([scale for _, scale in constants])
        self._draw_col = np.array([j for j, _, _ in columns], dtype=np.intp)
        self._sign = np.array([s for _, _, s in columns])
        super().__init__(network, node_caps,
                         [r for r, _ in constants] + [r for _, r, _ in columns])

    def draw(self, rng, steps, xi, psi, constants):
        """One replicate's block from one block of steps * len(xi) uniforms
        of ``rng``, drawn one normal per source per step in listed order;
        ``constants`` lists the values that the scales multiply."""
        if any(p < 0 for p in psi):
            raise ValueError("coefficient of variation must be non-negative")
        u = np.clip(rng.random((steps, len(xi))), _U_CLIP, 1.0 - _U_CLIP)
        draws = np.array(xi) + np.multiply(psi, xi) * ndtri(u)
        return np.hstack([np.tile(self._scale * constants, (steps, 1)),
                          draws[:, self._draw_col] * self._sign])
