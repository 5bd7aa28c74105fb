import json
import math
from importlib import resources

import numpy as np
import pytest

from ctmdesign import cells as cells_module
from ctmdesign.cells import CellError, CellSpec, CellTable, overlap_matrix
from ctmdesign.config import Scenario
from ctmdesign.network import Route, TrafficNetwork
from ctmdesign.signals import SignalSchedule
from ctmdesign.solvers import InteractionRule, SimulationEngine
from reference import advance_signal, receiving, sending, signal_la


def z4_node(n_arms=4):
    """Star network: center node 0 with arms 1..n, all bidirectional."""
    edges = []
    for arm in range(1, n_arms + 1):
        edges.append((0, arm))
        edges.append((arm, 0))
    return TrafficNetwork(n_arms + 1, edges, {i: 1.0 for i in range(n_arms + 1)})


def node_densities(net, via, fill=0.0):
    return {net.routes[i]: fill for i in net.routes_through(via)}


# ---------------------------------------------------------------------------
# sending
# ---------------------------------------------------------------------------

def test_highway_sending_linear_then_capped():
    cell = CellSpec(kind="highway", s_max=5, rho_max=16, a=1, b=1, c=1)
    net = z4_node(2)
    dens = node_densities(net, 0)
    route = Route(1, 0, 2)
    dens[route] = 3.0
    assert sending(cell, route, dens) == pytest.approx(3.0)
    dens[route] = 7.0
    assert sending(cell, route, dens) == pytest.approx(5.0)


def test_simplified_intersection_damping():
    cell = CellSpec(kind="simplified_intersection", s_max=5, rho_max=10,
                    a=1, b=1, c=1, zeta=0.1)
    net = z4_node(3)
    dens = node_densities(net, 0)
    route = Route(1, 0, 2)
    dens[route] = 2.0  # total node density 2
    assert sending(cell, route, dens) == pytest.approx(2 * math.exp(-0.2))
    assert sending(cell, route, dens) == pytest.approx(1.63746, abs=1e-5)


def test_signalized_red_blocks_and_left_turn_damps():
    ccw = (1, 2, 3, 4)
    cell = CellSpec(kind="signalized_intersection", s_max=5, rho_max=16,
                    a=1, b=1, c=1, zeta=0.1, ccw=ccw)
    sched = SignalSchedule(ccw=ccw, green=10, t_real=2.88, v_real=50 / 3.6)
    net = z4_node(4)
    dens = node_densities(net, 0)

    red_state = advance_signal(sched, t=10, via=0)  # axis I red in second half
    for w in (2, 3, 4):
        dens[Route(1, 0, w)] = 2.0
        assert sending(cell, Route(1, 0, w), dens, red_state) == 0.0

    green_full = advance_signal(sched, t=9, via=0)  # late in green, ramp = 1
    assert green_full.la[Route(1, 0, 3)] == 1.0
    # left turn from arm 1 (position 0) heads to position 3 = arm 4;
    # oncoming densities are (3,0,1) and (3,0,4)
    dens = node_densities(net, 0)
    dens[Route(1, 0, 4)] = 2.0
    dens[Route(3, 0, 1)] = 6.0
    dens[Route(3, 0, 4)] = 4.0
    got = sending(cell, Route(1, 0, 4), dens, green_full)
    assert got == pytest.approx(min(5.0, 2.0 * math.exp(-1.0)))
    # straight and right are not damped by oncoming traffic
    dens[Route(1, 0, 2)] = 2.0
    dens[Route(1, 0, 3)] = 2.0
    assert sending(cell, Route(1, 0, 2), dens, green_full) == pytest.approx(2.0)
    assert sending(cell, Route(1, 0, 3), dens, green_full) == pytest.approx(2.0)


def test_signalized_requires_signal_state():
    ccw = (1, 2, 3, 4)
    cell = CellSpec(kind="signalized_intersection", s_max=5, rho_max=16,
                    a=1, b=1, c=1, zeta=0.1, ccw=ccw)
    net = z4_node(4)
    with pytest.raises(CellError):
        sending(cell, Route(1, 0, 2), node_densities(net, 0))


# ---------------------------------------------------------------------------
# receiving
# ---------------------------------------------------------------------------

def test_highway_receiving_congested_to_zero():
    cell = CellSpec(kind="highway", s_max=5, rho_max=16, a=1, b=1, c=1)
    net = z4_node(2)
    dens = node_densities(net, 0)
    dens[Route(1, 0, 2)] = 10.0
    assert receiving(cell, Route(1, 0, 2), dens) == 0.0
    dens[Route(1, 0, 2)] = 3.0
    assert receiving(cell, Route(1, 0, 2), dens) == pytest.approx(5.0)


def test_bidirectional_interface_counterflow():
    cell = CellSpec(kind="bidirectional_interface", s_max=5, rho_max=30,
                    a=1, b=1, c=1, d=1)
    net = z4_node(2)
    dens = node_densities(net, 0)
    dens[Route(1, 0, 2)] = 5.0
    dens[Route(2, 0, 1)] = 5.0
    assert receiving(cell, Route(1, 0, 2), dens) == pytest.approx(20.0)


def test_pedestrian_square_excludes_shared_endpoints():
    cell = CellSpec(kind="pedestrian_square", s_max=5, rho_max=30,
                    a=1, b=1, c=1, d=1)
    net = z4_node(3)
    dens = node_densities(net, 0, fill=1.0)
    route = Route(1, 0, 2)
    # cross term: routes with different origin and destination: (2,0,3), (3,0,... )
    cross = sum(v for r, v in dens.items()
                if r != route and r.src != route.src and r.dst != route.dst)
    expected = max(30 - dens[route] - cross, 0.0)
    assert receiving(cell, route, dens) == pytest.approx(expected)


def test_signalized_receiving_quarter_capacity_per_approach():
    ccw = (1, 2, 3, 4)
    cell = CellSpec(kind="signalized_intersection", s_max=5, rho_max=16,
                    a=1, b=1, c=1, zeta=0.1, ccw=ccw)
    net = z4_node(4)
    dens = node_densities(net, 0)
    dens[Route(1, 0, 2)] = 1.5
    dens[Route(1, 0, 3)] = 1.0
    dens[Route(1, 0, 4)] = 0.5
    assert receiving(cell, Route(1, 0, 2), dens) == pytest.approx(1.0)
    full = CellSpec(kind="signalized_intersection", s_max=5, rho_max=16,
                    a=1, b=1, c=1, zeta=0.1, ccw=ccw,
                    approach_capacity_fraction=1.0)
    assert receiving(full, Route(1, 0, 2), dens) == pytest.approx(13.0)


# ---------------------------------------------------------------------------
# roundabouts: brute-force path-segment oracle for the overlap weights
# ---------------------------------------------------------------------------

def uni_roundabout_oracle_weights(s, t):
    """Vehicles are uniform over their path's ring segments; the weight of
    an interfering path is the fraction of it lying on the receiving path."""
    own = set(range(s, s + ((t - s) % 4)))  # segment ids mod 4
    own = {x % 4 for x in own}
    weights = {}
    for s2 in range(4):
        for t2 in range(4):
            if s2 == t2 or (s2, t2) == (s, t):
                continue
            m2 = (t2 - s2) % 4
            segs2 = {(s2 + j) % 4 for j in range(m2)}
            overlap = len(own & segs2)
            if overlap:
                weights[(s2, t2)] = overlap / m2
    return weights


def test_uni_roundabout_matches_segment_oracle():
    ccw = (1, 2, 3, 4)
    weights, capacity = overlap_matrix("uni_roundabout", ccw, 0)
    for s in range(4):
        for t in range(4):
            if s == t:
                continue
            own = Route(ccw[s], 0, ccw[t])
            oracle = uni_roundabout_oracle_weights(s, t)
            got = {}
            for (o, other), w in weights.items():
                if o == own:
                    got[(ccw.index(other.src), ccw.index(other.dst))] = w
            assert got == pytest.approx(oracle)
            assert capacity[own] == pytest.approx(((t - s) % 4) / 4.0)


def test_uni_roundabout_receiving_value():
    # one-hop route with all six interfering densities equal to one
    ccw = (1, 2, 3, 4)
    cell = CellSpec(kind="uni_roundabout", s_max=5, rho_max=30,
                    a=1, b=1, c=1, d=1, ccw=ccw)
    net = z4_node(4)
    dens = node_densities(net, 0, fill=1.0)
    got = receiving(cell, Route(1, 0, 2), dens)
    # 30/4 - 1 - (1/2 + 1/3 + 1/3 + 1/2 + 1/3)
    assert got == pytest.approx(4.5)


def test_bi_roundabout_receiving_matches_tabulated_form():
    ccw = (1, 2, 3, 4)
    cell = CellSpec(kind="bi_roundabout", s_max=5, rho_max=40,
                    a=1, b=1, c=1, d=1, ccw=ccw)
    net = z4_node(4)
    rng = np.random.default_rng(3)
    dens = {net.routes[i]: float(rng.random())
            for i in net.routes_through(0)}
    route = Route(1, 0, 2)  # adjacent exit, one hop
    expected = max(40 / 4
                   - dens[route]
                   - (0.25 * dens[Route(1, 0, 3)] + dens[Route(2, 0, 1)]
                      + 0.25 * dens[Route(2, 0, 4)] + 0.25 * dens[Route(3, 0, 1)]
                      + 0.25 * dens[Route(4, 0, 2)]), 0.0)
    assert receiving(cell, route, dens) == pytest.approx(expected)
    # two-hop route sees the whole ring at full capacity
    route2 = Route(1, 0, 3)
    cross = sum(v for r, v in dens.items()
                if r != route2 and r.src != 1 and r.dst != 3)
    expected2 = max(40 - dens[route2] - cross, 0.0)
    assert receiving(cell, route2, dens) == pytest.approx(expected2)


# ---------------------------------------------------------------------------
# invariants and vectorized-table consistency
# ---------------------------------------------------------------------------

def random_cell_networks():
    specs = [
        ("highway", CellSpec(kind="highway", s_max=5, rho_max=16,
                             a=0.9, b=0.8, c=1.2), 2),
        ("bidir", CellSpec(kind="bidirectional_interface", s_max=4, rho_max=30,
                           a=1, b=1, c=1, d=0.5), 2),
        ("square", CellSpec(kind="pedestrian_square", s_max=5, rho_max=25,
                            a=0.7, b=1, c=1, d=1), 4),
        ("simple", CellSpec(kind="simplified_intersection", s_max=5,
                            rho_max=10, a=1, b=1, c=1, zeta=0.1), 3),
        ("uni", CellSpec(kind="uni_roundabout", s_max=5, rho_max=30,
                         a=0.4, b=1, c=1, d=1, ccw=(1, 2, 3, 4)), 4),
        ("bi", CellSpec(kind="bi_roundabout", s_max=5, rho_max=30,
                        a=1, b=1, c=1, d=1, ccw=(1, 2, 3, 4)), 4),
    ]
    for name, cell, n_arms in specs:
        yield name, cell, z4_node(n_arms)


def test_sending_bound_and_receiving_nonnegative_on_random_states():
    rng = np.random.default_rng(42)
    for name, cell, net in random_cell_networks():
        for _ in range(50):
            dens = {net.routes[i]: float(5 * rng.random())
                    for i in net.routes_through(0)}
            for route in dens:
                s = sending(cell, route, dens)
                r = receiving(cell, route, dens)
                assert 0.0 <= s <= dens[route] + 1e-12, (name, route)
                assert s <= cell.s_max + 1e-12
                assert r >= 0.0


def test_monotonicity_in_own_density():
    rng = np.random.default_rng(1)
    for name, cell, net in random_cell_networks():
        if name not in ("highway", "bidir"):
            continue
        for _ in range(30):
            dens = {net.routes[i]: float(3 * rng.random())
                    for i in net.routes_through(0)}
            route = next(iter(dens))
            lo = dict(dens)
            hi = dict(dens)
            hi[route] = lo[route] + rng.random()
            assert sending(cell, route, hi) >= sending(cell, route, lo) - 1e-12
            assert receiving(cell, route, hi) <= receiving(cell, route, lo) + 1e-12


def test_rotation_symmetry_of_symmetric_cells():
    rng = np.random.default_rng(5)
    for name, cell, net in random_cell_networks():
        if name not in ("square", "uni", "bi"):
            continue
        arms = list(np.flatnonzero(net.adjacency[:, 0]))
        n = len(arms)
        shift = {arms[i]: arms[(i + 1) % n] for i in range(n)}
        for _ in range(20):
            dens = {net.routes[i]: float(2 * rng.random())
                    for i in net.routes_through(0)}
            rotated = {Route(shift[r.src], 0, shift[r.dst]): v
                       for r, v in dens.items()}
            for route in dens:
                rot = Route(shift[route.src], 0, shift[route.dst])
                assert sending(cell, route, dens) == pytest.approx(
                    sending(cell, rot, rotated))
                assert receiving(cell, route, dens) == pytest.approx(
                    receiving(cell, rot, rotated))


def test_cell_table_matches_scalar_ops():
    # one network holding every unsignalized kind, random densities
    rng = np.random.default_rng(9)
    for name, cell, net in random_cell_networks():
        cells = {0: cell}
        for arm in list(np.flatnonzero(net.adjacency[:, 0])):
            cells[arm] = CellSpec(kind="highway", s_max=5, rho_max=16,
                                  a=1, b=1, c=1)
        table = CellTable(net, cells)
        for _ in range(10):
            rho = 4 * rng.random(net.n_routes)
            s_vec, r_vec = table.evaluate(rho)
            dens_all = {r: rho[i] for i, r in enumerate(net.routes)}
            for i in net.routes_through(0):
                route = net.routes[i]
                assert s_vec[i] == pytest.approx(
                    sending(cell, route, dens_all)), (name, route)
                assert r_vec[i] == pytest.approx(
                    receiving(cell, route, dens_all)), (name, route)


def test_cell_table_matches_scalar_signalized():
    ccw = (1, 2, 3, 4)
    cell = CellSpec(kind="signalized_intersection", s_max=5, rho_max=16,
                    a=1, b=1, c=1, zeta=0.1, ccw=ccw)
    net = z4_node(4)
    cells = {0: cell}
    for arm in (1, 2, 3, 4):
        cells[arm] = CellSpec(kind="highway", s_max=5, rho_max=16, a=1, b=1, c=1)
    sched = SignalSchedule(ccw=ccw, green=7, shift=3, t_real=2.88,
                           v_real=50 / 3.6)
    eng = SimulationEngine(net, cells, {0: sched})
    rng = np.random.default_rng(13)
    for t in (0, 3, 5, 9, 12, 20):
        rho = 3 * rng.random(net.n_routes)
        la = signal_la(eng, t)
        s_vec, r_vec = eng.cells.evaluate(rho, la)
        state = advance_signal(sched, t, via=0)
        dens_all = {r: rho[i] for i, r in enumerate(net.routes)}
        for i in net.routes_through(0):
            route = net.routes[i]
            assert s_vec[i] == pytest.approx(
                sending(cell, route, dens_all, state)), (t, route)
            assert r_vec[i] == pytest.approx(
                receiving(cell, route, dens_all)), (t, route)


# ---------------------------------------------------------------------------
# the sparse (CSR) products of networks past the dense limit
# ---------------------------------------------------------------------------

def intersection_grid(side=12):
    """A side x side grid of simplified intersections, each road both ways:
    1,448 routes, and W and E with a full block per node."""
    edges = []
    for i in range(side):
        for j in range(side):
            v = i * side + j
            for w in ([v + side] if i + 1 < side else []) + ([v + 1] if j + 1 < side else []):
                edges += [(v, w), (w, v)]
    net = TrafficNetwork(side * side, edges, {v: 1.0 for v in range(side * side)})
    # rho_max above any node total of the test states keeps R off its 0 clamp
    cell = CellSpec(kind="simplified_intersection", s_max=2.5, rho_max=60.0, a=0.8,
                    b=0.5, c=1.0, zeta=0.05)
    return net, {v: cell for v in range(net.n_nodes)}


def test_sparse_cell_table_matches_the_dense_one(monkeypatch):
    net, cells = intersection_grid()
    sparse = CellTable(net, cells)
    monkeypatch.setattr(cells_module, "_DENSE_MAX_ROUTES", net.n_routes)
    dense = CellTable(net, cells)
    assert not sparse._dense and dense._dense
    rho = np.random.default_rng(61).uniform(0.0, 3.0, (net.n_routes, 7))
    for state in (rho, rho[:, 0]):
        for got, want in zip(sparse.evaluate(state), dense.evaluate(state)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("rule", ["dpf", "cooperative"])
def test_sparse_engine_conserves_mass_and_batch_rows_equal_single_runs(rule):
    net, cells = intersection_grid()
    eng = SimulationEngine(net, cells)
    assert not eng.cells._dense
    rho0 = np.random.default_rng(67).uniform(0.0, 3.0, (7, net.n_routes))
    batch = eng.run(rho0, 20, InteractionRule(rule))
    for b in range(len(rho0)):
        assert np.array_equal(eng.run(rho0[b], 20, InteractionRule(rule)), batch[b])
    # a closed network of unit lengths: the densities sum to the same mass
    np.testing.assert_allclose(batch.sum(axis=1), rho0.sum(axis=1), rtol=1e-12)
    assert not np.array_equal(batch, rho0)


# ---------------------------------------------------------------------------
# the split products of the bundled networks
# ---------------------------------------------------------------------------

def bundled_cells(name):
    raw = json.loads(resources.files("ctmdesign.scenarios")
                     .joinpath(f"{name}.json").read_text())
    return Scenario(raw).engine.cells


def _same_bits(got, want):
    return bool(np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                              np.signbit(want)))


@pytest.mark.parametrize("batch", [1, 2, 16, 64])
def test_split_products_keep_the_bits_of_the_full_gemv(batch):
    # a property of the BLAS build, not of the mathematics: a gemv over a
    # row sub-matrix, with the state read as a strided route-major column,
    # gives each row the bits of the full gemv of a contiguous state,
    # which the bit-identity of batches and one-replicate runs rests on
    rng = np.random.default_rng(batch)
    for name in ("urban", "highway"):
        table = bundled_cells(name)
        n = table.network.n_routes
        assert len(table._w_rows) < n          # some W rows are w * rho alone
        for _ in range(10):
            rho = rng.uniform(0.0, 4.0, (batch, n))
            rho[rng.random(rho.shape) < 0.3] = 0.0
            state = rho[0] if batch == 1 else np.ascontiguousarray(rho.T)
            want_w = np.matmul(table.W, rho[..., None])[..., 0]
            want_e = np.matmul(table.E, rho[..., None])[..., 0]
            got_w = table._load(state).T.reshape(want_w.shape)
            got_e = table._damping(state).T.reshape(batch, -1)
            off = np.setdiff1d(np.arange(n), table._e_rows)
            same = [_same_bits(got_w, want_w),
                    _same_bits(got_e, want_e[:, table._e_rows]),
                    not np.any(want_e[:, off])]
            assert all(same), (
                f"{name}, B = {batch}: W rows, nonzero E rows and the other E rows "
                f"(zero) keep the bits of the full gemv: {same}.  This is a property "
                "of the BLAS build (measured with OpenBLAS 0.3.31) that the stepper's "
                "split cell products rely on; this BLAS does not have it")
