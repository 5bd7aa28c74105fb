import numpy as np
import pytest

from ctmdesign.network import NetworkError, Route, TrafficNetwork
from reference import (DensityState, TurningFractions, aggregate_inflows,
                       total_mass, update_density)


def two_node_net():
    return TrafficNetwork(2, [(0, 1), (1, 0)], {0: 1.0, 1: 1.0})


def test_neighbors_two_node_bidirectional():
    net = two_node_net()
    assert set(np.flatnonzero(net.adjacency[:, 0])) == {1}
    assert set(np.flatnonzero(net.adjacency[0])) == {1}


def test_neighbors_isolated_node():
    net = TrafficNetwork(3, [(0, 1), (1, 0)], {0: 1, 1: 1, 2: 1})
    assert set(np.flatnonzero(net.adjacency[:, 2])) == set()
    assert not net.adjacency[2].any()


def test_neighbors_invalid_node():
    net = two_node_net()
    with pytest.raises(NetworkError):
        net.routes_through(5)
    with pytest.raises(NetworkError):
        net.routes_through(-1)


def test_urban_signalized_neighbors():
    # node 14 of the urban bundle reaches its four arms 13, 20, 15, 9
    from ctmdesign.config import Scenario
    import json
    from importlib import resources

    raw = json.loads(resources.files("ctmdesign.scenarios")
                     .joinpath("urban.json").read_text())
    scen = Scenario(raw)
    idx = {n: i for i, n in enumerate(scen.node_labels)}
    arms = set(np.flatnonzero(scen.network.adjacency[:, idx[14]]))
    assert arms == {idx[13], idx[20], idx[15], idx[9]}
    arms16 = set(np.flatnonzero(scen.network.adjacency[:, idx[16]]))
    assert arms16 == {idx[15], idx[21], idx[17], idx[10]}


def test_update_density_direct_arithmetic():
    assert update_density(5, 1, 1, 2, 0) == 4
    assert update_density(5, 3, 3, 0, 0) == 6
    assert update_density(0, 1, 0, 0, 0) == 0


def test_update_density_rejects_bad_inputs():
    with pytest.raises(NetworkError):
        update_density(np.inf, 1, 0, 0, 0)
    with pytest.raises(NetworkError):
        update_density(1, 0, 0, 0, 0)
    with pytest.raises(NetworkError):
        update_density(1, 1, np.nan, 0, 0)


def test_aggregate_inflows_single_predecessor():
    net = two_node_net()
    net_uturn = TrafficNetwork(2, [(0, 1), (1, 0)], {0: 1, 1: 1},
                               allow_uturn={0, 1})
    turning = TurningFractions.uniform_no_uturn(net_uturn)
    outflows = {Route(1, 0, 1): 2.0, Route(0, 1, 0): 0.0}
    q_in = aggregate_inflows(outflows, turning, net_uturn)
    assert q_in[Route(0, 1, 0)] == pytest.approx(2.0)


def test_aggregate_inflows_two_predecessors_split():
    # feeders 0 and 1 into node 2, node 3 splits half/half toward 4 and 5
    edges = [(0, 2), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2),
             (3, 4), (4, 3), (3, 5), (5, 3)]
    net = TrafficNetwork(6, edges, {i: 1 for i in range(6)})
    turning = TurningFractions.uniform_no_uturn(net)
    outflows = {r: 0.0 for r in net.routes}
    outflows[Route(0, 2, 3)] = 2.0
    outflows[Route(1, 2, 3)] = 4.0
    q_in = aggregate_inflows(outflows, turning, net)
    assert q_in[Route(2, 3, 4)] == pytest.approx(3.0)
    assert q_in[Route(2, 3, 5)] == pytest.approx(3.0)
    # linearity under superposition of the outflow vector
    rng = np.random.default_rng(7)
    out_a = {r: float(rng.random()) for r in net.routes}
    out_b = {r: float(rng.random()) for r in net.routes}
    both = {r: out_a[r] + 2.0 * out_b[r] for r in net.routes}
    qa = aggregate_inflows(out_a, turning, net)
    qb = aggregate_inflows(out_b, turning, net)
    qc = aggregate_inflows(both, turning, net)
    for r in net.routes:
        assert qc[r] == pytest.approx(qa[r] + 2.0 * qb[r], abs=1e-12)


def test_aggregate_inflows_rejects_bad_rows():
    net = two_node_net()
    net_uturn = TrafficNetwork(2, [(0, 1), (1, 0)], {0: 1, 1: 1},
                               allow_uturn={0, 1})
    bad = TurningFractions({(Route(1, 0, 1), 0): 0.9})
    with pytest.raises(NetworkError):
        aggregate_inflows({Route(1, 0, 1): 1.0}, bad, net_uturn)


def test_total_mass_zero_and_single_route():
    net = TrafficNetwork(3, [(0, 1), (1, 2), (2, 1), (1, 0)],
                         {0: 1, 1: 3, 2: 1})
    state = DensityState(np.zeros(net.n_routes))
    assert total_mass(state, net) == 0.0
    rho = np.zeros(net.n_routes)
    rho[net.index_of(0, 1, 2)] = 5.0
    assert total_mass(DensityState(rho), net) == pytest.approx(15.0)


def test_total_mass_urban_initial_state():
    # independent oracle: enumerate routes per node class and sum directly
    from ctmdesign.config import Scenario
    import json
    from importlib import resources

    raw = json.loads(resources.files("ctmdesign.scenarios")
                     .joinpath("urban.json").read_text())
    scen = Scenario(raw)
    rho0 = scen.initial_densities()
    got = total_mass(DensityState(rho0), scen.network)

    groups = raw["network"]["groups"]
    deg = {}
    for u, v in raw["network"]["edges"]:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    expected = 0.0
    for g, init, length in (("roads", 5, 3), ("unsignalized", 1, 1),
                            ("signalized", 1, 1)):
        for n in groups[g]:
            n_routes = deg[n] * (deg[n] - 1)  # ordered (u, w) pairs, no U-turn
            expected += n_routes * init * length
    assert got == pytest.approx(expected)
    # the urban grid has 21 roads (2 neighbors), 6 three-way, 2 four-way nodes
    assert expected == 21 * 2 * 5 * 3 + 6 * 6 * 1 + 2 * 12 * 1


def test_route_enumeration_deterministic_order():
    net = TrafficNetwork(3, [(0, 1), (1, 0), (1, 2), (2, 1)],
                         {0: 1, 1: 1, 2: 1})
    assert net.routes == tuple(sorted(net.routes,
                                      key=lambda r: (r.via, r.src, r.dst)))
    assert all(r.src != r.dst for r in net.routes)


def test_uturn_excluded_by_default_opt_in_per_node():
    net = TrafficNetwork(2, [(0, 1), (1, 0)], {0: 1, 1: 1})
    assert net.n_routes == 0
    net2 = TrafficNetwork(2, [(0, 1), (1, 0)], {0: 1, 1: 1}, allow_uturn={1})
    assert [tuple(r) for r in net2.routes] == [(0, 1, 0)]
