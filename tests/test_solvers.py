import itertools
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmdesign import solvers
from ctmdesign.cells import KINDS, CellSpec
from ctmdesign.config import Scenario
from ctmdesign.evaluation import AvgNetworkFlow
from ctmdesign.network import TrafficNetwork
from ctmdesign.signals import SignalSchedule
from ctmdesign.solvers import InteractionRule, SimulationEngine
from reference import (DensityState, LocalProblem, TurningFractions,
                       advance_signal, aggregate_inflows, edge_groups, engine_step,
                       group_sum, receiving, sending, signal_la, solve_cooperative,
                       solve_cpf, solve_dpf, solve_priority, total_mass, update_density)
from test_cells import intersection_grid

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def feasible(problem, q, tol=1e-9):
    if np.any(q < -tol) or np.any(q > problem.sendings + tol):
        return False
    inflow = problem.fractions.T @ q
    return bool(np.all(inflow <= problem.receivings + tol))


def dpf_lambda_oracle(problem, tol=1e-10):
    """Bisection on the largest feasible common scaling factor."""
    lo, hi = 0.0, 1.0
    if feasible(problem, problem.sendings, tol=1e-12):
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(problem, mid * problem.sendings, tol=1e-12):
            lo = mid
        else:
            hi = mid
    return lo


def cpf_lambda_oracle(problem, weights, tol=1e-12):
    """Bisection on the monotone piecewise-linear binding equation."""
    d = np.asarray(weights)

    def flows(lam):
        return np.minimum(lam * d, 1.0) * problem.sendings

    def slack(lam):
        return float(np.min(problem.receivings - problem.fractions.T @ flows(lam)))

    if slack(np.inf) >= 0:
        return np.inf
    lo, hi = 0.0, 1.0
    while slack(hi) > 0:
        hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if slack(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def priority_oracle(problem, order):
    """Direct transcription of the hierarchical claim recursion."""
    q = np.zeros(len(problem.sendings))
    for rank, i in enumerate(order):
        best = problem.sendings[i]
        for j, r_w in enumerate(problem.receivings):
            f = problem.fractions[i, j]
            if f > 0:
                committed = sum(problem.fractions[order[r], j] * q[order[r]]
                                for r in range(rank))
                best = min(best, (r_w - committed) / f)
        q[i] = max(best, 0.0)
    return q


def lp_vertex_oracle(problem):
    """Exhaustive vertex enumeration of the outflow polytope; returns the
    maximal total outflow."""
    n = len(problem.sendings)
    rows = []
    rhs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e.copy())
        rhs.append(problem.sendings[i])
        rows.append(-e)
        rhs.append(0.0)
    for j in range(problem.fractions.shape[1]):
        rows.append(problem.fractions[:, j].copy())
        rhs.append(problem.receivings[j])
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = 0.0
    for combo in itertools.combinations(range(len(rows)), n):
        a = rows[list(combo)]
        b = rhs[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if np.all(rows @ x <= rhs + 1e-9):
            best = max(best, x.sum())
    return best


def random_problem(rng, max_up=4, max_down=4, uniform_rows=False):
    n_up = rng.integers(1, max_up + 1)
    n_down = rng.integers(1, max_down + 1)
    s = rng.random(n_up) * 5
    r = rng.random(n_down) * 4
    if uniform_rows:
        row = rng.random(n_down) + 0.1
        row /= row.sum()
        f = np.tile(row, (n_up, 1))
    else:
        f = rng.random((n_up, n_down)) + 0.05
        f /= f.sum(axis=1, keepdims=True)
    return LocalProblem(s, r, f)


# ---------------------------------------------------------------------------
# demand proportional
# ---------------------------------------------------------------------------

def test_dpf_single_route_halved():
    p = LocalProblem([4.0], [2.0], [[1.0]])
    lam, q = solve_dpf(p)
    assert lam == pytest.approx(0.5)
    assert q[0] == pytest.approx(2.0)


def test_dpf_unconstrained():
    p = LocalProblem([1.0], [5.0], [[1.0]])
    lam, q = solve_dpf(p)
    assert lam == 1.0
    assert q[0] == pytest.approx(1.0)


def test_dpf_zero_demand_convention():
    p = LocalProblem([0.0, 0.0], [1.0], [[1.0], [1.0]])
    lam, q = solve_dpf(p)
    assert lam == 1.0
    assert np.all(q == 0.0)


def test_dpf_matches_bisection_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        p = random_problem(rng)
        lam, q = solve_dpf(p)
        assert lam == pytest.approx(dpf_lambda_oracle(p), abs=1e-8)
        assert feasible(p, q)


# ---------------------------------------------------------------------------
# capacity proportional
# ---------------------------------------------------------------------------

def test_cpf_even_weights_split():
    p = LocalProblem([4.0, 4.0], [2.0], [[1.0], [1.0]])
    lam, q = solve_cpf(p, [0.5, 0.5])
    assert lam == pytest.approx(0.5)
    assert q == pytest.approx([1.0, 1.0])


def test_cpf_unconstrained_keeps_sendings():
    p = LocalProblem([2.0, 1.0], [10.0], [[1.0], [1.0]])
    lam, q = solve_cpf(p, [0.7, 0.3])
    assert np.isinf(lam)
    assert q == pytest.approx([2.0, 1.0])


def test_cpf_zero_weight_blocks_unless_unconstrained():
    p = LocalProblem([2.0, 3.0], [2.0], [[1.0], [1.0]])
    lam, q = solve_cpf(p, [0.0, 1.0])
    assert q[0] == 0.0
    p2 = LocalProblem([2.0, 3.0], [50.0], [[1.0], [1.0]])
    _, q2 = solve_cpf(p2, [0.0, 1.0])
    assert q2 == pytest.approx([2.0, 3.0])


def test_cpf_matches_bisection_oracle():
    rng = np.random.default_rng(77)
    for _ in range(300):
        p = random_problem(rng)
        d = rng.random(len(p.sendings))
        d /= d.sum()
        lam, q = solve_cpf(p, d)
        lam_star = cpf_lambda_oracle(p, d)
        if np.isinf(lam_star):
            assert np.isinf(lam)
        else:
            assert lam == pytest.approx(lam_star, abs=1e-8)
        assert feasible(p, q)


def test_cpf_rejects_bad_weights():
    p = LocalProblem([1.0], [1.0], [[1.0]])
    with pytest.raises(ValueError):
        solve_cpf(p, [0.5])
    with pytest.raises(ValueError):
        solve_cpf(p, [-0.2, 1.2])


# ---------------------------------------------------------------------------
# priority
# ---------------------------------------------------------------------------

def test_priority_first_claimant_takes_all():
    p = LocalProblem([4.0, 3.0], [3.0], [[1.0], [1.0]])
    q = solve_priority(p)
    assert q == pytest.approx([3.0, 0.0])


def test_priority_unconstrained():
    p = LocalProblem([4.0, 3.0], [10.0], [[1.0], [1.0]])
    assert solve_priority(p) == pytest.approx([4.0, 3.0])


def test_priority_order_matters():
    p = LocalProblem([4.0, 3.0], [3.0], [[1.0], [1.0]])
    q = solve_priority(p, order=[1, 0])
    assert q == pytest.approx([0.0, 3.0])


def test_priority_matches_recursion_oracle():
    rng = np.random.default_rng(5150)
    for _ in range(300):
        p = random_problem(rng)
        order = list(rng.permutation(len(p.sendings)))
        q = solve_priority(p, order)
        assert q == pytest.approx(priority_oracle(p, order), abs=1e-10)
        assert feasible(p, q)


# ---------------------------------------------------------------------------
# cooperative
# ---------------------------------------------------------------------------

def test_cooperative_lexicographic_tie_break():
    p = LocalProblem([4.0, 3.0], [3.0], [[1.0], [1.0]])
    q = solve_cooperative(p)
    assert q == pytest.approx([3.0, 0.0])
    assert q.sum() == pytest.approx(3.0)


def test_cooperative_unconstrained():
    p = LocalProblem([4.0, 3.0], [100.0], [[1.0], [1.0]])
    assert solve_cooperative(p) == pytest.approx([4.0, 3.0])


def test_cooperative_matches_vertex_oracle():
    rng = np.random.default_rng(31337)
    for _ in range(120):
        p = random_problem(rng)
        q = solve_cooperative(p)
        assert feasible(p, q)
        assert q.sum() == pytest.approx(lp_vertex_oracle(p), abs=1e-7)


def test_cooperative_dominates_other_rules():
    rng = np.random.default_rng(99)
    for _ in range(200):
        p = random_problem(rng)
        q_coop = solve_cooperative(p)
        _, q_dpf = solve_dpf(p)
        d = rng.random(len(p.sendings))
        d /= d.sum()
        _, q_cpf = solve_cpf(p, d)
        q_pri = solve_priority(p)
        total = q_coop.sum()
        assert total >= q_dpf.sum() - 1e-9
        assert total >= q_cpf.sum() - 1e-9
        assert total >= q_pri.sum() - 1e-9


def test_scale_covariance_of_all_rules():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = random_problem(rng)
        alpha = 0.1 + 3 * rng.random()
        scaled = LocalProblem(alpha * p.sendings, alpha * p.receivings,
                              p.fractions)
        d = rng.random(len(p.sendings))
        d /= d.sum()
        assert solve_dpf(scaled)[1] == pytest.approx(alpha * solve_dpf(p)[1])
        assert solve_cpf(scaled, d)[1] == pytest.approx(
            alpha * solve_cpf(p, d)[1], abs=1e-9)
        assert solve_priority(scaled) == pytest.approx(
            alpha * solve_priority(p), abs=1e-9)
        assert solve_cooperative(scaled) == pytest.approx(
            alpha * solve_cooperative(p), abs=1e-6)


# ---------------------------------------------------------------------------
# engine step
# ---------------------------------------------------------------------------

def ring_engine(n=4):
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append(((i + 1) % n, i))
    net = TrafficNetwork(n, edges, {i: 1.0 for i in range(n)})
    cells = {v: CellSpec(kind="highway", s_max=5, rho_max=16, a=1, b=1, c=1)
             for v in range(n)}
    return net, SimulationEngine(net, cells)


def test_step_conserves_mass_closed_ring():
    net, eng = ring_engine()
    rho = np.linspace(0.5, 3.5, net.n_routes)
    m0 = total_mass(DensityState(rho), net)
    for rule in ("dpf", "cpf", "priority", "cooperative"):
        r = rho.copy()
        for t in range(200):
            r, _ = engine_step(eng, t, r, InteractionRule(rule))
        assert total_mass(DensityState(r), net) == pytest.approx(m0, abs=1e-10)


def line_engine(n):
    """Closed line of n highway nodes, U-turns at both ends."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    net = TrafficNetwork(n, edges, {i: 1.0 for i in range(n)},
                         allow_uturn={0, n - 1})
    cells = {v: CellSpec(kind="highway", s_max=5, rho_max=16, a=1, b=1, c=1)
             for v in range(n)}
    return net, SimulationEngine(net, cells)


@pytest.mark.parametrize("n_nodes", [6, 300])
@pytest.mark.parametrize("rule", ["dpf", "cpf", "priority", "cooperative"])
def test_run_batch_rows_equal_single_runs(n_nodes, rule):
    # 300 nodes give 598 routes, past the dense limit of CellTable: the
    # sparse products must keep the rows of a batch bit-identical too
    net, eng = line_engine(n_nodes)
    assert eng.cells._dense == (n_nodes == 6)
    rho0 = np.random.default_rng(n_nodes).uniform(0.0, 9.0, (5, net.n_routes))
    obs = AvgNetworkFlow()
    batch = eng.run(rho0, 60, InteractionRule(rule), observers=(obs,))
    for b in range(len(rho0)):
        one = AvgNetworkFlow()
        assert np.array_equal(eng.run(rho0[b], 60, InteractionRule(rule),
                                      observers=(one,)), batch[b])
        assert one.value() == obs.value()[b]


def test_step_empty_network_stays_empty():
    net, eng = ring_engine()
    rho = np.zeros(net.n_routes)
    rho2, rec = engine_step(eng, 0, rho, InteractionRule("dpf"))
    assert np.all(rho2 == 0)
    assert np.all(rec.q_out == 0) and np.all(rec.q_in == 0)


def test_step_composes_the_phases():
    # recompute one step by hand from the individually tested pieces
    net, eng = ring_engine()
    rng = np.random.default_rng(8)
    rho = 4 * rng.random(net.n_routes)
    rho_next, rec = engine_step(eng, 0, rho, InteractionRule("dpf"))

    dens = {r: rho[i] for i, r in enumerate(net.routes)}
    cells = {v: CellSpec(kind="highway", s_max=5, rho_max=16, a=1, b=1, c=1)
             for v in range(net.n_nodes)}
    s = {r: sending(cells[r.via], r, dens) for r in net.routes}
    r_ = {r: receiving(cells[r.via], r, dens) for r in net.routes}
    turn = TurningFractions.uniform_no_uturn(net)

    q_out = {}
    for v in range(net.n_nodes):
        for u in np.flatnonzero(net.adjacency[:, v]):
            ups = [r for r in net.routes if r.via == u and r.dst == v]
            downs = [r for r in net.routes if r.via == v and r.src == u]
            if not ups:
                continue
            ups.sort(key=lambda r: r.src)
            downs.sort(key=lambda r: r.dst)
            f = np.array([[turn.fraction(ru, rd.dst) for rd in downs]
                          for ru in ups])
            problem = LocalProblem([s[ru] for ru in ups],
                                   [r_[rd] for rd in downs], f)
            _, q = solve_dpf(problem)
            for ru, qi in zip(ups, q):
                q_out[ru] = qi
    q_in = aggregate_inflows(q_out, turn, net)
    for i, route in enumerate(net.routes):
        assert rec.q_out[i] == pytest.approx(q_out[route], abs=1e-12)
        assert rec.q_in[i] == pytest.approx(q_in[route], abs=1e-12)
        expected = update_density(rho[i], 1.0, q_in[route], q_out[route], 0.0)
        assert rho_next[i] == pytest.approx(expected, abs=1e-12)


def test_engine_feasibility_invariants_on_random_steps():
    net, eng = ring_engine(5)
    rng = np.random.default_rng(12)
    for rule in ("dpf", "cpf", "priority", "cooperative"):
        rho = 6 * rng.random(net.n_routes)
        for t in range(50):
            la = None
            s, r = eng.cells.evaluate(rho, la)
            rho, rec = engine_step(eng, t, rho, InteractionRule(rule))
            assert np.all(rec.q_out <= s + 1e-9)
            assert np.all(rec.q_out >= -1e-12)


def test_outflows_with_subnormal_demand_do_not_overflow():
    net, eng = ring_engine()
    s = np.full(net.n_routes, 1e-310)
    r = np.full(net.n_routes, 5.0)
    for rule in ("dpf", "cpf", "priority", "cooperative"):
        with np.errstate(all="raise"):
            q_out = eng.outflows(s, r, InteractionRule(rule))
        assert np.array_equal(q_out, s)


def assert_turning_rows_equal_reference(eng):
    """The engine's f_down, by bits, against the reference turning table:
    per group, the one row its upstream routes share."""
    net = eng.network
    turn = TurningFractions.uniform_no_uturn(net)
    rows, down_idx = [], []
    for u, v in eng.group_edges:
        ups = [r for r in net.routes if r.via == u and r.dst == v]
        downs = [j for j in net.routes_through(v) if net.routes[j].src == u]
        f = np.array([[turn.fraction(ru, net.routes[j].dst) for j in downs]
                      for ru in ups])
        assert np.all(f == f[0])  # independent of the upstream route
        rows.append(f[0])
        down_idx += downs
    expected = np.concatenate(rows)
    _, f_in, _ = eng._params[(net.n_routes,)]
    f_down = f_in[down_idx]
    assert f_down.dtype == expected.dtype
    assert np.array_equal(f_down.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("name", ["urban", "highway"])
def test_turning_rows_equal_uniform_no_uturn_on_bundled_scenarios(name):
    raw = json.loads(resources.files("ctmdesign.scenarios")
                     .joinpath(f"{name}.json").read_text())
    assert raw["network"]["turning"] == "uniform_no_uturn"
    assert_turning_rows_equal_reference(Scenario(raw).engine)


def dead_end_line():
    """A line 0-1-2 with U-turns at 0 and 1; 3 and 4 hang off 2 as dead
    ends, whose only exit is the U-turn they do not allow, so the groups
    (2, 3) and (2, 4) have upstream routes and no downstream ones."""
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (2, 4), (4, 2)]
    net = TrafficNetwork(5, edges, {i: 1.0 for i in range(5)}, allow_uturn={0, 1})
    cells = {v: CellSpec(kind="highway", s_max=5, rho_max=16, a=1, b=1, c=1)
             for v in range(5)}
    return net, SimulationEngine(net, cells)


def test_turning_rows_equal_uniform_no_uturn_with_uturns_and_a_dead_end():
    net, eng = dead_end_line()
    assert (2, 3) in eng.group_edges
    assert len(eng._unbounded) > 0
    assert_turning_rows_equal_reference(eng)
    # a group without downstream routes has no budget: its routes send
    # their whole demand
    rho = np.full(net.n_routes, 3.0)
    s, _ = eng.cells.evaluate(rho, None)
    _, rec = engine_step(eng, 0, rho, InteractionRule("dpf"))
    into_dead_end = [i for i, r in enumerate(net.routes) if r.dst == 3]
    assert into_dead_end and np.array_equal(rec.q_out[into_dead_end], s[into_dead_end])


def test_run_equals_steps_on_signal_periods_without_a_short_common_cycle():
    # greens 89 and 97: periods 178 and 194 have an LCM of 17266 steps,
    # far beyond the run's 1250
    raw = json.loads(resources.files("ctmdesign.scenarios")
                     .joinpath("urban.json").read_text())
    raw["network"]["signals"]["14"]["green"] = 89
    raw["network"]["signals"]["16"]["green"] = 97
    raw["environment"] = {"kind": "none"}
    scen = Scenario(raw)
    eng = scen.engine
    rule = InteractionRule("dpf")
    rho0 = scen.initial_densities()
    via_run, via_step = AvgNetworkFlow(), AvgNetworkFlow()
    eng.run(rho0, 1250, rule, observers=(via_run,))
    rho = rho0
    for t in range(1250):
        rho_next, record = engine_step(eng, t, rho, rule)
        via_step(t, rho, record)
        rho = rho_next
    assert via_run.value() == via_step.value()


# ---------------------------------------------------------------------------
# engine properties on random networks of every single-population cell kind
# ---------------------------------------------------------------------------

Z4_KINDS = ("signalized_intersection", "uni_roundabout", "bi_roundabout")
RULES = ("dpf", "cpf", "priority", "cooperative")
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)


def cell_of(kind, arms):
    extra = {}
    if kind in ("bidirectional_interface", "pedestrian_square",
                "uni_roundabout", "bi_roundabout"):
        extra["d"] = 0.5
    if kind in ("simplified_intersection", "signalized_intersection"):
        extra["zeta"] = 0.1
    if kind in Z4_KINDS:
        extra["ccw"] = tuple(arms)
    return CellSpec(kind=kind, s_max=4, rho_max=20, a=0.8, b=0.9, c=1, **extra)


@st.composite
def networks(draw, hub_kind):
    """(engine, cells, schedules, densities): a ring 1..m with chords, plus
    a hub 0 of kind ``hub_kind`` on four ring nodes.  Every node has at
    least two neighbours, so the system is closed."""
    m = draw(st.integers(4, 7))
    pairs = {(i, i % m + 1) for i in range(1, m + 1)}
    pairs |= {(0, i) for i in draw(st.permutations(range(1, m + 1)))[:4]}
    for a, b in draw(st.lists(st.tuples(st.integers(1, m), st.integers(1, m)),
                              max_size=3)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = [e for a, b in pairs for e in ((a, b), (b, a))]
    lengths = draw(st.lists(st.floats(1.0, 3.0), min_size=m + 1, max_size=m + 1))
    net = TrafficNetwork(m + 1, edges, dict(enumerate(lengths)))
    cells, schedules = {}, {}
    for v in range(m + 1):
        arms = list(np.flatnonzero(net.adjacency[:, v]))
        kinds = KINDS if len(arms) == 4 else tuple(k for k in KINDS
                                                   if k not in Z4_KINDS)
        kind = hub_kind if v == 0 else draw(st.sampled_from(kinds))
        cells[v] = cell_of(kind, arms)
        if kind == "signalized_intersection":
            schedules[v] = SignalSchedule(
                ccw=tuple(arms), green=draw(st.integers(1, 6)),
                shift=draw(st.integers(0, 5)), t_real=2.88, v_real=50 / 3.6)
    rho = np.array(draw(st.lists(st.floats(0.0, 6.0), min_size=net.n_routes,
                                 max_size=net.n_routes)))
    eng = SimulationEngine(net, cells, schedules)
    return eng, cells, schedules, rho


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("hub_kind", KINDS)
@PROPERTY
@given(data=st.data(), t0=st.integers(0, 20))
def test_engine_invariants_on_random_networks(hub_kind, rule, data, t0):
    eng, _, _, rho = data.draw(networks(hub_kind))
    net = eng.network
    m0 = total_mass(DensityState(rho), net)
    for t in range(t0, t0 + 10):
        s, r = eng.cells.evaluate(rho, signal_la(eng, t))
        rho, rec = engine_step(eng, t, rho, InteractionRule(rule))
        assert np.all(rec.q_out >= 0) and np.all(rec.q_out <= s + 1e-12)
        # q_in of (u, v, w) is sum_x f[x -> w] q_x over the group (u, v)
        assert np.all(rec.q_in <= r + 1e-9)
        assert total_mass(DensityState(rho), net) == pytest.approx(
            m0, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("hub_kind", KINDS)
@PROPERTY
@given(data=st.data(), t=st.integers(0, 20))
def test_engine_matches_local_solvers_and_scalar_cells(hub_kind, data, t):
    eng, cells, schedules, rho = data.draw(networks(hub_kind))
    net = eng.network
    s, r = eng.cells.evaluate(rho, signal_la(eng, t))
    dens = {route: rho[i] for i, route in enumerate(net.routes)}
    for i, route in enumerate(net.routes):
        v = route.via
        signal = advance_signal(schedules[v], t, via=v) if v in schedules else None
        assert s[i] == pytest.approx(sending(cells[v], route, dens, signal))
        assert r[i] == pytest.approx(receiving(cells[v], route, dens))

    solvers = {
        "dpf": lambda p: solve_dpf(p)[1],
        "cpf": lambda p: solve_cpf(p, np.full(len(p.sendings),
                                              1.0 / len(p.sendings)))[1],
        "priority": solve_priority,
        "cooperative": solve_cooperative,
    }
    turn = TurningFractions.uniform_no_uturn(net)
    for rule, solve in solvers.items():
        q_out = eng.outflows(s, r, InteractionRule(rule))
        for u, v in eng.group_edges:
            ups = [i for i, x in enumerate(net.routes) if x.via == u and x.dst == v]
            downs = [j for j in net.routes_through(v) if net.routes[j].src == u]
            f = [[turn.fraction(net.routes[i], net.routes[j].dst)
                  for j in downs] for i in ups]
            problem = LocalProblem(s[ups], r[downs], f)
            assert q_out[ups] == pytest.approx(solve(problem), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("hub_kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_turning_rows_equal_uniform_no_uturn_on_random_networks(hub_kind, data):
    eng, _, _, _ = data.draw(networks(hub_kind))
    assert_turning_rows_equal_reference(eng)


@pytest.mark.parametrize("rule", ["dpf", "cooperative"])
@PROPERTY
@given(data=st.data())
def test_batch_on_the_default_programs_equals_single_runs(rule, data):
    # no per-replicate programs: every replicate of a batch reads the
    # signalized hub's default schedule
    eng, _, _, rho = data.draw(networks("signalized_intersection"))
    batch = np.stack([rho, 0.5 * rho, rho[::-1]])
    final = eng.run(batch, 30, InteractionRule(rule))
    for b in range(len(batch)):
        assert np.array_equal(eng.run(batch[b], 30, InteractionRule(rule)), final[b])


# ---------------------------------------------------------------------------
# group sums: x0 + (((x1 + x2) + x3) + ...), numpy's add.reduceat order up
# to 8 routes
# ---------------------------------------------------------------------------

def _random_group_sums(sizes, batch, seed):
    """(groups, x, the group sums of x) for random groups of ``sizes``."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    cuts = np.cumsum([0] + sizes)
    perm = rng.permutation(n)
    groups = sorted((perm[a:b] for a, b in zip(cuts[:-1], cuts[1:])), key=len, reverse=True)
    shape = (n,) if batch is None else (n, batch)
    # magnitudes over 16 decades: a sum in another order differs
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return groups, x, solvers._GroupSums(groups)(x)


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_fold(groups, x, got):
    _assert_same_bits(got, np.stack([group_sum(list(x[g])) for g in groups]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(1, 20), min_size=1, max_size=12),
       batch=st.sampled_from([None, 1, 3, 16]), seed=st.integers(0, 2**32 - 1))
def test_group_sums_equal_reduceat(sizes, batch, seed):
    groups, x, got = _random_group_sums(sizes, batch, seed)
    _assert_fold(groups, x, got)
    # the groups of up to 8 routes: numpy's add.reduceat adds them in the fold
    ptr = np.cumsum([0] + [len(g) for g in groups])[:-1]
    order = np.concatenate(groups)
    columns = [x] if batch is None else [x[:, b] for b in range(batch)]
    want = np.stack([np.add.reduceat(col[order], ptr) for col in columns], axis=-1)
    small = np.array([len(g) <= 8 for g in groups])
    _assert_same_bits(got[small], want.reshape(got.shape)[small])


@pytest.mark.parametrize("sizes", [[9], [16, 8, 1], [17, 17, 3], [129], [256, 200, 9, 2]])
def test_group_sums_equal_reduceat_past_the_pairwise_block(sizes):
    # past 8 routes add.reduceat sums pairwise, with 8 accumulators; the
    # group sums keep the fold at every size
    for seed in range(5):
        _assert_fold(*_random_group_sums(sizes, 4, seed))


# ---------------------------------------------------------------------------
# the engine's groups
# ---------------------------------------------------------------------------

def _network(name):
    if name == "dead-end":
        return dead_end_line()[0]
    if name == "grid":
        return intersection_grid()[0]
    raw = json.loads(resources.files("ctmdesign.scenarios")
                     .joinpath(f"{name}.json").read_text())
    return Scenario(raw).network


@pytest.mark.parametrize("name", ["urban", "highway", "dead-end", "grid"])
def test_one_pass_groups_equal_the_scan_of_every_route_per_edge(name):
    net = _network(name)
    edges, ups, downs = solvers._edge_groups(net)
    want = edge_groups(net)
    assert edges == [e for e, _, _ in want]
    assert [u.tolist() for u in ups] == [u for _, u, _ in want]
    assert [d.tolist() for d in downs] == [d for _, _, d in want]
    assert all(a.dtype == np.intp for a in ups + downs)
