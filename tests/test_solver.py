import fractions
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference_auction as basic_auction
import reference_certify as reference
from budget_flow.certify import certify
from budget_flow.cli import solution_to_text
from budget_flow.derived_graph import DerivedGraph
from budget_flow.instance import SolverConfig, generate, parse
from budget_flow.oracle import exact_opt
from budget_flow.reductions import PiecewiseEdge, PiecewiseInstance, split_piecewise
import budget_flow.solver as solver_mod
from budget_flow.solver import (
    RunStats,
    apply_cycle_bulk,
    cycle_geometry,
    geometric_limit,
    push_flow_cycle,
    push_flow_path,
    solve,
)
from budget_flow.state import ExactNumerics, Numerics, dual_bound, make_states
from conftest import (
    PHASE_CAP, FractionPrimal, btp, bts, build_cycle_state, move, random_cycle_args,
    random_simple_cycle, recompute_check, simulate_revolutions, values,
)

EPS4 = SolverConfig(epsilon=Fraction(1, 4), max_phases=PHASE_CAP)
EXACT = ExactNumerics()


def path_state(instance, config=EPS4):
    primal, dual, num = make_states(instance, config)
    graph = DerivedGraph(instance, primal, dual)
    return primal, dual, graph, graph.stats


def test_run_stats_list_only_bumped_counters():
    """`counts` adds a key on its first bump; `get` on a missing key adds none."""
    stats = RunStats()
    stats.counts["walk_steps"] += 2
    assert stats.get("phases") == 0 and stats.get("phases", 5) == 5
    assert stats.to_dict() == {"walk_steps": 2, "operations": 2}
    assert dict(stats.counts) == {"walk_steps": 2}


def test_aborted_run_prints_only_the_counters_it_bumped():
    """A run stopped before its first phase has counted only its heap build:
    the `max_phases` guard reads `phases` without adding a `stat phases 0`."""
    sol = solve(generate(seed=3, n=6, m=6, density=0.7),
                SolverConfig(epsilon=Fraction(1, 8), max_phases=0))
    assert not sol.terminated
    stat_lines = [line for line in solution_to_text(sol).splitlines() if line.startswith("stat ")]
    assert stat_lines == ["stat heap_updates 24", "stat operations 24"]


# -- push_flow_path ----------------------------------------------------------


def test_push_single_forward_edge():
    inst = btp([4], [6], [(0, 0, 5, 1)])
    primal, dual, graph, stats = path_state(inst)
    report = push_flow_path(graph, [0])
    assert values(primal, "flow") == [4]
    assert values(primal, "surplus") == [0]
    assert report.moved and report.touched_sinks == {0}


def test_push_path_rescales_across_back_edge():
    # amounts: min(4, 3*2/1)=4 forward; 4*(1/2)=2 pulled off the back edge
    inst = btp(
        [4, 9],
        [100, 1000],
        [(0, 0, 9, 1), (1, 0, 9, 2), (1, 1, 9, 1)],
    )
    primal, dual, graph, stats = path_state(inst)
    move(graph, 1, 3)
    push_flow_path(graph, [0, 1, 2])
    assert values(primal, "flow") == [4, 1, 2]
    assert values(primal, "surplus")[0] == 0


def test_push_path_forward_cap_strands_surplus():
    inst = bts(
        [4, 9],
        [100, 1000],
        [(0, 0, 9, 1, 1), (1, 0, 9, 2, None), (1, 1, 9, 1, None)],
    )
    primal, dual, graph, stats = path_state(inst)
    move(graph, 1, 3)
    push_flow_path(graph, [0, 1, 2])
    assert values(primal, "flow") == [1, Fraction(5, 2), Fraction(1, 2)]  # 1: capacity
    assert values(primal, "surplus")[0] == 3
    assert primal.edge_saturated(0)


def test_push_path_budget_clamp_on_final_sink():
    inst = btp([4], [6], [(0, 0, 5, 2)])
    primal, dual, graph, stats = path_state(inst)
    push_flow_path(graph, [0])
    assert values(primal, "flow") == [3]  # 6/2, not the full surplus
    assert values(primal, "surplus") == [1]
    assert primal.sink_saturated(0)


def test_push_path_from_a_source_without_surplus_moves_nothing():
    inst = btp([4], [6], [(0, 0, 5, 1)])
    primal, dual, graph, stats = path_state(inst)
    primal.surplus[0] = primal.zero
    assert not push_flow_path(graph, [0]).moved
    assert values(primal, "flow") == [0] and stats.get("flow_updates") == 0


def test_push_path_keeps_intermediate_sinks_tight():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(2, 3)
        edges = []
        for z in range(k):
            edges.append((z, z, 9, rng.randint(1, 5)))
            if z + 1 < k:
                edges.append((z + 1, z, 9, rng.randint(1, 5)))
        steps = list(range(len(edges)))  # the walk takes every edge in turn
        inst = btp([20] * k, [10**6] * k, edges)
        primal, dual, graph, stats = path_state(inst)
        for b in steps[1::2]:
            move(graph, b, rng.randint(1, 8))
        prices_in = sink_payments(primal)
        push_flow_path(graph, steps)
        for j in range(k - 1):  # every pass-through sink is price-neutral
            assert sink_payments(primal)[j] == prices_in[j]
        assert recompute_check(primal)


# -- exact units against plain Fractions ------------------------------------


def twin_graphs(instance):
    """Graphs on the exact state and on a `FractionPrimal`, from one instance."""
    graphs = []
    for fractions in (False, True):
        primal, dual, _ = make_states(instance, EPS4)
        if fractions:
            primal = FractionPrimal(instance)
        graphs.append(DerivedGraph(instance, primal, dual))
    return graphs


def state_values(graph) -> list:
    return [values(graph.primal, name) for name in ("flow", "surplus", "residual")]


def test_path_push_rescales_across_a_back_edge_and_at_the_budget():
    # edge 0's capacity 1 binds; 1*3/2 across the back edge is not whole, and
    # neither is the final sink's budget room 4/7: two rescales in one walk
    inst = bts([10, 10], [100, 4], [(0, 0, 9, 3, 1), (1, 0, 9, 2, None), (1, 1, 9, 7, None)])
    exact, ref = twin_graphs(inst)
    for graph in (exact, ref):
        move(graph, 1, 5)
        push_flow_path(graph, [0, 1, 2])
    assert exact.primal.scale == 14
    assert values(exact.primal, "flow") == [1, Fraction(7, 2), Fraction(4, 7)]
    assert state_values(exact) == state_values(ref)


def test_path_push_matches_the_fraction_push_on_random_walks():
    rng = random.Random(23)
    rescaled = 0
    for _ in range(300):
        k = rng.randint(1, 3)  # (forward, back) pairs before the final forward edge
        edges = []
        for z in range(k + 1):
            edges.append((z, z, 9, rng.randint(1, 7), rng.choice([None, rng.randint(1, 6)])))
            edges.append((z + 1, z, 9, rng.randint(1, 7), None))
        edges.pop()  # the last sink has no back edge
        steps = list(range(len(edges) - (rng.random() < 0.3)))  # may end at a source
        inst = bts([rng.randint(1, 30) for _ in range(k + 1)],
                   [rng.randint(1, 40) for _ in range(k + 1)], edges)
        graphs = twin_graphs(inst)
        back_flows = [Fraction(rng.randint(1, 12), rng.randint(1, 5)) for _ in range(k)]
        for graph in graphs:
            for b, f in zip(steps[1::2], back_flows):
                move(graph, b, f)
        scale = graphs[0].primal.scale
        for graph in graphs:
            push_flow_path(graph, steps)
        rescaled += graphs[0].primal.scale != scale
        assert state_values(graphs[0]) == state_values(graphs[1])
    assert rescaled > 50  # most pushes divided into a new denominator


def test_finite_cycle_push_rescales_between_its_two_conversions():
    # a cycle pair's forward amount is converted and moved, then its back
    # amount; a rescale at the second conversion must not stale the first
    rng = random.Random(31)
    between = 0
    for _ in range(400):
        start = rng.getstate()
        inst, primal, dual, graph, stats, cycle = random_simple_cycle(rng)
        rng.setstate(start)
        ref_graph = random_simple_cycle(rng, fractions=True)[3]
        if cycle_geometry(primal, cycle, primal.value(primal.surplus[0])).r_min is None:
            continue
        rescales = []

        def recording(x, units=primal.units):
            scale = primal.scale
            out = units(x)
            rescales.append(primal.scale != scale)
            return out

        primal.units = recording
        push_flow_cycle(graph, cycle)
        push_flow_cycle(ref_graph, cycle)
        assert state_values(graph) == state_values(ref_graph)
        between += any(rescales[1::2])  # odd conversions are the back amounts
    assert between > 20


def test_supply_and_budget_identities_hold_after_every_phase():
    checked, scales = 0, []

    def monitor(graph):
        nonlocal checked
        assert recompute_check(graph.primal), graph.stats.get("phases")
        checked += 1
        scales.append(graph.primal.scale)

    for seed in range(10):
        inst = generate(seed=seed, n=6, m=6, density=0.8, u_range=(1, 6))
        config = SolverConfig(epsilon=Fraction(1, 8), max_phases=PHASE_CAP)
        sol = solve(inst, config, on_iteration=monitor)
        assert sol.terminated and sol.certificate.passed
    assert checked > 100 and max(scales) > 1  # checked across rescales


def test_float_states_refuse_duals_beyond_the_float_range():
    # each number fits in a float, but (1 + eps) * max c/p does not
    inst = btp([1], [1], [(0, 0, 17 * 10**307, 1)])
    with pytest.raises(ValueError, match="dual bound beyond the float range"):
        make_states(inst, SolverConfig(epsilon=Fraction(1, 2), numeric_mode="float"))
    make_states(inst, SolverConfig(epsilon=Fraction(1, 2)))  # exact mode has no such limit


def test_float_states_refuse_a_dual_value_bound_beyond_the_float_range():
    # the supply term 10**308 and the budget term D = 5/4 * 10**308 each fit
    # in a float; only their sum does not
    inst = btp([1], [1], [(0, 0, 10**308, 1)])
    with pytest.raises(ValueError, match="dual value bound beyond the float range"):
        make_states(inst, SolverConfig(epsilon=Fraction(1, 4), numeric_mode="float"))


# -- cycle geometry ----------------------------------------------------------


def test_geometric_limit_shrinking_cycle():
    # partial sums 2 - 2^-r against cap 19/10
    assert geometric_limit(Fraction(1), Fraction(1, 2), Fraction(19, 10), EXACT) == 3


def test_geometric_limit_converged_series_is_unbounded():
    assert geometric_limit(Fraction(1), Fraction(1, 2), Fraction(2), EXACT) is None


def test_geometric_limit_unit_ratio():
    assert geometric_limit(Fraction(1), Fraction(1), Fraction(5, 2), EXACT) == 1


def test_geometric_limit_not_even_one_revolution():
    assert geometric_limit(Fraction(5), Fraction(2), Fraction(3), EXACT) == -1


def test_geometric_limit_matches_naive_scan():
    rng = random.Random(11)
    for _ in range(300):
        first = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        cap = Fraction(rng.randint(1, 60), rng.randint(1, 4))
        r = geometric_limit(first, q, cap, EXACT)
        total = Fraction(0)
        naive = -1
        for t in range(64):
            total += first * q**t
            if total <= cap:
                naive = t
            else:
                break
        else:
            # never exceeded within 64 terms: unbounded when q < 1 and the
            # limit fits, otherwise just a large finite answer
            if q < 1 and first / (1 - q) <= cap:
                assert r is None
                continue
            assert r is not None and r >= 63
            continue
        assert r == naive


def test_geometric_limit_accepts_amounts_below_float_tolerance():
    # positive but under float_tol: a converging series, not an error
    num = Numerics(tol=1e-9)
    assert geometric_limit(1.7e-10, 0.5, 10.0, num) is None
    with pytest.raises(ValueError):
        geometric_limit(0.0, 0.5, 10.0, num)
    with pytest.raises(ValueError):
        geometric_limit(Fraction(0), Fraction(1, 2), Fraction(10), EXACT)


def test_float_solve_survives_cycle_entered_with_dust():
    # a cycle entered with surplus 1.9e-8 whose per-revolution amount at a
    # later edge falls below float_tol (1.7e-10); the float solve used to raise
    text = (Path(__file__).parent / "data" / "float_dust_cycle.btp").read_text()
    config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode="float", max_phases=PHASE_CAP)
    sol = solve(parse(text), config)
    assert sol.terminated
    assert sol.certificate.passed


def test_float_first_price_below_tolerance_still_counts_as_a_price():
    # prices near 1e9 make the first sink price eps * min(c/p) about 3e-10,
    # below float_tol; a price tested against the tolerance read as no price
    # and was re-initialised on every phase, so the float run never ended
    text = (Path(__file__).parent / "data" / "float_tiny_price.btp").read_text()
    inst = parse(text)
    runs = {
        mode: solve(inst, SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode,
                                       max_phases=1000))
        for mode in ("exact", "float")
    }
    assert runs["float"].terminated and runs["exact"].terminated
    assert runs["float"].certificate.passed
    for key in ("phases", "beta_rises"):
        assert runs["float"].stats.get(key) == runs["exact"].stats.get(key)


CS_SOURCE_DUST = Path(__file__).parent / "data" / "float_cs_source_dust.btp"


def test_exact_solve_certifies_the_cs_source_dust_instance():
    # dense-float benchmark item 222 at seed 202: btp 12x12, 104 edges
    config = SolverConfig(epsilon=Fraction(1, 8), max_phases=PHASE_CAP)
    sol = solve(parse(CS_SOURCE_DUST.read_text()), config)
    assert sol.terminated
    assert sol.certificate.passed and sol.certificate.rigorous
    assert sol.certificate.cs_source_worst == 0


def test_float_solve_certifies_the_cs_source_dust_instance():
    config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode="float", max_phases=PHASE_CAP)
    sol = solve(parse(CS_SOURCE_DUST.read_text()), config)
    assert sol.terminated
    assert sol.certificate.cs_source_worst <= config.float_tol
    assert sol.certificate.passed


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_duals_stay_within_the_bound_that_scales_the_float_tolerance(mode):
    # float runs compare within float_tol / dual_bound; that is sound only if
    # alpha_i <= best profit out of i, gamma_e <= c_e and beta_j < (1+eps) max c/p
    for seed in range(40):
        inst = generate(seed=seed, n=5, m=5, density=0.7, p_range=(1, 3),
                        u_range=(1, 8) if seed % 2 else None)
        eps = Fraction(1, 4) if seed % 4 < 2 else Fraction(1, 8)
        sol = solve(inst, SolverConfig(epsilon=eps, numeric_mode=mode, max_phases=PHASE_CAP))
        assert sol.terminated
        top_rate = max(Fraction(spec.profit, spec.price) for spec in inst.edges)
        assert all(b < (1 + eps) * top_rate for b in sol.beta)
        for i, a in enumerate(sol.alpha):
            assert a <= max(inst.edges[e].profit for e in inst.edges_of_source(i))
        gamma = dict(sol.certificate.gammas)
        assert all(g <= inst.edges[e].profit for e, g in gamma.items())
        assert max(sol.alpha + sol.beta + list(gamma.values())) <= dual_bound(inst, eps)


def sink_payments(primal) -> list:
    """Price-weighted inflow of each sink, read through the accessor."""
    inst, flow = primal.instance, values(primal, "flow")
    return [sum(inst.edges[e].price * flow[e] for e in inst.edges_of_sink(j))
            for j in range(inst.m)]


def entry_surplus(primal):
    return primal.value(primal.surplus[0])


def test_cycle_geometry_ratios_and_limits():
    inst, primal, dual, graph, stats, cycle = build_cycle_state(
        prices_fwd=[1, 1], prices_back=[2, 1], back_flows=[100, 100], surplus=4
    )
    geom = cycle_geometry(primal, cycle, entry_surplus(primal))
    ratios = [t / b for b, t in zip(geom.cum_before, geom.cum_through)]
    assert ratios == [Fraction(1, 2), Fraction(1)]
    assert geom.rho_cycle == Fraction(1, 2)
    assert geom.cum_before == (Fraction(1), Fraction(1, 2))
    assert geom.cum_through == (Fraction(1, 2), Fraction(1, 2))
    assert geom.r_min is None  # nothing binds the converged series


def test_cycle_geometry_rejects_nonsimple():
    inst, primal, dual, graph, stats, cycle = build_cycle_state(
        prices_fwd=[1, 1], prices_back=[2, 1], back_flows=[100, 100], surplus=4
    )
    with pytest.raises(ValueError):
        cycle_geometry(primal, cycle + cycle, entry_surplus(primal))


def test_cycle_geometry_rejects_a_cycle_it_cannot_push():
    inst, primal, dual, graph, stats, cycle = build_cycle_state(
        prices_fwd=[1, 1], prices_back=[2, 1], back_flows=[100, 100], surplus=4
    )
    f0, b0, f1, b1 = cycle
    with pytest.raises(ValueError, match="edges do not form an alternating cycle"):
        cycle_geometry(primal, [f0, b1, f1, b0], entry_surplus(primal))
    with pytest.raises(ValueError, match="cycle entry needs positive surplus"):
        cycle_geometry(primal, cycle, Fraction(0))


def capacity_pairs(primal, cycle):
    """(cum, cap) of each capacity on the cycle, as numbers: the ratio that
    reaches it and its value; and the cycle ratio."""
    num, price = primal.num, primal.instance.price
    acc, pairs = num.value(1), []
    for fwd, back in zip(cycle[::2], cycle[1::2]):
        residual = primal.forward_residual(fwd)
        if residual is not None:
            pairs.append((acc, primal.value(residual)))
        acc = acc * (num.value(price[fwd]) / price[back])
        pairs.append((acc, primal.value(primal.flow[back])))
    return pairs, acc


def per_capacity_r_min(primal, cycle, s):
    """Reference revolution limit: one `geometric_limit` per capacity, with the
    per-revolution amount s*cum reaching it, and the least of the finite
    answers (None when every answer is None)."""
    pairs, rho = capacity_pairs(primal, cycle)
    limits = [geometric_limit(s * cum, rho, cap, primal.num) for cum, cap in pairs]
    return min((lim for lim in limits if lim is not None), default=None)


def meets_least_room(primal, cycle, s) -> bool:
    """Whether the entry surplus times the revolution sum equals the least room
    exactly at the exact limit: there a float run may round to either side."""
    pairs, rho = capacity_pairs(primal, cycle)
    room = min(cap / cum for cum, cap in pairs)
    r = per_capacity_r_min(primal, cycle, s)
    if r is None:
        return s / (1 - rho) == room
    return s * sum(rho**t for t in range(r + 1)) == room


def float_twin(primal):
    """A float-mode primal state holding the same flows and surpluses."""
    twin = make_states(primal.instance, SolverConfig(numeric_mode="float"))[0]
    twin.flow = [float(x) for x in values(primal, "flow")]
    twin.surplus = [float(x) for x in values(primal, "surplus")]
    return twin


def test_cycle_geometry_limit_is_the_least_per_capacity_limit(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return geometric_limit(*args)

    monkeypatch.setattr(solver_mod, "geometric_limit", counting)
    rng = random.Random(28)
    seen = {"exact": set(), "float": set()}
    for _ in range(600):
        _, primal, *_, cycle = random_simple_cycle(rng)
        for mode, state in (("exact", primal), ("float", float_twin(primal))):
            s = entry_surplus(state)
            calls.clear()
            r_min = cycle_geometry(state, cycle, s).r_min
            assert len(calls) == 1
            # float rounding of s*cum against cap and of s against cap/cum may
            # part only where the exact values meet
            assert r_min == per_capacity_r_min(state, cycle, s) or (
                mode == "float" and meets_least_room(primal, cycle, entry_surplus(primal)))
            seen[mode].add(r_min if r_min is None or r_min < 1 else "positive")
    assert seen == {mode: {-1, 0, "positive", None} for mode in seen}


# -- push_flow_cycle ---------------------------------------------------------


def test_cycle_push_drains_surplus_when_nothing_binds():
    inst, primal, dual, graph, stats, cycle = build_cycle_state(
        prices_fwd=[1, 1], prices_back=[2, 1], back_flows=[100, 100], surplus=4
    )
    before = sink_payments(primal)
    push_flow_cycle(graph, cycle)
    assert entry_surplus(primal) == 0
    assert values(primal, "flow")[cycle[0]] == 8  # 4 / (1 - 1/2)
    assert sink_payments(primal) == before  # budgets unchanged at every sink on the cycle


def test_cycle_push_without_entry_surplus_moves_nothing():
    inst, primal, dual, graph, stats, cycle = build_cycle_state(
        prices_fwd=[1, 1], prices_back=[2, 1], back_flows=[3, 5], surplus=0
    )
    before = values(primal, "flow")
    assert not push_flow_cycle(graph, cycle).moved
    assert values(primal, "flow") == before and stats.get("cycle_pushes") == 0


def test_cycle_push_zeroes_limiting_back_edge():
    inst, primal, dual, graph, stats, cycle = build_cycle_state(
        prices_fwd=[1, 1], prices_back=[2, 1], back_flows=[Fraction(5, 2), 100], surplus=4
    )
    geom = cycle_geometry(primal, cycle, entry_surplus(primal))
    assert geom.r_min == 0
    push_flow_cycle(graph, cycle)
    assert values(primal, "flow")[cycle[1]] == 0
    assert graph._stale[0] == set()  # a cleared back edge is no longer stale
    # the final clamped revolution returns 1/2 past the zeroed edge, so the
    # 4*(1/2) bulk remainder net of one clamped unit lands back at the entry
    assert entry_surplus(primal) == Fraction(3, 2)


def test_cycle_push_unit_ratio_linear_limit():
    inst, primal, dual, graph, stats, cycle = build_cycle_state(
        prices_fwd=[2, 3], prices_back=[3, 2], back_flows=[100, Fraction(5, 2)], surplus=1
    )
    geom = cycle_geometry(primal, cycle, entry_surplus(primal))
    assert geom.rho_cycle == 1
    # through back edge 1 each revolution carries 2/3*3/2 = 1; cap 5/2 -> r=1
    per_rev = entry_surplus(primal) * geom.cum_through[1]
    cap = primal.value(primal.flow[cycle[3]])
    assert geometric_limit(per_rev, geom.rho_cycle, cap, EXACT) == 1
    assert geom.r_min == 1
    push_flow_cycle(graph, cycle)
    assert values(primal, "flow")[cycle[3]] == 0


def test_cycle_bulk_matches_revolution_simulation():
    rng = random.Random(99)
    compared = 0
    for _ in range(1200):
        inst, primal, dual, graph, stats, cycle = random_simple_cycle(rng)
        s = entry_surplus(primal)
        geom = cycle_geometry(primal, cycle, s)
        if geom.r_min is None or geom.r_min > 16 or geom.r_min < 0:
            continue
        expected, _ = simulate_revolutions(
            inst, values(primal, "flow"), cycle, s, geom.r_min + 1
        )
        from budget_flow.solver import PushReport

        apply_cycle_bulk(graph, geom, PushReport())
        assert values(primal, "flow") == expected
        compared += 1
    assert compared >= 100


def test_cycle_push_postcondition():
    rng = random.Random(7)
    for _ in range(200):
        inst, primal, dual, graph, stats, cycle = random_simple_cycle(rng)
        push_flow_cycle(graph, cycle)
        flow = values(primal, "flow")
        cleared = entry_surplus(primal) == 0
        zeroed = any(flow[b] == 0 for b in cycle[1::2])
        saturated = any(primal.edge_saturated(f) for f in cycle[::2])
        assert cleared or zeroed or saturated
        assert stats.get("surplus_clears") == cleared  # one count per drained entry
        for f, b in zip(cycle[::2], cycle[1::2]):
            assert flow[b] >= 0
            cap = inst.edges[f].capacity
            if cap is not None:
                assert flow[f] <= cap


# -- the exact cycle push against plain Fractions ----------------------------


def record_moves(primal) -> list:
    """From now on, each flow move on `primal` as (edge, amount as a number)."""
    moves, add_flow = [], primal.add_flow

    def recording(e, delta):
        add_flow(e, delta)
        moves.append((e, primal.value(delta)))

    primal.add_flow = recording
    return moves


def scale_after(scale, moves):
    """The shared denominator after `moves`: each amount, converted to the
    state's units, needs the least factor that makes it whole."""
    for _, amount in moves:
        scale *= (amount * scale).denominator
    return scale


def test_time_limit_fails_a_loop_that_never_ends(time_limit):
    with pytest.raises(pytest.fail.Exception, match="time limit of 0.05 s exceeded"):
        with time_limit(0.05):
            while True:
                pass


def exact_push_against_fractions(*args):
    """One cycle push on the exact state and on a `FractionPrimal`, both built
    by `build_cycle_state(*args)`.  Their geometry, every moved amount and the
    final values agree, and the exact `scale` is the one those moves need.
    Returns the exact geometry."""
    _, exact, _, graph, _, cycle = build_cycle_state(*args)
    _, ref, _, ref_graph, _, _ = build_cycle_state(*args, fractions=True)
    geom = cycle_geometry(exact, cycle, exact.rational(exact.surplus[0]))
    ref_geom = cycle_geometry(ref, cycle, ref.rational(ref.surplus[0]))
    assert geom.r_min == ref_geom.r_min and geom.rho_cycle == ref_geom.rho_cycle
    assert geom.cum_before == ref_geom.cum_before and geom.cum_through == ref_geom.cum_through
    scale, moved, ref_moved = exact.scale, record_moves(exact), record_moves(ref)
    push_flow_cycle(graph, cycle)
    push_flow_cycle(ref_graph, cycle)
    assert moved and moved == ref_moved
    assert exact.scale == scale_after(scale, ref_moved)
    assert state_values(graph) == state_values(ref_graph)
    return geom


CYCLE_REGIMES = {
    # name: (build_cycle_state arguments, rho_cycle, r_min)
    "shrinks and converges": (([1, 1], [2, 1], [100, 100], 4), Fraction(1, 2), None),
    "shrinks to a limit": (([1, 1], [2, 1], [Fraction(13, 4), 100], 4), Fraction(1, 2), 1),
    "unit ratio": (([2, 3], [3, 2], [100, Fraction(5, 2)], 1), 1, 1),
    "grows to a limit": (([3, 2], [1, 2], [1000, 40], 1), 3, 2),
    "grows, no revolution fits": (([3, 2], [1, 2], [6, 1000], 5), 3, -1),
    # a room equal to s * G(r_min): the bulk update alone pins the edge
    "capacity equals the room": (([1, 1], [2, 1], [100, 100], 4, [6, None]), Fraction(1, 2), 1),
    "back flow equals the room": (([1, 1], [2, 1], [Fraction(7, 2), 100], 4), Fraction(1, 2), 2),
    "grows, back flow equals the room": (([3, 2], [1, 2], [1000, 39], 1), 3, 2),
}


@pytest.mark.parametrize("regime", sorted(CYCLE_REGIMES))
def test_exact_cycle_push_matches_fractions_in_every_regime(regime, time_limit):
    args, rho, r_min = CYCLE_REGIMES[regime]
    with time_limit(5):
        geom = exact_push_against_fractions(*args)
    assert geom.rho_cycle == rho and geom.r_min == r_min


def test_exact_cycle_push_matches_fractions_on_random_cycles(time_limit):
    rng = random.Random(33)
    seen = set()
    with time_limit(10):
        for _ in range(400):
            geom = exact_push_against_fractions(*random_cycle_args(rng))
            rho = geom.rho_cycle
            finite = "none" if geom.r_min is None else "-1" if geom.r_min < 0 else "fits"
            seen.add(("<" if rho < 1 else "=" if rho == 1 else ">", finite))
    assert seen >= {("<", "none"), ("<", "fits"), ("<", "-1"), ("=", "fits"),
                    (">", "fits"), (">", "-1")}


def test_exact_cycle_push_runs_no_fraction_code(time_limit):
    """An exact cycle push computes on the state's ints and `Ratio`s: no
    function of the `fractions` module runs, construction included."""
    calls, rescaled = [], 0

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    rng = random.Random(12)
    with time_limit(10):
        states = [random_simple_cycle(rng) for _ in range(150)]  # built with Fractions
        r_mins = {cycle_geometry(s[1], s[-1], s[1].value(s[1].surplus[0])).r_min for s in states}
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for _, primal, _, graph, _, cycle in states:
                scale = primal.scale
                push_flow_cycle(graph, cycle)
                rescaled += primal.scale != scale
        finally:
            sys.setprofile(previous)
    assert calls == []
    assert {None, -1, 0} <= r_mins and max(r for r in r_mins if r is not None) > 0
    assert rescaled > 20


# -- solve -------------------------------------------------------------------


def piecewise_split(seed: int):
    """The split of an 8x8 concave profile of 1-4 segments of length 2 per edge."""
    rng = random.Random(seed)
    edges = tuple(
        PiecewiseEdge(i, j, rng.randint(1, 6),
                      tuple(sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 4))),
                                   reverse=True)))
        for i in range(8) for j in range(8) if rng.random() < 0.7
    )
    return split_piecewise(PiecewiseInstance(
        tuple(rng.randint(1, 10) for _ in range(8)), tuple(rng.randint(1, 20) for _ in range(8)),
        2, edges))[0]


@pytest.mark.parametrize("shape", ["dense", "piecewise"])
def test_an_exact_run_builds_no_fraction_before_its_output(shape, monkeypatch):
    """From the start of an exact `solve` to its last `on_iteration` call no
    `Fraction` is built: prices, flows and cycle pushes stay on ints and
    `Ratio`s, and only the returned solution converts to Fractions."""
    if shape == "dense":
        inst = generate(seed=1, n=10, m=10, density=0.7, u_range=(1, 8))
    else:
        inst = piecewise_split(5)
    config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode="exact", max_phases=PHASE_CAP)
    built, at_iteration = [0], []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    sol = solve(inst, config, on_iteration=lambda graph: at_iteration.append(built[0]))
    monkeypatch.undo()
    assert sol.terminated and sol.certificate.passed
    assert sol.stats.get("beta_rises") > 0
    assert shape == "dense" or sol.stats.get("cycle_pushes") > 0
    assert len(at_iteration) > 10 and at_iteration[-1] == 0
    assert built[0] > 0  # the counter sees the output's Fractions


def test_solve_bts_capacity_binds():
    inst = bts([5], [10], [(0, 0, 3, 2, 3)])
    sol = solve(inst, EPS4)
    assert sol.terminated
    assert sol.flow == [3]
    assert sol.certificate.passed
    assert sol.certificate.gammas  # capacity dual supports the certificate


def test_solve_matches_basic_auction_verdict():
    inst = btp([10, 10], [10], [(0, 0, 2, 1), (1, 0, 5, 2)])
    sol = solve(inst, EPS4)
    assert sol.terminated
    res = basic_auction.run(inst, EPS4)
    cert_basic = certify(
        inst, list(res.primal.flow), list(res.dual.alpha), list(res.dual.beta), Fraction(1, 4)
    )
    assert sol.certificate.passed and cert_basic.passed


def test_solve_random_instances_reach_factor():
    for seed in range(25):
        try:
            inst = generate(seed=seed, n=3, m=3, density=0.9, u_range=(1, 5))
        except ValueError:
            continue
        eps = Fraction(1, 10)
        sol = solve(inst, SolverConfig(epsilon=eps, max_phases=20000))
        assert sol.terminated
        opt, _ = exact_opt(inst)
        assert sol.certificate.primal_value >= (1 - eps) * opt


def test_solve_zero_profit_instance():
    inst = btp([3], [5], [(0, 0, 0, 1)])
    sol = solve(inst, EPS4)
    assert sol.terminated
    assert sol.certificate.primal_value == 0
    assert sol.stats.get("phases", 0) == 0
    assert sol.certificate.passed  # vacuous: dual is zero too


def test_monitored_invariants_every_iteration():
    eps = Fraction(1, 4)
    for seed in (1, 6, 13, 28, 40):
        try:
            inst = generate(seed=seed, n=4, m=4, density=0.8, u_range=(1, 5))
        except ValueError:
            continue
        last_beta = [Fraction(0)] * inst.m
        tight: set[int] = set()

        def monitor(graph):
            flow = values(graph.primal, "flow")
            alpha, beta = values(graph.dual, "alpha"), values(graph.dual, "beta")
            paid = [Fraction(0)] * inst.m
            shipped = [Fraction(0)] * inst.n
            for e, spec in enumerate(inst.edges):
                assert flow[e] >= 0
                if spec.capacity is not None:
                    assert flow[e] <= spec.capacity
                paid[spec.dst] += spec.price * flow[e]
                shipped[spec.src] += flow[e]
            for i in range(inst.n):
                assert shipped[i] <= inst.supply[i]
            for j in range(inst.m):
                assert paid[j] <= inst.budget[j]
                if paid[j] < inst.budget[j]:
                    assert beta[j] == 0
                assert beta[j] >= last_beta[j]
                last_beta[j] = beta[j]
                if paid[j] == inst.budget[j]:
                    tight.add(j)
                else:
                    assert j not in tight  # tight sinks stay tight
            gammas = reference.reconstruct_gamma(inst, flow, alpha, beta)
            for e, g in gammas.items():
                if g > 0:
                    assert flow[e] == inst.edges[e].capacity
            for e, spec in enumerate(inst.edges):
                bound = spec.profit - spec.price * beta[spec.dst] - gammas.get(e, 0)
                assert alpha[spec.src] >= bound
                if flow[e] > 0:
                    slack = (
                        spec.profit
                        - alpha[spec.src]
                        - spec.price * beta[spec.dst]
                        - gammas.get(e, 0)
                    )
                    assert abs(slack) <= eps * spec.profit

        sol = solve(inst, SolverConfig(epsilon=eps, max_phases=20000), on_iteration=monitor)
        assert sol.terminated and sol.certificate.passed


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_valuation_exists_exactly_on_positive_flow(mode):
    # a price rise marks an in-edge stale by reading its flow as a truth value,
    # which is sound only while every flow is exactly zero or positive
    stale_seen = 0
    for seed in range(6):
        try:
            inst = generate(seed=seed, n=5, m=5, density=0.8,
                            u_range=(1, 5) if seed % 2 else None)
        except ValueError:
            continue

        def monitor(graph):
            nonlocal stale_seen
            phase, num = graph.stats.get("phases"), graph.num
            flow = values(graph.primal, "flow")
            for e, f in enumerate(flow):
                assert f == 0 or num.is_pos(f), (phase, e)
            for stale in graph._stale:
                assert all(num.is_pos(flow[e]) for e in stale), phase
                stale_seen += len(stale)

        config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
        assert solve(inst, config, on_iteration=monitor).terminated
    assert stale_seen > 0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_beta_strictly_rises_with_level(mode):
    # the back-edge test compares integer levels in place of prices, which is
    # sound only while each level has one price and a higher level a higher one
    levels_seen = 0
    for seed in range(6):
        try:
            inst = generate(seed=seed, n=5, m=5, density=0.8,
                            u_range=(1, 5) if seed % 2 else None)
        except ValueError:
            continue
        last = [(0, 0)] * inst.m

        def monitor(graph):
            nonlocal levels_seen
            dual, phase = graph.dual, graph.stats.get("phases")
            for j, (level, beta) in enumerate(zip(dual.level, values(dual, "beta"))):
                last_level, last_beta = last[j]
                assert level >= last_level, (phase, j)
                if level == last_level:
                    assert beta == last_beta, (phase, j)
                else:
                    assert beta > last_beta, (phase, j)
                    levels_seen += 1
                last[j] = (level, beta)

        config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
        assert solve(inst, config, on_iteration=monitor).terminated
    assert levels_seen > 0


def test_rise_counter_stays_within_bound():
    from budget_flow.instance import ceil_log, diagnostics

    for seed in (2, 9, 17, 31):
        try:
            inst = generate(seed=seed, n=4, m=4, density=0.9)
        except ValueError:
            continue
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            sol = solve(inst, SolverConfig(epsilon=eps, max_phases=50000))
            assert sol.terminated
            try:
                diag = diagnostics(inst, eps)
            except ValueError:
                continue
            assert sol.stats.get("beta_rises") <= diag.beta_rise_bound
            # each sink's rises from its returned price: beta_j = beta0_j (1+eps)^r_j
            per_sink_bound = ceil_log(diag.U, 1 + eps)
            rises = []
            for j in range(inst.m):
                rates = [Fraction(inst.edges[e].profit, inst.edges[e].price)
                         for e in inst.edges_of_sink(j) if inst.edges[e].profit > 0]
                r, price = 0, eps * min(rates, default=0)
                if sol.beta[j] > 0:
                    while price < sol.beta[j]:
                        price *= 1 + eps
                        r += 1
                    assert price == sol.beta[j], (seed, eps, j)
                assert r <= per_sink_bound, (seed, eps, j)
                rises.append(r)
            assert sum(rises) == sol.stats.get("beta_rises")


def test_solve_abort_flag_when_capped():
    inst = generate(seed=3, n=4, m=4, density=0.9)
    sol = solve(inst, SolverConfig(epsilon=Fraction(1, 10), max_phases=1))
    assert not sol.terminated


def test_solution_output_fields():
    inst = bts([5], [10], [(0, 0, 3, 2, 3)])
    sol = solve(inst, EPS4)
    assert sol.terminated
    stats = sol.stats.to_dict()
    assert "operations" in stats
    assert stats["phases"] >= 1


def test_beta_update_pass_full_scan_initializes_saturated_sink():
    from budget_flow.solver import beta_update_pass

    inst = btp([9], [4], [(0, 0, 3, 1)])
    primal, dual, graph, stats = path_state(inst)
    move(graph, 0, 4)
    risen = beta_update_pass(graph, range(inst.m))
    assert risen == [0]
    assert dual.value(dual.beta[0]) == Fraction(3, 4)  # eps * min(c/p) with eps = 1/4
    # second pass stalls: the in-flow is now one level down, a back edge
    assert beta_update_pass(graph, range(inst.m)) == []
