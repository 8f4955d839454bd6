import copy
import heapq
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budget_flow.derived_graph import CYCLE, PATH, STALLED, TWO_CYCLE, DerivedGraph
from budget_flow.instance import SolverConfig, generate, parse
from budget_flow.reductions import PiecewiseEdge, PiecewiseInstance, split_piecewise
import budget_flow.solver as solver_mod
from budget_flow.state import PrimalState, Ratio, make_states
from budget_flow.cli import solution_to_text
from conftest import PHASE_CAP, btp, bts, move, values
from reference_sweep import FullSweepGraph, PromotionLog

EPS4 = SolverConfig(epsilon=Fraction(1, 4))


def fresh_graph(instance, config=EPS4):
    primal, dual, _ = make_states(instance, config)
    return primal, dual, DerivedGraph(instance, primal, dual)


def key(dual, e):
    """Edge e's heap key c - p*beta, recomputed from the dual's beta value."""
    inst = dual.instance
    return inst.profit[e] - inst.price[e] * dual.value(dual.beta[inst.dst[e]])


def refresh(graph, i):
    """Rebuild source i's preferred edge if it is dirty, as walks and sweeps do."""
    if i in graph._dirty:
        graph.rebuild_preferred(i)


def test_rebuild_preferred_picks_best_key():
    # keys: 10-2*1=8 and 9-1*2=7
    inst = btp([5], [100, 100], [(0, 0, 10, 2), (0, 1, 9, 1)])
    primal, dual, graph = fresh_graph(inst)
    graph.raise_beta(0, Fraction(1))
    graph.raise_beta(1, Fraction(2))
    assert graph.rebuild_preferred(0) == 0
    assert dual.value(dual.alpha[0]) == 8


def test_rebuild_preferred_tie_breaks_to_lowest_sink():
    inst = btp([5], [9, 9, 9, 9], [(0, 1, 5, 1), (0, 3, 5, 1)])
    primal, dual, graph = fresh_graph(inst)
    e = graph.rebuild_preferred(0)
    assert inst.edges[e].dst == 1


def test_rebuild_preferred_exact_key_breaks_float_ties():
    # keys 1 (sink 0) and 2 - (10**20 - 1)/10**20 = 1 + 10**-20 (sink 1): one float
    inst = btp([5], [100, 100], [(0, 0, 1, 1), (0, 1, 2, 10**20 - 1)])
    primal, dual, graph = fresh_graph(inst)
    graph.raise_beta(1, Fraction(1, 10**20))
    keys = [key(dual, e) for e in range(2)]
    assert keys[1] > keys[0] and float(keys[1]) == float(keys[0])
    refresh(graph, 0)
    # the float tie must not fall through to the sink index, which favours sink 0
    assert graph.preferred[0] == 1
    assert dual.value(dual.alpha[0]) == keys[1]


def test_keys_beyond_the_float_range_tie_through_the_exact_key():
    # both keys read -inf as floats; edge 0 enters the lower sink and is pushed
    # first, so only the exact key can put edge 1 on top
    big = 10**400
    inst = btp([5], [9, 9], [(0, 0, big, 1), (0, 1, big + 1, 1)])
    primal, dual, graph = fresh_graph(inst)
    assert [entry[0] for entry in graph._heaps[0]] == [-math.inf, -math.inf]
    assert graph.preferred[0] == 1
    assert dual.value(dual.alpha[0]) == big + 1


def priced_graph(instance, betas):
    """A graph built after the sinks in `betas` got their first price."""
    primal, dual, _ = make_states(instance, EPS4)
    for j, beta in betas.items():
        dual.raise_beta(j, beta)
    return primal, dual, DerivedGraph(instance, primal, dual)


def heap_order(graph, i):
    """Edge order of source i's heap, read by popping a copy."""
    heap = list(graph._heaps[i])
    return [heapq.heappop(heap)[3] for _ in range(len(heap))]


def test_equal_exact_keys_in_different_ratios_fall_through_to_the_sink_index():
    # edge 0 (sink 1): 2 - 4*(1/4) = 4/4; edge 1 (sink 0): 2 - 2*(1/2) = 2/2.
    # Edge 0 is pushed first, so a tie read as unequal would leave it on top.
    inst = btp([5], [9, 9], [(0, 1, 2, 4), (0, 0, 2, 2)])
    primal, dual, graph = priced_graph(inst, {0: Fraction(1, 2), 1: Fraction(1, 4)})
    # each tie is Ratio(-kn, Db) for the key kn/Db
    ties = sorted((-entry[1].numerator, entry[1].denominator) for entry in graph._heaps[0])
    assert ties == [(2, 2), (4, 4)]
    assert graph.preferred[0] == 1
    assert dual.value(dual.alpha[0]) == 1
    assert heap_order(graph, 0) == [1, 0]


def test_float_tie_winner_below_the_root_rises_to_the_top():
    # edge 3's key 1 + 10**-20 equals edge 0's key 1 in floats; pushed last,
    # it enters a heap of four below the root and must be sifted past it
    tiny = Fraction(1, 10**20)
    inst = btp([5], [9] * 5, [(0, 0, 1, 1), (0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 10**20 - 1),
                              (0, 4, 1, 1)])
    betas = {1: Fraction(1, 2), 2: Fraction(3, 4), 3: tiny, 4: Fraction(1, 8)}
    primal, dual, graph = priced_graph(inst, betas)
    keys = [key(dual, e) for e in range(5)]
    assert float(keys[3]) == float(keys[0]) and keys[3] > keys[0]
    assert graph.preferred[0] == 3
    assert dual.value(dual.alpha[0]) == keys[3]
    assert heap_order(graph, 0) == sorted(range(5), key=lambda e: (-keys[e], e))


# a key kn/d, and a second key near it: the same value in another ratio, or
# 10**-25 of it away, which float() rounds to the same value in most cases
key_pairs = st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6)).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.one_of(
            st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6)),
            st.integers(1, 10**9).map(lambda s: (a[0] * s, a[1] * s)),
            st.integers(-3, 3).map(lambda t: (a[0] * 10**25 + t, a[1] * 10**25)),
        ),
    )
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(pair=key_pairs)
def test_exact_key_orders_as_the_negated_fraction(pair):
    (ka, da), (kb, db) = pair
    a, b = Fraction(-ka, da), Fraction(-kb, db)
    tie_a, tie_b = Ratio(-ka, da), Ratio(-kb, db)
    assert (tie_a == tie_b) == (a == b)
    assert (tie_a < tie_b) == (a < b)
    # the entry's leading pair orders exactly as the key, also on a float tie
    entry_a, entry_b = (-(ka / da), tie_a), (-(kb / db), tie_b)
    assert (entry_a < entry_b) == (a < b)
    assert -(ka / da) == float(a)


def test_rebuild_preferred_none_when_all_saturated():
    inst = bts([5], [100], [(0, 0, 4, 1, 2)])
    primal, dual, graph = fresh_graph(inst)
    move(graph, 0, 2)
    assert graph.rebuild_preferred(0) is None
    assert dual.value(dual.alpha[0]) == 0


def test_remove_two_cycles_promotes_with_sibling():
    # sink 0 has back edges from sources 0 and 2; source 0 prefers edge into it
    inst = btp([5, 5, 5], [20, 50], [(0, 0, 9, 1), (1, 0, 4, 2), (0, 1, 1, 1), (2, 0, 5, 1)])
    primal, dual, graph = fresh_graph(inst)
    move(graph, 0, 2)
    move(graph, 3, 2)
    graph.raise_beta(0, Fraction(2))  # the flow was assigned before sink 0 had a price
    refresh(graph, 0)
    assert graph.preferred[0] == 0
    assert set(graph.back_edges(0)) == {0, 3}
    graph.remove_two_cycles(range(inst.n))
    # the preferred edge left the back set; the sibling remains
    assert graph.back_edges(0) == [3]
    assert graph._stale[0] == {3} and dual.level[0] == 1


def test_remove_two_cycles_keeps_sole_back_edge():
    inst = btp([5], [20], [(0, 0, 9, 1)])
    primal, dual, graph = fresh_graph(inst)
    move(graph, 0, 2)
    graph.raise_beta(0, Fraction(2))
    graph.remove_two_cycles(range(inst.n))
    assert graph.back_edges(0) == [0]
    assert graph._stale[0] == {0}


def test_remove_two_cycles_idempotent_without_cycles():
    # the rise leaves the flow on edges 0 and 3 stale; the first sweep promotes
    # source 0's preferred edge 0 and leaves no two-cycle, so a second sweep
    # over the same sources must change nothing
    inst = btp([5, 5, 5], [20, 50], [(0, 0, 9, 1), (1, 0, 4, 2), (0, 1, 1, 1), (2, 0, 5, 1)])
    primal, dual, graph = fresh_graph(inst)
    move(graph, 0, 2)
    move(graph, 3, 2)
    graph.raise_beta(0, Fraction(2))
    graph.remove_two_cycles(range(inst.n))
    assert graph._stale[0] == {3}  # edge 0 was promoted

    def swept_state():
        return [set(stale) for stale in graph._stale], list(graph.preferred), values(dual, "alpha")

    before = swept_state()
    graph.remove_two_cycles(range(inst.n))
    assert swept_state() == before


def test_sweep_visits_a_cleared_record_when_the_memo_was_dropped():
    # the refresh left source 0 clean, and the rise left its preferred edge
    # stale: the sweep must visit it
    inst = btp([5, 5, 5], [20, 50], [(0, 0, 9, 1), (1, 0, 4, 2), (0, 1, 1, 1), (2, 0, 5, 1)])
    primal, dual, graph = fresh_graph(inst)
    move(graph, 0, 2)
    move(graph, 3, 2)
    graph.raise_beta(0, Fraction(2))
    refresh(graph, 0)
    assert graph.preferred[0] == 0
    assert 0 not in graph._dirty and 0 in graph._stale[0]
    graph.remove_two_cycles([0])
    assert graph.back_edges(0) == [3]
    assert graph._stale[0] == {3} and dual.level[0] == 1


def test_sweep_skips_an_edge_that_is_not_stale():
    inst = btp([5, 5], [20], [(0, 0, 9, 1), (1, 0, 5, 1)])
    primal, dual, graph = fresh_graph(inst)
    graph.raise_beta(0, Fraction(2))
    move(graph, 0, 2)  # valued at the sink's level
    refresh(graph, 0)
    refresh(graph, 1)
    assert not graph.fix_two_cycle(0)
    assert not graph._stale[0]  # answered without a back-set scan
    visits = []
    graph.fix_two_cycle = lambda i: visits.append(i) or DerivedGraph.fix_two_cycle(graph, i)
    graph.remove_two_cycles([0, 1])
    assert visits == []  # source 0 is not stale, source 1 carries no flow


def saturated_edge_graph(profit, price, beta, level, alpha):
    """One saturated edge, assigned before its sink's rise to `level` and price
    `beta`; its source is clean, with alpha set to `alpha`."""
    inst = bts([1], [10**9], [(0, 0, profit, price, 1)])
    primal, dual, graph = fresh_graph(inst, SolverConfig(epsilon=Fraction(1, 8)))
    move(graph, 0, 1)
    for k in range(level - 1, -1, -1):  # up the eps-1/8 ladder to `beta`
        graph.raise_beta(0, beta / Fraction(9, 8) ** k)
    refresh(graph, 0)
    dual.alpha[0] = Ratio(*alpha.as_integer_ratio())
    return graph


def slack(graph):
    """Edge 0's price slack c - p*beta - alpha, read through the accessor."""
    dual = graph.dual
    return key(dual, 0) - dual.value(dual.alpha[0])


def test_zero_slack_saturated_edge_is_a_back_edge():
    beta = Fraction(7, 3)
    graph = saturated_edge_graph(9, 2, beta, 1, 9 - 2 * beta)
    assert slack(graph) == 0
    assert graph.back_edges(0) == [0]


def test_tiny_positive_slack_keeps_a_saturated_edge_out_of_the_back_set():
    beta = Fraction(7, 3)
    graph = saturated_edge_graph(9, 2, beta, 1, 9 - 2 * beta - Fraction(1, 10**30))
    assert slack(graph) == Fraction(1, 10**30)
    assert graph.back_edges(0) == []


def test_find_path_immediate_unsaturated_sink(one_by_one):
    primal, dual, graph = fresh_graph(one_by_one)
    assert graph.find_path(0) == (PATH, [0], None)  # odd length: ends at the sink of edge 0


def test_find_path_stops_at_retired_source():
    # walk: source 0 -> sink 0 -> source 1 (alpha forced to 0)
    inst = btp([5, 5], [10, 50], [(0, 0, 8, 1), (1, 0, 2, 1), (1, 1, 2, 1)])
    primal, dual, graph = fresh_graph(inst)
    move(graph, 1, 10)
    graph.raise_beta(0, Fraction(3))
    graph.raise_beta(1, Fraction(3))
    assert graph.find_path(0) == (PATH, [0, 1], None)  # even length: ends at the source of edge 1


def test_find_path_detects_cycle():
    # 0 -> sink0 -> 1 -> sink1 -> 0 closes a cycle
    inst = btp(
        [5, 5],
        [10, 10],
        [(0, 0, 9, 1), (1, 0, 7, 1), (1, 1, 9, 1), (0, 1, 7, 1)],
    )
    primal, dual, graph = fresh_graph(inst)
    move(graph, 1, 10)
    move(graph, 3, 10)
    graph.raise_beta(0, Fraction(1))
    graph.raise_beta(1, Fraction(1))
    # source 0 repeats: no prefix, and the cycle starts where the walk did
    assert graph.find_path(0) == (CYCLE, [], [0, 1, 2, 3])


def test_find_path_splits_a_cycle_at_a_repeated_sink():
    # walk: 0 -e0-> sink0 <-e1- 1 -e2-> sink1 <-e3- 2 -e4-> sink0, which repeats
    inst = btp(
        [5, 5, 5],
        [10, 10],
        [(0, 0, 9, 1), (1, 0, 7, 1), (1, 1, 9, 1), (2, 1, 7, 1), (2, 0, 9, 1)],
    )
    primal, dual, graph = fresh_graph(inst)
    move(graph, 1, 10)
    move(graph, 3, 10)
    graph.raise_beta(0, Fraction(1))
    graph.raise_beta(1, Fraction(1))
    # the prefix keeps the back edge out of sink 0, and the cycle is rotated
    # to start at source 1, where that edge arrives, and to end with it
    assert graph.find_path(0) == (CYCLE, [0, 1], [2, 3, 4, 1])


def test_find_path_two_cycle_end():
    inst = btp([5], [10], [(0, 0, 9, 1)])
    primal, dual, graph = fresh_graph(inst)
    move(graph, 0, 10)
    graph.raise_beta(0, Fraction(1))
    assert graph.find_path(0) == (TWO_CYCLE, [0], None)  # the two-cycle edge is the last one


def test_find_path_stalled_sink():
    # saturated sink whose only in-flow sits at the top level: no back edge
    inst = btp([5, 5], [10], [(0, 0, 9, 1), (1, 0, 9, 1)])
    primal, dual, graph = fresh_graph(inst)
    graph.raise_beta(0, Fraction(1))
    move(graph, 1, 10)  # assigned at the current level
    assert graph.find_path(0) == (STALLED, [0], None)  # the stalled sink is edge 0's


def test_find_path_leaves_a_sink_over_the_back_edge_of_the_least_source():
    # the file's sources 4, 3 and 2 hold stale flow into sink 1 on edge indices
    # 0, 1 and 2, so the stale set lists source 4's first; source 1 walks in
    # over edge index 3
    inst = parse((Path(__file__).parent / "data" / "back_edge_order.btp").read_text())
    primal, dual, graph = fresh_graph(inst)
    for e in range(3):
        move(graph, e, 2)
    graph.raise_beta(0, Fraction(2))  # keys: 9 - 2 = 7 on edge 3, -1 on the others
    stale = list(graph._stale[0])
    assert sorted(graph.back_edges(0)) == [0, 1, 2]
    assert stale[0] != min(stale, key=lambda e: (inst.src[e], e))  # the order matters here
    # source 2's alpha is 0, so the walk ends there
    assert graph.find_path(0) == (PATH, [3, 2], None)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_only_the_graph_sets_alpha(mode):
    # source 2's only edge has no profit, so its alpha stays 0
    inst = btp([5, 5, 5], [50, 50], [(0, 0, 3, 1), (0, 1, 7, 2), (1, 0, 0, 1), (2, 1, 4, 3)])
    config = SolverConfig(epsilon=Fraction(1, 4), numeric_mode=mode)
    primal, dual, _ = make_states(inst, config)
    assert values(dual, "alpha") == [0, 0, 0]
    DerivedGraph(inst, primal, dual)
    assert values(dual, "alpha") == [7, 0, 4]


def test_walk_length_bound():
    for seed in (2, 5, 11, 19):
        try:
            inst = generate(seed=seed, n=2 + seed % 4, m=2 + seed % 3, density=0.9,
                            u_range=(1, 5))
        except ValueError:
            continue
        limit = 2 * (inst.n + inst.m) + 1
        primal, dual, graph = fresh_graph(inst)
        if dual.value(dual.alpha[0]) > 0:
            _, steps, cycle = graph.find_path(0)
            assert len(steps) + len(cycle or []) + 1 <= limit


def test_heap_keys_match_recomputation():
    for seed in (1, 4, 9):
        inst = generate(seed=seed, n=3, m=4, density=0.9, u_range=(2, 6))
        config = SolverConfig(epsilon=Fraction(1, 3))
        primal, dual, graph = fresh_graph(inst, config)
        graph.raise_beta(0, Fraction(1, 2))
        graph.raise_beta(2, Fraction(2))
        for i in range(inst.n):
            top = graph.rebuild_preferred(i)
            keys = [
                key(dual, e)
                for e in inst.edges_of_source(i)
                if not primal.edge_saturated(e)
            ]
            if top is None:
                assert not keys
            else:
                assert key(dual, top) == max(keys)


def test_back_edge_reenters_only_after_price_rise(monkeypatch):
    # monitor for the reentry rule: once a back edge's flow is pushed to
    # zero, it can only rejoin the back set after its sink's price rises
    graphs = []

    class TransitionGraph(DerivedGraph):
        """Records back-set enter/zero/leave transitions after every event."""

        def __init__(self, *args, **kwargs):
            self.events: list[tuple[str, int | None, int]] = []
            self.seen: dict[int, set[int]] = {}
            super().__init__(*args, **kwargs)
            graphs.append(self)

        def record(self, j):
            current = set(self.back_edges(j))
            previous = self.seen.get(j, set())
            for e in sorted(current - previous):
                self.events.append(("enter", e, j))
            for e in sorted(previous - current):
                zeroed = not self.num.is_pos(self.primal.value(self.primal.flow[e]))
                self.events.append(("zero" if zeroed else "leave", e, j))
            self.seen[j] = current

        def raise_beta(self, j, value):
            super().raise_beta(j, value)
            self.events.append(("rise", None, j))
            self.record(j)

        def move_flow(self, e, delta):
            j = super().move_flow(e, delta)
            self.record(j)
            return j

        def fix_two_cycle(self, i):
            promoted = super().fix_two_cycle(i)
            if promoted:
                self.record(self.instance.edges[self.preferred[i]].dst)
            return promoted

        def promote(self, e):
            super().promote(e)
            self.record(self.instance.edges[e].dst)

    monkeypatch.setattr(solver_mod, "DerivedGraph", TransitionGraph)
    zeroings = 0
    for seed in (3, 8, 15, 33, 41):
        try:
            inst = generate(seed=seed, n=3, m=3, density=0.9)
        except ValueError:
            continue
        config = SolverConfig(epsilon=Fraction(1, 4), max_phases=5000)
        assert solver_mod.solve(inst, config).terminated
        # a back-zero followed by a back-enter of the same edge must have a
        # price rise of its sink strictly in between
        last_zero: dict[int, int] = {}
        rises_at: dict[int, list[int]] = {}
        for idx, (kind, e, j) in enumerate(graphs[-1].events):
            if kind == "rise":
                rises_at.setdefault(j, []).append(idx)
            elif kind == "zero":
                last_zero[e] = idx
                zeroings += 1
            elif kind == "enter" and e in last_zero:
                assert any(
                    last_zero[e] < r < idx for r in rises_at.get(j, [])
                ), f"edge {e} re-entered without a price rise (seed {seed})"
    assert zeroings > 0  # the rule was exercised, not vacuously true


def check_stale_index(graph) -> None:
    """Each `_stale[j]` holds only in-edges of j that carry flow, and none while
    j has no price."""
    edges, flow, num = graph.instance.edges, values(graph.primal, "flow"), graph.num
    for j, stale in enumerate(graph._stale):
        assert all(edges[e].dst == j and num.is_pos(flow[e]) for e in stale), j
        if not graph.dual.level[j]:
            assert not stale, j


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_stale_index_matches_valuations_after_every_phase(mode):
    def check_index(graph):
        check_stale_index(graph)
        stale.append(sum(map(len, graph._stale)))

    stale: list[int] = []
    for seed in range(8):
        try:
            inst = generate(seed=seed, n=3 + seed % 4, m=3 + seed % 3, density=0.8,
                            u_range=(1, 6) if seed % 2 else None)
        except ValueError:
            continue
        config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
        assert solver_mod.solve(inst, config, on_iteration=check_index).terminated
    assert sum(stale) > 0  # the index held stale edges when it was checked


def check_rise_records(graph) -> None:
    """The records a price rise reads equal scans of what they stand for: each
    sink's `flowing_in` its in-edges with nonzero flow, each `_bidders` set the
    sources whose preferred edge enters the sink, and each clean source's
    `live` flag whether its alpha is positive."""
    inst, primal, num = graph.instance, graph.primal, graph.num
    flow, edges = values(primal, "flow"), inst.edges
    for j in range(inst.m):
        assert primal.flowing_in[j] == {e for e in inst.edges_of_sink(j) if flow[e] != 0}, j
        assert graph._bidders[j] == {i for i, e in enumerate(graph.preferred)
                                     if e is not None and edges[e].dst == j}, j
    for i in range(inst.n):
        if i not in graph._dirty:
            assert graph.live[i] == num.is_pos(graph.dual.alpha[i]), i


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_rise_records_match_scans_after_every_phase(mode):
    def check(graph):
        check_rise_records(graph)
        seen["flowing"] += sum(map(len, graph.primal.flowing_in))
        seen["retired"] += sum(not graph.live[i] for i in range(graph.instance.n)
                               if i not in graph._dirty)

    seen = {"flowing": 0, "retired": 0}
    config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
    for seed in range(6):
        for inst in (generate(seed=seed, n=5, m=5, density=0.8,
                              u_range=(1, 6) if seed % 2 else None),
                     small_instance("pw", seed, 4, 4)):
            assert solver_mod.solve(inst, config, on_iteration=check).terminated
    # the records held flow, and some clean source had retired, when checked
    assert seen["flowing"] > 0 and seen["retired"] > 0


def test_rise_records_match_scans_where_float_dust_is_cleared(monkeypatch):
    # a flow left as float dust is cleared, and leaves its sink's record
    dust = []
    clear_flow = PrimalState.clear_flow

    def logged(self, e):
        dust.append(self.flow[e])
        clear_flow(self, e)

    monkeypatch.setattr(PrimalState, "clear_flow", logged)
    text = (Path(__file__).parent / "data" / "float_dust_cycle.btp").read_text()
    config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode="float", max_phases=20000)
    assert solver_mod.solve(parse(text), config, on_iteration=check_rise_records).terminated
    assert any(dust)  # a nonzero flow was cleared


def check_walk_shape(graph, start, end, steps, cycle) -> None:
    """The walk leaves `start`, forward edges (even positions) and back edges
    (odd) alternate, and the walk's end is the one `end` names.  At a cycle
    end the prefix ends at the cycle's entry source, and the cycle closes
    there and repeats no source or sink.  Prefix and cycle together keep to
    the walk's length bound."""
    src, dst, dual = graph.instance.src, graph.instance.dst, graph.dual
    walk = steps + (cycle or [])
    assert src[walk[0]] == start, walk
    assert len(walk) <= 2 * (graph.instance.n + graph.instance.m) + 1, walk
    for q in range(1, len(walk)):
        prev, e = walk[q - 1], walk[q]
        if q % 2:
            assert dst[e] == dst[prev], walk  # back into the sink just reached
        else:
            assert src[e] == src[prev], walk  # forward out of the source just reached
    if cycle is not None:
        assert end == CYCLE and len(steps) % 2 == 0 and len(cycle) % 2 == 0, (steps, cycle)
        if steps:
            assert src[steps[-1]] == src[cycle[0]], (steps, cycle)
        assert src[cycle[-1]] == src[cycle[0]], cycle
        fwds, backs = cycle[::2], cycle[1::2]
        assert len({src[f] for f in fwds}) == len({dst[f] for f in fwds}) == len(fwds), cycle
        assert all(f != b for f, b in zip(fwds, backs)), cycle
        return
    last = steps[-1]
    if end == PATH:
        if len(steps) % 2:
            assert dual.level[dst[last]] == 0, steps
        else:
            assert dual.value(dual.alpha[src[last]]) == 0, steps
    elif end == STALLED:
        assert graph.back_edges(dst[last]) == [], steps
    else:
        assert end == TWO_CYCLE and len(steps) % 2, (end, steps)
        assert last in graph.back_edges(dst[last]) or steps[-2] == last, steps


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_two_cycle_ends_are_type_ii(monkeypatch, mode):
    # a walk that goes back over an edge and then forward over it again ends
    # as a two-cycle; it never reaches solve() as a one-pair cycle (e, e)
    ends: list[bool] = []
    kinds: set[str] = set()
    repeats: set[str] = set()  # which vertex a cycle end revisited

    class WalkGraph(DerivedGraph):
        def find_path(self, start):
            walk = super().find_path(start)
            end, steps, cycle = walk
            check_walk_shape(self, start, end, steps, cycle)
            kinds.add(end)
            if end == TWO_CYCLE:
                ends.append(len(steps) > 1 and steps[-2] == steps[-1])
            if end == CYCLE:
                # a repeated sink's rotation closes the cycle with the prefix's last edge
                repeats.add("sink" if steps and steps[-1] == cycle[-1] else "source")
            return walk

    monkeypatch.setattr(solver_mod, "DerivedGraph", WalkGraph)
    instances = []
    for seed in range(8):
        try:
            instances.append(generate(seed=seed, n=3 + seed % 4, m=3 + seed % 3, density=0.8,
                                      u_range=(1, 6) if seed % 2 else None))
        except ValueError:
            continue
    # its walks end in cycles that repeat a sink as well as ones that repeat a source
    instances.append(generate(seed=4, n=12, m=12, density=0.7))
    for inst in instances:
        config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
        assert solver_mod.solve(inst, config).terminated
    assert ends, "no two-cycle end was seen"
    assert any(ends), "no walk went back and forth over one edge"
    assert kinds == {PATH, TWO_CYCLE, CYCLE, STALLED}, kinds  # every end was checked
    assert repeats == {"sink", "source"}, repeats


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def small_instance(kind: str, seed: int, n: int, m: int):
    if kind != "pw":
        u_range = (1, 4) if kind == "bts" else None
        return generate(seed=seed, n=n, m=m, density=1.0, u_range=u_range, u_prob=0.7)
    rng = random.Random(seed)
    edges = [
        PiecewiseEdge(src=i, dst=j, price=rng.randint(1, 4),
                      slopes=tuple(sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 3))),
                                          reverse=True)))
        for i in range(n) for j in range(m)
    ]
    pw = PiecewiseInstance(supply=(5,) * n, budget=(9,) * m, segment_length=1, edges=tuple(edges))
    return split_piecewise(pw)[0]


def check_lazy_heaps(graph) -> None:
    """Every source's preferred edge and alpha equal a brute-force recomputation."""
    inst, primal, dual, num = graph.instance, graph.primal, graph.dual, graph.num
    for i in range(inst.n):
        assert len(graph._heaps[i]) <= len(inst.edges_of_source(i))
    graph = copy.deepcopy(graph)  # leave the original's dirty sources and stale entries be
    beta = values(dual, "beta")
    for i in range(inst.n):
        refresh(graph, i)
        alpha = graph.dual.value(graph.dual.alpha[i])
        keyed = [
            (-(spec.profit - spec.price * beta[spec.dst]), spec.dst, e)
            for e in inst.edges_of_source(i)
            if not primal.edge_saturated(e)
            for spec in [inst.edges[e]]
        ]
        if not keyed:
            assert graph.preferred[i] is None and alpha == 0
            continue
        neg_key, _, best = min(keyed)
        assert graph.preferred[i] == best
        assert alpha == (-neg_key if num.is_pos(-neg_key) else num.value(0))


def check_stale_model(graph, stale: set[int]) -> None:
    """`_stale[j]` is exactly the edges of `stale` that enter sink j."""
    edges = graph.instance.edges
    assert graph._stale == [{e for e in stale if edges[e].dst == j}
                            for j in range(graph.instance.m)]
    check_stale_index(graph)


steps = st.lists(
    st.tuples(st.sampled_from(["fill", "half", "drain", "rise", "promote", "fresh"]),
              st.integers(0, 7), st.booleans()),
    min_size=4,
    max_size=40,
)


@PROPERTY
@given(kind=st.sampled_from(["btp", "bts", "pw"]), mode=st.sampled_from(["exact", "float"]),
       seed=st.integers(0, 10**6), n=st.integers(1, 4), m=st.integers(1, 4), ops=steps)
def test_lazy_heaps_match_brute_force(kind, mode, seed, n, m, ops):
    # keys only fall as prices rise, so a stale entry is an upper bound and
    # re-keying it at the top must pick exactly the eager choice
    inst = small_instance(kind, seed, n, m)
    config = SolverConfig(epsilon=Fraction(1, 4), numeric_mode=mode)
    primal, dual, num = make_states(inst, config)
    graph = DerivedGraph(inst, primal, dual)
    # the test's own record of stale edges, kept by the writers' rules: a rise
    # makes every flowing in-edge stale; a promotion, an increase or a drain
    # makes the edge fresh
    stale: set[int] = set()
    check_lazy_heaps(graph)
    check_stale_model(graph, stale)
    for op, index, flag in ops:
        e = index % len(inst.edges)
        cap = inst.edges[e].capacity
        if op == "rise":
            j = index % inst.m
            value = dual.next_beta(j)
            if value is None:
                continue
            graph.raise_beta(j, value)
            stale = {f for f in stale if inst.edges[f].dst != j}
            stale |= {f for f, spec in enumerate(inst.edges)
                      if spec.dst == j and primal.value(primal.flow[f]) > 0}
        elif op == "promote":
            graph.promote(e)
            stale.discard(e)
        elif op == "fresh":
            # as walks and sweeps do between writes: one source, or all of them
            for i in range(inst.n) if flag else [index % inst.n]:
                refresh(graph, i)
        else:
            full = num.value(cap if cap is not None else 3)
            target = {"fill": full, "half": full / 2, "drain": num.value(0)}[op]
            current = primal.value(primal.flow[e])
            if target != current:
                graph.move_flow(e, primal.units(target - current))
                if target > current or op == "drain":
                    stale.discard(e)
        check_lazy_heaps(graph)
        check_stale_model(graph, stale)


# sink prices as ints, as Fractions, and high in the ladder: eps*c/p*(9/8)^(level-1), eps 1/8
betas = st.one_of(
    st.tuples(st.integers(1, 50), st.just(1)),
    st.tuples(st.fractions(min_value=Fraction(1, 10**6), max_value=50), st.just(1)),
    st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(40, 80)).map(
        lambda t: (Fraction(t[0], 8 * t[1]) * Fraction(9, 8) ** (t[2] - 1), t[2])),
)


@PROPERTY
@given(profit=st.integers(0, 10**4), price=st.integers(1, 100), beta_level=betas,
       alpha=st.one_of(st.integers(0, 10**4), st.fractions(min_value=0, max_value=10**4)),
       near_zero=st.sampled_from([None, 0, 1, -1]))
def test_integer_slack_test_agrees_with_the_fraction_sign(profit, price, beta_level, alpha,
                                                          near_zero):
    beta, level = beta_level
    if near_zero is not None:
        # a slack of exactly 0, or 10**-30 either side of it
        alpha = profit - price * beta - Fraction(near_zero, 10**30)
    graph = saturated_edge_graph(profit, price, beta, level, alpha)
    assert (0 in graph.back_edges(0)) == (not slack(graph) > 0)


def solve_logged(graph_cls, inst, config):
    """solve() on a graph of `graph_cls`; returns the solution text and the graph."""
    graphs = []

    class Logged(graph_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            graphs.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "DerivedGraph", Logged)
        solution = solver_mod.solve(inst, config)
    assert solution.terminated
    return solution_to_text(solution), graphs[0]


def check_sweeps_agree(inst, config):
    """Filtered and full sweeps: same promotions in order, same text with stat lines.
    Returns the promotions, the `fix_two_cycle` calls the filter saved and the
    run's two-cycle ends, each of which is one more promotion."""
    text, graph = solve_logged(PromotionLog, inst, config)
    ref_text, ref = solve_logged(FullSweepGraph, inst, config)
    assert graph.promoted == ref.promoted
    assert text == ref_text
    return len(ref.promoted), ref.visits - graph.visits, graph.stats.get("two_cycle_eliminations")


@PROPERTY
@given(kind=st.sampled_from(["btp", "bts", "pw"]), mode=st.sampled_from(["exact", "float"]),
       seed=st.integers(0, 10**6), n=st.integers(1, 5), m=st.integers(1, 5),
       eps=st.sampled_from([Fraction(1, 4), Fraction(1, 8)]))
def test_filtered_sweep_matches_full_sweep(kind, mode, seed, n, m, eps):
    inst = small_instance(kind, seed, n, m)
    check_sweeps_agree(inst, SolverConfig(epsilon=eps, numeric_mode=mode, max_phases=PHASE_CAP))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_filtered_sweep_matches_full_sweep_on_larger_instances(mode):
    # 6x6 split-piecewise instances give a sink several stale edges, so one
    # source's promotion changes what a later source's check reads
    promotions = saved = ends = 0
    for seed in range(4):
        for inst in (generate(seed=seed, n=8, m=8, density=0.7,
                              u_range=(1, 8) if seed % 2 else None),
                     small_instance("pw", seed, 6, 6)):
            config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
            got = check_sweeps_agree(inst, config)
            promotions += got[0]
            saved += got[1]
            ends += got[2]
    assert saved > 0  # the filter skipped calls
    # the log sees the sweeps' promotions as well as the two-cycle ends'
    assert promotions > ends > 0
