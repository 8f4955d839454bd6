from fractions import Fraction

import pytest

from reference_auction import auction_step, initialize, run, update_beta
from budget_flow.certify import certify
from budget_flow.instance import SolverConfig, generate
from conftest import btp, bts, recompute_check

EPS4 = SolverConfig(epsilon=Fraction(1, 4))


def primal_value(result):
    edges = result.primal.instance.edges
    return sum(spec.profit * f for spec, f in zip(edges, result.primal.flow))


def test_initialize_plain(one_by_one):
    primal, dual = initialize(one_by_one, EPS4)
    assert dual.alpha == [3]
    assert dual.beta == [0]
    assert primal.flow == [0]


def test_initialize_alpha_is_best_profit():
    inst = btp([5], [9, 9], [(0, 0, 2, 1), (0, 1, 7, 3)])
    _, dual = initialize(inst, EPS4)
    assert dual.alpha == [7]


def test_initialize_zero_profit_source_starts_retired():
    inst = btp([5], [9], [(0, 0, 0, 1)])
    result = run(inst, EPS4)
    assert result.stats.get("steps") == 0
    assert primal_value(result) == 0


def test_initialize_rejects_capacitated():
    inst = bts([5], [10], [(0, 0, 3, 2, 4)])
    with pytest.raises(ValueError):
        initialize(inst, EPS4)


def test_update_beta_initializes_to_min_rate():
    # rates 10/2 and 6/3; epsilon 1/10 -> beta = 2/10
    inst = btp([4, 4], [12], [(0, 0, 10, 2), (1, 0, 6, 3)])
    primal, dual = initialize(inst, SolverConfig(epsilon=Fraction(1, 10)))
    primal.add_flow(0, Fraction(6))  # price 12: saturated
    outcome = update_beta(0, primal, dual)
    assert outcome == "init"
    assert dual.beta[0] == Fraction(1, 5)


def test_update_beta_rises_when_all_at_top():
    inst = btp([4], [12], [(0, 0, 10, 2)])
    primal, dual = initialize(inst, SolverConfig(epsilon=Fraction(1, 10)))
    primal.add_flow(0, Fraction(6))
    dual.raise_beta(0, Fraction(1, 5))
    dual.valuation[0] = 1
    assert update_beta(0, primal, dual) == "rise"
    assert dual.level[0] == 2
    assert dual.beta[0] == Fraction(11, 50)


def test_update_beta_no_change_with_lower_level_flow():
    inst = btp([4, 4], [24], [(0, 0, 10, 2), (1, 0, 6, 3)])
    primal, dual = initialize(inst, SolverConfig(epsilon=Fraction(1, 10)))
    primal.add_flow(0, Fraction(6))
    primal.add_flow(1, Fraction(4))
    dual.raise_beta(0, Fraction(1, 5))
    dual.raise_beta(0, Fraction(11, 50))
    dual.valuation[0] = 2
    dual.valuation[1] = 1  # still one level down
    assert update_beta(0, primal, dual) == "none"
    assert dual.beta[0] == Fraction(11, 50)


def test_auction_step_unsaturated_push(one_by_one):
    primal, dual = initialize(one_by_one, EPS4)
    outcome = auction_step(0, primal, dual)
    assert outcome.kind == "push"
    assert outcome.amount == 5  # min(5, 10/2)
    assert primal.flow[0] == 5
    assert primal.surplus[0] == 0


def test_auction_step_replacement_trace():
    # saturated sink held by source 1 one level down: f=4 at price 1;
    # bidder 0 with price 2 and surplus 1 takes min(1, 4*1/2) = 1 and the
    # displaced flow drops by 1*2/1 = 2.
    inst = btp([1, 9], [4], [(0, 0, 9, 2), (1, 0, 3, 1)])
    primal, dual = initialize(inst, EPS4)
    primal.add_flow(1, Fraction(4))  # price 4 = budget: saturated
    dual.raise_beta(0, Fraction(2, 5))
    dual.raise_beta(0, Fraction(1, 2))
    dual.valuation[1] = 1
    outcome = auction_step(0, primal, dual)
    assert outcome.kind == "replace"
    assert outcome.displaced == 1
    assert outcome.amount == 1
    assert primal.flow[0] == 1
    assert primal.flow[1] == 2
    # sink stays exactly saturated
    assert primal.residual[0] == 0


def test_auction_step_self_promote():
    inst = btp([9], [4], [(0, 0, 3, 1)])
    primal, dual = initialize(inst, EPS4)
    primal.add_flow(0, Fraction(4))
    dual.raise_beta(0, Fraction(2, 5))
    dual.raise_beta(0, Fraction(1, 2))
    dual.valuation[0] = 1
    outcome = auction_step(0, primal, dual)
    assert outcome.kind == "promote"
    # promoting the sole flow lets beta rise; the valuation ages one level down
    assert dual.beta[0] == Fraction(5, 8)
    assert dual.level[0] == 3
    assert dual.valuation[0] == 2
    assert primal.flow[0] == 4


def test_run_one_by_one(one_by_one):
    result = run(one_by_one, EPS4)
    assert result.terminated
    cert = certify(
        one_by_one,
        list(result.primal.flow),
        list(result.dual.alpha),
        list(result.dual.beta),
        Fraction(1, 4),
    )
    assert cert.primal_value == 15
    assert cert.passed
    assert cert.gap_ratio == 0


def test_run_reaches_factor_of_opt(two_sources_one_sink):
    result = run(two_sources_one_sink, EPS4)
    assert result.terminated
    value = primal_value(result)
    assert value >= Fraction(3, 4) * 25


def test_run_all_zero_profit():
    inst = btp([3, 3], [5], [(0, 0, 0, 1), (1, 0, 0, 2)])
    result = run(inst, EPS4)
    assert result.stats.get("steps") == 0
    assert primal_value(result) == 0


def test_run_abort_contract_on_shrinking_displacement_cycle():
    # displacement loops with transfer ratio < 1 shrink forever; the step cap
    # must abort cleanly with the partial state flagged
    inst = generate(seed=10, n=5, m=6, density=0.7)
    result = run(inst, SolverConfig(epsilon=Fraction(1, 4), max_phases=2000))
    assert not result.terminated
    assert result.stats.get("steps") == 2000
    assert recompute_check(result.primal)


def test_per_step_invariants_hold():
    eps = Fraction(1, 4)
    config = SolverConfig(epsilon=eps, max_phases=4000)
    checked = 0
    for seed in (0, 3, 7, 12, 21):
        try:
            inst = generate(seed=seed, n=1 + seed % 4, m=1 + seed % 3, density=0.9)
        except ValueError:
            continue

        last_beta = [Fraction(0)] * inst.m
        first_beta = [
            eps * min((Fraction(inst.edges[e].profit, inst.edges[e].price)
                       for e in inst.edges_of_sink(j) if inst.edges[e].profit > 0),
                      default=0)
            for j in range(inst.m)
        ]

        def check(primal, dual):
            flow, alpha, beta, level = primal.flow, dual.alpha, dual.beta, dual.level
            # primal feasibility
            for i in range(inst.n):
                assert sum(flow[e] for e in inst.edges_of_source(i)) <= inst.supply[i]
            paid = [Fraction(0)] * inst.m
            for e, spec in enumerate(inst.edges):
                assert flow[e] >= 0
                paid[spec.dst] += spec.price * flow[e]
            for j in range(inst.m):
                assert paid[j] <= inst.budget[j]
                # unsaturated sinks keep price zero; beta never decreases
                if paid[j] < inst.budget[j]:
                    assert beta[j] == 0
                assert beta[j] >= last_beta[j]
            last_beta[:] = beta
            # beta sits exactly on its level: beta0 * (1 + eps)^(level - 1)
            for j in range(inst.m):
                if level[j] == 0:
                    assert beta[j] == 0
                else:
                    assert beta[j] == first_beta[j] * (1 + eps) ** (level[j] - 1)
            # dual feasibility and the approximate flow condition
            for e, spec in enumerate(inst.edges):
                key = spec.profit - spec.price * beta[spec.dst]
                assert alpha[spec.src] >= key
                if flow[e] > 0:
                    assert alpha[spec.src] <= key + eps * spec.profit
            # valuations sit on one of the two active levels
            for e, spec in enumerate(inst.edges):
                if flow[e] > 0:
                    assert dual.valuation[e] in (level[spec.dst], level[spec.dst] - 1)

        checked += run(inst, config, on_step=check).terminated
    assert checked >= 3


def test_stats_exported_as_plain_mapping(one_by_one):
    result = run(one_by_one, EPS4)
    exported = result.stats.to_dict()
    assert isinstance(exported, dict)
    assert all(isinstance(v, int) for v in exported.values())
    assert exported["pushes"] >= 1
