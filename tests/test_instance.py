import math
from dataclasses import replace
from fractions import Fraction

import pytest

import budget_flow.instance
import budget_flow.reductions
from budget_flow.instance import (
    EdgeSpec,
    InstanceFormatError,
    InstanceValidationError,
    Kind,
    ProblemInstance,
    SolverConfig,
    ceil_log,
    diagnostics,
    generate,
    parse,
    serialize,
)
from budget_flow.reductions import parse_piecewise, split_piecewise
from budget_flow.solver import solve
from conftest import PHASE_CAP, btp, violations


def test_validate_minimal_ok(one_by_one):
    assert replace(one_by_one) == one_by_one  # constructing again raises nothing


def test_validate_zero_price():
    assert violations(lambda: btp([5], [10], [(0, 0, 3, 0)])) == ["edge 1 (1,1): zero price"]


def test_validate_duplicate_edge():
    assert violations(lambda: btp([5], [10], [(0, 0, 3, 2), (0, 0, 1, 1)])) == [
        "edge 2 (1,1): duplicate edge"
    ]


def test_validate_dangling_and_nonpositive():
    assert violations(lambda: ProblemInstance.from_edges(
        kind=Kind.BTP,
        supply=(0,),
        budget=(10,),
        edges=(EdgeSpec(0, 3, 1, 1),),
    )) == ["non-positive supply at source 1", "edge 1 (1,4): dangling sink index"]


def test_validate_lists_every_fault_in_order():
    assert violations(lambda: ProblemInstance.from_edges(
        kind=Kind.BTP,
        supply=(5, 0),
        budget=(10,),
        edges=(
            EdgeSpec(0, 0, 3, 2),
            EdgeSpec(2, 0, -1, 0),
            EdgeSpec(1, 1, 4, 1, capacity=0),
            EdgeSpec(0, 0, 1, 1),
        ),
    )) == [
        "non-positive supply at source 2",
        "edge 2 (3,1): dangling source index",
        "edge 2 (3,1): zero price",
        "edge 2 (3,1): negative profit",
        "edge 3 (2,2): dangling sink index",
        "edge 3 (2,2): non-positive capacity",
        "edge 3 (2,2): capacity on a btp instance",
        "edge 4 (1,1): duplicate edge",
    ]


@pytest.mark.parametrize(
    "kind, supply, budget, edge, fault",
    [
        (Kind.BTP, (5, 5), (10, 10), EdgeSpec(2, 1, 3, 2), "edge 2 (3,2): dangling source index"),
        (Kind.BTP, (5, 5), (10, 10), EdgeSpec(-1, 1, 3, 2), "edge 2 (0,2): dangling source index"),
        (Kind.BTP, (5, 5), (10, 10), EdgeSpec(1, 2, 3, 2), "edge 2 (2,3): dangling sink index"),
        (Kind.BTP, (5, 5), (10, 10), EdgeSpec(1, -1, 3, 2), "edge 2 (2,0): dangling sink index"),
        (Kind.BTP, (5, 5), (10, 10), EdgeSpec(1, 1, 3, 0), "edge 2 (2,2): zero price"),
        (Kind.BTP, (5, 5), (10, 10), EdgeSpec(1, 1, -3, 2), "edge 2 (2,2): negative profit"),
        (Kind.BTS, (5, 5), (10, 10), EdgeSpec(1, 1, 3, 2, 0),
         "edge 2 (2,2): non-positive capacity"),
        (Kind.BTP, (5, 5), (10, 10), EdgeSpec(1, 1, 3, 2, 4),
         "edge 2 (2,2): capacity on a btp instance"),
        (Kind.BTS, (5, 5), (10, 10), EdgeSpec(0, 0, 1, 1), "edge 2 (1,1): duplicate edge"),
        (Kind.BTP, (5, 0), (10, 10), EdgeSpec(1, 1, 3, 2), "non-positive supply at source 2"),
        (Kind.BTP, (5, 5), (10, -1), EdgeSpec(1, 1, 3, 2), "non-positive budget at sink 2"),
    ],
)
def test_validate_finds_each_fault_alone(kind, supply, budget, edge, fault):
    # an instance with one fault, so that no other test sends it to the full listing
    first = EdgeSpec(0, 0, 3, 2, 4 if kind is Kind.BTS else None)
    assert violations(lambda: ProblemInstance.from_edges(kind, supply, budget, (first, edge))) == [fault]


@pytest.mark.parametrize("supply, budget, fault", [((), (5,), "no sources"),
                                                    ((5,), (), "no sinks")])
def test_validate_needs_a_source_and_a_sink(supply, budget, fault):
    assert violations(lambda: ProblemInstance.from_edges(Kind.BTP, supply, budget, ())) == [fault]


ONE_BY_ONE = "p btp 1 1 1\ns 1 5\nt 1 10\ne 1 1 3 2\n"
ONE_PROFILE = "p pw 1 1 1\ns 1 6\nt 1 50\ne 1 1 3 pw 2 5 3\n"


def counted(monkeypatch, module, name: str) -> list:
    """Replace module.name with a wrapper that records each argument and then
    runs the original check."""
    calls = []
    check = getattr(module, name)

    def wrapper(value):
        calls.append(value)
        check(value)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "build, instance_checks, piecewise_checks",
    [
        (lambda valid: solve(parse(ONE_BY_ONE), SolverConfig(max_phases=PHASE_CAP)), 1, 0),
        (lambda valid: generate(seed=0, n=2, m=2, density=1.0), 1, 0),
        (lambda valid: split_piecewise(parse_piecewise(ONE_PROFILE)), 1, 1),
        (lambda valid: violations(lambda: replace(valid, supply=(0,))), 1, 0),
    ],
    ids=["solve-parse", "generate", "split-parse_piecewise", "replace-invalid"],
)
def test_each_value_is_validated_exactly_once(monkeypatch, one_by_one, build,
                                              instance_checks, piecewise_checks):
    instance_calls = counted(monkeypatch, budget_flow.instance, "validate")
    piecewise_calls = counted(monkeypatch, budget_flow.reductions, "validate_piecewise")
    build(one_by_one)
    assert (len(instance_calls), len(piecewise_calls)) == (instance_checks, piecewise_checks)


def test_parse_minimal():
    text = "p btp 1 1 1\ns 1 5\nt 1 10\ne 1 1 3 2\n"
    inst = parse(text)
    assert inst.kind is Kind.BTP
    assert inst.supply == (5,) and inst.budget == (10,)
    assert inst.edges[0] == EdgeSpec(0, 0, 3, 2)


def test_parse_header_count_mismatch():
    text = "p btp 1 1 2\ns 1 5\nt 1 10\ne 1 1 3 2\n"
    with pytest.raises(InstanceFormatError):
        parse(text)


def test_parse_bts_capacity():
    text = "p bts 1 1 1\ns 1 5\nt 1 10\ne 1 1 3 2 4\n"
    inst = parse(text)
    assert inst.kind is Kind.BTS
    assert inst.edges[0].capacity == 4


def test_parse_rejects_capacity_on_btp():
    text = "p btp 1 1 1\ns 1 5\nt 1 10\ne 1 1 3 2 4\n"
    with pytest.raises(InstanceFormatError):
        parse(text)


def test_parse_comments_and_validation_failure():
    text = "# comment\np btp 1 1 1\ns 1 5\nt 1 10\ne 1 1 3 0\n"
    with pytest.raises(InstanceValidationError):
        parse(text)


def test_serialize_parse_round_trip():
    for seed in range(20):
        try:
            inst = generate(seed=seed, n=1 + seed % 4, m=1 + seed % 3, density=0.8,
                            u_range=(1, 7) if seed % 2 else None)
        except ValueError:
            continue
        text = serialize(inst)
        assert serialize(parse(text)) == text


def test_generate_deterministic_and_valid():
    a = generate(seed=0, n=2, m=2, density=1.0)
    b = generate(seed=0, n=2, m=2, density=1.0)
    assert a == b
    assert len(a.edges) == 4
    assert replace(a) == a  # constructing again raises nothing


def test_generate_full_density_edge_count():
    inst = generate(seed=7, n=3, m=3, density=1.0)
    assert len(inst.edges) == 9


def test_generate_rejects_bad_density():
    with pytest.raises(ValueError):
        generate(seed=0, n=2, m=2, density=0.0)


def test_diagnostics_single_edge():
    inst = btp([5], [10], [(0, 0, 3, 2)])
    diag = diagnostics(inst, Fraction(1, 2))
    assert diag.U == 2
    # m = 1 counts as 2 in the log: 4 * (1 + 1 * log2 2)
    assert diag.ops_per_rise_allowance == 8


def test_diagnostics_spread():
    inst = btp([1, 1], [1, 1], [(0, 0, 1, 1), (1, 1, 4, 1)])
    diag = diagnostics(inst, Fraction(1))
    assert diag.U == 4
    assert diag.beta_rise_bound == 2 * ceil_log(Fraction(4), Fraction(2))
    assert diag.beta_rise_bound == 4
    assert diag.ops_per_rise_allowance == 4 * (2**2 + 2 * 1)


def test_diagnostics_all_zero_profit_errors():
    inst = btp([1], [1], [(0, 0, 0, 1)])
    with pytest.raises(ValueError):
        diagnostics(inst, Fraction(1, 2))


def test_diagnostics_ignores_edge_order():
    edges = [(0, 0, 3, 2), (0, 1, 7, 1), (1, 0, 1, 4)]
    inst1 = btp([5, 5], [9, 9], edges)
    inst2 = btp([5, 5], [9, 9], list(reversed(edges)))
    eps = Fraction(1, 4)
    assert diagnostics(inst1, eps).U == diagnostics(inst2, eps).U


def test_solver_config_epsilon_bounds():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=Fraction(1))
    with pytest.raises(ValueError):
        SolverConfig(epsilon=Fraction(0))
    assert SolverConfig(epsilon=Fraction(1, 10)).epsilon == Fraction(1, 10)


def test_solver_config_epsilon_is_always_a_fraction():
    eps = SolverConfig(epsilon=0.25).epsilon
    assert eps == Fraction(1, 4) and type(eps) is Fraction
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be in"):
            SolverConfig(epsilon=bad)


def test_solver_config_rejects_an_unknown_numeric_mode():
    with pytest.raises(ValueError, match="numeric_mode must be 'exact' or 'float'"):
        SolverConfig(numeric_mode="fast")


def test_ceil_log_needs_a_base_above_1():
    with pytest.raises(ValueError, match="base must exceed 1"):
        ceil_log(2, 1)


def test_solver_config_rejects_a_negative_phase_cap():
    with pytest.raises(ValueError, match="max_phases must be at least 0, not -1"):
        SolverConfig(max_phases=-1)
    assert SolverConfig(max_phases=0).max_phases == 0
