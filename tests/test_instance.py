from fractions import Fraction

import pytest

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
    validate,
)
from conftest import btp


def test_validate_minimal_ok(one_by_one):
    report = validate(one_by_one)
    assert report.ok and report.violations == ()


def test_validate_zero_price():
    inst = btp([5], [10], [(0, 0, 3, 0)])
    report = validate(inst)
    assert not report.ok
    assert any("zero price" in v for v in report.violations)


def test_validate_duplicate_edge():
    inst = btp([5], [10], [(0, 0, 3, 2), (0, 0, 1, 1)])
    report = validate(inst)
    assert any("duplicate edge" in v for v in report.violations)


def test_validate_dangling_and_nonpositive():
    inst = ProblemInstance(
        kind=Kind.BTP,
        supply=(0,),
        budget=(10,),
        edges=(EdgeSpec(0, 3, 1, 1),),
    )
    report = validate(inst)
    assert any("dangling sink" in v for v in report.violations)
    assert any("non-positive supply" in v for v in report.violations)


def test_validate_lists_every_fault_in_order():
    inst = ProblemInstance(
        kind=Kind.BTP,
        supply=(5, 0),
        budget=(10,),
        edges=(
            EdgeSpec(0, 0, 3, 2),
            EdgeSpec(2, 0, -1, 0),
            EdgeSpec(1, 1, 4, 1, capacity=0),
            EdgeSpec(0, 0, 1, 1),
        ),
    )
    assert validate(inst).violations == (
        "non-positive supply at source 2",
        "edge 2 (3,1): dangling source index",
        "edge 2 (3,1): zero price",
        "edge 2 (3,1): negative profit",
        "edge 3 (2,2): dangling sink index",
        "edge 3 (2,2): non-positive capacity",
        "edge 3 (2,2): capacity on a btp instance",
        "edge 4 (1,1): duplicate edge",
    )


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
    assert validate(a).ok


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


def test_solver_config_rejects_a_negative_phase_cap():
    with pytest.raises(ValueError, match="max_phases must be at least 0, not -1"):
        SolverConfig(max_phases=-1)
    assert SolverConfig(max_phases=0).max_phases == 0
