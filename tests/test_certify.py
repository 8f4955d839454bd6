import ast
import dataclasses
import importlib
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_certify as reference
from budget_flow.certify import CertificationError, certify, weak_duality_bound
from budget_flow.cli import parse_solution, solution_to_text
from budget_flow.instance import SolverConfig, generate
from budget_flow.oracle import exact_opt
from budget_flow.solver import solve
from conftest import PHASE_CAP, btp, bts
from test_derived_graph import small_instance

EPS4 = Fraction(1, 4)


def test_solver_output_certifies(two_sources_one_sink):
    sol = solve(two_sources_one_sink, SolverConfig(epsilon=EPS4, max_phases=PHASE_CAP))
    assert sol.terminated
    cert = certify(two_sources_one_sink, sol.flow, sol.alpha, sol.beta, EPS4)
    assert cert.passed
    assert cert.gap_ratio is not None and cert.gap_ratio <= EPS4


def test_budget_violation_is_reported():
    inst = btp([5], [10], [(0, 0, 3, 2)])
    # one unit past the budget: 2*6 = 12 > 10
    cert = certify(inst, [Fraction(6)], [Fraction(0)], [Fraction(0)], EPS4)
    assert not cert.primal_feasible
    assert any("sink 1" in v for v in cert.primal_violations)
    assert not cert.passed


def test_a_gap_of_exactly_epsilon_passes():
    # primal 8, dual 9: dual/primal - 1 is exactly 1/8, and the edge's slack 1 is eps*c
    inst = btp([1], [100], [(0, 0, 8, 1)])
    cert = certify(inst, [Fraction(1)], [Fraction(9)], [Fraction(0)], Fraction(1, 8))
    assert cert.gap_ratio == Fraction(1, 8)
    assert cert.passed


@pytest.mark.parametrize("alpha, beta, violation", [
    ((8, -1), (0, 0), "negative alpha at source 2"),
    ((8, 8), (0, -1), "negative beta at sink 2"),
])
def test_a_negative_dual_is_named_by_its_node(alpha, beta, violation):
    inst = btp([1, 1], [10, 10], [(0, 0, 8, 1), (1, 1, 1, 1)])
    cert = certify(inst, [Fraction(0)] * 2, list(map(Fraction, alpha)),
                   list(map(Fraction, beta)), EPS4)
    assert violation in cert.dual_violations
    assert not cert.dual_feasible and not cert.passed


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_edge_violations_name_the_edge_as_the_files_do(mode):
    # edge 2 (1,2) carries a negative flow, edge 3 (2,2) more than its
    # capacity, and edge 1 (1,1) has c - p*beta - alpha = 3 > 0
    inst = bts([9, 9], [100, 100], [(0, 0, 3, 1, None), (0, 1, 0, 1, None), (1, 1, 1, 1, 2)])
    number = Fraction if mode == "exact" else float
    cert = certify(inst, list(map(number, (0, -1, 3))), [number(0), number(1)],
                   [number(0), number(0)], EPS4, rigorous=mode == "exact")
    assert list(cert.primal_violations) == [
        "negative flow on edge 2 (1,2)", "capacity exceeded on edge 3 (2,2)"]
    assert list(cert.dual_violations) == ["dual constraint violated on edge 1 (1,1)"]


def test_each_violation_gets_its_own_line():
    # over budget at sink 1 and a negative alpha: one primal, one dual violation
    inst = btp([5], [10], [(0, 0, 3, 2)])
    cert = certify(inst, [Fraction(6)], [Fraction(-1)], [Fraction(0)], EPS4)
    found = cert.primal_violations + cert.dual_violations
    assert cert.primal_violations and cert.dual_violations
    lines = cert.to_lines()
    assert lines[-len(found):] == [f"cert violation {v}" for v in found]
    assert sum(line.startswith("cert violation ") for line in lines) == len(found)


def test_initial_state_is_vacuous():
    inst = btp([5], [10], [(0, 0, 3, 2)])
    cert = certify(inst, [Fraction(0)], [Fraction(3)], [Fraction(0)], EPS4)
    assert cert.primal_feasible and cert.dual_feasible
    assert cert.gap_status == "vacuous"
    assert cert.gap_ratio is None
    assert not cert.passed  # positive alpha with unused supply


def test_zero_instance_vacuous_pass():
    inst = btp([5], [10], [(0, 0, 0, 2)])
    cert = certify(inst, [Fraction(0)], [Fraction(0)], [Fraction(0)], EPS4)
    assert cert.passed
    assert cert.gap_status == "vacuous"


@pytest.mark.parametrize("tol", [1e-9, Fraction(1, 10**9)])
def test_rigorous_certificate_with_a_tolerance_raises(one_by_one, tol):
    with pytest.raises(ValueError, match="tol must be 0"):
        certify(one_by_one, [Fraction(0)], [Fraction(0)], [Fraction(0)], EPS4, tol=tol)


def test_dimension_mismatch_raises(one_by_one):
    with pytest.raises(CertificationError):
        certify(one_by_one, [Fraction(0), Fraction(0)], [Fraction(0)], [Fraction(0)], EPS4)


def test_gamma_is_reconstructed_not_trusted():
    inst = bts([5], [100], [(0, 0, 9, 1, 2)])
    flow = [Fraction(2)]
    alpha = [Fraction(4)]
    beta = [Fraction(0)]
    cert = certify(inst, flow, alpha, beta, EPS4)
    assert cert.gammas == ((0, Fraction(5)),)  # 9 - 0 - 4
    assert cert.dual_feasible


def test_gap_identity_holds_on_arbitrary_feasible_data():
    inst = btp([5, 3], [10, 4], [(0, 0, 3, 2), (0, 1, 2, 1), (1, 1, 4, 1)])
    flow = [Fraction(1), Fraction(2), Fraction(1)]
    alpha = [Fraction(3), Fraction(4)]
    beta = [Fraction(1, 2), Fraction(0)]
    cert = certify(inst, flow, alpha, beta, EPS4)
    assert cert.identity_ok  # identity is algebraic, independent of quality


def test_certificate_is_deterministic(two_sources_one_sink):
    sol = solve(two_sources_one_sink, SolverConfig(epsilon=EPS4, max_phases=PHASE_CAP))
    assert sol.terminated
    a = certify(two_sources_one_sink, sol.flow, sol.alpha, sol.beta, EPS4)
    b = certify(two_sources_one_sink, sol.flow, sol.alpha, sol.beta, EPS4)
    assert a == b
    assert "\n".join(a.to_lines()) == "\n".join(b.to_lines())


def test_oracle_value_between_primal_and_dual():
    for seed in (0, 4, 9, 16):
        try:
            inst = generate(seed=seed, n=3, m=3, density=0.8, u_range=(1, 5))
        except ValueError:
            continue
        sol = solve(inst, SolverConfig(epsilon=Fraction(1, 10), max_phases=20000))
        opt, _ = exact_opt(inst)
        assert sol.certificate.primal_value <= opt <= sol.certificate.dual_value


def test_weak_duality_bound(two_sources_one_sink):
    sol = solve(two_sources_one_sink, SolverConfig(epsilon=EPS4, max_phases=PHASE_CAP))
    assert sol.terminated
    bound = weak_duality_bound(sol.certificate)
    opt, _ = exact_opt(two_sources_one_sink)
    assert bound >= opt


def test_weak_duality_bound_requires_feasibility(one_by_one):
    cert = certify(one_by_one, [Fraction(100)], [Fraction(0)], [Fraction(0)], EPS4)
    assert not cert.primal_feasible
    with pytest.raises(ValueError):
        weak_duality_bound(cert)


def test_weak_duality_factor_arithmetic():
    # primal 20, dual 21: optimum confined to [20, 21]
    inst = btp([5], [10], [(0, 0, 3, 2)])
    sol = solve(inst, SolverConfig(epsilon=EPS4, max_phases=PHASE_CAP))
    assert sol.terminated
    assert sol.certificate.primal_value == 15
    assert weak_duality_bound(sol.certificate) == 15  # factor exactly 1 here


def test_certify_stands_apart_from_the_solver():
    # `verify` trusts nothing the solver holds, so the module must not reach it
    module = importlib.import_module("budget_flow.certify")
    tree = ast.parse(inspect.getsource(module))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"state", "derived_graph", "solver"}


# -- the package against tests/reference_certify.py ---------------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

DAMAGES = [
    "none", "reparsed", "negative", "over_capacity", "doubled",
    "dual", "cs", "jitter", "zero_flow", "ints", "integral",
]


def damage(kind, inst, flow, alpha, beta, pick, exact):
    """A copy of (flow, alpha, beta) broken as `kind` names; `pick` chooses where."""
    flow, alpha, beta = list(flow), list(alpha), list(beta)
    one = Fraction(1) if exact else 1.0
    e, i = pick % len(flow), pick % len(alpha)
    capped = [d for d, spec in enumerate(inst.edges) if spec.capacity is not None]
    if kind == "negative":
        flow[e] = -(flow[e] or one)
    elif kind == "over_capacity" and capped:
        d = capped[pick % len(capped)]
        flow[d] = inst.edges[d].capacity + one / 2
    elif kind in ("doubled", "over_capacity"):
        flow = [2 * f for f in flow]
    elif kind == "dual":
        alpha = [a / 2 for a in alpha]
    elif kind == "cs":
        flow[e] /= 2
        alpha[i] += one
    elif kind == "jitter":
        # off-grid duals, so that float sums round and their order shows
        alpha = [a * (1 + one / 3001) + one / 7 for a in alpha]
        beta = [b * (1 - one / 7919) + one / 11 for b in beta]
    elif kind == "zero_flow":
        flow = [0 * f for f in flow]
        if pick % 2:
            alpha, beta = [0 * a for a in alpha], [0 * b for b in beta]
    elif kind == "ints":
        flow, alpha, beta = ([int(x) for x in v] for v in (flow, alpha, beta))
    elif kind == "integral":
        flow, alpha, beta = ([int(x) if x == int(x) else x for x in v] for v in (flow, alpha, beta))
    return flow, alpha, beta


def assert_same(x, y, what):
    # repr tells -0.0 from 0.0 and shows every bit of a float
    assert (type(x), repr(x)) == (type(y), repr(y)), what


@PROPERTY
@given(kind=st.sampled_from(["btp", "bts", "pw"]), mode=st.sampled_from(["exact", "float"]),
       eps=st.sampled_from([Fraction(1, 4), Fraction(1, 8)]), seed=st.integers(0, 10**6),
       n=st.integers(1, 4), m=st.integers(1, 4), hurt=st.sampled_from(DAMAGES),
       pick=st.integers(0, 10**6))
def test_certify_matches_reference(kind, mode, eps, seed, n, m, hurt, pick):
    # every field, the gammas too, equal in value and in type, float bits included
    inst = small_instance(kind, seed, n, m)
    config = SolverConfig(epsilon=eps, numeric_mode=mode, max_phases=PHASE_CAP)
    sol = solve(inst, config)
    exact = mode == "exact"
    if hurt == "reparsed":
        flow, alpha, beta, eps, parsed_mode = parse_solution(solution_to_text(sol), inst)
        assert parsed_mode == mode
    elif hurt in ("ints", "integral") and not exact:
        return  # int entries are an exact-mode input
    else:
        flow, alpha, beta = damage(hurt, inst, sol.flow, sol.alpha, sol.beta, pick, exact)
    tol = 0 if exact else config.float_tol
    # a non-rigorous certify reads its inputs as floats, re-parsed Fractions too
    read = (flow, alpha, beta) if exact else [[float(x) for x in v] for v in (flow, alpha, beta)]
    want = reference.certify(inst, *read, eps, rigorous=exact, tol=tol)
    got = certify(inst, flow, alpha, beta, eps, rigorous=exact, tol=tol)
    for field in dataclasses.fields(want):
        assert_same(getattr(got, field.name), getattr(want, field.name), field.name)


@pytest.mark.parametrize("kind", ["btp", "bts", "pw"])
def test_reread_float_certificate_equals_the_solve_certificate(kind):
    # a float written to a solution file reads back exactly, so `verify`
    # recomputes the solve's own certificate, float bits included
    for seed in range(6):
        inst = small_instance(kind, seed, 5, 5)
        config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode="float",
                              max_phases=PHASE_CAP)
        sol = solve(inst, config)
        flow, alpha, beta, eps, mode = parse_solution(solution_to_text(sol), inst)
        assert mode == "float"
        cert = certify(inst, flow, alpha, beta, eps, rigorous=False, tol=config.float_tol)
        for field in dataclasses.fields(cert):
            assert_same(getattr(cert, field.name), getattr(sol.certificate, field.name),
                        field.name)


def assert_matches_reference(inst, flow, alpha, beta, eps):
    """The exact certificate, gammas included, equals the reference's, type included."""
    want = reference.certify(inst, flow, alpha, beta, eps)
    got = certify(inst, flow, alpha, beta, eps)
    for field in dataclasses.fields(want):
        assert_same(getattr(got, field.name), getattr(want, field.name), field.name)
    return got


@pytest.fixture(scope="module")
def rung_solutions():
    # the ladder's rungs, generate(seed=3, density=0.7), bts with u_range=(1, 8)
    solutions = {}
    for size in (20, 40):
        for kind in ("btp", "bts"):
            inst = generate(seed=3, n=size, m=size, density=0.7,
                            u_range=(1, 8) if kind == "bts" else None)
            sol = solve(inst, SolverConfig(epsilon=Fraction(1, 8), max_phases=PHASE_CAP))
            assert sol.terminated and sol.certificate.passed
            solutions[size, kind] = sol
    return solutions


@pytest.mark.parametrize("size", [20, 40])
@pytest.mark.parametrize("kind", ["btp", "bts"])
@pytest.mark.parametrize("hurt", DAMAGES)
def test_certify_matches_reference_at_rung_scale(rung_solutions, size, kind, hurt):
    # the property test reaches n, m <= 4; here the common denominators are
    # those of real runs, and jitter's off-grid duals make the duals' one grow
    sol = rung_solutions[size, kind]
    inst = sol.instance
    for pick in (0, 7919):
        if hurt == "reparsed":
            flow, alpha, beta, _, _ = parse_solution(solution_to_text(sol), inst)
        else:
            flow, alpha, beta = damage(hurt, inst, sol.flow, sol.alpha, sol.beta, pick, True)
        assert_matches_reference(inst, flow, alpha, beta, Fraction(1, 8))


@pytest.mark.parametrize("kind", ["btp", "bts"])
def test_certify_matches_reference_on_duals_over_many_primes(rung_solutions, kind):
    # every alpha and beta gets its own prime denominator, so the duals' common
    # denominator is the product of 80 primes while each node's stays small
    sol = rung_solutions[40, kind]
    inst = sol.instance
    primes = [p for p in range(3, 600) if all(p % q for q in range(2, int(p**0.5) + 1))]
    alpha = [a + Fraction(1, p) for a, p in zip(sol.alpha, primes)]
    beta = [b + Fraction(1, p) for b, p in zip(sol.beta, primes[inst.n:])]
    assert math.lcm(*(x.denominator for x in alpha + beta)).bit_length() > 600
    cert = assert_matches_reference(inst, sol.flow, alpha, beta, Fraction(1, 8))
    assert cert.dual_feasible  # raising a dual keeps it feasible


ZERO_KINDS = {
    "int": lambda: 0,
    "fraction": lambda: Fraction(0),  # a new object per edge
    "float": lambda: 0.0,
    "negative-float": lambda: -0.0,
}


# a float zero is no exact-mode input: the reference would add it to its sums
ZERO_CASES = [("exact", ("int",)), ("exact", ("fraction",)), ("exact", ("int", "fraction")),
              *(("float", (k,)) for k in ZERO_KINDS), ("float", tuple(ZERO_KINDS))]


@pytest.mark.parametrize("mode, kinds", ZERO_CASES,
                         ids=[f"{mode}-{'+'.join(kinds)}" for mode, kinds in ZERO_CASES])
@pytest.mark.parametrize("kind", ["btp", "bts", "pw"])
def test_zero_flows_of_any_type_certify_as_the_reference_does(kind, mode, kinds):
    # the support is found without asking each zero whether it is zero
    exact = mode == "exact"
    config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
    for seed in range(4):
        inst = small_instance(kind, seed, 3 + seed % 2, 4)
        sol = solve(inst, config)
        flow = [f if f else ZERO_KINDS[kinds[e % len(kinds)]]() for e, f in enumerate(sol.flow)]
        if seed % 2:  # a nonzero flow on the first edge, so the first zero comes later
            flow[0] = flow[0] or (Fraction(1, 3) if exact else 1 / 3)
        read = (flow, sol.alpha, sol.beta)
        if not exact:
            read = [[float(x) for x in v] for v in read]
        tol = 0 if exact else config.float_tol
        want = reference.certify(inst, *read, config.epsilon, rigorous=exact, tol=tol)
        got = certify(inst, flow, sol.alpha, sol.beta, config.epsilon, rigorous=exact, tol=tol)
        for field in dataclasses.fields(want):
            assert_same(getattr(got, field.name), getattr(want, field.name), field.name)
