import random
from fractions import Fraction
from itertools import combinations

import pytest

from budget_flow.instance import SolverConfig, generate
from budget_flow.oracle import (
    ORACLE_EDGE_LIMIT,
    OracleSizeError,
    _lp_rows,
    approx_factor,
    exact_opt,
    simplex_max,
)
from budget_flow.solver import solve
from conftest import btp, bts
from reference_lp import solve_equality_lp


def test_single_edge_optimum(one_by_one):
    value, flow = exact_opt(one_by_one)
    assert value == 15
    assert flow == [Fraction(5)]


def test_two_source_optimum(two_sources_one_sink):
    value, flow = exact_opt(two_sources_one_sink)
    assert value == 25
    assert flow == [Fraction(0), Fraction(5)]


def test_capacity_changes_optimum():
    inst = bts(
        [10, 10],
        [10],
        [(0, 0, 2, 1, None), (1, 0, 5, 2, 2)],
    )
    value, flow = exact_opt(inst)
    assert value == 22  # 6*2 + 2*5
    assert flow == [Fraction(6), Fraction(2)]


def test_size_guard():
    inst = generate(seed=1, n=11, m=11, density=1.0)
    assert len(inst.edges) == 121 > ORACLE_EDGE_LIMIT
    with pytest.raises(OracleSizeError):
        exact_opt(inst)


def exact_opt_enumerated(instance):
    """Optimum by enumerating active constraint sets; tiny instances only.

    Every vertex of {x >= 0 : Ax <= b} makes |E| chosen constraints (rows or
    nonnegativity bounds) tight with a unique solution; the best feasible one
    is the optimum.  Cost grows as C(#rows+|E|, |E|), so this is the
    test reference for the simplex, not a production path.
    """
    ne = len(instance.edges)
    rows, rhs = _lp_rows(instance)
    for e in range(ne):  # nonnegativity as explicit rows -x_e <= 0
        row = [Fraction(0)] * ne
        row[e] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(0))
    total = len(rows)
    if total > 24 or ne > 6:
        raise OracleSizeError("instance too large for active-set enumeration")
    costs = [Fraction(spec.profit) for spec in instance.edges]
    best = None
    for active in combinations(range(total), ne):
        system = [rows[r] for r in active]
        target = [rhs[r] for r in active]
        x = solve_square(system, target)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(
            sum((a * v for a, v in zip(row, x)), start=Fraction(0)) > cap
            for row, cap in zip(rows, rhs)
        ):
            continue
        value = sum((c * v for c, v in zip(costs, x)), start=Fraction(0))
        if best is None or value > best:
            best = value
    assert best is not None, "origin is always feasible"
    return best


def solve_square(rows, rhs):
    """Solve a square rational system; None if singular."""
    size = len(rows)
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [v / head for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def test_simplex_agrees_with_enumeration():
    for seed in range(40):
        try:
            inst = generate(seed=seed, n=2, m=2, density=0.9,
                            u_range=(1, 4) if seed % 2 else None)
        except ValueError:
            continue
        value, _ = exact_opt(inst)
        assert value == exact_opt_enumerated(inst)


def test_oracle_upper_bounds_every_feasible_flow():
    rng = random.Random(0)
    for seed in range(20):
        try:
            inst = generate(seed=seed, n=3, m=3, density=0.8)
        except ValueError:
            continue
        opt, _ = exact_opt(inst)
        sol = solve(inst, SolverConfig(epsilon=Fraction(1, 4), max_phases=20000))
        assert sol.certificate.primal_value <= opt
        # random scaled-down feasible flows stay below the optimum too
        scale = Fraction(rng.randint(0, 4), 4)
        value = sum(
            spec.profit * f * scale for spec, f in zip(inst.edges, sol.flow)
        )
        assert value <= opt


def test_oracle_deterministic(two_sources_one_sink):
    assert exact_opt(two_sources_one_sink) == exact_opt(two_sources_one_sink)


def test_approx_factor_exact_hit(two_sources_one_sink):
    assert approx_factor(two_sources_one_sink, Fraction(25)) == 1


def test_approx_factor_zero_flow(two_sources_one_sink):
    assert approx_factor(two_sources_one_sink, Fraction(0)) == 0


def test_approx_factor_vacuous():
    inst = btp([1], [1], [(0, 0, 0, 1)])
    assert approx_factor(inst, Fraction(0)) is None


def test_approx_factor_in_band():
    eps = Fraction(1, 10)
    inst = generate(seed=12, n=3, m=3, density=1.0)
    sol = solve(inst, SolverConfig(epsilon=eps, max_phases=20000))
    factor = approx_factor(inst, sol.certificate.primal_value)
    assert Fraction(9, 10) <= factor <= 1


def test_simplex_handles_degenerate_rows():
    # duplicate-looking rows and zero objective entries
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]]
    rhs = [Fraction(4), Fraction(4), Fraction(2)]
    value, x = simplex_max(rows, rhs, [Fraction(3), Fraction(1)])
    assert value == 8  # x = (2, 2)
    assert x == [Fraction(2), Fraction(2)]


def test_simplex_raises_on_an_unbounded_lp():
    # -x <= 1 holds for every x >= 0, so x grows without bound
    with pytest.raises(ArithmeticError, match="unbounded"):
        simplex_max([[Fraction(-1)]], [Fraction(1)], [Fraction(1)])


def test_equality_lp_support_enumeration():
    # x1 + x2 = 3, x2 = 1 -> unique solution (2, 1)
    rows = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    rhs = [Fraction(3), Fraction(1)]
    value, x = solve_equality_lp(rows, rhs, [Fraction(5), Fraction(1)], maximize=True)
    assert x == [Fraction(2), Fraction(1)]
    assert value == 11


def support_enumeration(rows, rhs, costs, maximize):
    """Reference equality-LP optimum: the best nonnegative basic solution.

    Tries every column support, solves the induced system exactly and keeps
    the best nonnegative solution.  Exponential; None when there is none.
    """
    ncols = len(costs)
    best = None
    for k in range(ncols + 1):
        for support in combinations(range(ncols), k):
            x = solve_on_support(rows, rhs, support, ncols)
            if x is None or any(v < 0 for v in x):
                continue
            value = sum((c * v for c, v in zip(costs, x)), start=Fraction(0))
            if best is None or (value > best if maximize else value < best):
                best = value
    return best


def solve_on_support(rows, rhs, support, ncols):
    """Solve Ax=b with x zero outside `support`; None if inconsistent/ambiguous."""
    k = len(support)
    aug = [[row[c] for c in support] + [v] for row, v in zip(rows, rhs)]
    rank = 0
    for col in range(k):
        pivot = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            return None  # free column: not a basic solution for this support
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        head = aug[rank][col]
        aug[rank] = [v / head for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[rank])]
        rank += 1
    if any(aug[r][k] != 0 for r in range(rank, len(aug))):
        return None  # inconsistent
    x = [Fraction(0)] * ncols
    for idx, col in enumerate(support):
        x[col] = aug[idx][k]
    return x


def random_equality_lp(rng):
    """Bounded random LP with at most 8 columns; feasible about half the time.

    A last row sum(x) + s = 10 with a slack column s bounds it.  Some get a
    redundant row (the sum of the first two); the flag says which.
    """
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 7)
    rows = [[Fraction(rng.randint(-3, 4)) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.5:
        x0 = [Fraction(rng.randint(0, 3)) if rng.random() < 0.6 else Fraction(0)
              for _ in range(ncols)]
        rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
    else:
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(nrows)]
    redundant = nrows > 1 and rng.random() < 0.3
    if redundant:
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        rhs.append(rhs[0] + rhs[1])
    rows = [row + [Fraction(0)] for row in rows] + [[Fraction(1)] * (ncols + 1)]
    rhs.append(Fraction(10))
    costs = [Fraction(rng.randint(-5, 5)) for _ in range(ncols)] + [Fraction(0)]
    return rows, rhs, costs, redundant


def test_equality_lp_matches_support_enumeration():
    rng = random.Random(5)
    outcomes = {"feasible": 0, "infeasible": 0, "redundant": 0}
    for trial in range(300):
        rows, rhs, costs, redundant = random_equality_lp(rng)
        maximize = trial % 2 == 0
        expected = support_enumeration(rows, rhs, costs, maximize)
        if expected is None:
            with pytest.raises(ArithmeticError):
                solve_equality_lp(rows, rhs, costs, maximize=maximize)
            outcomes["infeasible"] += 1
            continue
        value, x = solve_equality_lp(rows, rhs, costs, maximize=maximize)
        assert value == expected, trial
        assert all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b
        assert sum(c * v for c, v in zip(costs, x)) == value
        outcomes["feasible"] += 1
        outcomes["redundant"] += redundant
    assert min(outcomes.values()) >= 20, outcomes


def test_equality_lp_has_no_column_cap():
    # 4x4 assignment LP: 16 columns, and one row is implied by the others;
    # the shifted diagonal pays 10 per unit, so it is the unique optimum
    n = 4
    rows, rhs = [], []
    for i in range(n):
        rows.append([Fraction(int(e // n == i)) for e in range(n * n)])
        rows.append([Fraction(int(e % n == i)) for e in range(n * n)])
        rhs += [Fraction(1), Fraction(1)]
    weight = [Fraction(10 if j == (i + 1) % n else (i * j) % 3)
              for i in range(n) for j in range(n)]
    value, x = solve_equality_lp(rows, rhs, weight, maximize=True)
    assert value == 40
    assert x == [Fraction(int(j == (i + 1) % n)) for i in range(n) for j in range(n)]
    value, _ = solve_equality_lp(rows, rhs, [-w for w in weight], maximize=False)
    assert value == -40
