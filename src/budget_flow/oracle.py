"""Exact optimum for small instances; the ground truth behind approximation tests.

All arithmetic is over Fractions.  The workhorse is a dense rational simplex
with Bland's rule.  The inequality LP has an all-slack feasible start, so it
needs one phase.  The tests cross-check the simplex against a brute-force
vertex enumeration at very small sizes.
"""

from __future__ import annotations

from fractions import Fraction

from .instance import ProblemInstance

ORACLE_EDGE_LIMIT = 100


class OracleSizeError(ValueError):
    """Instance exceeds the size this oracle is meant for."""


def _lp_rows(instance: ProblemInstance) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Inequality rows (source, sink, capacity) of the instance LP, each with
    one coefficient per edge, and their right-hand sides."""
    zero, one = Fraction(0), Fraction(1)
    capped = [e for e, u in enumerate(instance.capacity) if u is not None]
    rows = [[one if s == i else zero for s in instance.src] for i in range(instance.n)]
    rows += [[Fraction(p) if d == j else zero for d, p in zip(instance.dst, instance.price)]
             for j in range(instance.m)]
    rows += [[one if f == e else zero for f in range(len(instance.src))] for e in capped]
    rhs = [Fraction(x) for x in instance.supply + instance.budget]
    return rows, rhs + [Fraction(instance.capacity[e]) for e in capped]


def _identity_tableau(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[list[Fraction]]:
    """Rows [A | I | b]: each row gets its own unit column, its starting basis."""
    return [
        list(row) + [Fraction(int(k == r)) for k in range(len(rows))] + [Fraction(b)]
        for r, (row, b) in enumerate(zip(rows, rhs))
    ]


def _pivot(tableau: list[list[Fraction]], leave: int, enter: int) -> None:
    """Make column `enter` basic in row `leave`, eliminating it from every other row."""
    pivot = tableau[leave][enter]
    tableau[leave] = [v / pivot for v in tableau[leave]]
    for r, row in enumerate(tableau):
        if r != leave and row[enter] != 0:
            f = row[enter]
            tableau[r] = [a - f * b for a, b in zip(row, tableau[leave])]


def _bland(tableau: list[list[Fraction]], basis: list[int]) -> list[Fraction]:
    """Maximize from a feasible basis by Bland's rule; returns every column's value.

    Each row ends with its right-hand side; the last row holds the negated
    costs and basis[r] is row r's basic column.  The cost row is first priced
    out against the basis.  The lowest column with a negative reduced cost
    enters; the minimum ratio leaves, ties going to the lowest basic column.
    Raises on an unbounded problem.
    """
    for r, var in enumerate(basis):
        f = tableau[-1][var]
        if f != 0:
            tableau[-1] = [a - f * b for a, b in zip(tableau[-1], tableau[r])]
    while True:
        costs = tableau[-1]
        enter = next((j for j in range(len(costs) - 1) if costs[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for r in range(len(basis)):
            coef = tableau[r][enter]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    leave, best = r, ratio
        if leave is None:
            raise ArithmeticError("LP is unbounded")
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    x = [Fraction(0)] * (len(tableau[-1]) - 1)
    for r, var in enumerate(basis):
        x[var] = tableau[r][-1]
    return x


def simplex_max(
    rows: list[list[Fraction]], rhs: list[Fraction], costs: list[Fraction]
) -> tuple[Fraction, list[Fraction]]:
    """Maximize costs.x over rows.x <= rhs, x >= 0 (rhs >= 0), exactly.

    Dense tableau, Bland's anticycling rule, started from the all-slack basis.
    Raises on unbounded problems, which well-formed transportation instances
    never produce.
    """
    nrows, ncols = len(rows), len(costs)
    tableau = _identity_tableau(rows, rhs)
    tableau.append([-c for c in costs] + [Fraction(0)] * (nrows + 1))
    x = _bland(tableau, list(range(ncols, ncols + nrows)))[:ncols]
    value = sum((c * v for c, v in zip(costs, x)), start=Fraction(0))
    return value, x


def exact_opt(instance: ProblemInstance) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum value and an optimal flow for a small instance.

    Guarded at ORACLE_EDGE_LIMIT edges, where one solve takes up to a few
    seconds; beyond that this oracle is not meant to run.
    """
    if len(instance.src) > ORACLE_EDGE_LIMIT:
        raise OracleSizeError("instance too large for oracle")
    rows, rhs = _lp_rows(instance)
    costs = list(map(Fraction, instance.profit))
    value, x = simplex_max(rows, rhs, costs)
    assert all(v >= 0 for v in x)
    for row, cap in zip(rows, rhs):
        assert sum((a * v for a, v in zip(row, x)), start=Fraction(0)) <= cap
    return value, x


def approx_factor(instance: ProblemInstance, primal_value) -> Fraction | None:
    """solver value / exact optimum; None when the optimum is zero (vacuous)."""
    opt, _ = exact_opt(instance)
    if opt == 0:
        return None
    return Fraction(primal_value) / opt
