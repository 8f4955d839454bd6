"""Two-phase exact simplex for equality-form LPs, a test-only oracle.

It runs `budget_flow.oracle`'s pivot loop, so the tests that check it against
a support enumeration also cover the routine behind `exact_opt`.
"""

from __future__ import annotations

from fractions import Fraction

from budget_flow.oracle import _bland, _identity_tableau, _pivot


def solve_equality_lp(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    costs: list[Fraction],
    maximize: bool = True,
) -> tuple[Fraction, list[Fraction]]:
    """Optimize costs.x over {x >= 0 : Ax = b} by the two-phase simplex.

    Phase 1 gives each row (sign-flipped to a nonnegative right-hand side) an
    artificial column and minimizes their sum; a nonzero optimum means the
    system has no nonnegative solution.  Artificials still basic at zero are
    pivoted out, or their rows dropped as redundant, and phase 2 optimizes
    the real costs from that basis.  Raises ArithmeticError when infeasible
    or unbounded.
    """
    nrows, ncols = len(rows), len(costs)
    tableau = _identity_tableau(
        [[-a for a in row] if b < 0 else row for row, b in zip(rows, rhs)], [abs(b) for b in rhs]
    )
    tableau.append([Fraction(0)] * ncols + [Fraction(1)] * nrows + [Fraction(0)])
    basis = list(range(ncols, ncols + nrows))
    _bland(tableau, basis)
    if tableau[-1][-1] != 0:
        raise ArithmeticError("equality system has no nonnegative solution")
    for r in reversed(range(nrows)):
        if basis[r] >= ncols:
            enter = next((j for j in range(ncols) if tableau[r][j] != 0), None)
            if enter is None:
                del tableau[r], basis[r]  # redundant row
            else:
                _pivot(tableau, r, enter)
                basis[r] = enter
    sign = 1 if maximize else -1
    tableau = [row[:ncols] + row[-1:] for row in tableau[:-1]]
    tableau.append([-sign * Fraction(c) for c in costs] + [Fraction(0)])
    x = _bland(tableau, basis)
    return sum((c * v for c, v in zip(costs, x)), start=Fraction(0)), x
