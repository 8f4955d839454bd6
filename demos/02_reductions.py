"""Walkthrough: the piecewise-linear profit transform.

A concave piecewise-linear profit instance is split into parallel capacitated
segments, solved, and mapped back.
"""

from fractions import Fraction

from budget_flow import SolverConfig, solve
from budget_flow.reductions import (
    PiecewiseEdge,
    PiecewiseInstance,
    normalize_split_solution,
    piecewise_profit,
    reassemble,
    split_piecewise,
)

pw = PiecewiseInstance(
    supply=(6, 4),
    budget=(40, 25),
    segment_length=2,
    edges=(
        PiecewiseEdge(src=0, dst=0, price=3, slopes=(5, 3, 1)),  # diminishing returns
        PiecewiseEdge(src=0, dst=1, price=2, slopes=(4, 2)),
        PiecewiseEdge(src=1, dst=1, price=1, slopes=(6, 6)),     # linear is fine too
    ),
)
split, edge_map = split_piecewise(pw)
print(f"split: {len(pw.edges)} profile edges -> {len(split.edges)} capacitated segments")

solution = solve(split, SolverConfig(epsilon=Fraction(1, 10)))
normalized = normalize_split_solution(solution.flow, edge_map)
totals = reassemble(normalized, edge_map)
for o, edge in enumerate(pw.edges):
    profit = piecewise_profit(pw, o, totals[o])
    print(f"  pair ({edge.src + 1},{edge.dst + 1}): ships {totals[o]}, profit {profit}")
