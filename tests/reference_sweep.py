"""Reference two-cycle sweep: `fix_two_cycle` at every affected source.

The eager loop that `DerivedGraph.remove_two_cycles` filters.  It visits
each source it is given, in order, whether or not that source can promote,
so it pins what the filtered sweep must do: the same promotions in the same
order, and the same solution.
"""

from __future__ import annotations

from budget_flow.derived_graph import DerivedGraph


def full_sweep(graph: DerivedGraph, sources) -> None:
    for i in sources:
        graph.fix_two_cycle(i)


class PromotionLog(DerivedGraph):
    """The package graph; logs every promoted edge, the sweeps' and the
    two-cycle ends' alike, since both promote through `promote`, and counts
    `fix_two_cycle` calls."""

    def __init__(self, *args, **kwargs):
        self.promoted: list[int] = []
        self.visits = 0
        super().__init__(*args, **kwargs)

    def promote(self, e: int) -> None:
        self.promoted.append(e)
        super().promote(e)

    def fix_two_cycle(self, i: int) -> bool:
        self.visits += 1
        return super().fix_two_cycle(i)


class FullSweepGraph(PromotionLog):
    """The package graph with the eager sweep in place of the filtered one."""

    def remove_two_cycles(self, sources) -> None:
        full_sweep(self, sources)
