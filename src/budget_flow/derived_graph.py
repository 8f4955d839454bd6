"""Directed residual structure: preferred edges, back edges, best-sink heaps.

Forward arcs are each source's preferred edge (best effective profit among
unsaturated edges); reverse arcs are back edges: stale edges, whose flow was
assigned below the sink's current price level, that may give flow back.
Paths and cycles for the production solver are walked here.

During a run the graph is the only writer of flows and sink prices:
`move_flow`, `promote` and `raise_beta`.  `_stale[j]`, the in-edges of sink j
that carry stale flow, is the one record of it: a rise makes every flowing
in-edge stale, and a promotion, a `revalue` move or clearing the flow makes an
edge fresh.  A clean source's preferred edge is unsaturated, so a two-cycle
check can promote it only when it is stale and has a stale sibling; the
two-cycle sweep visits only dirty sources and those.
Heap entries are stamped with their sink's `dual.level`, which `raise_beta`,
the only price writer, bumps along with beta.  Keys only fall as beta rises,
so an old stamp is an upper bound, re-keyed when it reaches the top; a rise
pushes nothing and dirties only sources whose preferred edge enters the sink.
Each edge has one entry at most (`_queued`).  An entry is
`(-float_key, tie, dst, e, level)`, ordered exactly as `(-key, dst, e)`.  In
exact mode the key c - p*beta is kn/Db, kn = c*Db - p*Nb: float_key is the
correctly rounded int division `kn / Db`, as float() of kn/Db reduced, or
+-inf beyond the float range, so it is monotone, and only equal floats read
`tie = ExactKey(kn, Db)`.  In float mode the key is a float and `tie` is None.
In exact mode a saturated edge's slack c - p*beta - alpha is tested in
integers, as `(c*Db - p*Nb)*Da > Na*Db`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

from .instance import ProblemInstance
from .state import DualState, PrimalState, RunStats


class PathKind(Enum):
    TYPE_I = "path"          # ends at an alpha=0 source or an unsaturated sink
    TYPE_II = "two-cycle"    # ends on a preferred edge that is also a back edge
    TYPE_III = "cycle"       # a source or sink repeated
    STALLED = "stalled"      # saturated sink with no back edge: price must rise


@dataclass
class Path:
    """Alternating walk of edge indices: forward edges at even positions, back
    edges at odd ones.

    Step q leaves walk vertex q, which is a source when q is even and a sink
    when q is odd.  A walk of even length ends at a source; an odd one ends at
    the sink of `steps[-1]`, which for TYPE_II is the two-cycle edge and for
    STALLED the edge into the stalled sink.
    """

    kind: PathKind
    steps: list[int]
    cycle_start: int | None = None

    def split_cycle(self) -> tuple[list[int], list[int]]:
        """Decompose a TYPE_III walk into the prefix and the cycle.

        The prefix ends at the cycle's entry source; if the repeated vertex is
        a sink the cycle is rotated so it starts at the following source.
        """
        if self.kind is not PathKind.TYPE_III:
            raise ValueError("split_cycle applies to cycle walks only")
        q = self.cycle_start
        if q % 2 == 0:
            return self.steps[:q], self.steps[q:]
        return self.steps[: q + 1], self.steps[q + 1 :] + [self.steps[q]]


class ExactKey:
    """Exact heap key kn/d (d > 0), higher first; read only on a float tie."""

    __slots__ = ("kn", "d")

    def __init__(self, kn: int, d: int):
        self.kn, self.d = kn, d

    def __eq__(self, other) -> bool:
        return self.kn * other.d == other.kn * self.d

    def __lt__(self, other) -> bool:
        return self.kn * other.d > other.kn * self.d


class DerivedGraph:
    """Owns the heaps, preferred edges and lazy alpha refresh for one run,
    from the zero flow that `make_states` gives."""

    def __init__(
        self,
        instance: ProblemInstance,
        primal: PrimalState,
        dual: DualState,
        stats: RunStats | None = None,
    ):
        self.instance = instance
        self.primal = primal
        self.dual = dual
        self.num = dual.num
        self.stats = stats if stats is not None else RunStats()
        self.preferred: list[int | None] = [None] * instance.n
        self._heaps: list[list] = [[] for _ in range(instance.n)]
        self._saturated = [False] * len(instance.edges)
        self._queued = [False] * len(instance.edges)
        self._dirty: set[int] = set(range(instance.n))
        self._stale: list[set[int]] = [set() for _ in range(instance.m)]
        for e, spec in enumerate(instance.edges):
            heapq.heappush(self._heaps[spec.src], self._entry(e))
        for i in range(instance.n):
            self.ensure_fresh(i)

    # -- heap bookkeeping ---------------------------------------------------

    def _entry(self, e: int) -> tuple:
        spec = self.instance.edges[e]
        dst = spec.dst
        self.stats.bump("heap_updates")
        self._queued[e] = True
        if self.num.exact:
            nb, db = self.dual.beta[dst].as_integer_ratio()
            kn = spec.profit * db - spec.price * nb
            try:
                key = kn / db
            except OverflowError:
                key = math.inf if kn > 0 else -math.inf
            return (-key, ExactKey(kn, db), dst, e, self.dual.level[dst])
        return (-self.dual.effective_profit(e), None, dst, e, self.dual.level[dst])

    def ensure_fresh(self, i: int) -> None:
        if i in self._dirty:
            self.rebuild_preferred(i)

    # -- writers ----------------------------------------------------------------

    def move_flow(self, e: int, delta, revalue: bool) -> int:
        """Add `delta`, in the primal state's units, to edge e's flow; returns
        the edge's sink.

        Flow that lands on zero, or on float dust below it, is cleared; it and
        flow moved with `revalue` are then assigned at the sink's current level.
        """
        primal, num = self.primal, self.num
        primal.add_flow(e, delta)
        self.stats.bump("flow_updates")
        spec = self.instance.edges[e]
        j = spec.dst
        zeroed = not num.is_pos(primal.flow[e])
        if zeroed:
            primal.flow[e] = primal.zero
            self.stats.bump("back_edge_zeroings")
        if zeroed or revalue:
            self._stale[j].discard(e)
        now = primal.edge_saturated(e)
        if delta > 0 and now:
            self.stats.bump("forward_saturations")
        if now != self._saturated[e]:
            self._saturated[e] = now
            if not now and not self._queued[e]:
                heapq.heappush(self._heaps[spec.src], self._entry(e))
            self._dirty.add(spec.src)
        return j

    def promote(self, e: int) -> None:
        """Re-assign edge e's flow, if it has any, at its sink's current level."""
        self._stale[self.instance.edges[e].dst].discard(e)

    def raise_beta(self, j: int, value) -> None:
        """Set sink j's price to `value` (its first, or a rise) one level up.

        Every in-edge of j carrying flow, which `move_flow` leaves exactly zero
        or positive, is then stale.
        """
        self.stats.bump("beta_rises" if self.dual.level[j] else "beta_inits")
        self.dual.raise_beta(j, value)
        edges, flow, preferred = self.instance.edges, self.primal.flow, self.preferred
        stale = self._stale[j] = set()
        for e in self.instance.edges_of_sink(j):
            if flow[e]:
                stale.add(e)
            i = edges[e].src
            if preferred[i] == e:
                self._dirty.add(i)

    # -- graph operations -------------------------------------------------------

    def rebuild_preferred(self, i: int) -> int | None:
        """Re-pick source i's preferred edge from the heap top and refresh alpha.

        A saturated top is dropped and one stamped at an old level re-keyed in
        place.  Ties already break toward the lowest sink index through the
        heap ordering.  Returns None when i has no unsaturated edge.
        """
        heap = self._heaps[i]
        best = alpha = None
        while heap:
            _, _, dst, e, level = heap[0]
            if self._saturated[e]:
                heapq.heappop(heap)
                self._queued[e] = False
                self.stats.bump("heap_updates")
            elif level != self.dual.level[dst]:
                heapq.heapreplace(heap, self._entry(e))
            else:
                best, key = e, self.dual.effective_profit(e)
                alpha = key if self.num.is_pos(key) else None
                break
        self.preferred[i] = best
        self.dual.alpha[i] = self.dual.zero if alpha is None else alpha
        self._dirty.discard(i)
        return best

    def back_edges(self, j: int) -> list[int]:
        """Stale in-edges of j that may give flow back, ordered by (source, edge).

        A saturated edge qualifies only once its price slack c - p*beta - alpha
        has dropped to zero or below; until then its implicit edge dual covers it.
        """
        stale = self._stale[j]
        if not stale:
            return []
        dual, edges, saturated = self.dual, self.instance.edges, self._saturated
        exact = self.num.exact
        if exact:
            nb, db = dual.beta[j].as_integer_ratio()
        result = []
        for e in stale:
            if saturated[e]:
                spec = edges[e]
                if spec.src in self._dirty:
                    self.rebuild_preferred(spec.src)
                a = dual.alpha[spec.src]
                if exact:
                    na, da = a.as_integer_ratio()
                    if (spec.profit * db - spec.price * nb) * da > na * db:
                        continue
                elif self.num.is_pos(dual.effective_profit(e) - a):
                    continue
            result.append(e)
        if len(result) > 1:
            result.sort(key=lambda e: (edges[e].src, e))
        return result

    def fix_two_cycle(self, i: int) -> bool:
        """Promote the preferred edge out of the back set when siblings remain.

        With several back edges at the sink, a preferred edge that is also a
        back edge would form a two-step loop; promoting its flow to the sink's
        level removes it while leaving the sink's price unchanged.  The
        lone back edge case is kept, since removing it would enable a price rise.
        """
        self.ensure_fresh(i)
        e = self.preferred[i]
        if e is None or not self.num.is_pos(self.dual.alpha[i]):
            # only live bidders re-assign at the current price level
            return False
        j = self.instance.edges[e].dst
        stale = self._stale[j]
        if e not in stale or len(stale) < 2:
            return False
        # e is unsaturated, so a stale e is one of j's back edges
        if len(self.back_edges(j)) > 1:
            self.promote(e)
            return True
        return False

    def remove_two_cycles(self, sources) -> None:
        """`fix_two_cycle` at each of `sources`, in order, that is dirty or
        prefers a stale edge with a stale sibling; a clean source that does
        not returns False."""
        edges = self.instance.edges
        for i in sources:
            if i not in self._dirty:
                e = self.preferred[i]
                if e is None:
                    continue
                stale = self._stale[edges[e].dst]
                if e not in stale or len(stale) < 2:
                    continue
            self.fix_two_cycle(i)

    def find_path(self, start: int) -> Path:
        """Walk preferred and back edges from `start` until a stop condition.

        Stops at: a source with alpha 0, a sink at level 0, a repeated vertex
        (cycle), a two-cycle (the preferred edge is the sink's sole back edge,
        or the back edge the walk just arrived by), or a saturated sink with no
        back edge at all (price rise pending).  The walk revisits within n+m
        steps, so its length never exceeds 2(n+m)+1.
        """
        steps: list[int] = []
        src_pos: dict[int, int] = {}
        snk_pos: dict[int, int] = {}
        limit = 2 * (self.instance.n + self.instance.m) + 1
        i = start
        while True:
            if len(steps) > limit:
                raise RuntimeError("derived-graph walk exceeded its length bound")
            self.stats.bump("walk_steps")
            self.ensure_fresh(i)
            if steps and self.num.is_zero(self.dual.alpha[i]):
                return Path(PathKind.TYPE_I, steps)
            self.fix_two_cycle(i)
            e = self.preferred[i]
            assert e is not None, "active source without a preferred edge"
            src_pos[i] = len(steps)
            steps.append(e)
            j = self.instance.edges[e].dst
            if j in snk_pos:
                if steps[-2] == e:
                    # back over e, then forward over e again: a two-cycle
                    return Path(PathKind.TYPE_II, steps)
                return Path(PathKind.TYPE_III, steps, cycle_start=snk_pos[j])
            if not self.dual.level[j]:
                return Path(PathKind.TYPE_I, steps)
            snk_pos[j] = len(steps)
            back = self.back_edges(j)
            if e in back:
                # after two-cycle preprocessing this is the sink's sole back edge
                return Path(PathKind.TYPE_II, steps)
            if not back:
                return Path(PathKind.STALLED, steps)
            b = back[0]
            steps.append(b)
            nxt = self.instance.edges[b].src
            if nxt in src_pos:
                return Path(PathKind.TYPE_III, steps, cycle_start=src_pos[nxt])
            i = nxt
