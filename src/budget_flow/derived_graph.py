"""Directed residual structure: preferred edges, back edges, best-sink heaps.

Forward arcs are each source's preferred edge (best effective profit among
unsaturated edges); reverse arcs are back edges: stale edges, whose flow was
assigned below the sink's current price level, that may give flow back.
`find_path` walks them from a source and names the walk's end, which is all
the solver dispatches on: an unpriced sink or an alpha-0 source (`PATH`), a
repeated source or sink (`CYCLE`), a preferred edge that is also a back edge
(`TWO_CYCLE`), or a saturated sink with no back edge, whose price must rise
(`STALLED`).

During a run the graph is the only writer of flows and sink prices:
`move_flow`, `promote` and `raise_beta`.  `_stale[j]`, the in-edges of sink j
that carry stale flow, is the one record of it: a rise makes every flowing
in-edge stale, and a promotion, a `revalue` move or clearing the flow makes an
edge fresh.  A clean source's preferred edge is unsaturated, so a two-cycle
check can promote it only when it is stale and has a stale sibling; the walk
and the two-cycle sweep call `fix_two_cycle` only there.
A rise visits none of the sink's in-edges: `_stale[j]` becomes a copy of the
primal state's `flowing_in[j]`, whose only writers are `PrimalState.add_flow`
and `clear_flow`, and `_bidders[j]`, the sources whose preferred edge enters
j, become dirty.  `rebuild_preferred` is the only writer of a source's
`preferred` edge, its place in `_bidders`, its alpha and `live[i]`, the flag
that alpha is positive.  The solver's scan, `find_path` and `fix_two_cycle`
rebuild a source in `_dirty` and then read its flag, not its alpha.
Heap entries are stamped with their sink's `dual.level`, which `raise_beta`,
the only price writer, bumps along with beta.  Keys only fall as beta rises,
so an old stamp is an upper bound, re-keyed when it reaches the top, and a
rise pushes nothing.  Each edge has one entry at most (`_queued`).  An entry is
`(-key, tie, dst, e, level)`, ordered exactly as `(-key, dst, e)` for the key
c - p*beta; the dual state builds its leading pair (`heap_key`), reads a
source's alpha back from its top entry (`entry_bid`) and tests a saturated
edge's slack (`has_slack`) in its own representation.
"""

from __future__ import annotations

import heapq

from .instance import ProblemInstance
from .state import DualState, PrimalState, RunStats


# How a walk ends: `find_path` returns one of these first.
PATH, TWO_CYCLE, CYCLE, STALLED = "path", "two-cycle", "cycle", "stalled"


class DerivedGraph:
    """Owns the heaps, preferred edges, lazy alpha refresh and run counters
    (`stats`) for one run, from the zero flow that `make_states` gives."""

    def __init__(self, instance: ProblemInstance, primal: PrimalState, dual: DualState):
        self.instance = instance
        self.primal = primal
        self.dual = dual
        self.num = dual.num
        self.stats = RunStats()
        self._counts = self.stats.counts
        self.preferred: list[int | None] = [None] * instance.n
        self.live = [False] * instance.n
        self._bidders: list[set[int]] = [set() for _ in range(instance.m)]
        self._saturated = [False] * len(instance.src)
        self._queued = [False] * len(instance.src)
        self._dirty: set[int] = set(range(instance.n))
        self._stale: list[set[int]] = [set() for _ in range(instance.m)]
        self._walk_limit = 2 * (instance.n + instance.m) + 1
        self._heaps = [list(map(self._entry, instance.edges_of_source(i)))
                       for i in range(instance.n)]
        for heap in self._heaps:  # entries are distinct, so the pop order is fixed
            heapq.heapify(heap)
        for i in range(instance.n):  # every source starts dirty
            self.rebuild_preferred(i)

    # -- heap bookkeeping ---------------------------------------------------

    def _entry(self, e: int) -> tuple:
        dst = self.instance.dst[e]
        self._counts["heap_updates"] += 1
        self._queued[e] = True
        key, tie = self.dual.heap_key(e)
        return (key, tie, dst, e, self.dual.level[dst])

    # -- writers ----------------------------------------------------------------

    def move_flow(self, e: int, delta, revalue: bool) -> int:
        """Add `delta`, in the primal state's units, to edge e's flow; returns
        the edge's sink.

        Flow that lands on zero, or on float dust below it, is cleared; it and
        flow moved with `revalue` are then assigned at the sink's current level.
        """
        primal, counts = self.primal, self._counts
        primal.add_flow(e, delta)
        counts["flow_updates"] += 1
        j = self.instance.dst[e]
        zeroed = not self.num.is_pos(primal.flow[e])
        if zeroed:
            primal.clear_flow(e)
            counts["back_edge_zeroings"] += 1
        if zeroed or revalue:
            self._stale[j].discard(e)
        now = primal.edge_saturated(e)
        if delta > 0 and now:
            counts["forward_saturations"] += 1
        if now != self._saturated[e]:
            self._saturated[e] = now
            i = self.instance.src[e]
            if not now and not self._queued[e]:
                heapq.heappush(self._heaps[i], self._entry(e))
            self._dirty.add(i)
        return j

    def promote(self, e: int) -> None:
        """Re-assign edge e's flow, if it has any, at its sink's current level."""
        self._stale[self.instance.dst[e]].discard(e)

    def raise_beta(self, j: int, value) -> None:
        """Set sink j's price to `value` (its first, or a rise) one level up.

        Every in-edge of j carrying flow, which `move_flow` leaves exactly zero
        or positive, is then stale, and every source that prefers one is dirty.
        """
        self._counts["beta_rises" if self.dual.level[j] else "beta_inits"] += 1
        self.dual.raise_beta(j, value)
        self._stale[j] = self.primal.flowing_in[j].copy()
        self._dirty.update(self._bidders[j])

    # -- graph operations -------------------------------------------------------

    def rebuild_preferred(self, i: int) -> int | None:
        """Re-pick source i's preferred edge from the heap top and refresh alpha.

        A saturated top is dropped and one stamped at an old level re-keyed in
        place, inline.  Ties already break toward the lowest sink index through
        the heap ordering.  Returns None when i has no unsaturated edge.
        """
        heap, dual, saturated = self._heaps[i], self.dual, self._saturated
        levels, counts = dual.level, self._counts
        best = alpha = None
        while heap:
            neg_key, tie, dst, e, level = heap[0]
            if saturated[e]:
                heapq.heappop(heap)
                self._queued[e] = False
                counts["heap_updates"] += 1
            elif level != levels[dst]:
                heapq.heapreplace(heap, dual.heap_key(e) + (dst, e, levels[dst]))
                counts["heap_updates"] += 1
            else:
                best, alpha = e, dual.entry_bid(neg_key, tie)
                break
        old = self.preferred[i]
        if old != best:
            if old is not None:
                self._bidders[self.instance.dst[old]].discard(i)
            if best is not None:
                self._bidders[self.instance.dst[best]].add(i)
            self.preferred[i] = best
        self.live[i] = alpha is not None
        dual.alpha[i] = dual.zero if alpha is None else alpha
        self._dirty.discard(i)
        return best

    def back_edges(self, j: int) -> list[int]:
        """Stale in-edges of j that may give flow back, in the stale set's order.

        A saturated edge qualifies only once its price slack c - p*beta - alpha
        has dropped to zero or below; until then its implicit edge dual covers it.
        `find_path` picks from the list; `beta_update_pass` and `fix_two_cycle` count it.
        """
        stale = self._stale[j]
        if not stale:
            return []
        saturated = self._saturated
        if len(stale) == 1:
            (e,) = stale
            if not saturated[e]:
                return [e]
        dual, src, dirty = self.dual, self.instance.src, self._dirty
        result = []
        for e in stale:  # the slack test inline: a shared predicate ran slower (ROADMAP)
            if saturated[e]:
                i = src[e]
                if i in dirty:
                    self.rebuild_preferred(i)
                if dual.has_slack(e):
                    continue
            result.append(e)
        return result

    def fix_two_cycle(self, i: int) -> bool:
        """Promote the preferred edge out of the back set when siblings remain.

        With several `back_edges` at the sink, a preferred edge that is also a
        back edge would form a two-step loop; promoting its flow to the sink's
        level removes it while leaving the sink's price unchanged.  The
        lone back edge case is kept, since removing it would enable a price rise.
        """
        if i in self._dirty:
            self.rebuild_preferred(i)
        if not self.live[i]:
            # only live bidders re-assign at the current price level
            return False
        e = self.preferred[i]
        j = self.instance.dst[e]
        stale = self._stale[j]
        # e is unsaturated, so a stale e is a back edge
        if e not in stale or len(stale) < 2 or len(self.back_edges(j)) < 2:
            return False
        self.promote(e)
        return True

    def remove_two_cycles(self, sources) -> None:
        """`fix_two_cycle` at each of `sources`, in order, that once fresh is a
        live bidder preferring a stale edge with a stale sibling; at any other
        source it would return False."""
        dst, dirty, live, preferred = self.instance.dst, self._dirty, self.live, self.preferred
        stale_of = self._stale
        for i in sources:
            if i in dirty:
                self.rebuild_preferred(i)
            if live[i]:
                e = preferred[i]
                stale = stale_of[dst[e]]
                if e in stale and len(stale) > 1:  # filtered: unfiltered calls ran slower (ROADMAP)
                    self.fix_two_cycle(i)

    def find_path(self, start: int) -> tuple[str, list[int], list[int] | None]:
        """Walk preferred and back edges from `start`; return `(end, steps, cycle)`.

        Step q leaves walk vertex q, a source when q is even and a sink when q
        is odd, so forward edges sit at even positions and back edges at odd
        ones.  An even `PATH` ends at an alpha-0 source and an odd walk at the
        sink of `steps[-1]`, which is the loop edge for `TWO_CYCLE` and the
        edge into the stalled sink for `STALLED`.  A `CYCLE` walk comes split:
        `steps` is the prefix up to the cycle's entry source and `cycle` the
        cycle from it, rotated to start at the source after a repeated sink;
        `cycle` is None for the other ends.  The walk revisits within n+m
        steps, so its length never exceeds 2(n+m)+1.
        """
        steps: list[int] = []
        src_pos: dict[int, int] = {}
        snk_pos: dict[int, int] = {}
        limit, stale_of = self._walk_limit, self._stale
        counts, dirty, live, preferred = self._counts, self._dirty, self.live, self.preferred
        src, dst, level = self.instance.src, self.instance.dst, self.dual.level
        i = start
        while True:
            if len(steps) > limit:
                raise RuntimeError("derived-graph walk exceeded its length bound")
            counts["walk_steps"] += 1
            if i in dirty:
                self.rebuild_preferred(i)
            if steps and not live[i]:
                return PATH, steps, None
            e = preferred[i]
            j = dst[e]
            stale = stale_of[j]
            if e in stale and len(stale) > 1:  # filtered: unfiltered calls ran slower (ROADMAP)
                self.fix_two_cycle(i)
            src_pos[i] = len(steps)
            steps.append(e)
            if j in snk_pos:
                if steps[-2] == e:
                    # back over e, then forward over e again: a two-cycle
                    return TWO_CYCLE, steps, None
                q = snk_pos[j]
                return CYCLE, steps[: q + 1], steps[q + 1 :] + [steps[q]]
            if not level[j]:
                return PATH, steps, None
            snk_pos[j] = len(steps)
            back = self.back_edges(j)
            if e in back:
                # after two-cycle preprocessing this is the sink's sole back edge
                return TWO_CYCLE, steps, None
            if not back:
                return STALLED, steps, None
            b = back[0] if len(back) == 1 else min(back, key=lambda f: (src[f], f))
            steps.append(b)
            nxt = src[b]
            if nxt in src_pos:
                q = src_pos[nxt]
                return CYCLE, steps[:q], steps[q:]
            i = nxt
