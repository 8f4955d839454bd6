"""Production auction solver: path and cycle pushes over the derived graph.

Handles capacitated (bts) instances and treats btp as the unbounded special
case.  Flow moves in bulk along alternating paths; cycles are resolved with a
closed-form geometric update instead of revolution-by-revolution simulation.
The push layer works on the `DerivedGraph` alone: it decides the amounts,
and the graph's writers move the flow and set the prices, keeping its index
and heaps in step.  Amounts are in the primal state's units: floats in float
mode, and in exact mode integer numerators over the state's shared `scale`.
One body serves both modes; `PrimalState` holds the mode's rules, and its
`clamp` and `divide` are the only divisions of an amount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .certify import Certificate, certify
from .derived_graph import CYCLE, PATH, TWO_CYCLE, DerivedGraph
from .instance import ProblemInstance, SolverConfig
from .state import Numerics, PrimalState, RunStats, make_states


@dataclass
class PushReport:
    """The sinks whose in-flow one bulk push changed."""

    touched_sinks: set[int] = field(default_factory=set)

    @property
    def moved(self) -> bool:
        return bool(self.touched_sinks)


@dataclass(frozen=True)
class CycleGeometry:
    """Transfer ratios and the revolution limit of one alternating cycle.

    cycle holds forward edges at even positions and back edges at odd ones;
    pair z is (cycle[2z], cycle[2z+1]).  Across a back edge the flow rescales
    by p_fwd/p_back; cum_before[z] / cum_through[z] is the product of these
    ratios up to (exclusive / inclusive) pair z, rho_cycle their full product.
    r_min is the largest whole number of revolutions every capacity admits
    (None = unlimited).  In r+1 revolutions an entry surplus s moves
    s*cum*G(r) over an edge, G(r) = sum_{t<=r} rho_cycle^t, with cum its
    pair's cum_before (forward) or cum_through (back); so a capacity c admits
    r exactly when s*G(r) <= c/cum, its *room*, and the least room decides.
    """

    cycle: tuple[int, ...]
    entry_surplus: Fraction | float
    cum_before: tuple
    cum_through: tuple
    rho_cycle: Fraction | float
    r_min: int | None


def geometric_limit(first, rho_cycle, cap, num: Numerics) -> int | None:
    """Largest r with sum_{t=0..r} first*rho_cycle^t <= cap; None if every r fits.

    Each test compares first * `_geometric_sum` with cap, so a ratio that
    `num` reads as 1 sums to r+1 and never converges.  A doubling and
    bisection search over r; r = -1 means not even one revolution fits.
    Integer comparisons on exact rationals; no logarithms.  Any positive
    `first` is valid, also one below the float comparison tolerance.
    """
    if not first > 0:
        raise ValueError("per-revolution amount must be positive")
    if num.is_pos(first - cap):
        return -1

    def fits(r: int | None) -> bool:
        return num.le(first * _geometric_sum(rho_cycle, r, num), cap)

    if num.is_pos(1 - rho_cycle) and fits(None):
        return None

    hi = 1
    while fits(hi):
        hi *= 2
    lo = 0  # fits(0) holds: first <= cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _geometric_sum(q, r: int | None, num: Numerics):
    """sum_{t=0..r} q^t, with r=None meaning the converged infinite series.
    Int constants keep the mode's bits when mixed with q; at ratio 1 the sum is the int r+1."""
    if r is None:
        return 1 / (1 - q)
    if r < 0:
        return 0
    if num.eq(q, 1):
        return r + 1
    return (1 - q ** (r + 1)) / (1 - q)


def push_flow_path(graph: DerivedGraph, steps: list[int]) -> PushReport:
    """Transfer the first source's surplus along alternating forward/back steps.

    The amount is clamped at every forward edge by its remaining capacity and
    at every back edge by its price-rescaled flow; across a back edge the
    amount is multiplied by p_fwd/p_back, so each intermediate sink's
    price-weighted inflow is unchanged.  A trailing forward step (path ending
    at a sink) is additionally clamped by the sink's remaining budget.
    Clamping strands the unsent remainder as surplus where it stood.  A
    quotient limit is compared before it is divided, and only the chosen one
    is divided; a division may rescale the state, so `phi` is always the value
    the state's method returned.
    """
    report = PushReport()
    if not steps:
        return report
    primal, num, instance, price = graph.primal, graph.num, graph.instance, graph.instance.price
    touched = report.touched_sinks
    start = instance.src[steps[0]]
    phi = primal.surplus[start]
    if not num.is_pos(phi):
        return report

    last = len(steps) - 1
    for k in range(0, len(steps), 2):
        fwd = steps[k]
        residual = primal.forward_residual(fwd)
        if residual is not None and residual < phi:
            phi = residual
        if k == last:  # the walk ends at a sink, whose budget bounds the push
            j = instance.dst[fwd]
            limit = primal.residual[j]
        else:
            back = steps[k + 1]
            limit = primal.flow[back] * price[back]
        phi = primal.clamp(phi, limit, price[fwd])
        if not num.is_pos(phi):
            break
        touched.add(graph.move_flow(fwd, phi, revalue=True))
        if k == last:
            if primal.sink_saturated(j):
                primal.residual[j] = primal.zero
        else:
            phi = primal.divide(phi * price[fwd], price[back])
            touched.add(graph.move_flow(back, -phi, revalue=False))

    if not num.is_pos(primal.surplus[start]):
        primal.surplus[start] = primal.zero
        graph.stats.counts["surplus_clears"] += 1
    return report


def cycle_geometry(primal: PrimalState, cycle: list[int], entry_surplus) -> CycleGeometry:
    """One O(|C|) traversal computing every ratio and the revolution limit.

    Each capacity's room is its value over the ratio that reaches it: a
    forward edge's residual (when it has a capacity) over cum_before, a back
    edge's flow over cum_through.  `geometric_limit` runs once, on the least
    room.  Works on numbers, not the state's units: `entry_surplus` is a
    value, as `primal.value` reads it, and so are the capacities it reads.
    """
    num = primal.num
    src, dst, price = primal.instance.src, primal.instance.dst, primal.instance.price
    fwds, backs = cycle[::2], cycle[1::2]
    sources = [src[f] for f in fwds]
    sinks = [dst[f] for f in fwds]
    if len(set(sources)) != len(sources) or len(set(sinks)) != len(sinks):
        raise ValueError("cycle must be simple")
    if len(backs) != len(fwds) or any(
        dst[back] != sinks[z] or src[back] != sources[(z + 1) % len(sources)]
        for z, back in enumerate(backs)
    ):
        raise ValueError("edges do not form an alternating cycle")
    if not num.is_pos(entry_surplus):
        raise ValueError("cycle entry needs positive surplus")

    cum_before, cum_through, rooms = [], [], []
    acc = num.value(1)
    for fwd, back in zip(fwds, backs):
        residual = primal.forward_residual(fwd)
        if residual is not None:
            rooms.append(primal.value(residual) / acc)
        cum_before.append(acc)
        acc = acc * (num.value(price[fwd]) / price[back])
        cum_through.append(acc)
        rooms.append(primal.value(primal.flow[back]) / acc)
    rho_cycle = acc
    return CycleGeometry(
        cycle=tuple(cycle),
        entry_surplus=entry_surplus,
        cum_before=tuple(cum_before),
        cum_through=tuple(cum_through),
        rho_cycle=rho_cycle,
        r_min=geometric_limit(entry_surplus, rho_cycle, min(rooms), num),
    )


def apply_cycle_bulk(graph: DerivedGraph, geom: CycleGeometry, report: PushReport) -> None:
    """All admissible whole revolutions as one geometric-sum update per edge.

    Each amount is converted to the state's units just before its own move:
    a conversion may rescale the state, which would leave an amount converted
    earlier stale.
    """
    num, units = graph.num, graph.primal.units
    factor = _geometric_sum(geom.rho_cycle, geom.r_min, num)
    if not num.is_pos(factor):
        return
    s = geom.entry_surplus
    touched = report.touched_sinks
    cycle = geom.cycle
    for z, (fwd, back) in enumerate(zip(cycle[::2], cycle[1::2])):
        touched.add(graph.move_flow(fwd, units(s * geom.cum_before[z] * factor), revalue=True))
        touched.add(graph.move_flow(back, -units(s * geom.cum_through[z] * factor), revalue=False))


def push_flow_cycle(graph: DerivedGraph, cycle: list[int]) -> PushReport:
    """Send the entry source's surplus around the cycle in closed form.

    All full revolutions up to the limit are applied as one bulk update per
    edge (the geometric sum, or its limit when no capacity ever binds); when
    the limit is finite one more clamped revolution runs to pin the limiting
    edge at its capacity, and the leftover is relayed to the source just
    before it.  Ends with the entry surplus cleared, a back edge zeroed, or a
    forward edge saturated.
    """
    report = PushReport()
    primal, num, counts = graph.primal, graph.num, graph.stats.counts
    entry = graph.instance.src[cycle[0]]
    s = primal.surplus[entry]
    if not num.is_pos(s):
        return report
    geom = cycle_geometry(primal, cycle, primal.value(s))
    apply_cycle_bulk(graph, geom, report)
    counts["cycle_pushes"] += 1
    if not num.is_pos(primal.surplus[entry]):
        # the converged series drained the surplus, or left float dust
        primal.surplus[entry] = primal.zero
        counts["surplus_clears"] += 1
        return report
    assert geom.r_min is not None, "converged cycle left surplus"

    # one more clamped revolution saturates/zeroes the limiting edge exactly
    report.touched_sinks |= push_flow_path(graph, cycle).touched_sinks
    bind = next(
        (z for z in range(0, len(cycle), 2)
         if primal.edge_saturated(cycle[z]) or not num.is_pos(primal.flow[cycle[z + 1]])),
        None,
    )
    assert bind is not None, "finite revolution limit but no edge reached capacity"
    relay = cycle[:bind]
    if relay and num.is_pos(primal.surplus[entry]):
        report.touched_sinks |= push_flow_path(graph, relay).touched_sinks
    return report


def beta_update_pass(graph: DerivedGraph, candidates) -> list[int]:
    """Raise the price of each saturated candidate sink with no back edge left.

    The new price is `DualState.next_beta`.  Saturated in-edges whose signed
    slack turns negative become back edges implicitly (their implicit edge
    dual has hit zero), which is what lets them unsaturate later.  Ends by
    sweeping two-cycles over the sources with an edge into a risen sink, in
    index order.  Returns the sinks whose price rose.
    """
    instance, dual = graph.instance, graph.dual
    residual, is_zero = graph.primal.residual, graph.num.is_zero
    risen = []
    # the one-sink forks here and below: merged, they ran slower (ROADMAP)
    for j in sorted(candidates) if len(candidates) > 1 else candidates:
        if not is_zero(residual[j]) or graph.back_edges(j):  # `sink_saturated`, inline
            continue
        value = dual.next_beta(j)
        if value is not None:
            graph.raise_beta(j, value)
            risen.append(j)
    if len(risen) == 1:
        graph.remove_two_cycles(instance.sources_of_sink(risen[0]))
    elif risen:
        graph.remove_two_cycles(sorted({i for j in risen for i in instance.sources_of_sink(j)}))
    return risen


@dataclass
class Solution:
    instance: ProblemInstance
    config: SolverConfig
    flow: list
    alpha: list
    beta: list
    certificate: Certificate
    stats: RunStats
    terminated: bool


def solve(
    instance: ProblemInstance,
    config: SolverConfig | None = None,
    on_iteration=None,
) -> Solution:
    """Run the path/cycle auction until no source has both surplus and alpha > 0.

    Each phase walks the derived graph from the next live source with surplus
    and acts on the walk's end: a `PATH` moves flow along the walk, a `CYCLE`
    along the prefix and then around the cycle in closed form, and a
    `TWO_CYCLE` or `STALLED` walk up to its last sink, where a two-cycle's
    edge is then promoted.  `beta_update_pass` over the sinks it touched
    closes the phase and raises a stalled sink's price.

    Parameters
    ----------
    instance : ProblemInstance
        btp or bts instance.
    config : SolverConfig
        epsilon, numeric mode, optional phase cap.
    on_iteration : callable, optional
        Receives the run's DerivedGraph after every main-loop iteration, to
        read `graph.primal`, `graph.dual` and `graph.stats`; it must change
        nothing.  Stored flows and duals are read as numbers through the
        states' `value`, for example `graph.primal.value(graph.primal.flow[e])`.

    Returns
    -------
    Solution with flows and duals as numbers (reduced Fractions in exact mode,
    floats in float mode), a certificate recomputed from scratch,
    and the run counters.  Exact runs get a rigorous certificate with no
    tolerance; float runs are checked within `config.float_tol` and stamped
    non-rigorous.  `terminated` is False only when max_phases was hit; the
    partial state is still returned and certified as-is.
    """
    config = config or SolverConfig()
    primal, dual, num = make_states(instance, config)
    graph = DerivedGraph(instance, primal, dual)
    terminated = True
    cursor = 0
    # a surplus is positive above `num.tol`, an int 0 in exact mode; a clean
    # source's alpha is positive when its `live` flag is set
    n, surplus, floor, counts = instance.n, primal.surplus, num.tol, graph.stats.counts
    dirty, live, max_phases = graph._dirty, graph.live, config.max_phases
    ring = list(range(n)) * 2  # ring[cursor:cursor + n] is the scan from the cursor
    while True:
        picked = None
        for i in ring[cursor : cursor + n]:
            if surplus[i] <= floor:
                continue
            if i in dirty:
                graph.rebuild_preferred(i)
            if live[i]:
                picked = i
                break
        if picked is None:
            break
        if max_phases is not None and counts.get("phases", 0) >= max_phases:
            terminated = False
            break
        counts["phases"] += 1
        cursor = (picked + 1) % n

        end, steps, cycle = graph.find_path(picked)
        if end == CYCLE:
            touched = push_flow_path(graph, steps).touched_sinks
            touched |= push_flow_cycle(graph, cycle).touched_sinks
        elif end == PATH:
            touched = push_flow_path(graph, steps).touched_sinks
            if len(steps) % 2 == 0:  # ends at an alpha=0 source
                counts["path_pushes_to_source"] += 1
            counts["path_pushes"] += 1
        else:
            # two-cycle end or stall: flow moves only up to the final sink
            touched = {instance.dst[steps[-1]]}
            if len(steps) > 1:
                touched |= push_flow_path(graph, steps[:-1]).touched_sinks
            if end == TWO_CYCLE:
                # re-assign the loop edge's flow at the current price
                graph.promote(steps[-1])
                counts["two_cycle_eliminations"] += 1
            else:
                counts["stalls"] += 1

        beta_update_pass(graph, touched)
        if on_iteration is not None:
            on_iteration(graph)
    flow = list(map(primal.value, primal.flow))
    alpha, beta = list(map(dual.value, dual.alpha)), list(map(dual.value, dual.beta))
    exact = config.numeric_mode == "exact"
    certificate = certify(
        instance, flow, alpha, beta, config.epsilon,
        rigorous=exact, tol=0 if exact else config.float_tol,
    )
    return Solution(instance, config, flow, alpha, beta, certificate, graph.stats, terminated)
