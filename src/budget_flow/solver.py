"""Production auction solver: path and cycle pushes over the derived graph.

Handles capacitated (bts) instances and treats btp as the unbounded special
case.  Flow moves in bulk along alternating paths; cycles are resolved with a
closed-form geometric update instead of revolution-by-revolution simulation.
The push layer works on the `DerivedGraph` alone: it decides the amounts,
and the graph's writers move the flow and set the prices, keeping its index
and heaps in step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .certify import Certificate, certify
from .derived_graph import DerivedGraph, PathKind
from .instance import ProblemInstance, SolverConfig, check_valid
from .state import Numerics, PrimalState, RunStats, Snapshot, make_states


@dataclass
class PushReport:
    """The sinks whose in-flow one bulk push changed."""

    touched_sinks: set[int] = field(default_factory=set)

    @property
    def moved(self) -> bool:
        return bool(self.touched_sinks)


@dataclass(frozen=True)
class CycleGeometry:
    """Transfer ratios and per-edge revolution limits for one alternating cycle.

    pairs[z] is the (forward, back) edge pair at position z; ratio[z] the flow
    rescaling across the back edge; cum_before[z] / cum_through[z] the product
    of ratios up to (exclusive / inclusive) position z; rho_cycle their full
    product.  limit_fwd / limit_back hold the largest whole number of
    revolutions each capacity admits (None = unlimited), r_min their minimum.
    """

    pairs: tuple[tuple[int, int], ...]
    entry_surplus: Fraction | float
    ratio: tuple
    cum_before: tuple
    cum_through: tuple
    rho_cycle: Fraction | float
    limit_fwd: tuple
    limit_back: tuple
    r_min: int | None


def geometric_limit(first, rho_cycle, cap, num: Numerics) -> int | None:
    """Largest r with sum_{t=0..r} first*rho_cycle^t <= cap; None if every r fits.

    Closed forms only: g(r) = first*(r+1) when the cycle ratio is 1, otherwise
    first*(1-q^(r+1))/(1-q).  r = -1 means not even one revolution fits.
    Integer comparisons on exact rationals; no logarithms.  Any positive
    `first` is valid, also one below the float comparison tolerance.
    """
    if not first > 0:
        raise ValueError("per-revolution amount must be positive")
    if num.is_pos(first - cap):
        return -1
    q = rho_cycle
    if num.eq(q, num.value(1)):
        # g(r) = first*(r+1) <= cap
        r = int(cap / first) - 1
        while num.le(first * (r + 2), cap):
            r += 1
        return r
    if q < 1 and num.le(first / (1 - q), cap):
        return None

    def fits(r: int) -> bool:
        return num.le(first * (1 - q ** (r + 1)) / (1 - q), cap)

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
    """sum_{t=0..r} q^t, with r=None meaning the converged infinite series."""
    one = num.value(1)
    if r is None:
        return one / (one - q)
    if r < 0:
        return num.value(0)
    if num.eq(q, one):
        return num.value(r + 1)
    return (one - q ** (r + 1)) / (one - q)


def push_flow_path(graph: DerivedGraph, steps: list[tuple[str, int]]) -> PushReport:
    """Transfer the first source's surplus along alternating forward/back steps.

    The amount is clamped at every forward edge by its remaining capacity and
    at every back edge by its price-rescaled flow; across a back edge the
    amount is multiplied by p_fwd/p_back, so each intermediate sink's
    price-weighted inflow is unchanged.  A trailing forward step (path ending
    at a sink) is additionally clamped by the sink's remaining budget.
    Clamping strands the unsent remainder as surplus where it stood.
    """
    report = PushReport()
    if not steps:
        return report
    primal, num, instance = graph.primal, graph.num, graph.instance
    touched = report.touched_sinks
    start = instance.edges[steps[0][1]].src
    phi = primal.surplus[start]
    if not num.is_pos(phi):
        return report

    k = 0
    while k + 1 < len(steps):
        fwd = steps[k][1]
        back = steps[k + 1][1]
        fwd_spec = instance.edges[fwd]
        back_spec = instance.edges[back]
        residual = primal.forward_residual(fwd)
        if residual is not None and residual < phi:
            phi = residual
        back_limit = primal.flow[back] * back_spec.price / fwd_spec.price
        if back_limit < phi:
            phi = back_limit
        if not num.is_pos(phi):
            phi = num.value(0)
            break
        touched.add(graph.move_flow(fwd, phi, revalue=True))
        phi = phi * fwd_spec.price / back_spec.price
        touched.add(graph.move_flow(back, -phi, revalue=False))
        k += 2

    if k < len(steps) and num.is_pos(phi):
        # path ends at a sink: one forward push bounded by capacity and budget
        e = steps[k][1]
        spec = instance.edges[e]
        residual = primal.forward_residual(e)
        if residual is not None and residual < phi:
            phi = residual
        budget_room = primal.residual[spec.dst] / spec.price
        if budget_room < phi:
            phi = budget_room
        if num.is_pos(phi):
            touched.add(graph.move_flow(e, phi, revalue=True))
            if primal.sink_saturated(spec.dst):
                primal.residual[spec.dst] = num.value(0)

    if not num.is_pos(primal.surplus[start]):
        primal.surplus[start] = num.value(0)
        graph.stats.bump("surplus_clears")
    return report


def cycle_geometry(
    primal: PrimalState, pairs: list[tuple[int, int]], entry_surplus
) -> CycleGeometry:
    """One O(|C|) traversal computing every ratio and revolution limit."""
    num = primal.num
    instance = primal.instance
    sources = [instance.edges[f].src for f, _ in pairs]
    sinks = [instance.edges[f].dst for f, _ in pairs]
    if len(set(sources)) != len(sources) or len(set(sinks)) != len(sinks):
        raise ValueError("cycle must be simple")
    for z, (fwd, back) in enumerate(pairs):
        nxt = sources[(z + 1) % len(pairs)]
        if instance.edges[back].dst != sinks[z] or instance.edges[back].src != nxt:
            raise ValueError("pairs do not form an alternating cycle")
    if not num.is_pos(entry_surplus):
        raise ValueError("cycle entry needs positive surplus")

    one = num.value(1)
    ratio, cum_before, cum_through = [], [], []
    acc = one
    for fwd, back in pairs:
        rho = num.value(instance.edges[fwd].price) / instance.edges[back].price
        ratio.append(rho)
        cum_before.append(acc)
        acc = acc * rho
        cum_through.append(acc)
    rho_cycle = acc

    limit_fwd: list[int | None] = []
    limit_back: list[int | None] = []
    r_min: int | None = None
    for z, (fwd, back) in enumerate(pairs):
        residual = primal.forward_residual(fwd)
        if residual is None:
            lf = None
        else:
            lf = geometric_limit(entry_surplus * cum_before[z], rho_cycle, residual, num)
        limit_fwd.append(lf)
        lb = geometric_limit(
            entry_surplus * cum_through[z], rho_cycle, primal.flow[back], num
        )
        limit_back.append(lb)
        for lim in (lf, lb):
            if lim is not None and (r_min is None or lim < r_min):
                r_min = lim
    if rho_cycle >= 1 and r_min is None:
        raise RuntimeError("non-shrinking cycle must have a finite revolution limit")
    return CycleGeometry(
        pairs=tuple(pairs),
        entry_surplus=entry_surplus,
        ratio=tuple(ratio),
        cum_before=tuple(cum_before),
        cum_through=tuple(cum_through),
        rho_cycle=rho_cycle,
        limit_fwd=tuple(limit_fwd),
        limit_back=tuple(limit_back),
        r_min=r_min,
    )


def apply_cycle_bulk(graph: DerivedGraph, geom: CycleGeometry, report: PushReport) -> None:
    """All admissible whole revolutions as one geometric-sum update per edge."""
    num = graph.num
    factor = _geometric_sum(geom.rho_cycle, geom.r_min, num)
    if not num.is_pos(factor):
        return
    s = geom.entry_surplus
    touched = report.touched_sinks
    for z, (fwd, back) in enumerate(geom.pairs):
        touched.add(graph.move_flow(fwd, s * geom.cum_before[z] * factor, revalue=True))
        touched.add(graph.move_flow(back, -(s * geom.cum_through[z] * factor), revalue=False))


def push_flow_cycle(graph: DerivedGraph, pairs: list[tuple[int, int]]) -> PushReport:
    """Send the entry source's surplus around the cycle in closed form.

    All full revolutions up to the limit are applied as one bulk update per
    edge (the geometric sum, or its limit when no capacity ever binds); when
    the limit is finite one more clamped revolution runs to pin the limiting
    edge at its capacity, and the leftover is relayed to the source just
    before it.  Ends with the entry surplus cleared, a back edge zeroed, or a
    forward edge saturated.
    """
    report = PushReport()
    primal, num, stats = graph.primal, graph.num, graph.stats
    entry = graph.instance.edges[pairs[0][0]].src
    s = primal.surplus[entry]
    if not num.is_pos(s):
        return report
    geom = cycle_geometry(primal, pairs, s)
    apply_cycle_bulk(graph, geom, report)
    stats.bump("cycle_pushes")

    if geom.r_min is None:
        # shrinking cycle, no cap binds: the surplus drains completely
        if not num.is_pos(primal.surplus[entry]):
            primal.surplus[entry] = num.value(0)
        assert num.is_zero(primal.surplus[entry]), "converged cycle left surplus"
        stats.bump("surplus_clears")
        return report

    # one more clamped revolution saturates/zeroes the limiting edge exactly
    flat: list[tuple[str, int]] = []
    for fwd, back in pairs:
        flat.append(("fwd", fwd))
        flat.append(("back", back))
    report.touched_sinks |= push_flow_path(graph, flat).touched_sinks

    bind = None
    for z, (fwd, back) in enumerate(pairs):
        if primal.edge_saturated(fwd) or not num.is_pos(primal.flow[back]):
            bind = z
            break
    assert bind is not None, "finite revolution limit but no edge reached capacity"
    relay = flat[: 2 * bind]
    if relay and num.is_pos(primal.surplus[entry]):
        report.touched_sinks |= push_flow_path(graph, relay).touched_sinks
    if not num.is_pos(primal.surplus[entry]):
        primal.surplus[entry] = num.value(0)
        stats.bump("surplus_clears")
    return report


def beta_update_pass(graph: DerivedGraph, candidates=None) -> list[int]:
    """Raise the price of each saturated candidate sink with no back edge left.

    The new price is `DualState.next_beta`.  Saturated in-edges whose signed
    slack turns negative become back edges implicitly (their implicit edge
    dual has hit zero), which is what lets them unsaturate later.  Ends by
    sweeping two-cycles over the sources with an edge into a risen sink, in
    index order.  Returns the sinks whose price rose.
    """
    instance = graph.instance
    sinks = sorted(candidates) if candidates is not None else range(instance.m)
    risen = []
    for j in sinks:
        if not graph.primal.sink_saturated(j) or graph.back_edges(j):
            continue
        value = graph.dual.next_beta(j)
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

    @property
    def primal_value(self):
        return self.certificate.primal_value

    @property
    def dual_value(self):
        return self.certificate.dual_value


def solve(
    instance: ProblemInstance,
    config: SolverConfig | None = None,
    on_iteration=None,
) -> Solution:
    """Run the path/cycle auction until no source has both surplus and alpha > 0.

    Parameters
    ----------
    instance : ProblemInstance
        btp or bts instance; validated before the run starts.
    config : SolverConfig
        epsilon, numeric mode, optional phase cap.
    on_iteration : callable, optional
        Receives a read-only Snapshot after every main-loop iteration.

    Returns
    -------
    Solution with exact flows, duals, a certificate recomputed from scratch,
    and the run counters.  Exact runs get a rigorous certificate with no
    tolerance; float runs are checked within `config.float_tol` and stamped
    non-rigorous.  `terminated` is False only when max_phases was hit; the
    partial state is still returned and certified as-is.
    """
    config = config or SolverConfig()
    check_valid(instance)
    primal, dual, num = make_states(instance, config)
    stats = RunStats()
    graph = DerivedGraph(instance, primal, dual, stats)
    terminated = True
    cursor = 0
    n, surplus, alpha, is_pos = instance.n, primal.surplus, dual.alpha, num.is_pos
    while True:
        picked = None
        for offset in range(n):
            i = (cursor + offset) % n
            if not is_pos(surplus[i]):
                continue
            graph.ensure_fresh(i)
            if is_pos(alpha[i]):
                picked = i
                break
        if picked is None:
            break
        if config.max_phases is not None and stats.get("phases") >= config.max_phases:
            terminated = False
            break
        stats.bump("phases")
        cursor = (picked + 1) % instance.n

        path = graph.find_path(picked)
        if path.kind is PathKind.TYPE_III:
            prefix, pairs = path.split_cycle()
            touched = push_flow_path(graph, prefix).touched_sinks
            if num.is_pos(primal.surplus[instance.edges[pairs[0][0]].src]):
                touched |= push_flow_cycle(graph, pairs).touched_sinks
        elif path.kind is PathKind.TYPE_I:
            touched = push_flow_path(graph, path.steps).touched_sinks
            if path.endpoint[0] == "src":
                stats.bump("path_pushes_to_source")
            stats.bump("path_pushes")
        else:
            # two-cycle end or stall: flow moves only up to the final sink
            touched = push_flow_path(graph, path.steps[:-1]).touched_sinks
            if path.kind is PathKind.TYPE_II:
                # re-assign the loop edge's flow at the current price
                graph.promote(path.two_cycle_edge)
                touched.add(instance.edges[path.two_cycle_edge].dst)
                stats.bump("two_cycle_eliminations")
            else:
                touched.add(path.stalled_sink)
                stats.bump("stalls")

        beta_update_pass(graph, candidates=touched)
        if on_iteration is not None:
            on_iteration(Snapshot.of(primal, dual, stats.get("phases")))
    flow, alpha, beta = list(primal.flow), list(dual.alpha), list(dual.beta)
    certificate = certify(
        instance, flow, alpha, beta, config.epsilon,
        rigorous=num.exact, tol=0 if num.exact else config.float_tol,
    )
    return Solution(instance, config, flow, alpha, beta, certificate, stats, terminated)
