"""Reference auction solver for uncapacitated instances.

Single-edge pushes and replacements, driven source by source.  This is the
desk-scale baseline used for differential testing; the production path/cycle
solver lives in `solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from budget_flow.instance import Kind, ProblemInstance, SolverConfig
from budget_flow.state import Numerics, RunStats, make_states


@dataclass(frozen=True)
class StepOutcome:
    """What one auction step did: push | replace | promote | retire."""

    kind: str
    sink: int | None = None
    displaced: int | None = None
    amount: Fraction | float | None = None


class ReferencePrimal:
    """Flows, surpluses and budget residuals as plain numbers of the run's mode
    (Fractions or floats), with surpluses and residuals moved with the flow."""

    def __init__(self, instance: ProblemInstance, num: Numerics):
        self.instance = instance
        self.num = num
        self.flow = [num.value(0) for _ in instance.edges]
        self.surplus = [num.value(a) for a in instance.supply]
        self.residual = [num.value(b) for b in instance.budget]

    def add_flow(self, e: int, delta) -> None:
        spec = self.instance.edges[e]
        self.flow[e] += delta
        self.surplus[spec.src] -= delta
        self.residual[spec.dst] -= delta * spec.price

    def sink_saturated(self, j: int) -> bool:
        return self.num.is_zero(self.residual[j])

    def value(self, x):
        """Stored quantities are numbers already."""
        return x


class ReferenceDual:
    """Source and sink prices as plain numbers, their levels, and edge
    valuations: valuation[e] is the sink's level when edge e's flow was last
    assigned, or one below it once its source retires; it exists only while
    the edge carries flow.  Prices follow the package's rule, `next_beta`."""

    def __init__(self, instance: ProblemInstance, config: SolverConfig, num: Numerics):
        self.instance = instance
        self.num = num
        self.epsilon = num.value(config.epsilon)
        self.alpha = [
            num.value(max((instance.edges[e].profit for e in out), default=0))
            for out in map(instance.edges_of_source, range(instance.n))
        ]
        self.beta = [num.value(0) for _ in range(instance.m)]
        self.level = [0] * instance.m
        self.valuation: dict[int, int] = {}

    def next_beta(self, j: int):
        """epsilon * min(c/p) over j's profitable in-edges at level 0, else a
        rise by (1 + epsilon); None while no in-edge is profitable."""
        if self.level[j]:
            return self.beta[j] * (1 + self.epsilon)
        edges = self.instance.edges
        rates = [Fraction(edges[e].profit, edges[e].price)
                 for e in self.instance.edges_of_sink(j) if edges[e].profit > 0]
        return self.epsilon * self.num.value(min(rates)) if rates else None

    def raise_beta(self, j: int, new_value) -> None:
        self.beta[j] = new_value
        self.level[j] += 1

    def effective_profit(self, e: int):
        spec = self.instance.edges[e]
        return spec.profit - spec.price * self.beta[spec.dst]


@dataclass
class RunResult:
    primal: ReferencePrimal
    dual: ReferenceDual
    stats: RunStats
    terminated: bool


def _reject_capacitated(instance: ProblemInstance) -> None:
    if instance.kind is Kind.BTS or any(e.capacity is not None for e in instance.edges):
        raise ValueError("basic auction handles uncapacitated (btp) instances only")


def initialize(
    instance: ProblemInstance, config: SolverConfig
) -> tuple[ReferencePrimal, ReferenceDual]:
    """Zero flow, zero sink prices, alpha_i = max profit out of i."""
    _reject_capacitated(instance)
    _, _, num = make_states(instance, config)
    return ReferencePrimal(instance, num), ReferenceDual(instance, config, num)


def update_beta(
    j: int, primal: ReferencePrimal, dual: ReferenceDual, stats: RunStats | None = None
) -> str:
    """Raise sink j's price if no flow remains at the lower level.

    Call sites guarantee j is saturated.  A sink at level 0 takes its first
    price from `ReferenceDual.next_beta`; a priced one rises exactly when every
    positive-flow in-edge sits at the top level.  Returns "init", "rise", or
    "none".
    """
    rising = dual.level[j] > 0
    if rising:
        flows_at_top = [
            dual.valuation[e] == dual.level[j]
            for e in primal.instance.edges_of_sink(j)
            if dual.num.is_pos(primal.flow[e])
        ]
        if not (flows_at_top and all(flows_at_top)):
            return "none"
    value = dual.next_beta(j)
    if value is None:
        return "none"
    dual.raise_beta(j, value)
    if stats is not None:
        stats.counts["beta_rises" if rising else "beta_inits"] += 1
    return "rise" if rising else "init"


def _best_sink(
    i: int, primal: ReferencePrimal, dual: ReferenceDual
) -> tuple[int | None, Fraction | float]:
    best_e, best_key = None, dual.num.value(0)
    for e in primal.instance.edges_of_source(i):
        key = dual.effective_profit(e)
        if best_e is None or key > best_key:
            best_e, best_key = e, key
    return best_e, best_key


def _refresh_alpha(i: int, primal: ReferencePrimal, dual: ReferenceDual) -> None:
    _, best_key = _best_sink(i, primal, dual)
    zero = dual.num.value(0)
    dual.alpha[i] = best_key if best_key > zero else zero


def _demote(i: int, primal: ReferencePrimal, dual: ReferenceDual) -> None:
    # Holding flow at the top level would let beta rise past this source's reach.
    for e in primal.instance.edges_of_source(i):
        if e in dual.valuation:
            dual.valuation[e] = dual.level[primal.instance.edges[e].dst] - 1


def _retire(i: int, primal: ReferencePrimal, dual: ReferenceDual, stats: RunStats) -> StepOutcome:
    dual.alpha[i] = dual.num.value(0)
    _demote(i, primal, dual)
    stats.counts["retirements"] += 1
    return StepOutcome(kind="retire")


def auction_step(
    i: int, primal: ReferencePrimal, dual: ReferenceDual, stats: RunStats | None = None
) -> StepOutcome:
    """One bidding interaction for source i (requires alpha_i > 0, surplus > 0).

    Pushes to the best unsaturated sink, or displaces lower-level flow at a
    saturated one, or promotes its own assignment; afterwards alpha_i is
    recomputed and the source retires (valuations demoted) if it reaches 0.
    """
    stats = stats if stats is not None else RunStats()
    stats.counts["steps"] += 1
    num = dual.num
    instance = primal.instance
    best_e, best_key = _best_sink(i, primal, dual)
    if best_e is None or not num.is_pos(best_key):
        return _retire(i, primal, dual, stats)

    spec = instance.edges[best_e]
    j = spec.dst
    if primal.sink_saturated(j):
        lower = [
            e
            for e in instance.edges_of_sink(j)
            if num.is_pos(primal.flow[e]) and dual.valuation[e] != dual.level[j]
        ]
        assert lower, "saturated sink with no displaceable flow"
        displaced_e = min(lower, key=lambda e: instance.edges[e].src)
        i_prime = instance.edges[displaced_e].src
        if i_prime != i:
            d_spec = instance.edges[displaced_e]
            x = min(
                primal.surplus[i],
                primal.flow[displaced_e] * d_spec.price / spec.price,
            )
            primal.add_flow(best_e, x)
            dual.valuation[best_e] = dual.level[j]
            primal.add_flow(displaced_e, -(x * spec.price / d_spec.price))
            if not num.is_pos(primal.flow[displaced_e]):
                primal.flow[displaced_e] = num.value(0)
                dual.valuation.pop(displaced_e, None)
            outcome = StepOutcome(kind="replace", sink=j, displaced=i_prime, amount=x)
            stats.counts["replacements"] += 1
        else:
            dual.valuation[best_e] = dual.level[j]
            outcome = StepOutcome(kind="promote", sink=j)
            stats.counts["self_promotes"] += 1
        update_beta(j, primal, dual, stats)
    else:
        x = min(primal.surplus[i], primal.residual[j] / spec.price)
        primal.add_flow(best_e, x)
        dual.valuation[best_e] = dual.level[j]
        outcome = StepOutcome(kind="push", sink=j, amount=x)
        stats.counts["pushes"] += 1
        if primal.sink_saturated(j):
            primal.residual[j] = num.value(0)
            update_beta(j, primal, dual, stats)

    _refresh_alpha(i, primal, dual)
    if num.is_zero(dual.alpha[i]):
        _demote(i, primal, dual)
    return outcome


def run(
    instance: ProblemInstance,
    config: SolverConfig,
    on_step=None,
) -> RunResult:
    """Auction rounds until no source has both positive alpha and surplus.

    Sources are scheduled round-robin among those still active.  `on_step`
    receives the live (primal, dual) after every step and must not change
    them.  Returns non-terminated (partial state intact) if config.max_phases
    is exceeded.
    """
    primal, dual = initialize(instance, config)
    counters = ("pushes", "replacements", "self_promotes", "retirements", "beta_rises",
                "beta_inits", "steps")
    stats = RunStats(dict.fromkeys(counters, 0))  # zero counters are reported too
    num = dual.num
    terminated = True
    cursor = 0
    while True:
        picked = None
        for offset in range(instance.n):
            i = (cursor + offset) % instance.n
            if num.is_pos(primal.surplus[i]) and num.is_pos(dual.alpha[i]):
                picked = i
                break
        if picked is None:
            break
        if config.max_phases is not None and stats.get("steps") >= config.max_phases:
            terminated = False
            break
        cursor = (picked + 1) % instance.n
        auction_step(picked, primal, dual, stats)
        if on_step is not None:
            on_step(primal, dual)
    return RunResult(primal=primal, dual=dual, stats=stats, terminated=terminated)
