"""Reference auction solver for uncapacitated instances.

Single-edge pushes and replacements, driven source by source.  This is the
desk-scale baseline used for differential testing; the production path/cycle
solver lives in `solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from budget_flow.instance import Kind, ProblemInstance, SolverConfig, check_valid
from budget_flow.state import DualState, PrimalState, RunStats, make_states


@dataclass(frozen=True)
class StepOutcome:
    """What one auction step did: push | replace | promote | retire."""

    kind: str
    sink: int | None = None
    displaced: int | None = None
    amount: Fraction | float | None = None


@dataclass
class RunResult:
    primal: PrimalState
    dual: DualState
    stats: RunStats
    terminated: bool


def _reject_capacitated(instance: ProblemInstance) -> None:
    if instance.kind is Kind.BTS or any(e.capacity is not None for e in instance.edges):
        raise ValueError("basic auction handles uncapacitated (btp) instances only")


def initialize(
    instance: ProblemInstance, config: SolverConfig
) -> tuple[PrimalState, DualState]:
    """Zero flow, zero sink prices, alpha_i = max profit out of i."""
    _reject_capacitated(check_valid(instance))
    primal, dual, _ = make_states(instance, config)
    return primal, dual


def update_beta(j: int, primal: PrimalState, dual: DualState, stats: RunStats | None = None) -> str:
    """Raise sink j's price if no flow remains at the lower level.

    Call sites guarantee j is saturated.  A sink at level 0 takes its first
    price from `DualState.next_beta`; a priced one rises exactly when every
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
        stats.bump("beta_rises" if rising else "beta_inits")
    return "rise" if rising else "init"


def _best_sink(i: int, primal: PrimalState, dual: DualState) -> tuple[int | None, Fraction | float]:
    best_e, best_key = None, dual.num.value(0)
    for e in primal.instance.edges_of_source(i):
        key = dual.effective_profit(e)
        if best_e is None or key > best_key:
            best_e, best_key = e, key
    return best_e, best_key


def _refresh_alpha(i: int, primal: PrimalState, dual: DualState) -> None:
    _, best_key = _best_sink(i, primal, dual)
    zero = dual.num.value(0)
    dual.alpha[i] = best_key if best_key > zero else zero


def _demote(i: int, primal: PrimalState, dual: DualState) -> None:
    # Holding flow at the top level would let beta rise past this source's reach.
    for e in primal.instance.edges_of_source(i):
        if e in dual.valuation:
            dual.valuation[e] = dual.level[primal.instance.edges[e].dst] - 1


def _retire(i: int, primal: PrimalState, dual: DualState, stats: RunStats) -> StepOutcome:
    dual.alpha[i] = dual.num.value(0)
    _demote(i, primal, dual)
    stats.bump("retirements")
    return StepOutcome(kind="retire")


def auction_step(
    i: int, primal: PrimalState, dual: DualState, stats: RunStats | None = None
) -> StepOutcome:
    """One bidding interaction for source i (requires alpha_i > 0, surplus > 0).

    Pushes to the best unsaturated sink, or displaces lower-level flow at a
    saturated one, or promotes its own assignment; afterwards alpha_i is
    recomputed and the source retires (valuations demoted) if it reaches 0.
    """
    stats = stats if stats is not None else RunStats()
    stats.bump("steps")
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
            stats.bump("replacements")
        else:
            dual.valuation[best_e] = dual.level[j]
            outcome = StepOutcome(kind="promote", sink=j)
            stats.bump("self_promotes")
        update_beta(j, primal, dual, stats)
    else:
        x = min(primal.surplus[i], primal.residual[j] / spec.price)
        primal.add_flow(best_e, x)
        dual.valuation[best_e] = dual.level[j]
        outcome = StepOutcome(kind="push", sink=j, amount=x)
        stats.bump("pushes")
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
