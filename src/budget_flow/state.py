"""Primal flow state and dual price state of an auction run."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .instance import ProblemInstance, SolverConfig


@dataclass
class RunStats:
    """Counters witnessing the charging argument; plain ints, exported as a dict."""

    counts: dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def get(self, key: str, default: int = 0) -> int:
        return self.counts.get(key, default)

    def operations(self) -> int:
        return (
            self.get("walk_steps") + self.get("flow_updates") + self.get("heap_updates")
        )

    def to_dict(self) -> dict[str, int]:
        out = dict(sorted(self.counts.items()))
        out["operations"] = self.operations()
        return out


class Numerics:
    """Comparison policy: exact Fractions (tol 0) or float64 with tolerance.

    The methods below are the float rules.  Exact mode binds its rules once,
    at construction: plain operators, and sign tests that read the numerator,
    which carries the sign because a Fraction's denominator is always positive
    and an int is its own numerator.
    """

    def __init__(self, exact: bool = True, tol: float = 0.0):
        self.exact = exact
        self.tol = Fraction(0) if exact else tol
        if exact:
            self.value = Fraction
            self.eq, self.le = operator.eq, operator.le
            self.is_zero, self.is_pos = _numerator_is_zero, _numerator_is_pos

    def value(self, x) -> Fraction | float:
        return float(x)

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tol

    def le(self, a, b) -> bool:
        return a - b <= self.tol

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tol

    def is_pos(self, a) -> bool:
        return a > self.tol


class PrimalState:
    """Per-edge flow plus incrementally maintained surpluses and budget residuals.

    surplus[i]  = a_i - sum of flow out of source i
    residual[j] = b_j - price-weighted flow into sink j
    Both always equal their defining sums, since `add_flow` moves them with
    the flow.
    """

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

    def edge_saturated(self, e: int) -> bool:
        cap = self.instance.edges[e].capacity
        return cap is not None and self.num.eq(self.flow[e], cap)

    def forward_residual(self, e: int):
        """Remaining edge capacity; None means unbounded."""
        cap = self.instance.edges[e].capacity
        if cap is None:
            return None
        return self.num.value(cap) - self.flow[e]


class DualState:
    """Source prices alpha, sink prices beta with their levels, edge valuations.

    level[j] counts sink j's prices: 0 while it has none, then beta_j =
    beta0_j * (1 + epsilon)^(level[j] - 1).  It alone records price levels and
    whether a sink has a price.  `raise_beta`, the only price writer, sets
    beta_j and bumps level[j] together; a solve calls it through
    `DerivedGraph.raise_beta`.  valuation[e] is the sink's level when edge
    e's flow was last assigned; it exists only while the edge carries flow.
    """

    def __init__(self, instance: ProblemInstance, config: SolverConfig, num: Numerics):
        self.instance = instance
        self.num = num
        self.epsilon = num.value(config.epsilon)
        self.rise_factor = 1 + self.epsilon
        self.alpha = [
            num.value(max((instance.edges[e].profit for e in out), default=0))
            for out in map(instance.edges_of_source, range(instance.n))
        ]
        self.beta = [num.value(0) for _ in range(instance.m)]
        self.level = [0] * instance.m
        self.valuation: dict[int, int] = {}
        if num.exact:
            self.effective_profit = self._exact_effective_profit

    def next_beta(self, j: int):
        """Sink j's next price, or None while no in-edge is profitable.

        A sink at level 0 starts at epsilon * min(c/p) over the profitable
        in-edges; a priced one rises by the factor (1 + epsilon).
        """
        if self.level[j]:
            return self.beta[j] * self.rise_factor
        edges = self.instance.edges
        rates = [
            Fraction(edges[e].profit, edges[e].price)
            for e in self.instance.edges_of_sink(j)
            if edges[e].profit > 0
        ]
        return self.epsilon * self.num.value(min(rates)) if rates else None

    def raise_beta(self, j: int, new_value) -> None:
        self.beta[j] = new_value
        self.level[j] += 1

    def effective_profit(self, e: int):
        spec = self.instance.edges[e]
        return spec.profit - spec.price * self.beta[spec.dst]

    def _exact_effective_profit(self, e: int) -> Fraction:
        spec = self.instance.edges[e]
        b = self.beta[spec.dst]
        return Fraction(spec.profit * b.denominator - spec.price * b.numerator, b.denominator)


def _numerator_is_zero(a) -> bool:
    return a.numerator == 0


def _numerator_is_pos(a) -> bool:
    return a.numerator > 0


def dual_bound(instance: ProblemInstance, epsilon) -> float:
    """D = max(1, max c, (1+eps) * max c/p), a bound on every dual of a run.

    alpha_i starts at the best profit out of i and never exceeds it, since
    beta >= 0; gamma_e <= c_e.  A first price is eps * min c/p.  A price rises
    only at a saturated sink with no back edge, so each in-edge e carrying
    flow was assigned at the current price with a positive key or is saturated
    with positive slack; either way c_e - p_e*beta_j > 0, so beta_j < (1+eps)
    * max c/p after the rise.  The floor of 1 covers c = 0.
    """
    top_rate = max((spec.profit / spec.price for spec in instance.edges), default=0.0)
    top_profit = max((spec.profit for spec in instance.edges), default=0)
    return max(1.0, top_profit, (1 + float(epsilon)) * top_rate)


def make_states(
    instance: ProblemInstance, config: SolverConfig
) -> tuple[PrimalState, DualState, Numerics]:
    """Zero flow, zero sink prices, alpha_i = best profit out of i: both feasible.

    A float run compares within `float_tol / D`, D = `dual_bound`.  `certify`
    bounds each complementary product, alpha_i*surplus_i, beta_j*residual_j
    and gamma_e*(u_e - f_e), by `float_tol`; each is a dual at most D times a
    residual the run left at most `float_tol / D`, so each is at most
    `float_tol`, up to `certify`'s own rounding.
    """
    if config.numeric_mode == "exact":
        num = Numerics(exact=True)
    else:
        tol = config.float_tol / dual_bound(instance, config.epsilon)
        num = Numerics(exact=False, tol=tol)
    return PrimalState(instance, num), DualState(instance, config, num), num

