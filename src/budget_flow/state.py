"""Primal flow state and dual price state of an auction run."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .instance import Kind, ProblemInstance, SolverConfig, check_float_range


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
    """Comparison policy: exact rationals (tol 0) or float64 with tolerance.

    The methods below are the float rules.  Exact mode binds its rules once,
    at construction: plain operators, and sign tests that read the numerator,
    which carries the sign because the denominator of a Fraction or a `Ratio`
    is always positive and an int is its own numerator.  `value` converts a
    number of the instance to the mode's type: a Fraction or a float.
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


class Ratio:
    """An exact value numerator/denominator, denominator > 0, kept unreduced.

    Exact duals are stored as these pairs.  Like a Fraction they expose
    `numerator`, which carries the sign, and `as_integer_ratio`, so the sign
    tests of `Numerics` and the integer tests of `derived_graph` read either;
    `DualState.value` turns one into a reduced Fraction.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        self.numerator, self.denominator = numerator, denominator

    def as_integer_ratio(self) -> tuple[int, int]:
        return self.numerator, self.denominator

    def __repr__(self) -> str:
        return f"Ratio({self.numerator}, {self.denominator})"


class PrimalState:
    """Per-edge flow plus incrementally maintained surpluses and budget residuals.

    surplus[i]  = a_i - sum of flow out of source i
    residual[j] = b_j - price-weighted flow into sink j
    Both always equal their defining sums, since `add_flow` moves them with
    the flow.

    A float run stores floats.  An exact run stores ints: each quantity is
    its numerator over one shared denominator, `scale`, and the amounts a
    caller passes and gets back are in the same units.  `value` reads a stored
    quantity as a number and `units` converts a number back.  `divide` is the
    one division: when a quotient is not whole it multiplies `scale`, and every
    stored numerator, by the least factor that makes it whole, so a numerator
    a caller holds across it is stale.  The methods below are the float rules;
    exact mode binds its own at construction, as `Numerics` does.
    """

    def __init__(self, instance: ProblemInstance, num: Numerics):
        self.instance = instance
        self.num = num
        if num.exact:
            self.scale = 1
            self.zero = 0
            self._flowing: set[int] = set()  # the edges with positive flow
            self.flow = [0] * len(instance.edges)
            self.surplus = list(instance.supply)
            self.residual = list(instance.budget)
            self.add_flow, self.divide = self._exact_add_flow, self._exact_divide
            self.clamp, self.units = self._exact_clamp, self._exact_units
            self.edge_saturated = self._exact_edge_saturated
            self.forward_residual = self._exact_forward_residual
            self.value = self._exact_value
            return
        self.zero = num.value(0)
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

    def divide(self, n, d: int):
        """n/d in the caller's units; exact mode may rescale to keep it whole."""
        return n / d

    def clamp(self, phi, n, d: int):
        """min(phi, n/d), dividing only when n/d is the smaller."""
        limit = n / d
        return limit if limit < phi else phi

    def units(self, x):
        """A number as a stored quantity."""
        return self.num.value(x)

    def value(self, x):
        """A stored quantity as a number: the accessor monitors and tests read."""
        return x

    def _exact_add_flow(self, e: int, delta: int) -> None:
        spec = self.instance.edges[e]
        f = self.flow[e] = self.flow[e] + delta
        if f:
            self._flowing.add(e)
        else:
            self._flowing.discard(e)
        self.surplus[spec.src] -= delta
        self.residual[spec.dst] -= delta * spec.price

    def _exact_edge_saturated(self, e: int) -> bool:
        cap = self.instance.edges[e].capacity
        return cap is not None and self.flow[e] == cap * self.scale

    def _exact_forward_residual(self, e: int) -> int | None:
        cap = self.instance.edges[e].capacity
        return None if cap is None else cap * self.scale - self.flow[e]

    def _exact_divide(self, n: int, d: int) -> int:
        q, r = divmod(n, d)
        if not r:
            return q
        g = math.gcd(r, d)  # = gcd(n, d)
        self._rescale(d // g)
        return n // g

    def _exact_clamp(self, phi: int, n: int, d: int) -> int:
        return self._exact_divide(n, d) if n < phi * d else phi

    def _exact_units(self, x) -> int:
        return self._exact_divide(x.numerator * self.scale, x.denominator)

    def _exact_value(self, x: int) -> Fraction:
        return Fraction(x, self.scale)

    def _rescale(self, factor: int) -> None:
        """Multiply `scale` and every stored numerator by `factor`; zero flows
        stay zero, so only the flowing edges are visited.  The lists are
        changed in place, so their aliases stay current."""
        self.scale *= factor
        flow = self.flow
        for e in self._flowing:
            flow[e] *= factor
        self.surplus[:] = [x * factor for x in self.surplus]
        self.residual[:] = [x * factor for x in self.residual]


class DualState:
    """Source prices alpha, sink prices beta and their levels.

    level[j] counts sink j's prices: 0 while it has none, then beta_j =
    beta0_j * (1 + epsilon)^(level[j] - 1).  It alone records price levels and
    whether a sink has a price.  `raise_beta`, the only price writer, sets
    beta_j and bumps level[j] together; a solve calls it through
    `DerivedGraph.raise_beta`, which also records the flow it leaves stale.

    A float run stores floats; an exact run stores each alpha and beta as a
    `Ratio`, which `value` reads as a reduced Fraction.
    """

    def __init__(self, instance: ProblemInstance, config: SolverConfig, num: Numerics):
        self.instance = instance
        self.num = num
        self.epsilon = num.value(config.epsilon)
        self.rise_factor = 1 + self.epsilon
        best = [
            max((instance.edges[e].profit for e in out), default=0)
            for out in map(instance.edges_of_source, range(instance.n))
        ]
        self.level = [0] * instance.m
        if num.exact:
            self.zero = Ratio(0)
            self.alpha = [Ratio(c) for c in best]
            self.beta = [self.zero] * instance.m
            self._rise = self.rise_factor.as_integer_ratio()
            self.effective_profit = self._exact_effective_profit
            self.raise_beta, self.value = self._exact_raise_beta, self._exact_value
            return
        self.zero = num.value(0)
        self.alpha = [num.value(c) for c in best]
        self.beta = [num.value(0) for _ in range(instance.m)]

    def next_beta(self, j: int):
        """Sink j's next price, or None while no in-edge is profitable.

        A sink at level 0 starts at epsilon * min(c/p) over the profitable
        in-edges; a priced one rises by the factor (1 + epsilon).
        """
        if self.level[j]:
            b = self.beta[j]
            if self.num.exact:
                return Ratio(b.numerator * self._rise[0], b.denominator * self._rise[1])
            return b * self.rise_factor
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

    def value(self, x):
        """A stored dual as a number: the accessor monitors and tests read."""
        return x

    def _exact_raise_beta(self, j: int, new_value) -> None:
        """Any exact rational is stored as a Ratio."""
        self.beta[j] = Ratio(*new_value.as_integer_ratio())
        self.level[j] += 1

    def _exact_effective_profit(self, e: int) -> Ratio:
        spec = self.instance.edges[e]
        b = self.beta[spec.dst]
        return Ratio(spec.profit * b.denominator - spec.price * b.numerator, b.denominator)

    @staticmethod
    def _exact_value(x) -> Fraction:
        return Fraction(x.numerator, x.denominator)


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
    `float_tol`, up to `certify`'s own rounding.  A float run is refused with
    a ValueError when D, or the bound sum(a)*max c + sum(b)*D on the dual
    value, is beyond the float range, since its certificate would read inf or
    nan: alpha_i <= max c, beta_j <= D, and on bts the gamma terms add at
    most the primal value, itself at most sum(a)*max c.
    """
    if config.numeric_mode == "exact":
        num = Numerics(exact=True)
        return PrimalState(instance, num), DualState(instance, config, num), num
    check_float_range(instance)
    bound = dual_bound(instance, config.epsilon)
    if not math.isfinite(bound):
        raise ValueError("dual bound beyond the float range")
    num = Numerics(exact=False, tol=config.float_tol / bound)
    dual = DualState(instance, config, num)
    terms = 1 + (instance.kind is Kind.BTS)
    try:  # max(alpha) is max c
        value_bound = (terms * sum(instance.supply) * max(dual.alpha)
                       + sum(instance.budget) * bound)
    except OverflowError:  # a sum beyond the float range
        value_bound = math.inf
    if not math.isfinite(value_bound):
        raise ValueError("dual value bound beyond the float range")
    return PrimalState(instance, num), dual, num
