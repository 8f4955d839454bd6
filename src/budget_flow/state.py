"""Primal flow state and dual price state of an auction run.

The one module that knows how a run stores its numbers: the base classes
hold the float rules, the `Exact` subclasses the exact ones, and
`make_states` picks a mode's three once.

`PrimalState.flowing_in[j]`, the in-edges of sink j with nonzero flow, is
written only by `add_flow` and `clear_flow`.  A price rise copies it as the
sink's stale set, and an exact rescale multiplies only the flows it lists.
`RunStats.counts` is a `defaultdict(int)`, cheaper to increment in place than
a `Counter`; a read that must not add a key uses `get`.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .instance import Kind, ProblemInstance, SolverConfig, check_float_range


@dataclass
class RunStats:
    """Counters witnessing the charging argument; plain ints, exported as a dict.
    Only a bumped counter is a key of `counts`: read it with `get`."""

    counts: defaultdict = field(default_factory=lambda: defaultdict(int))

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
    """Comparison policy of a float run: float64 within the tolerance `tol`.

    `value` converts a number of the instance to the mode's type, `number`.
    `ExactNumerics` holds the exact rules.
    """

    number = float

    def __init__(self, tol: float = 0.0):
        self.tol = tol

    def value(self, x):
        return self.number(x)

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tol

    def le(self, a, b) -> bool:
        return a - b <= self.tol

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tol

    def is_pos(self, a) -> bool:
        return a > self.tol


class ExactNumerics(Numerics):
    """Exact rationals: plain operators, and sign tests that read the
    numerator, which carries the sign because the denominator of a Fraction
    or a `Ratio` is always positive and an int is its own numerator."""

    number = Fraction
    eq = staticmethod(operator.eq)
    le = staticmethod(operator.le)

    def __init__(self):
        super().__init__(0)  # an int, so `x > tol` on an int numerator stays in ints

    @staticmethod
    def is_zero(a) -> bool:
        return a.numerator == 0

    @staticmethod
    def is_pos(a) -> bool:
        return a.numerator > 0


class Ratio:
    """An exact value numerator/denominator, denominator > 0, kept unreduced:
    an exact dual, or the tie of an exact heap entry.  Like a Fraction it
    exposes `numerator`, which carries the sign, and it compares by
    cross-multiplication, as the value it stands for."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        self.numerator, self.denominator = numerator, denominator

    def __eq__(self, other) -> bool:
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __lt__(self, other) -> bool:
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __repr__(self) -> str:
        return f"Ratio({self.numerator}, {self.denominator})"


class PrimalState:
    """Per-edge flow plus incrementally maintained surpluses and budget residuals.

    surplus[i]  = a_i - sum of flow out of source i
    residual[j] = b_j - price-weighted flow into sink j
    Both always equal their defining sums, since `add_flow` moves them with
    the flow.  flowing_in[j] is the set of sink j's in-edges with nonzero
    flow; `add_flow` and `clear_flow` are its only writers.

    Each quantity is stored as a `number` over one shared denominator,
    `scale`, and the amounts a caller passes and gets back are in the same
    units.  `value` reads a stored quantity as a number and `units` converts
    a number back.  `divide` is the one division.  The methods below are the
    float rules, where `scale` stays 1; `ExactPrimal` holds the exact ones.
    """

    number = float

    def __init__(self, instance: ProblemInstance, num: Numerics):
        self.instance = instance
        self.num = num
        self.scale = 1
        self.zero = self.number(0)
        self.flowing_in: list[set[int]] = [set() for _ in range(instance.m)]
        self.flow = [self.zero] * len(instance.src)
        self.surplus = [self.number(a) for a in instance.supply]
        self.residual = [self.number(b) for b in instance.budget]

    def add_flow(self, e: int, delta) -> None:
        instance = self.instance
        j = instance.dst[e]
        f = self.flow[e] = self.flow[e] + delta
        if f:
            self.flowing_in[j].add(e)
        else:
            self.flowing_in[j].discard(e)
        self.surplus[instance.src[e]] -= delta
        self.residual[j] -= delta * instance.price[e]

    def clear_flow(self, e: int) -> None:
        """Set edge e's flow to zero, leaving surplus and residual as they are:
        the clear of float dust."""
        self.flow[e] = self.zero
        self.flowing_in[self.instance.dst[e]].discard(e)

    def sink_saturated(self, j: int) -> bool:
        return self.num.is_zero(self.residual[j])

    def edge_saturated(self, e: int) -> bool:
        cap = self.instance.capacity[e]
        return cap is not None and self.num.eq(self.flow[e], cap * self.scale)

    def forward_residual(self, e: int):
        """Remaining edge capacity; None means unbounded."""
        cap = self.instance.capacity[e]
        return None if cap is None else cap * self.scale - self.flow[e]

    def divide(self, n, d: int):
        """n/d in the caller's units; exact mode may rescale to keep it whole."""
        return n / d

    def clamp(self, phi, n, d: int):
        """min(phi, n/d), dividing only when n/d is the smaller."""
        limit = n / d
        return limit if limit < phi else phi

    def units(self, x):
        """A number as a stored quantity."""
        return self.number(x)

    def value(self, x):
        """A stored quantity as a number: the accessor monitors and tests read."""
        return x


class ExactPrimal(PrimalState):
    """Exact rules: each quantity is an int numerator over `scale`.  When a
    quotient is not whole, `divide` multiplies `scale`, and every stored
    numerator, by the least factor that makes it whole, so a numerator a
    caller holds across it is stale."""

    number = int
    _zero_value = Fraction(0)

    def divide(self, n: int, d: int) -> int:
        q, r = divmod(n, d)
        if not r:
            return q
        g = math.gcd(r, d)  # = gcd(n, d)
        self._rescale(d // g)
        return n // g

    def clamp(self, phi: int, n: int, d: int) -> int:
        return self.divide(n, d) if n < phi * d else phi

    def units(self, x) -> int:
        return self.divide(x.numerator * self.scale, x.denominator)

    def value(self, x: int) -> Fraction:
        """Zero reads as one shared Fraction, so zero flows build none."""
        return Fraction(x, self.scale) if x else self._zero_value

    def _rescale(self, factor: int) -> None:
        """Multiply `scale` and every stored numerator by `factor`; zero flows
        stay zero, so only the flowing edges are visited.  The lists are
        changed in place, so their aliases stay current."""
        self.scale *= factor
        flow = self.flow
        for flowing in self.flowing_in:
            for e in flowing:
                flow[e] *= factor
        self.surplus[:] = [x * factor for x in self.surplus]
        self.residual[:] = [x * factor for x in self.residual]


class DualState:
    """Source prices alpha, sink prices beta and their levels.

    level[j] counts sink j's prices: 0 while it has none, then beta_j =
    beta0_j * (1 + epsilon)^(level[j] - 1).  It alone records price levels and
    whether a sink has a price.  `raise_beta`, the only writer of beta, sets
    beta_j and bumps level[j] together; a solve calls it through
    `DerivedGraph.raise_beta`, which also records the flow it leaves stale.
    Alpha starts at zero, and `DerivedGraph.rebuild_preferred` is its writer.

    Each alpha and beta is stored as a `number`; the methods below are the
    float rules and `ExactDual` holds the exact ones.  `heap_key`, `entry_bid`
    and `has_slack` are what the derived graph asks of prices.
    """

    number = float

    def __init__(self, instance: ProblemInstance, config: SolverConfig, num: Numerics):
        self.instance = instance
        self.num = num
        self.epsilon = num.value(config.epsilon)
        self.rise_factor = 1 + self.epsilon
        self.level = [0] * instance.m
        self.zero = self.number(0)
        self.alpha = [self.zero] * instance.n
        self.beta = [self.zero] * instance.m

    def next_beta(self, j: int):
        """Sink j's next price, or None while no in-edge is profitable.

        A sink at level 0 starts at epsilon * min(c/p) over the profitable
        in-edges; a priced one rises by the factor (1 + epsilon).
        """
        if self.level[j]:
            return self._risen(self.beta[j])
        profit, price = self.instance.profit, self.instance.price
        c = p = None  # the least c/p so far, compared by cross-multiplication
        for e in self.instance.edges_of_sink(j):
            if profit[e] and (c is None or profit[e] * p < c * price[e]):
                c, p = profit[e], price[e]
        return None if c is None else self.epsilon * self.num.value(Fraction(c, p))

    def _risen(self, b):
        return b * self.rise_factor

    def raise_beta(self, j: int, new_value) -> None:
        self.beta[j] = new_value
        self.level[j] += 1

    def effective_profit(self, e: int):
        instance = self.instance
        return instance.profit[e] - instance.price[e] * self.beta[instance.dst[e]]

    def heap_key(self, e: int) -> tuple:
        """The leading pair `(-key, tie)` of edge e's heap entry, key = c - p*beta.
        A float key orders alone, so `tie` is None."""
        return -self.effective_profit(e), None

    def entry_bid(self, neg_key, tie):
        """Source alpha read back from the leading pair `(-key, tie)` of the
        entry on top of its heap, made at its sink's current level: the key
        c - p*beta when it is positive, else None."""
        return -neg_key if -neg_key > self.num.tol else None

    def has_slack(self, e: int) -> bool:
        """Whether edge e's price slack c - p*beta - alpha is positive."""
        return self.num.is_pos(self.effective_profit(e) - self.alpha[self.instance.src[e]])

    def value(self, x):
        """A stored dual as a number: the accessor monitors and tests read."""
        return x


class ExactDual(DualState):
    """Exact rules: each alpha and beta is a `Ratio`, read as a reduced Fraction.

    With beta = Nb/Db, a heap key c - p*beta is kn/Db, kn = c*Db - p*Nb.  Its
    entry leads with the correctly rounded int division `kn / Db`, as float()
    of kn/Db reduced, or +-inf beyond the float range, so it is monotone, and
    only equal floats read the tie `Ratio(-kn, Db)`.  A slack c - p*beta -
    alpha, alpha = Na/Da, is tested in integers, as `(c*Db - p*Nb)*Da > Na*Db`.
    """

    number = Ratio

    def __init__(self, *args):
        super().__init__(*args)
        self.rise_factor = Ratio(*self.rise_factor.as_integer_ratio())  # `_risen` reads slots

    def _risen(self, b) -> Ratio:
        r = self.rise_factor
        return Ratio(b.numerator * r.numerator, b.denominator * r.denominator)

    def raise_beta(self, j: int, new_value) -> None:
        """A Ratio is stored as it is, any other exact rational as a Ratio."""
        if type(new_value) is not Ratio:
            new_value = Ratio(*new_value.as_integer_ratio())
        self.beta[j] = new_value  # stored here, not through super(): a rise is hot
        self.level[j] += 1

    def heap_key(self, e: int) -> tuple:
        instance = self.instance
        b = self.beta[instance.dst[e]]
        db = b.denominator
        kn = instance.profit[e] * db - instance.price[e] * b.numerator
        try:
            key = kn / db
        except OverflowError:
            key = math.inf if kn > 0 else -math.inf
        return -key, Ratio(-kn, db)

    @staticmethod
    def entry_bid(neg_key, tie) -> Ratio | None:
        return Ratio(-tie.numerator, tie.denominator) if tie.numerator < 0 else None

    def has_slack(self, e: int) -> bool:
        instance = self.instance
        b, a = self.beta[instance.dst[e]], self.alpha[instance.src[e]]
        return ((instance.profit[e] * b.denominator - instance.price[e] * b.numerator)
                * a.denominator > a.numerator * b.denominator)

    @staticmethod
    def value(x) -> Fraction:
        return Fraction(x.numerator, x.denominator)


def dual_bound(instance: ProblemInstance, epsilon) -> float:
    """D = max(1, max c, (1+eps) * max c/p), a bound on every dual of a run.

    alpha_i is 0 or a key c - p*beta out of i, so at most max c, since beta
    >= 0; gamma_e <= c_e.  A first price is eps * min c/p.  A price rises
    only at a saturated sink with no back edge, so each in-edge e carrying
    flow was assigned at the current price with a positive key or is saturated
    with positive slack; either way c_e - p_e*beta_j > 0, so beta_j < (1+eps)
    * max c/p after the rise.  The floor of 1 covers c = 0.
    """
    top_rate = max(map(operator.truediv, instance.profit, instance.price), default=0.0)
    top_profit = max(instance.profit, default=0)
    return max(1.0, top_profit, (1 + float(epsilon)) * top_rate)


def make_states(
    instance: ProblemInstance, config: SolverConfig
) -> tuple[PrimalState, DualState, Numerics]:
    """Zero flow and zero prices; building a `DerivedGraph` on them sets alpha_i
    to the best profit out of i, or 0, and only then are both feasible.

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
        num = ExactNumerics()
        return ExactPrimal(instance, num), ExactDual(instance, config, num), num
    check_float_range(instance)
    bound = dual_bound(instance, config.epsilon)
    if not math.isfinite(bound):
        raise ValueError("dual bound beyond the float range")
    num = Numerics(tol=config.float_tol / bound)
    terms = 1 + (instance.kind is Kind.BTS)
    try:
        value_bound = (terms * sum(instance.supply) * float(max(instance.profit, default=0))
                       + sum(instance.budget) * bound)
    except OverflowError:  # a sum beyond the float range
        value_bound = math.inf
    if not math.isfinite(value_bound):
        raise ValueError("dual value bound beyond the float range")
    return PrimalState(instance, num), DualState(instance, config, num), num
