"""`ExactNumerics` against the plain Fraction operators, and edge saturation.

Exact mode compares with the plain operators and reads the numerator for
sign tests; these properties pin that to the operators they replace, on
Fractions, ints and the unreduced `Ratio` pairs of exact duals alike,
negative, zero and large.  The capacity rules of `PrimalState` are one body
for both modes; in float mode they must keep the bits of the float
expressions.  The first price of a sink is pinned to its Fraction
definition.  Hypothesis runs derandomized with no example database, so the
suite stays deterministic.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from budget_flow.instance import SolverConfig
from budget_flow.state import ExactNumerics, Numerics, PrimalState, Ratio, make_states
from conftest import btp, bts

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
BIG = 10**40
EXACT = ExactNumerics()

ints = st.integers(-BIG, BIG) | st.integers(-3, 3)
fractions = (
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    | st.fractions(min_value=-5, max_value=5, max_denominator=7)
)
values = ints | fractions | st.sampled_from([0, Fraction(0), Fraction(-0), 1, -1])


@PROPERTY
@given(values)
def test_exact_sign_tests_match_the_operators(a):
    assert EXACT.is_pos(a) is (a > 0)
    assert EXACT.is_zero(a) is (a == 0)


@PROPERTY
@given(ints, st.integers(1, BIG))
def test_exact_sign_tests_read_unreduced_pairs(n, d):
    assert EXACT.is_pos(Ratio(n, d)) is (Fraction(n, d) > 0)
    assert EXACT.is_zero(Ratio(n, d)) is (n == 0)


@PROPERTY
@given(values, values)
def test_exact_comparisons_match_the_operators(a, b):
    assert EXACT.le(a, b) is (a <= b)
    assert EXACT.eq(a, b) is (a == b)
    assert EXACT.eq(a, a) and EXACT.le(a, a)


def test_a_ratio_shows_its_unreduced_pair():
    assert repr(Ratio(3, 4)) == "Ratio(3, 4)" and repr(Ratio(6, 8)) == "Ratio(6, 8)"


def test_float_comparisons_include_the_tolerance():
    # each test is inclusive at exactly tol, and strict past it
    num = Numerics(0.5)
    assert num.le(1.5, 1.0) and not num.le(1.75, 1.0)
    assert num.eq(1.0, 1.5) and num.eq(1.5, 1.0) and not num.eq(1.0, 1.75)
    assert num.is_zero(-0.5) and not num.is_zero(0.75)
    assert not num.is_pos(0.5) and num.is_pos(0.75)


@PROPERTY
@given(
    st.integers(1, 10**6),
    st.sampled_from(["exact", "float"]),
    st.integers(-3, 3),
    st.sampled_from([Fraction(0), Fraction(1, 10**12), Fraction(1, 10**9), Fraction(1, 3)]),
)
def test_edge_saturated_matches_the_converted_capacity(cap, mode, sign, offset):
    """`edge_saturated` agrees with `eq(flow, value(cap))` on the flow's value,
    also after the exact state rescaled to hold it."""
    inst = bts([cap + 1, 1], [10**7, 10**7], [(0, 0, 3, 1, cap), (1, 1, 2, 1, None)])
    primal, _, num = make_states(inst, SolverConfig(epsilon=Fraction(1, 4), numeric_mode=mode))
    primal.add_flow(0, primal.units(num.value(cap + sign * offset)))
    assert primal.edge_saturated(0) is num.eq(primal.value(primal.flow[0]), num.value(cap))
    assert primal.edge_saturated(1) is False


caps = st.integers(1, 2**64) | st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**63 + 1, 10**18 + 1])


@PROPERTY
@given(caps, st.data(), st.sampled_from([0.0, 1e-12, 1e-9, 0.5]))
def test_float_capacity_rules_keep_the_float_bits(cap, data, tol):
    """`forward_residual` and `edge_saturated` compute `cap * scale - f` and
    `eq(f, cap * scale)` with scale 1; in float mode these give the bits of
    `float(cap) - f` and `eq(f, float(cap))`, also for capacities no float holds."""
    near = float(cap)
    flow = data.draw(
        st.sampled_from([near, math.nextafter(near, 0), math.nextafter(near, math.inf),
                         near - tol, near + tol, 0.0, -0.0])
        | st.floats(0, 2.0**65)
    )
    num = Numerics(tol=tol)
    primal = PrimalState(bts([1], [1], [(0, 0, 1, 1, cap)]), num)
    primal.flow[0] = flow
    residual = primal.forward_residual(0)
    assert type(residual) is float and residual.hex() == (float(cap) - flow).hex()
    assert primal.edge_saturated(0) is num.eq(flow, float(cap))


# (profit, price) of each in-edge of sink 0, one source each; small ranges make
# zero profits and equal ratios common
in_edges = st.lists(
    st.tuples(st.integers(0, 6) | st.integers(0, BIG), st.integers(1, 7) | st.integers(1, BIG)),
    min_size=1, max_size=8,
)


@PROPERTY
@given(in_edges, st.sampled_from(["exact", "float"]),
       st.sampled_from([Fraction(1, 4), Fraction(1, 8), Fraction(3, 7)]))
@example([(0, 3), (0, 5)], "exact", Fraction(1, 8))  # no profitable in-edge
@example([(0, 3), (0, 5)], "float", Fraction(1, 8))
@example([(2, 4), (0, 1), (1, 2), (3, 6)], "exact", Fraction(1, 8))  # equal ratios, a zero
@example([(2, 4), (0, 1), (1, 2), (3, 6)], "float", Fraction(1, 8))
def test_first_price_is_epsilon_times_the_least_rate(edges, mode, eps):
    """At level 0, `next_beta` is eps * min c/p over the in-edges with c > 0,
    as the mode's number, and None when there is none; a sink with no in-edge
    has none either."""
    inst = btp([1] * len(edges), [1, 1], [(i, 0, c, p) for i, (c, p) in enumerate(edges)])
    _, dual, num = make_states(inst, SolverConfig(epsilon=eps, numeric_mode=mode))
    rates = [Fraction(c, p) for c, p in edges if c]
    expected = num.value(eps) * num.value(min(rates)) if rates else None
    got = dual.next_beta(0)
    assert got == expected and type(got) is type(expected)
    assert dual.next_beta(1) is None
