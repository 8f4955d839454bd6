import random
from fractions import Fraction

import pytest

from budget_flow.cli import parse_solution
from budget_flow.instance import (
    InstanceFormatError,
    Kind,
    parse,
    rational,
    serialize,
)
from budget_flow.oracle import exact_opt
from budget_flow.reductions import (
    PiecewiseEdge,
    PiecewiseInstance,
    fill_order_holds,
    normalize_split_solution,
    parse_piecewise,
    piecewise_profit,
    reassemble,
    serialize_piecewise,
    split_piecewise,
)
from conftest import violations


def pw_instance(slopes_per_edge, l=2, price=3):
    edges = tuple(
        PiecewiseEdge(src=0, dst=0, price=price, slopes=tuple(s)) for s in slopes_per_edge
    )
    return PiecewiseInstance(supply=(50,), budget=(500,), segment_length=l, edges=edges)


# -- piecewise ---------------------------------------------------------------


def test_split_two_segments():
    split, edge_map = split_piecewise(pw_instance([(5, 3)]))
    assert split.kind is Kind.BTS
    assert len(split.edges) == 2
    assert [e.profit for e in split.edges] == [5, 3]
    assert all(e.capacity == 2 for e in split.edges)
    assert all(e.price == 3 for e in split.edges)
    assert [e.segment for e in split.edges] == [1, 2]
    assert edge_map.groups == ((0, 1),)


def test_split_single_segment_is_capped_identity():
    split, _ = split_piecewise(pw_instance([(4,)]))
    assert len(split.edges) == 1
    assert split.edges[0].profit == 4
    assert split.edges[0].capacity == 2


def test_split_rejects_nonconcave():
    with pytest.raises(ValueError):
        split_piecewise(pw_instance([(3, 5)]))


def test_normalize_single_transfer():
    _, edge_map = split_piecewise(pw_instance([(5, 3)]))
    out = normalize_split_solution([Fraction(1), Fraction(1)], edge_map)
    assert out == [Fraction(2), Fraction(0)]
    # profit rose from 5+3 to 10
    assert 5 * out[0] + 3 * out[1] == 10


def test_normalize_keeps_normalized_input():
    _, edge_map = split_piecewise(pw_instance([(5, 3)]))
    out = normalize_split_solution([Fraction(2), Fraction(1)], edge_map)
    assert out == [Fraction(2), Fraction(1)]


def test_normalize_property_random():
    rng = random.Random(3)
    for _ in range(100):
        segs = rng.randint(1, 4)
        slopes = sorted((rng.randint(0, 9) for _ in range(segs)), reverse=True)
        pw = pw_instance([tuple(slopes)], l=rng.randint(1, 4))
        _, edge_map = split_piecewise(pw)
        cap = Fraction(pw.segment_length)
        flows = [
            Fraction(rng.randint(0, 4 * pw.segment_length), 4) for _ in range(segs)
        ]
        flows = [min(f, cap) for f in flows]
        out = normalize_split_solution(flows, edge_map)
        assert fill_order_holds(out, edge_map)
        assert sum(out) == sum(flows)
        before = sum(c * f for c, f in zip(slopes, flows))
        after = sum(c * f for c, f in zip(slopes, out))
        assert after >= before
        assert all(0 <= f <= cap for f in out)


def test_reassemble_totals_and_profit():
    pw = pw_instance([(5, 3, 1)], l=2)
    _, edge_map = split_piecewise(pw)
    flows = [Fraction(2), Fraction(3, 2), Fraction(0)]
    totals = reassemble(flows, edge_map)
    assert totals == [Fraction(7, 2)]
    assert piecewise_profit(pw, 0, totals[0]) == 2 * 5 + Fraction(3, 2) * 3


def test_reassemble_zero():
    pw = pw_instance([(5, 3)])
    _, edge_map = split_piecewise(pw)
    assert reassemble([Fraction(0), Fraction(0)], edge_map) == [Fraction(0)]


def test_reassemble_requires_fill_order():
    _, edge_map = split_piecewise(pw_instance([(5, 3)]))
    with pytest.raises(ValueError):
        reassemble([Fraction(1), Fraction(1)], edge_map)


def test_fill_order_is_checked_past_an_empty_middle_segment():
    # the first segment has room and the third carries flow; the middle one,
    # empty, has room and passes the check against the third
    l = 2
    _, edge_map = split_piecewise(pw_instance([(5, 3, 1)], l=l))
    flows = [Fraction(l) - Fraction(1, 2), Fraction(0), Fraction(1)]
    assert not fill_order_holds(flows, edge_map)
    with pytest.raises(ValueError, match="fill order violated"):
        reassemble(flows, edge_map)
    assert fill_order_holds(normalize_split_solution(flows, edge_map), edge_map)


def test_reassembled_profit_equals_piecewise_objective():
    rng = random.Random(9)
    for _ in range(100):
        segs = rng.randint(1, 4)
        slopes = tuple(sorted((rng.randint(0, 9) for _ in range(segs)), reverse=True))
        pw = pw_instance([slopes], l=3)
        _, edge_map = split_piecewise(pw)
        cap = Fraction(pw.segment_length)
        flows = [min(Fraction(rng.randint(0, 12), 4), cap) for _ in range(segs)]
        out = normalize_split_solution(flows, edge_map)
        total = reassemble(out, edge_map)[0]
        assert piecewise_profit(pw, 0, total) == sum(
            c * f for c, f in zip(slopes, out)
        )


def test_piecewise_file_round_trip():
    pw = PiecewiseInstance(
        supply=(5, 7),
        budget=(11,),
        segment_length=2,
        edges=(
            PiecewiseEdge(0, 0, 3, (5, 3)),
            PiecewiseEdge(1, 0, 2, (4, 4, 1)),
        ),
    )
    text = serialize_piecewise(pw)
    assert parse_piecewise(text) == pw


def random_pw(rng: random.Random) -> PiecewiseInstance:
    """Up to four profile edges on distinct pairs of a small instance."""
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    pairs = rng.sample([(i, j) for i in range(n) for j in range(m)], k=min(n * m, 4))
    edges = tuple(
        PiecewiseEdge(
            src=i,
            dst=j,
            price=rng.randint(1, 5),
            slopes=tuple(sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 4))),
                                reverse=True)),
        )
        for i, j in pairs
    )
    return PiecewiseInstance((60,) * n, (10**6,) * m, rng.randint(1, 4), edges)


def test_single_arc_counts_and_cost_equality():
    # a budget of 9 at price 3 buys 3 of the 5 units: 2 at slope 5, then 1 at slope 3
    pw = PiecewiseInstance(supply=(5,), budget=(9,), segment_length=2,
                           edges=(PiecewiseEdge(0, 0, 3, (5, 3, 1)),))
    split, edge_map = split_piecewise(pw)
    assert (split.n, split.m, len(split.edges)) == (1, 1, 3)
    assert edge_map.groups == ((0, 1, 2),)
    value, flow = exact_opt(split)
    totals = reassemble(normalize_split_solution(flow, edge_map), edge_map)
    assert totals == [3]
    assert piecewise_profit(pw, 0, totals[0]) == value == 13


def test_random_flows_round_trip_and_preserve_cost():
    """Pair totals spread over their segments reassemble to the same totals, and
    the split profit of each pair is its profile profit."""
    rng = random.Random(17)
    for _ in range(60):
        pw = random_pw(rng)
        split, edge_map = split_piecewise(pw)
        length = pw.segment_length
        totals = [
            Fraction(rng.randint(0, 4 * length * len(edge.slopes)), 4) for edge in pw.edges
        ]
        flows = [Fraction(0)] * len(split.edges)
        for o, group in enumerate(edge_map.groups):
            flows[group[-1]] = totals[o]  # all of it on the last segment
        spread = normalize_split_solution(flows, edge_map)
        assert fill_order_holds(spread, edge_map)
        assert all(0 <= f <= length for f in spread)
        assert reassemble(spread, edge_map) == totals
        for o, group in enumerate(edge_map.groups):
            profit = sum(split.edges[e].profit * spread[e] for e in group)
            assert profit == piecewise_profit(pw, o, totals[o])


def test_transform_prices_follow_multiplier():
    """Every segment keeps its edge's price, the budget one unit of flow uses, so
    a split flow and its reassembled totals use the same budget at every sink."""
    rng = random.Random(31)
    for _ in range(50):
        pw = random_pw(rng)
        split, edge_map = split_piecewise(pw)
        for o, group in enumerate(edge_map.groups):
            assert {split.edges[e].price for e in group} == {pw.edges[o].price}
        cap = pw.segment_length
        flows = [min(Fraction(rng.randint(0, 4 * cap), 4), cap) for _ in split.edges]
        totals = reassemble(normalize_split_solution(flows, edge_map), edge_map)
        for j in range(pw.m):
            split_use = sum(s.price * f for s, f in zip(split.edges, flows) if s.dst == j)
            total_use = sum(e.price * t for e, t in zip(pw.edges, totals) if e.dst == j)
            assert split_use == total_use


def test_unit_multipliers_degenerate_to_unit_prices():
    # one segment per profile at price 1 is the plain capacitated instance
    pw = parse_piecewise("p pw 2 1 2\ns 1 4\ns 2 3\nt 1 6\ne 1 1 1 pw 5 7\ne 2 1 1 pw 5 2\n")
    split, _ = split_piecewise(pw)
    assert all(spec.price == 1 for spec in split.edges)
    assert serialize(split) == (
        "p bts 2 1 2\ns 1 4\ns 2 3\nt 1 6\ne 1 1 7 1 5 seg=1\ne 2 1 2 1 5 seg=1\n"
    )


def test_map_forward_rejects_infeasible():
    pw = pw_instance([(5, 3)], l=2)
    assert piecewise_profit(pw, 0, 4) == 16
    with pytest.raises(ValueError):
        piecewise_profit(pw, 0, Fraction(9, 2))  # beyond the last segment


def test_zero_flow_maps_to_slack_edges():
    # a split solution without flow records leaves every segment all slack
    pw = parse_piecewise(PW_TEXT)
    split, edge_map = split_piecewise(pw)
    flow, _, _, _, _ = parse_solution("", split)
    normalized = normalize_split_solution(flow, edge_map)
    assert normalized == [0] * len(split.edges)
    totals = reassemble(normalized, edge_map)
    assert totals == [0, 0]
    assert [piecewise_profit(pw, o, t) for o, t in enumerate(totals)] == [0, 0]


PW_TEXT = "p pw 1 2 2\ns 1 6\nt 1 50\nt 2 40\ne 1 1 3 pw 2 5 3\ne 1 2 2 pw 2 4 1\n"


@pytest.mark.parametrize("parse, text", [(parse_piecewise, PW_TEXT)], ids=["pw"])
@pytest.mark.parametrize(
    "old, new, line",
    [
        ("\ns 1 6\n", "\ns 1 6\ns 1 6\n", 3),  # duplicate supply line
        ("\nt 2 ", "\nt 1 ", 4),  # duplicate budget line
        ("\ns 1 6\n", "\ns 2 6\n", 2),  # source index out of range
        ("\nt 2 ", "\nt 3 ", 4),  # sink index out of range
        ("\nt 1 ", "\nt 0 ", 3),
    ],
    ids=["dup-s", "dup-t", "s-range", "t-range", "t-zero"],
)
def test_indexed_lines_follow_the_instance_rule(parse, text, old, new, line):
    with pytest.raises(InstanceFormatError) as info:
        parse(text.replace(old, new))
    assert info.value.line_no == line


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_piecewise, PW_TEXT.rsplit("e ", 1)[0]),  # one edge short
    ],
    ids=["pw"],
)
def test_count_mismatch_cites_the_header_line(parse, text):
    with pytest.raises(InstanceFormatError) as info:
        parse("# a comment first\n" + text)
    assert info.value.line_no == 2


def test_segment_length_must_be_uniform():
    with pytest.raises(InstanceFormatError) as info:
        parse_piecewise(PW_TEXT.replace("pw 2 4 1", "pw 3 4 1"))
    assert str(info.value) == "line 6: segment length must be uniform"


def test_rationals_take_fraction_syntax():
    # read through the solution file's flow/alpha/beta records
    inst = parse("p btp 1 2 2\ns 1 6\nt 1 1\nt 2 1\ne 1 1 4 1\ne 1 2 8 1\n")
    text = "flow 1 1 0.25\nflow 1 2 1E-9999\nalpha 1 3/-4\nbeta 1 1e1\n"
    flow, alpha, beta, _, _ = parse_solution(text, inst)
    assert flow == [Fraction(1, 4), Fraction(1, 10**9999)]
    assert alpha == [Fraction(-3, 4)] and beta == [10, 0]
    for bad in ("1/0", "x", "1/2/3", "inf", "nan", "0x10", "1e99999999"):
        with pytest.raises(InstanceFormatError) as info:
            parse_solution(f"flow 1 1 1\nalpha 1 {bad}\n", inst)
        assert info.value.line_no == 2
    with pytest.raises(InstanceFormatError):
        rational(1, "")  # no file record holds an empty token


def test_validation_failures_are_typed():
    nonconcave = PW_TEXT.replace("pw 2 4 1", "pw 2 1 4")  # the second edge
    assert violations(lambda: parse_piecewise(nonconcave)) == [
        "edge 2 (1,2): profile not concave (slopes must not increase)"
    ]
    assert violations(lambda: pw_instance([(3, 5)])) == [
        "edge 1 (1,1): profile not concave (slopes must not increase)"
    ]
    assert violations(lambda: PiecewiseInstance(
        supply=(5,), budget=(5,), segment_length=0,
        edges=(PiecewiseEdge(0, 1, 0, (2, -1, 3)), PiecewiseEdge(0, 1, 1, ())),
    )) == [
        "segment length must be at least 1",
        "edge 1 (1,2): profile not concave (slopes must not increase)",
        "edge 1 (1,2): negative slope unsupported",
        "edge 1 (1,2): zero price",
        "edge 1 (1,2): dangling source or sink index",
        "edge 2 (1,2): duplicate pair (one profile per source-sink pair)",
        "edge 2 (1,2): empty profile",
        "edge 2 (1,2): dangling source or sink index",
    ]
