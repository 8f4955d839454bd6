import random
from fractions import Fraction

import pytest

from budget_flow.instance import InstanceFormatError, InstanceValidationError, Kind
from budget_flow.reductions import (
    Arc,
    GenFlowInstance,
    MincostBtpInstance,
    MincostEdge,
    PiecewiseEdge,
    PiecewiseInstance,
    check_gflow_feasible,
    check_mincost_feasible,
    fill_order_holds,
    gflow_cost,
    gflow_to_btp,
    map_flow_back,
    map_flow_forward,
    normalize_split_solution,
    parse_gflow,
    parse_mincost,
    parse_piecewise,
    piecewise_profit,
    reassemble,
    serialize_gflow,
    serialize_mincost,
    serialize_piecewise,
    split_piecewise,
    transport_cost,
)


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


# -- generalized flow ---------------------------------------------------------


def single_arc_gflow():
    return GenFlowInstance(
        num_nodes=2,
        arcs=(Arc(0, 1, Fraction(4), Fraction(1), Fraction(1)),),
        source=0,
        supply=Fraction(1),
        sink=1,
        demand=Fraction(1),
    )


def test_transform_prices_follow_multiplier():
    g = GenFlowInstance(
        num_nodes=2,
        arcs=(Arc(0, 1, Fraction(4), Fraction(10), Fraction(1, 2)),),
        source=0,
        supply=Fraction(2),
        sink=1,
        demand=Fraction(1),
    )
    reduced, mapper = gflow_to_btp(g)
    assert reduced.budget[0] == 10
    tail = reduced.edges[mapper.tail_edge[0]]
    head = reduced.edges[mapper.head_edge[0]]
    assert (tail.cost, tail.price) == (0, 1)
    assert (head.cost, head.price) == (8, 2)  # c/mu and 1/mu


def test_single_arc_counts_and_cost_equality():
    g = single_arc_gflow()
    reduced, mapper = gflow_to_btp(g)
    assert reduced.n == 2
    assert reduced.m == 2  # one per arc plus the supply sink
    flows = [Fraction(1)]
    mapped = map_flow_forward(flows, mapper)
    assert check_mincost_feasible(reduced, mapped) == []
    assert transport_cost(reduced, mapped) == gflow_cost(g, flows) == 4
    assert map_flow_back(mapped, mapper) == flows


def test_unit_multipliers_degenerate_to_unit_prices():
    g = GenFlowInstance(
        num_nodes=3,
        arcs=(
            Arc(0, 1, Fraction(2), Fraction(4), Fraction(1)),
            Arc(1, 2, Fraction(3), Fraction(4), Fraction(1)),
        ),
        source=0,
        supply=Fraction(2),
        sink=2,
        demand=Fraction(2),
    )
    reduced, _ = gflow_to_btp(g)
    assert all(e.price == 1 for e in reduced.edges)


def test_zero_flow_maps_to_slack_edges():
    g = GenFlowInstance(
        num_nodes=3,
        arcs=(
            Arc(0, 1, Fraction(2), Fraction(4), Fraction(1, 3)),
            Arc(1, 2, Fraction(3), Fraction(5), Fraction(2)),
        ),
        source=0,
        supply=Fraction(0),
        sink=2,
        demand=Fraction(0),
    )
    reduced, mapper = gflow_to_btp(g)
    mapped = map_flow_forward([Fraction(0), Fraction(0)], mapper)
    for a, arc in enumerate(g.arcs):
        assert mapped[mapper.tail_edge[a]] == arc.capacity
        assert mapped[mapper.head_edge[a]] == 0
    assert transport_cost(reduced, mapped) == 0
    assert check_mincost_feasible(reduced, mapped) == []


def random_feasible_gflow(rng: random.Random):
    """Layered random digraph with path-superposed feasible flow."""
    nodes = rng.randint(2, 5)
    source, sink = 0, nodes - 1
    arcs: list[Arc] = []
    # ensure at least one s->t path through ascending nodes
    chain = sorted(rng.sample(range(nodes), k=min(nodes, rng.randint(2, nodes))))
    if chain[0] != source:
        chain.insert(0, source)
    if chain[-1] != sink:
        chain.append(sink)
    arc_set = set(zip(chain, chain[1:]))
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(range(nodes), 2)
        if a > b:
            a, b = b, a
        if a == b or b == source or a == sink:
            continue
        arc_set.add((a, b))
    arc_list = sorted(arc_set)
    mult = {
        pair: Fraction(rng.randint(1, 4), rng.randint(1, 4)) for pair in arc_list
    }
    cost = {pair: Fraction(rng.randint(-5, 9)) for pair in arc_list}
    flows = {pair: Fraction(0) for pair in arc_list}
    # superpose up to three path flows
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for pair in arc_list:
        adjacency.setdefault(pair[0], []).append(pair)
    supply = Fraction(0)
    demand = Fraction(0)
    for _ in range(rng.randint(0, 3)):
        node = source
        amount = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        carried = amount
        visited = []
        while node != sink:
            options = [p for p in adjacency.get(node, []) if p[1] > node]
            if not options:
                break
            pair = rng.choice(options)
            visited.append((pair, carried))
            carried = carried * mult[pair]
            node = pair[1]
        if node != sink:
            continue
        supply += amount
        demand += carried
        for pair, x in visited:
            flows[pair] += x
    arcs = tuple(
        Arc(
            tail=pair[0],
            head=pair[1],
            cost=cost[pair],
            capacity=flows[pair] + Fraction(rng.randint(1, 5)),
            multiplier=mult[pair],
        )
        for pair in arc_list
    )
    g = GenFlowInstance(
        num_nodes=nodes, arcs=arcs, source=source, supply=supply, sink=sink, demand=demand
    )
    flow_vec = [flows[pair] for pair in arc_list]
    assert check_gflow_feasible(g, flow_vec) == []
    return g, flow_vec


def test_random_flows_round_trip_and_preserve_cost():
    rng = random.Random(17)
    done = 0
    while done < 60:
        g, flows = random_feasible_gflow(rng)
        reduced, mapper = gflow_to_btp(g)
        mapped = map_flow_forward(flows, mapper)
        assert check_mincost_feasible(reduced, mapped) == []
        assert transport_cost(reduced, mapped) == gflow_cost(g, flows)
        back = map_flow_back(mapped, mapper)
        assert back == flows
        assert check_gflow_feasible(g, back) == []
        done += 1


def test_gflow_supplies_follow_the_per_node_definition():
    """One pass over the arcs gives every kept node the capacity leaving it and
    the sink the demand, as summing per node does; an arc-less node that is
    neither the source nor the sink gets no source."""
    rng = random.Random(29)
    arcless = 0
    for _ in range(80):
        g, _ = random_feasible_gflow(rng)
        reduced, mapper = gflow_to_btp(g)
        kept = [
            node for node in range(g.num_nodes)
            if node in (g.source, g.sink) or any(node in (arc.tail, arc.head) for arc in g.arcs)
        ]
        expected = [
            g.demand if node == g.sink
            else sum((arc.capacity for arc in g.arcs if arc.tail == node), start=Fraction(0))
            for node in kept
        ]
        assert list(reduced.supply) == expected
        assert all(type(a) is Fraction for a in reduced.supply)
        for a, arc in enumerate(g.arcs):
            assert reduced.edges[mapper.tail_edge[a]].src == kept.index(arc.tail)
            assert reduced.edges[mapper.head_edge[a]].src == kept.index(arc.head)
        arcless += g.num_nodes - len(kept)
    assert arcless > 0


def test_map_forward_rejects_infeasible():
    g = single_arc_gflow()
    _, mapper = gflow_to_btp(g)
    with pytest.raises(ValueError):
        map_flow_forward([Fraction(5)], mapper)  # exceeds capacity


def test_gflow_file_round_trip():
    g, _ = random_feasible_gflow(random.Random(23))
    text = serialize_gflow(g)
    assert parse_gflow(text) == g


# -- min-cost files -----------------------------------------------------------


def two_edge_mincost():
    return MincostBtpInstance(
        supply=(Fraction(2),),
        budget=(Fraction(1), Fraction(1)),
        edges=(
            MincostEdge(0, 0, Fraction(4), Fraction(1)),
            MincostEdge(0, 1, Fraction(8), Fraction(1)),
        ),
    )


def test_mincost_file_round_trip_and_malformed_lines():
    text = serialize_mincost(two_edge_mincost())
    assert parse_mincost(text) == two_edge_mincost()
    for broken, line_no in (
        (text.replace("s 1 2", "s 1"), 2),  # short supply line
        (text.replace("t 2 1\n", ""), 1),  # missing budget line, reported at the header
        (text.replace("e 1 2 8 1", "e 1 x 8 1"), 6),
        (text.replace("e 1 2 8 1", "e 1 2 8"), 6),
    ):
        with pytest.raises(InstanceFormatError) as info:
            parse_mincost(broken)
        assert info.value.line_no == line_no


PW_TEXT = "p pw 1 2 2\ns 1 6\nt 1 50\nt 2 40\ne 1 1 3 pw 2 5 3\ne 1 2 2 pw 2 4 1\n"
MC_TEXT = "p mincost 1 2 2 min\ns 1 6\nt 1 1\nt 2 1\ne 1 1 4 1\ne 1 2 8 1\n"


@pytest.mark.parametrize(
    "parse, text", [(parse_piecewise, PW_TEXT), (parse_mincost, MC_TEXT)], ids=["pw", "mincost"]
)
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
        (parse_mincost, MC_TEXT.rsplit("e ", 1)[0]),
        (parse_gflow, "g 2 2\na 1 2 4 10 1/2\nsrc 1 2\nsnk 2 1\n"),  # one arc short
    ],
    ids=["pw", "mincost", "gflow"],
)
def test_count_mismatch_cites_the_header_line(parse, text):
    with pytest.raises(InstanceFormatError) as info:
        parse("# a comment first\n" + text)
    assert info.value.line_no == 2


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("e 1 2 8 1", "e 2 2 8 1", 6),  # dangling source
        ("e 1 2 8 1", "e 1 3 8 1", 6),  # dangling sink
        ("e 1 1 4 1", "e 1 0 4 1", 5),
        (" 2 min\n", " 2 avg\n", 1),  # unknown sense
    ],
    ids=["src", "dst", "dst-zero", "sense"],
)
def test_mincost_rejects_dangling_edges_and_unknown_sense(old, new, line):
    with pytest.raises(InstanceFormatError) as info:
        parse_mincost(MC_TEXT.replace(old, new))
    assert info.value.line_no == line


def test_rationals_take_fraction_syntax():
    text = MC_TEXT.replace("e 1 1 4 1", "e 1 1 0.25 3/-4").replace("s 1 6", "s 1 1e1")
    text = text.replace("t 2 1", "t 2 1E-9999")
    inst = parse_mincost(text)
    assert inst.supply == (10,) and inst.budget[1] == Fraction(1, 10**9999)
    assert (inst.edges[0].cost, inst.edges[0].price) == (Fraction(1, 4), Fraction(-3, 4))
    for bad in ("1/0", "x", "1/2/3", "inf", "nan", "0x10", "1e99999999", ""):
        with pytest.raises(InstanceFormatError):
            parse_mincost(MC_TEXT.replace("e 1 1 4 1", f"e 1 1 4 {bad}"))


def test_validation_failures_are_typed():
    nonconcave = PW_TEXT.replace("pw 2 5 3", "pw 2 3 5")
    with pytest.raises(InstanceValidationError):
        parse_piecewise(nonconcave)
    with pytest.raises(InstanceValidationError):
        split_piecewise(pw_instance([(3, 5)]))
    with pytest.raises(InstanceValidationError):
        split_piecewise(
            PiecewiseInstance(supply=(5,), budget=(5,), segment_length=1,
                              edges=(PiecewiseEdge(0, 1, 1, (2,)),))  # dangling sink
        )
    with pytest.raises(InstanceValidationError):
        parse_gflow("g 2 1\na 1 2 4 0 1/2\nsrc 1 2\nsnk 2 1\n")  # zero capacity
    g = single_arc_gflow()
    with pytest.raises(InstanceValidationError):
        gflow_to_btp(GenFlowInstance(g.num_nodes, g.arcs, 0, g.supply, 0, g.demand))
