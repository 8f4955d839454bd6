"""Instance transforms: piecewise-linear profits and generalized flow.

Concave piecewise-linear profit edges split into parallel capacitated segments
solvable by the bts solver; min-cost generalized flow maps onto an
equality-constrained min-cost transportation instance and back, preserving
cost exactly.  All transform arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import (
    EdgeSpec,
    InstanceFormatError,
    InstanceValidationError,
    Kind,
    ProblemInstance,
    check_valid,
    declared,
    fields,
    integer,
    rational,
    read_header,
    transport_records,
)


# ---------------------------------------------------------------------------
# concave piecewise-linear profits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseEdge:
    """Edge whose profit is concave piecewise linear: slopes[k] on the k-th
    interval of fixed length `segment_length`."""

    src: int
    dst: int
    price: int
    slopes: tuple[int, ...]


@dataclass(frozen=True)
class PiecewiseInstance:
    supply: tuple[int, ...]
    budget: tuple[int, ...]
    segment_length: int
    edges: tuple[PiecewiseEdge, ...]

    @property
    def n(self) -> int:
        return len(self.supply)

    @property
    def m(self) -> int:
        return len(self.budget)


@dataclass(frozen=True)
class EdgeMap:
    """Which split edges realize each original edge, in segment order."""

    segment_length: int
    groups: tuple[tuple[int, ...], ...]  # groups[o][k] = split edge index


def validate_piecewise(pw: PiecewiseInstance) -> list[str]:
    issues = []
    if pw.segment_length < 1:
        issues.append("segment length must be at least 1")
    seen: set[tuple[int, int]] = set()
    for o, edge in enumerate(pw.edges):
        if (edge.src, edge.dst) in seen:
            issues.append(f"edge {o}: duplicate pair (one profile per source-sink pair)")
        seen.add((edge.src, edge.dst))
        if not edge.slopes:
            issues.append(f"edge {o}: empty profile")
        if any(a < b for a, b in zip(edge.slopes, edge.slopes[1:])):
            issues.append(f"edge {o}: profile not concave (slopes must not increase)")
        if any(s < 0 for s in edge.slopes):
            issues.append(f"edge {o}: negative slope unsupported")
        if edge.price < 1:
            issues.append(f"edge {o}: zero price")
        if not (0 <= edge.src < pw.n and 0 <= edge.dst < pw.m):
            issues.append(f"edge {o}: dangling source or sink index")
    return issues


def split_piecewise(pw: PiecewiseInstance) -> tuple[ProblemInstance, EdgeMap]:
    """Each profile edge becomes one capacitated edge per segment.

    Segment k gets capacity `segment_length`, profit slopes[k] and the
    original price; the duplicate-edge rule keys on (src, dst, segment).
    """
    issues = validate_piecewise(pw)
    if issues:
        raise InstanceValidationError(issues)
    edges = []
    groups = []
    for edge in pw.edges:
        group = []
        for k, slope in enumerate(edge.slopes, start=1):
            group.append(len(edges))
            edges.append(
                EdgeSpec(
                    src=edge.src,
                    dst=edge.dst,
                    profit=slope,
                    price=edge.price,
                    capacity=pw.segment_length,
                    segment=k,
                )
            )
        groups.append(tuple(group))
    instance = ProblemInstance(
        kind=Kind.BTS, supply=pw.supply, budget=pw.budget, edges=tuple(edges)
    )
    return check_valid(instance), EdgeMap(pw.segment_length, tuple(groups))


def fill_order_holds(flows, edge_map: EdgeMap) -> bool:
    """No segment carries flow while an earlier segment of its edge has room."""
    cap = edge_map.segment_length
    for group in edge_map.groups:
        for z1 in range(len(group)):
            if flows[group[z1]] < cap:
                if any(flows[group[z2]] > 0 for z2 in range(z1 + 1, len(group))):
                    return False
    return True


def normalize_split_solution(flows, edge_map: EdgeMap):
    """Shift flow toward earlier segments until the fill order holds.

    Equivalent to repeatedly transferring min(l - f_z1, f_z2) from a later
    segment to an earlier unfilled one.  Prices agree across segments, so
    every constraint is preserved; concavity means profit never decreases.
    """
    out = list(flows)
    cap = edge_map.segment_length
    for group in edge_map.groups:
        total = sum((out[e] for e in group), start=Fraction(0))
        for e in group:
            take = min(Fraction(cap), total)
            out[e] = take
            total -= take
        assert total == 0
    return out


def reassemble(flows, edge_map: EdgeMap) -> list[Fraction]:
    """Per-original-edge totals; requires the fill order (normalize first)."""
    if not fill_order_holds(flows, edge_map):
        raise ValueError("fill order violated; normalize the split solution first")
    return [sum((flows[e] for e in group), start=Fraction(0)) for group in edge_map.groups]


def piecewise_profit(pw: PiecewiseInstance, original_edge: int, amount) -> Fraction:
    """Evaluate the concave profile of one edge at a given flow amount."""
    remaining = Fraction(amount)
    total = Fraction(0)
    for slope in pw.edges[original_edge].slopes:
        step = min(Fraction(pw.segment_length), remaining)
        if step <= 0:
            break
        total += slope * step
        remaining -= step
    if remaining > 0:
        raise ValueError("amount exceeds the profile's domain")
    return total


# ---------------------------------------------------------------------------
# min-cost generalized flow  <->  equality-constrained min-cost transportation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    cost: Fraction
    capacity: Fraction
    multiplier: Fraction


@dataclass(frozen=True)
class GenFlowInstance:
    """Digraph with per-arc gain/loss multipliers, one source and one sink.

    Arc flow f is consumed at the tail and delivers multiplier*f at the head.
    The source has no incoming arcs and the sink no outgoing ones.
    """

    num_nodes: int
    arcs: tuple[Arc, ...]
    source: int
    supply: Fraction
    sink: int
    demand: Fraction


def validate_gflow(g: GenFlowInstance) -> list[str]:
    issues = []
    if g.source == g.sink:
        issues.append("source and sink must differ")
    if not (0 <= g.source < g.num_nodes and 0 <= g.sink < g.num_nodes):
        issues.append("source/sink out of range")
    if g.supply < 0 or g.demand < 0:
        issues.append("negative supply or demand")
    for a, arc in enumerate(g.arcs):
        if not (0 <= arc.tail < g.num_nodes and 0 <= arc.head < g.num_nodes):
            issues.append(f"arc {a}: endpoint out of range")
        if arc.capacity <= 0:
            issues.append(f"arc {a}: capacity must be positive")
        if arc.multiplier <= 0:
            issues.append(f"arc {a}: multiplier must be positive")
        if arc.head == g.source:
            issues.append(f"arc {a}: arcs into the source are not supported")
        if arc.tail == g.sink:
            issues.append(f"arc {a}: arcs out of the sink are not supported")
    return issues


def _kept_nodes(g: GenFlowInstance) -> list[int]:
    """The nodes that an arc, the source or the sink touches, in node order.

    Every other node carries no flow, so it has no constraint to check and
    gets no source in the reduction.
    """
    return sorted({g.source, g.sink}.union(*((arc.tail, arc.head) for arc in g.arcs)))


def check_gflow_feasible(g: GenFlowInstance, flows) -> list[str]:
    """Violated constraints of a candidate arc flow, empty if feasible."""
    issues = []
    if len(flows) != len(g.arcs):
        return ["flow vector length does not match arc count"]
    into = dict.fromkeys(_kept_nodes(g), Fraction(0))
    out_of = dict(into)
    for a, arc in enumerate(g.arcs):
        if flows[a] < 0:
            issues.append(f"arc {a}: negative flow")
        if flows[a] > arc.capacity:
            issues.append(f"arc {a}: capacity exceeded")
        into[arc.head] += arc.multiplier * flows[a]
        out_of[arc.tail] += flows[a]
    for node, inflow in into.items():
        outflow = out_of[node]
        if node == g.source:
            if outflow != g.supply:
                issues.append(f"source outflow {outflow} != supply {g.supply}")
        elif node == g.sink:
            if inflow != g.demand:
                issues.append(f"sink inflow {inflow} != demand {g.demand}")
        elif inflow != outflow:
            issues.append(f"node {node}: conservation violated ({inflow} != {outflow})")
    return issues


@dataclass(frozen=True)
class MincostEdge:
    src: int
    dst: int
    cost: Fraction
    price: Fraction


@dataclass(frozen=True)
class MincostBtpInstance:
    """Equality-constrained transportation LP with rational data.

    Sources must ship exactly their supply and sinks receive price-weighted
    flow exactly equal to their budget; the objective is minimized, or
    maximized when `sense` is "max".  This form exists to carry the
    generalized-flow reduction; it is not fed to the approximation solver.
    """

    supply: tuple[Fraction, ...]
    budget: tuple[Fraction, ...]
    edges: tuple[MincostEdge, ...]
    sense: str = "min"

    @property
    def n(self) -> int:
        return len(self.supply)

    @property
    def m(self) -> int:
        return len(self.budget)


@dataclass(frozen=True)
class GFlowMapper:
    """Index bookkeeping for the arc-to-sink transform.

    Arc a feeds sink a; its slack edge (from the tail node's source, price 1,
    cost 0) is tail_edge[a] and its carry edge (from the head node's source,
    price 1/mu, cost c/mu) is head_edge[a].  The extra sink holds the supply
    via supply_edge from the source node.
    """

    g: GenFlowInstance
    tail_edge: tuple[int, ...]
    head_edge: tuple[int, ...]
    supply_sink: int
    supply_edge: int


def gflow_to_btp(g: GenFlowInstance) -> tuple[MincostBtpInstance, GFlowMapper]:
    """One source per kept node, one sink per arc plus a supply sink.

    The kept nodes are the arcs' ends, the source and the sink, in node order;
    any other node carries no flow and gets no source, so the size does not
    grow with the header's node count.  A node's supply is the total capacity
    leaving it (the sink node gets the demand instead).  Arc (i,j) becomes a
    sink with budget u_ij fed by a free slack edge from node i and by a carry
    edge from node j with cost c_ij/mu_ij and price 1/mu_ij.
    """
    issues = validate_gflow(g)
    if issues:
        raise InstanceValidationError(issues)
    source_of = {node: i for i, node in enumerate(_kept_nodes(g))}
    supply = [Fraction(0)] * len(source_of)
    for arc in g.arcs:
        supply[source_of[arc.tail]] += arc.capacity
    supply[source_of[g.sink]] = Fraction(g.demand)
    budget = [Fraction(arc.capacity) for arc in g.arcs]
    edges: list[MincostEdge] = []
    tail_edge, head_edge = [], []
    for a, arc in enumerate(g.arcs):
        tail_edge.append(len(edges))
        edges.append(
            MincostEdge(src=source_of[arc.tail], dst=a, cost=Fraction(0), price=Fraction(1))
        )
        head_edge.append(len(edges))
        edges.append(
            MincostEdge(
                src=source_of[arc.head],
                dst=a,
                cost=arc.cost / arc.multiplier,
                price=1 / arc.multiplier,
            )
        )
    supply_sink = len(budget)
    budget.append(Fraction(g.supply))
    supply_edge = len(edges)
    edges.append(
        MincostEdge(src=source_of[g.source], dst=supply_sink, cost=Fraction(0), price=Fraction(1))
    )
    instance = MincostBtpInstance(
        supply=tuple(supply), budget=tuple(budget), edges=tuple(edges)
    )
    return instance, GFlowMapper(
        g=g,
        tail_edge=tuple(tail_edge),
        head_edge=tuple(head_edge),
        supply_sink=supply_sink,
        supply_edge=supply_edge,
    )


def check_mincost_feasible(instance: MincostBtpInstance, flows) -> list[str]:
    issues = []
    if len(flows) != len(instance.edges):
        return ["flow vector length does not match edge count"]
    shipped = [Fraction(0)] * instance.n
    received = [Fraction(0)] * instance.m
    for e, (spec, f) in enumerate(zip(instance.edges, flows)):
        if f < 0:
            issues.append(f"edge {e}: negative flow")
        shipped[spec.src] += f
        received[spec.dst] += spec.price * f
    for i, total in enumerate(shipped):
        if total != instance.supply[i]:
            issues.append(f"source {i}: ships {total}, supply is {instance.supply[i]}")
    for j, total in enumerate(received):
        if total != instance.budget[j]:
            issues.append(f"sink {j}: receives {total}, budget is {instance.budget[j]}")
    return issues


def map_flow_forward(flows, mapper: GFlowMapper) -> list[Fraction]:
    """Arc flow -> transportation flow of identical cost (checked feasible)."""
    issues = check_gflow_feasible(mapper.g, flows)
    if issues:
        raise ValueError("; ".join(issues))
    out = [Fraction(0)] * (2 * len(mapper.g.arcs) + 1)
    for a, arc in enumerate(mapper.g.arcs):
        out[mapper.tail_edge[a]] = arc.capacity - Fraction(flows[a])
        out[mapper.head_edge[a]] = arc.multiplier * Fraction(flows[a])
    out[mapper.supply_edge] = Fraction(mapper.g.supply)
    return out


def map_flow_back(flows, mapper: GFlowMapper) -> list[Fraction]:
    """Transportation flow -> arc flow of identical cost (checked feasible)."""
    instance, _ = gflow_to_btp(mapper.g)
    issues = check_mincost_feasible(instance, flows)
    if issues:
        raise ValueError("; ".join(issues))
    return [
        Fraction(flows[mapper.head_edge[a]]) / arc.multiplier
        for a, arc in enumerate(mapper.g.arcs)
    ]


def transport_cost(instance: MincostBtpInstance, flows) -> Fraction:
    return sum(
        (spec.cost * flows[e] for e, spec in enumerate(instance.edges)),
        start=Fraction(0),
    )


def gflow_cost(g: GenFlowInstance, flows) -> Fraction:
    return sum((arc.cost * flows[a] for a, arc in enumerate(g.arcs)), start=Fraction(0))


# ---------------------------------------------------------------------------
# file formats for the transform inputs and outputs
# ---------------------------------------------------------------------------


def _ratio_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_piecewise(text: str) -> PiecewiseInstance:
    """Format: `p pw n m E` header, s/t lines, `e i j p pw l c1 c2 ...` edges."""
    header_line, (n, m, num_edges), lines = read_header(text, "p pw <n> <m> <E>")
    seg_len: int | None = None

    def edge(line_no: int, tokens: list[str]) -> PiecewiseEdge:
        nonlocal seg_len
        if len(tokens) < 7 or tokens[4] != "pw":
            raise InstanceFormatError(
                line_no, "piecewise edge needs: e <i> <j> <p> pw <l> <c1> ..."
            )
        src, dst, price, length, *slopes = (
            integer(line_no, token) for token in tokens[1:4] + tokens[5:]
        )
        if seg_len is None:
            seg_len = length
        elif seg_len != length:
            raise InstanceFormatError(line_no, "segment length must be uniform")
        return PiecewiseEdge(src - 1, dst - 1, price, tuple(slopes))

    supply, budget, edges = transport_records(
        lines, header_line, n, m, num_edges, integer, edge
    )
    pw = PiecewiseInstance(supply, budget, seg_len if seg_len is not None else 1, edges)
    issues = validate_piecewise(pw)
    if issues:
        raise InstanceValidationError(issues)
    return pw


def serialize_piecewise(pw: PiecewiseInstance) -> str:
    lines = [f"p pw {pw.n} {pw.m} {len(pw.edges)}"]
    lines += [f"s {i + 1} {a}" for i, a in enumerate(pw.supply)]
    lines += [f"t {j + 1} {b}" for j, b in enumerate(pw.budget)]
    for edge in sorted(pw.edges, key=lambda e: (e.src, e.dst)):
        slopes = " ".join(str(c) for c in edge.slopes)
        lines.append(
            f"e {edge.src + 1} {edge.dst + 1} {edge.price} pw {pw.segment_length} {slopes}"
        )
    return "\n".join(lines) + "\n"


def parse_gflow(text: str) -> GenFlowInstance:
    """Format: `g |V| |A|`, `a i j c u mu` per arc, `src s d_s`, `snk t d_t`."""
    header_line, (num_nodes, num_arcs), lines = read_header(text, "g <V> <A>")
    arcs: list[Arc] = []
    ends: dict[str, tuple[int, Fraction]] = {}
    for line_no, tokens in lines:
        tag = tokens[0]
        if tag == "a":
            tail, head, *values = fields(line_no, tokens, 5, "a <i> <j> <c> <u> <mu>")
            arcs.append(
                Arc(
                    integer(line_no, tail) - 1,
                    integer(line_no, head) - 1,
                    *(rational(line_no, token) for token in values),
                )
            )
        elif tag in ("src", "snk"):
            if tag in ends:
                raise InstanceFormatError(line_no, f"duplicate {tag} record")
            node, amount = fields(line_no, tokens, 2, f"{tag} <node> <amount>")
            ends[tag] = (integer(line_no, node) - 1, rational(line_no, amount))
        else:
            raise InstanceFormatError(line_no, f"unknown record {tag!r}")
    for tag in ("src", "snk"):
        if tag not in ends:
            raise InstanceFormatError(header_line, f"missing {tag} record")
    declared(header_line, "arcs", num_arcs, len(arcs))
    (source, supply), (sink, demand) = ends["src"], ends["snk"]
    g = GenFlowInstance(num_nodes, tuple(arcs), source, supply, sink, demand)
    issues = validate_gflow(g)
    if issues:
        raise InstanceValidationError(issues)
    return g


def serialize_gflow(g: GenFlowInstance) -> str:
    lines = [f"g {g.num_nodes} {len(g.arcs)}"]
    for arc in g.arcs:
        lines.append(
            f"a {arc.tail + 1} {arc.head + 1} {_ratio_str(arc.cost)} "
            f"{_ratio_str(arc.capacity)} {_ratio_str(arc.multiplier)}"
        )
    lines.append(f"src {g.source + 1} {_ratio_str(g.supply)}")
    lines.append(f"snk {g.sink + 1} {_ratio_str(g.demand)}")
    return "\n".join(lines) + "\n"


def serialize_mincost(instance: MincostBtpInstance) -> str:
    lines = [f"p mincost {instance.n} {instance.m} {len(instance.edges)} {instance.sense}"]
    lines += [f"s {i + 1} {_ratio_str(a)}" for i, a in enumerate(instance.supply)]
    lines += [f"t {j + 1} {_ratio_str(b)}" for j, b in enumerate(instance.budget)]
    for spec in instance.edges:
        lines.append(
            f"e {spec.src + 1} {spec.dst + 1} {_ratio_str(spec.cost)} {_ratio_str(spec.price)}"
        )
    return "\n".join(lines) + "\n"


def parse_mincost(text: str) -> MincostBtpInstance:
    """Format: `p mincost n m E <min|max>` header, s/t lines, `e i j c p` edges."""
    header_line, (n, m, num_edges, sense), lines = read_header(
        text, "p mincost <n> <m> <E> <min|max>"
    )

    def edge(line_no: int, tokens: list[str]) -> MincostEdge:
        src, dst, cost, price = fields(line_no, tokens, 4, "e <i> <j> <c> <p>")
        spec = MincostEdge(
            integer(line_no, src) - 1,
            integer(line_no, dst) - 1,
            rational(line_no, cost),
            rational(line_no, price),
        )
        if not (0 <= spec.src < n and 0 <= spec.dst < m):
            raise InstanceFormatError(line_no, f"edge ({src},{dst}) has a dangling index")
        return spec

    supply, budget, edges = transport_records(
        lines, header_line, n, m, num_edges, rational, edge
    )
    return MincostBtpInstance(supply, budget, edges, sense)
