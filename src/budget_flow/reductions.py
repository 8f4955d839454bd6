"""Instance transform: concave piecewise-linear profits.

Concave piecewise-linear profit edges split into parallel capacitated segments
solvable by the bts solver, and a split solution maps back to per-pair totals
and profile profits.  All transform arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import (
    InstanceFormatError,
    InstanceValidationError,
    Kind,
    ProblemInstance,
    integer,
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
    """Supplies, budgets and concave profile edges; construction validates."""

    supply: tuple[int, ...]
    budget: tuple[int, ...]
    segment_length: int
    edges: tuple[PiecewiseEdge, ...]

    def __post_init__(self):
        validate_piecewise(self)

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


def validate_piecewise(pw: PiecewiseInstance) -> None:
    """Raise InstanceValidationError listing every fault; as in `validate`, only
    an instance that fails one combined test is walked to list them."""
    n, m, edges = pw.n, pw.m, pw.edges
    if pw.segment_length >= 1 and len({(e.src, e.dst) for e in edges}) == len(edges) and all(
        e.slopes and list(e.slopes) == sorted(e.slopes, reverse=True) and e.slopes[-1] >= 0
        and e.price >= 1 and 0 <= e.src < n and 0 <= e.dst < m for e in edges
    ):
        return
    issues = []
    if pw.segment_length < 1:
        issues.append("segment length must be at least 1")
    seen: set[tuple[int, int]] = set()
    for o, edge in enumerate(edges):
        faults = []
        if (edge.src, edge.dst) in seen:
            faults.append("duplicate pair (one profile per source-sink pair)")
        seen.add((edge.src, edge.dst))
        if not edge.slopes:
            faults.append("empty profile")
        if any(a < b for a, b in zip(edge.slopes, edge.slopes[1:])):
            faults.append("profile not concave (slopes must not increase)")
        if any(s < 0 for s in edge.slopes):
            faults.append("negative slope unsupported")
        if edge.price < 1:
            faults.append("zero price")
        if not (0 <= edge.src < n and 0 <= edge.dst < m):
            faults.append("dangling source or sink index")
        if faults:
            tag = f"edge {o + 1} ({edge.src + 1},{edge.dst + 1})"
            issues.extend(f"{tag}: {fault}" for fault in faults)
    if issues:
        raise InstanceValidationError(issues)


def split_piecewise(pw: PiecewiseInstance) -> tuple[ProblemInstance, EdgeMap]:
    """Each profile edge becomes one capacitated edge per segment.

    Segment k gets capacity `segment_length`, profit slopes[k] and the
    original price; the duplicate-edge rule keys on (src, dst, segment).
    """
    rows = []
    groups = []
    for edge in pw.edges:
        start = len(rows)
        rows += [(edge.src, edge.dst, slope, edge.price, pw.segment_length, k)
                 for k, slope in enumerate(edge.slopes, start=1)]
        groups.append(tuple(range(start, len(rows))))
    split = ProblemInstance.from_edges(Kind.BTS, pw.supply, pw.budget, rows)
    return split, EdgeMap(pw.segment_length, tuple(groups))


def fill_order_holds(flows, edge_map: EdgeMap) -> bool:
    """No segment carries flow while an earlier segment of its edge has room."""
    # a flowless segment after one with room has room too: check each pair in turn
    cap = edge_map.segment_length
    return not any(flows[a] < cap and flows[b] > 0
                   for group in edge_map.groups for a, b in zip(group, group[1:]))


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
# the piecewise file format
# ---------------------------------------------------------------------------


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
        numbers = tokens[1:4] + tokens[5:]
        try:
            src, dst, price, length, *slopes = map(int, numbers)
        except ValueError:
            for token in numbers:
                integer(line_no, token)  # cites the first field that is no integer
            raise
        if seg_len is None:
            seg_len = length
        elif seg_len != length:
            raise InstanceFormatError(line_no, "segment length must be uniform")
        return PiecewiseEdge(src - 1, dst - 1, price, tuple(slopes))

    supply, budget, edges = transport_records(lines, header_line, n, m, num_edges, edge)
    return PiecewiseInstance(supply, budget, seg_len if seg_len is not None else 1, edges)


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
