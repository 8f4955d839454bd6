"""Problem data model: instances, validation, file format, generation, diagnostics."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import ClassVar


class Kind(Enum):
    """Instance flavor: BTP has unbounded edges, BTS allows finite edge capacities."""

    BTP = "btp"
    BTS = "bts"


class InstanceFormatError(ValueError):
    """Malformed instance file; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class EmptySample(ValueError):
    """`generate` drew no edge; another seed may draw some."""


class InstanceValidationError(ValueError):
    """Instance data violates a structural invariant."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class EdgeSpec:
    """One source->sink edge: integer profit, positive integer price, optional capacity.

    `segment` is set only on instances produced by splitting piecewise-linear
    profits into parallel edges; plain instances leave it None.
    """

    src: int
    dst: int
    profit: int
    price: int
    capacity: int | None = None
    segment: int | None = None


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable bipartite instance: supplies, budgets, priced/profit edges.

    Sources and sinks are 0-based internally; the file format is 1-based.
    Instances are safe to share across concurrent solver runs.
    """

    kind: Kind
    supply: tuple[int, ...]
    budget: tuple[int, ...]
    edges: tuple[EdgeSpec, ...]

    @property
    def n(self) -> int:
        return len(self.supply)

    @property
    def m(self) -> int:
        return len(self.budget)

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Edge indices per source and per sink, in edge order, and the distinct
        sources of each sink, in index order; built once."""
        out_edges, in_edges = [[] for _ in range(self.n)], [[] for _ in range(self.m)]
        for e, spec in enumerate(self.edges):
            out_edges[spec.src].append(e)
            in_edges[spec.dst].append(e)
        sources = (tuple(sorted({self.edges[e].src for e in in_j})) for in_j in in_edges)
        return tuple(map(tuple, out_edges)), tuple(map(tuple, in_edges)), tuple(sources)

    def edges_of_source(self, i: int) -> tuple[int, ...]:
        return self._adjacency[0][i]

    def edges_of_sink(self, j: int) -> tuple[int, ...]:
        return self._adjacency[1][j]

    def sources_of_sink(self, j: int) -> tuple[int, ...]:
        return self._adjacency[2][j]


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: approximation tolerance, determinism and numeric policy.

    epsilon lies strictly between 0 and 1, and a max_phases cap is at least 0.
    Ties among equally good sinks break toward the lowest index.  numeric_mode
    "exact" keeps every quantity a Fraction; "float" runs in float64 and
    produces non-rigorous certificates, checked within the constant `float_tol`.
    """

    epsilon: Fraction = Fraction(1, 4)
    max_phases: int | None = None
    numeric_mode: str = "exact"
    float_tol: ClassVar[float] = 1e-9

    def __post_init__(self):
        eps = Fraction(self.epsilon) if not isinstance(self.epsilon, float) else self.epsilon
        object.__setattr__(self, "epsilon", eps)
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")
        if self.max_phases is not None and self.max_phases < 0:
            raise ValueError(f"max_phases must be at least 0, not {self.max_phases}")
        if self.numeric_mode not in ("exact", "float"):
            raise ValueError("numeric_mode must be 'exact' or 'float'")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class InstanceDiagnostics:
    """Profit-rate spread U and the implied cap on price-level raises.

    U = max(c/p) / (epsilon * min over profitable edges of (c/p)); the solver's
    per-sink price can rise multiplicatively at most ceil(log_{1+eps} U) times,
    so beta_rise_bound = m * ceil(log_{1+eps} U).  Each rise may pay for
    ops_per_rise_allowance = 4(n^2 + n log2 max(2, m)) solver operations.
    """

    U: Fraction
    beta_rise_bound: int
    ops_per_rise_allowance: float


def validate(instance: ProblemInstance) -> ValidationReport:
    """Check all structural invariants, returning the complete violation list."""
    issues: list[str] = []
    if instance.n < 1:
        issues.append("no sources")
    if instance.m < 1:
        issues.append("no sinks")
    for i, a in enumerate(instance.supply):
        if a < 1:
            issues.append(f"non-positive supply at source {i + 1}")
    for j, b in enumerate(instance.budget):
        if b < 1:
            issues.append(f"non-positive budget at sink {j + 1}")
    seen: set[tuple[int, int, int | None]] = set()
    for e, spec in enumerate(instance.edges):
        faults = []
        if not (0 <= spec.src < instance.n):
            faults.append("dangling source index")
        if not (0 <= spec.dst < instance.m):
            faults.append("dangling sink index")
        if spec.price < 1:
            faults.append("zero price")
        if spec.profit < 0:
            faults.append("negative profit")
        if spec.capacity is not None:
            if spec.capacity < 1:
                faults.append("non-positive capacity")
            if instance.kind is Kind.BTP:
                faults.append("capacity on a btp instance")
        key = (spec.src, spec.dst, spec.segment)
        if key in seen:
            faults.append("duplicate edge")
        seen.add(key)
        if faults:  # the prefix is built only for an edge with a fault
            tag = f"edge {e + 1} ({spec.src + 1},{spec.dst + 1})"
            issues.extend(f"{tag}: {fault}" for fault in faults)
    return ValidationReport(ok=not issues, violations=tuple(issues))


def check_float_range(instance: ProblemInstance, flow=(), alpha=(), beta=()) -> None:
    """Raise ValueError naming the first record, of the instance or of a solution's
    flow, alpha and beta, whose number a float cannot hold; float mode converts each."""
    edge_max = [max(spec.profit, spec.price, spec.capacity or 0) for spec in instance.edges]
    for name, values in (("source", instance.supply), ("sink", instance.budget),
                         ("edge", edge_max), ("flow on edge", flow), ("alpha", alpha),
                         ("beta", beta)):
        for k, x in enumerate(values, start=1):
            try:
                float(x)
            except OverflowError:
                raise ValueError(f"{name} {k}: number beyond the float range") from None


def check_valid(instance: ProblemInstance) -> ProblemInstance:
    """Raise InstanceValidationError unless `instance` validates cleanly."""
    report = validate(instance)
    if not report.ok:
        raise InstanceValidationError(list(report.violations))
    return instance


# ---------------------------------------------------------------------------
# File format
#
#   p <btp|bts> <n> <m> <E>
#   s <i> <a_i>                  one line per source
#   t <j> <b_j>                  one line per sink
#   e <i> <j> <c> <p> [<u>] [seg=<k>]
#
# Capacities are only accepted on bts instances; seg= appears only on split
# piecewise instances.
#
# Every file this package reads (instances, the reductions' piecewise input,
# solutions) is a sequence of line records read by the functions below: '#'
# starts a comment, tokens are whitespace-separated, the first token is the
# record's tag and indices are 1-based.  An integer field is an int literal; a
# rational field is an integer, a ratio `p/q` of integers with q != 0, or a
# decimal such as `0.25` or `1e-9` whose exponent has at most four digits.
# Every fault is an InstanceFormatError naming its line.
# ---------------------------------------------------------------------------


def records(text: str) -> list[tuple[int, list[str]]]:
    """(line_no, tokens) for every line that holds more than a comment."""
    return [
        (line_no, tokens)
        for line_no, raw in enumerate(text.splitlines(), start=1)
        if (tokens := (raw[: raw.index("#")] if "#" in raw else raw).split())
    ]


def read_header(text: str, usage: str) -> tuple[int, list, list[tuple[int, list[str]]]]:
    """Split off the first record and match it against `usage`, e.g.
    "p <btp|bts> <n> <m> <E>": plain words must appear as written, <a|b> takes
    one of the listed words and any other <x> an integer.

    Returns the header's line number, the placeholders' values in order and
    the records after the header.
    """
    lines = records(text)
    if not lines:
        raise InstanceFormatError(1, f"empty input: missing header {usage!r}")
    line_no, tokens = lines[0]
    spec = usage.split()
    if len(tokens) != len(spec):
        raise InstanceFormatError(line_no, f"header needs: {usage}")
    values = []
    for want, token in zip(spec, tokens):
        if "|" in want:
            if token not in want[1:-1].split("|"):
                raise InstanceFormatError(line_no, f"expected {want}, got {token!r}")
            values.append(token)
        elif want.startswith("<"):
            values.append(integer(line_no, token))
        elif token != want:
            raise InstanceFormatError(line_no, f"header needs: {usage}")
    return line_no, values, lines[1:]


def integer(line_no: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceFormatError(line_no, f"bad integer {token!r}") from None


def rational(line_no: int, token: str) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        if "e" in token or "E" in token:  # Fraction computes 10**exponent exactly
            if len(token.lower().partition("e")[2].lstrip("+-")) > 4:
                raise ValueError
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InstanceFormatError(line_no, f"bad rational {token!r}") from None


def fields(line_no: int, tokens: list[str], count: int, usage: str) -> list[str]:
    """The record's fields after its tag; there must be exactly `count`."""
    if len(tokens) != count + 1:
        raise InstanceFormatError(line_no, f"expected: {usage}")
    return tokens[1:]


def pop_segment(line_no: int, tokens: list[str]) -> int | None:
    """Remove a trailing `seg=<k>` from the record's tokens and return k (None if absent)."""
    return integer(line_no, tokens.pop()[4:]) if tokens[-1].startswith("seg=") else None


def indexed(line_no: int, tokens: list[str], values: list, what: str, read) -> None:
    """Store a `<tag> <k> <value>` record in values[k-1], which must still be None.
    `read` is `integer` or `rational`."""
    if len(tokens) != 3:
        raise InstanceFormatError(line_no, f"expected: {tokens[0]} <{what}> <value>")
    k = integer(line_no, tokens[1]) - 1
    if not 0 <= k < len(values):
        raise InstanceFormatError(line_no, f"{what} index {k + 1} out of range 1..{len(values)}")
    if values[k] is not None:
        raise InstanceFormatError(line_no, f"duplicate {tokens[0]} line for {what} {k + 1}")
    values[k] = read(line_no, tokens[2])


def transport_records(lines, header_line: int, n: int, m: int, num_edges: int, edge):
    """The s/t/e body of a transportation file: one integer `s` line per source
    and one integer `t` line per sink, and the edges, each read by
    `edge(line_no, tokens)`."""
    if max(n, m) > len(lines):  # some line must be missing; allocate nothing that large
        raise InstanceFormatError(
            header_line, f"header declares {n} sources and {m} sinks in {len(lines)} records"
        )
    supply = [None] * max(n, 0)
    budget = [None] * max(m, 0)
    edges = []
    for line_no, tokens in lines:
        tag = tokens[0]
        if tag == "e":
            edges.append(edge(line_no, tokens))
        elif tag == "s":
            indexed(line_no, tokens, supply, "source", integer)
        elif tag == "t":
            indexed(line_no, tokens, budget, "sink", integer)
        else:
            raise InstanceFormatError(line_no, f"unknown record {tag!r}")
    for values, what in ((supply, "source"), (budget, "sink")):
        if None in values:
            k = values.index(None) + 1
            raise InstanceFormatError(header_line, f"missing line for {what} {k}")
    if len(edges) != num_edges:
        raise InstanceFormatError(
            header_line, f"header declares {num_edges} edges, found {len(edges)}"
        )
    return tuple(supply), tuple(budget), tuple(edges)


def parse(text: str) -> ProblemInstance:
    """Parse the line-oriented instance format; raises InstanceFormatError."""
    header_line, (kind, n, m, num_edges), lines = read_header(text, "p <btp|bts> <n> <m> <E>")
    kind = Kind(kind)

    def edge(line_no: int, tokens: list[str]) -> EdgeSpec:
        segment = pop_segment(line_no, tokens)
        if len(tokens) not in (5, 6):
            raise InstanceFormatError(line_no, "edge needs: e <i> <j> <c> <p> [<u>]")
        if len(tokens) == 6 and kind is Kind.BTP:
            raise InstanceFormatError(line_no, "capacity field not allowed on btp instances")
        return EdgeSpec(
            integer(line_no, tokens[1]) - 1,
            integer(line_no, tokens[2]) - 1,
            integer(line_no, tokens[3]),
            integer(line_no, tokens[4]),
            integer(line_no, tokens[5]) if len(tokens) == 6 else None,
            segment,
        )

    supply, budget, edges = transport_records(lines, header_line, n, m, num_edges, edge)
    return check_valid(ProblemInstance(kind, supply, budget, edges))


def serialize(instance: ProblemInstance) -> str:
    """Emit the canonical form: sorted records, no comments; parse round-trips it."""
    lines = [f"p {instance.kind.value} {instance.n} {instance.m} {len(instance.edges)}"]
    for i, a in enumerate(instance.supply):
        lines.append(f"s {i + 1} {a}")
    for j, b in enumerate(instance.budget):
        lines.append(f"t {j + 1} {b}")
    ordered = sorted(instance.edges, key=lambda spec: (
        spec.src, spec.dst, -1 if spec.segment is None else spec.segment))
    for spec in ordered:
        parts = [f"e {spec.src + 1} {spec.dst + 1} {spec.profit} {spec.price}"]
        if spec.capacity is not None:
            parts.append(str(spec.capacity))
        if spec.segment is not None:
            parts.append(f"seg={spec.segment}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def generate(
    seed: int,
    n: int,
    m: int,
    density: float,
    a_range: tuple[int, int] = (1, 10),
    b_range: tuple[int, int] = (1, 20),
    c_range: tuple[int, int] = (0, 9),
    p_range: tuple[int, int] = (1, 6),
    u_range: tuple[int, int] | None = None,
    u_prob: float = 1.0,
) -> ProblemInstance:
    """Deterministically sample an instance; same seed, same instance.

    Each (i, j) pair becomes an edge with probability `density`.  When
    `u_range` is given the result is a BTS instance and each edge gets a
    finite capacity with probability `u_prob`.  Raises EmptySample if the
    sampled edge set comes out empty, and ValueError for impossible
    parameters, which no seed can satisfy.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if not (0 < density <= 1):
        raise ValueError("density must be in (0, 1]")
    for lo, hi in (a_range, b_range, c_range, p_range) + ((u_range,) if u_range else ()):
        if lo > hi or lo < 0:
            raise ValueError("ranges must be non-negative and ordered")
    rng = random.Random(seed)
    kind = Kind.BTS if u_range is not None else Kind.BTP
    edges = []
    for i in range(n):
        for j in range(m):
            if density < 1 and rng.random() >= density:
                continue
            capacity = None
            if u_range is not None and rng.random() < u_prob:
                capacity = rng.randint(*u_range)
            edges.append(
                EdgeSpec(
                    src=i,
                    dst=j,
                    profit=rng.randint(*c_range),
                    price=rng.randint(*p_range),
                    capacity=capacity,
                )
            )
    if not edges:
        raise EmptySample("empty edge set after sampling; raise density or retry seed")
    instance = ProblemInstance(
        kind=kind,
        supply=tuple(rng.randint(*a_range) for _ in range(n)),
        budget=tuple(rng.randint(*b_range) for _ in range(m)),
        edges=tuple(edges),
    )
    return check_valid(instance)


def diagnostics(instance: ProblemInstance, epsilon: Fraction) -> InstanceDiagnostics:
    """Compute the spread U and the rise and per-rise bounds; needs one profitable edge."""
    epsilon = Fraction(epsilon)
    rates = [
        Fraction(spec.profit, spec.price) for spec in instance.edges if spec.profit > 0
    ]
    if not rates:
        raise ValueError("U undefined: every edge has zero profit")
    u_value = max(rates) / (epsilon * min(rates))
    n = instance.n
    return InstanceDiagnostics(
        U=u_value,
        beta_rise_bound=instance.m * ceil_log(u_value, 1 + epsilon),
        ops_per_rise_allowance=4 * (n**2 + n * math.log2(max(2, instance.m))),
    )


def ceil_log(value: Fraction, base: Fraction) -> int:
    """Smallest k >= 0 with base**k >= value, by exact multiplication."""
    if base <= 1:
        raise ValueError("base must exceed 1")
    k = 0
    power = Fraction(1)
    while power < value:
        power *= base
        k += 1
    return k
