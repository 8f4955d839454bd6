"""Problem data model: instances, validation, file format, generation, diagnostics."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property


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
    def _adjacency(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Edge indices per source and per sink, in edge order; built once."""
        out_edges, in_edges = [[] for _ in range(self.n)], [[] for _ in range(self.m)]
        for e, spec in enumerate(self.edges):
            out_edges[spec.src].append(e)
            in_edges[spec.dst].append(e)
        return tuple(map(tuple, out_edges)), tuple(map(tuple, in_edges))

    def edges_of_source(self, i: int) -> tuple[int, ...]:
        return self._adjacency[0][i]

    def edges_of_sink(self, j: int) -> tuple[int, ...]:
        return self._adjacency[1][j]


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: approximation tolerance, determinism and numeric policy.

    epsilon must lie strictly between 0 and 1.  Ties among equally good sinks
    break toward the lowest index.  numeric_mode "exact" keeps every quantity a
    Fraction; "float" runs in float64 with comparison tolerance `float_tol` and
    produces non-rigorous certificates.
    """

    epsilon: Fraction = Fraction(1, 4)
    max_phases: int | None = None
    numeric_mode: str = "exact"
    float_tol: float = 1e-9

    def __post_init__(self):
        eps = Fraction(self.epsilon) if not isinstance(self.epsilon, float) else self.epsilon
        object.__setattr__(self, "epsilon", eps)
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")
        if self.numeric_mode not in ("exact", "float"):
            raise ValueError("numeric_mode must be 'exact' or 'float'")
        if self.numeric_mode == "float" and not self.float_tol > 0:
            raise ValueError("float_tol must be positive in float mode")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class InstanceDiagnostics:
    """Profit-rate spread U and the implied cap on price-level raises.

    U = max(c/p) / (epsilon * min over profitable edges of (c/p)); the solver's
    per-sink price can rise multiplicatively at most ceil(log_{1+eps} U) times,
    so beta_rise_bound = m * ceil(log_{1+eps} U).
    """

    U: Fraction
    beta_rise_bound: int


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
        tag = f"edge {e + 1} ({spec.src + 1},{spec.dst + 1})"
        if not (0 <= spec.src < instance.n):
            issues.append(f"{tag}: dangling source index")
        if not (0 <= spec.dst < instance.m):
            issues.append(f"{tag}: dangling sink index")
        if spec.price < 1:
            issues.append(f"{tag}: zero price")
        if spec.profit < 0:
            issues.append(f"{tag}: negative profit")
        if spec.capacity is not None:
            if spec.capacity < 1:
                issues.append(f"{tag}: non-positive capacity")
            if instance.kind is Kind.BTP:
                issues.append(f"{tag}: capacity on a btp instance")
        key = (spec.src, spec.dst, spec.segment)
        if key in seen:
            issues.append(f"{tag}: duplicate edge")
        seen.add(key)
    return ValidationReport(ok=not issues, violations=tuple(issues))


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
#   s <i> <a_i>                  one line per source, 1-based
#   t <j> <b_j>                  one line per sink, 1-based
#   e <i> <j> <c> <p> [<u>] [seg=<k>]
#
# '#' starts a comment; tokens are whitespace-separated.  Capacities are only
# accepted on bts instances; seg= appears only on split piecewise instances.
# ---------------------------------------------------------------------------


def parse(text: str) -> ProblemInstance:
    """Parse the line-oriented instance format; raises InstanceFormatError."""
    header: tuple[int, Kind, int, int, int] | None = None
    supply: dict[int, int] = {}
    budget: dict[int, int] = {}
    edges: list[EdgeSpec] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        tag = tokens[0]
        if header is None:
            if tag != "p":
                raise InstanceFormatError(line_no, f"expected header 'p', got {tag!r}")
            if len(tokens) != 5:
                raise InstanceFormatError(line_no, "header needs: p <btp|bts> <n> <m> <E>")
            try:
                kind = Kind(tokens[1])
            except ValueError:
                raise InstanceFormatError(line_no, f"unknown kind {tokens[1]!r}") from None
            try:
                n, m, num_edges = (int(t) for t in tokens[2:5])
            except ValueError:
                raise InstanceFormatError(line_no, "header counts must be integers") from None
            header = (line_no, kind, n, m, num_edges)
            continue
        _, kind, n, m, num_edges = header
        if tag == "s":
            idx, value = _parse_int_fields(line_no, tokens, 2)
            if not (1 <= idx <= n):
                raise InstanceFormatError(line_no, f"source index {idx} out of range 1..{n}")
            if idx in supply:
                raise InstanceFormatError(line_no, f"duplicate supply line for source {idx}")
            supply[idx] = value
        elif tag == "t":
            idx, value = _parse_int_fields(line_no, tokens, 2)
            if not (1 <= idx <= m):
                raise InstanceFormatError(line_no, f"sink index {idx} out of range 1..{m}")
            if idx in budget:
                raise InstanceFormatError(line_no, f"duplicate budget line for sink {idx}")
            budget[idx] = value
        elif tag == "e":
            edges.append(_parse_edge_line(line_no, tokens, kind))
        else:
            raise InstanceFormatError(line_no, f"unknown record {tag!r}")

    if header is None:
        raise InstanceFormatError(1, "empty input: missing 'p' header")
    _, kind, n, m, num_edges = header
    supplies = indexed_records(supply, n, "supply line for source", header[0])
    budgets = indexed_records(budget, m, "budget line for sink", header[0])
    if len(edges) != num_edges:
        raise InstanceFormatError(
            header[0], f"header declares {num_edges} edges, found {len(edges)}"
        )

    instance = ProblemInstance(
        kind=kind,
        supply=supplies,
        budget=budgets,
        edges=tuple(edges),
    )
    report = validate(instance)
    if not report.ok:
        raise InstanceValidationError(list(report.violations))
    return instance


def indexed_records(values: dict, count: int, what: str, line_no: int) -> tuple:
    """values[1..count] in order; a gap is reported against the header line."""
    for k in range(1, count + 1):
        if k not in values:
            raise InstanceFormatError(line_no, f"missing {what} {k}")
    return tuple(values[k] for k in range(1, count + 1))


def _parse_int_fields(line_no: int, tokens: list[str], count: int) -> tuple[int, ...]:
    if len(tokens) != count + 1:
        raise InstanceFormatError(line_no, f"expected {count} fields after {tokens[0]!r}")
    try:
        return tuple(int(t) for t in tokens[1:])
    except ValueError:
        raise InstanceFormatError(line_no, "fields must be integers") from None


def _parse_edge_line(line_no: int, tokens: list[str], kind: Kind) -> EdgeSpec:
    fields = tokens[1:]
    segment = None
    if fields and fields[-1].startswith("seg="):
        try:
            segment = int(fields[-1][4:])
        except ValueError:
            raise InstanceFormatError(line_no, "seg= takes an integer") from None
        fields = fields[:-1]
    if len(fields) not in (4, 5):
        raise InstanceFormatError(line_no, "edge needs: e <i> <j> <c> <p> [<u>]")
    if len(fields) == 5 and kind is Kind.BTP:
        raise InstanceFormatError(line_no, "capacity field not allowed on btp instances")
    try:
        values = [int(t) for t in fields]
    except ValueError:
        raise InstanceFormatError(line_no, "edge fields must be integers") from None
    capacity = values[4] if len(values) == 5 else None
    return EdgeSpec(
        src=values[0] - 1,
        dst=values[1] - 1,
        profit=values[2],
        price=values[3],
        capacity=capacity,
        segment=segment,
    )


def serialize(instance: ProblemInstance) -> str:
    """Emit the canonical form: sorted records, no comments; parse round-trips it."""
    lines = [f"p {instance.kind.value} {instance.n} {instance.m} {len(instance.edges)}"]
    for i, a in enumerate(instance.supply):
        lines.append(f"s {i + 1} {a}")
    for j, b in enumerate(instance.budget):
        lines.append(f"t {j + 1} {b}")
    order = sorted(
        range(len(instance.edges)),
        key=lambda e: (
            instance.edges[e].src,
            instance.edges[e].dst,
            instance.edges[e].segment if instance.edges[e].segment is not None else -1,
        ),
    )
    for e in order:
        spec = instance.edges[e]
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
    finite capacity with probability `u_prob`.  Raises ValueError if the
    sampled edge set comes out empty.
    """
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
        raise ValueError("empty edge set after sampling; raise density or retry seed")
    instance = ProblemInstance(
        kind=kind,
        supply=tuple(rng.randint(*a_range) for _ in range(n)),
        budget=tuple(rng.randint(*b_range) for _ in range(m)),
        edges=tuple(edges),
    )
    return check_valid(instance)


def diagnostics(instance: ProblemInstance, epsilon: Fraction) -> InstanceDiagnostics:
    """Compute the spread U and beta_rise_bound; needs one profitable edge."""
    epsilon = Fraction(epsilon)
    rates = [
        Fraction(spec.profit, spec.price) for spec in instance.edges if spec.profit > 0
    ]
    if not rates:
        raise ValueError("U undefined: every edge has zero profit")
    u_value = max(rates) / (epsilon * min(rates))
    return InstanceDiagnostics(
        U=u_value,
        beta_rise_bound=instance.m * ceil_log(u_value, 1 + epsilon),
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
