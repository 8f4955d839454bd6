"""Problem data model: instances, validation, file format, generation, diagnostics.

A `ProblemInstance` holds its edges as columns, one tuple per `EdgeSpec` field
(`src`, `dst`, `profit`, `price`, `capacity`, `segment`) indexed by edge; the
readers, the generator and the solver use only these.  `edges` is a view of
them as `EdgeSpec` rows, built on first use for callers that want records.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, NamedTuple


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


class stored_property(cached_property):
    """A `cached_property` that keeps attribute reads fast: it does not write `__dict__`."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)
        return value


class EdgeSpec(NamedTuple):
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
    """Immutable bipartite instance: supplies, budgets and edge columns.

    Sources and sinks are 0-based internally; the file format is 1-based.
    Construction validates, so an instance that exists is valid; instances
    are safe to share across concurrent solver runs.
    """

    kind: Kind
    supply: tuple[int, ...]
    budget: tuple[int, ...]
    src: tuple[int, ...]
    dst: tuple[int, ...]
    profit: tuple[int, ...]
    price: tuple[int, ...]
    capacity: tuple[int | None, ...]
    segment: tuple[int | None, ...]

    def __post_init__(self):
        validate(self)  # looked up at call time, so a wrapped `validate` sees every check

    @classmethod
    def from_edges(cls, kind: Kind, supply, budget, edges) -> ProblemInstance:
        """From one `EdgeSpec`, or a plain tuple of its six fields, per edge."""
        return cls(kind, tuple(supply), tuple(budget), *(tuple(zip(*edges)) or ((),) * 6))

    @stored_property
    def edges(self) -> tuple[EdgeSpec, ...]:
        return tuple(map(EdgeSpec, self.src, self.dst, self.profit, self.price,
                         self.capacity, self.segment))

    @property
    def n(self) -> int:
        return len(self.supply)

    @property
    def m(self) -> int:
        return len(self.budget)

    @stored_property
    def _adjacency(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Edge indices per source and per sink, in edge order, and the distinct
        sources of each sink, in index order; built once."""
        out_edges, in_edges = [[] for _ in range(self.n)], [[] for _ in range(self.m)]
        for e, (i, j) in enumerate(zip(self.src, self.dst)):
            out_edges[i].append(e)
            in_edges[j].append(e)
        sources = (tuple(sorted({self.src[e] for e in in_j})) for in_j in in_edges)
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

    epsilon lies strictly between 0 and 1 and is held as a Fraction, and a
    max_phases cap is at least 0.  Ties among equally good sinks break toward
    the lowest index.  numeric_mode "exact" keeps every quantity exact, as
    ints during the run and Fractions in the solution; "float" runs in float64
    and produces non-rigorous certificates, checked within the constant
    `float_tol`.
    """

    epsilon: Fraction = Fraction(1, 4)
    max_phases: int | None = None
    numeric_mode: str = "exact"
    float_tol: ClassVar[float] = 1e-9

    def __post_init__(self):
        if not (0 < self.epsilon < 1):  # before converting: Fraction refuses inf and nan
            raise ValueError("epsilon must be in (0, 1)")
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.max_phases is not None and self.max_phases < 0:
            raise ValueError(f"max_phases must be at least 0, not {self.max_phases}")
        if self.numeric_mode not in ("exact", "float"):
            raise ValueError("numeric_mode must be 'exact' or 'float'")


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


def validate(instance: ProblemInstance) -> None:
    """Check every structural invariant; raise InstanceValidationError listing all faults.

    A valid instance passes one combined test per edge, with no fault list
    built; only an instance that fails it is walked again, to list each fault
    in order.
    """
    n, m, supply, budget = instance.n, instance.m, instance.supply, instance.budget
    columns = (instance.src, instance.dst, instance.profit, instance.price, instance.capacity,
               instance.segment)
    capacitated = instance.kind is Kind.BTS
    if n >= 1 and m >= 1 and min(supply) >= 1 and min(budget) >= 1:
        keys = {  # a strict zip raises ValueError on columns of unequal length
            (i, j, k) for i, j, c, p, u, k in zip(*columns, strict=True)
            if 0 <= i < n and 0 <= j < m and p >= 1 and c >= 0
            and (u is None or (capacitated and u >= 1))
        }
        if len(keys) == len(instance.src):  # every edge passed, and no key repeats
            return
    issues: list[str] = []
    if n < 1:
        issues.append("no sources")
    if m < 1:
        issues.append("no sinks")
    for i, a in enumerate(supply):
        if a < 1:
            issues.append(f"non-positive supply at source {i + 1}")
    for j, b in enumerate(budget):
        if b < 1:
            issues.append(f"non-positive budget at sink {j + 1}")
    seen: set[tuple[int, int, int | None]] = set()
    for e, (i, j, c, p, u, k) in enumerate(zip(*columns, strict=True)):
        faults = []
        if not (0 <= i < n):
            faults.append("dangling source index")
        if not (0 <= j < m):
            faults.append("dangling sink index")
        if p < 1:
            faults.append("zero price")
        if c < 0:
            faults.append("negative profit")
        if u is not None:
            if u < 1:
                faults.append("non-positive capacity")
            if not capacitated:
                faults.append("capacity on a btp instance")
        if (i, j, k) in seen:
            faults.append("duplicate edge")
        seen.add((i, j, k))
        if faults:  # the prefix is built only for an edge with a fault
            tag = f"edge {e + 1} ({i + 1},{j + 1})"
            issues.extend(f"{tag}: {fault}" for fault in faults)
    if issues:
        raise InstanceValidationError(issues)


def check_float_range(instance: ProblemInstance, flow=(), alpha=(), beta=()) -> None:
    """Raise ValueError naming the first record, of the instance or of a solution's
    flow, alpha and beta, whose number a float cannot hold; float mode converts each."""
    edge_max = map(max, instance.profit, instance.price, (u or 0 for u in instance.capacity))
    for name, values in (("source", instance.supply), ("sink", instance.budget),
                         ("edge", edge_max), ("flow on edge", flow), ("alpha", alpha),
                         ("beta", beta)):
        for k, x in enumerate(values, start=1):
            try:
                float(x)
            except OverflowError:
                raise ValueError(f"{name} {k}: number beyond the float range") from None


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


def records(text: str, tags: tuple[str, ...] | None = None) -> list[tuple[int, list[str]]]:
    """(line_no, tokens) for every line that holds more than a comment.

    Given `tags`, only lines that start with one of them, past any leading
    whitespace, are split: a reader skips the records it ignores unread.  Such
    a line's first token may still be longer than the tag.
    """
    return [
        (line_no, tokens)
        for line_no, raw in enumerate(text.splitlines(), start=1)
        if (tags is None or raw.lstrip().startswith(tags))
        and (tokens := (raw[: raw.index("#")] if "#" in raw else raw).split())
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
    """`p/q`, an integer or a plain decimal `[-]d+[.d+]` is read as an int pair;
    any other form, exponents included, goes to Fraction's own parser."""
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        whole, dot, digits = (token[1:] if token[:1] == "-" else token).partition(".")
        if token.isascii() and whole.isdigit() and (digits.isdigit() or not dot):
            return Fraction(int(token.replace(".", "")), 10 ** len(digits))
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
    """Parse the line-oriented instance format; raises InstanceFormatError.

    Edge records that all have the same fields are read column by column;
    otherwise, or on any fault, the file is read again record by record."""
    header_line, (kind, n, m, num_edges), lines = read_header(text, "p <btp|bts> <n> <m> <E>")
    kind = Kind(kind)
    widths = (5, 6) if kind is Kind.BTS else (5,)

    def edge(line_no: int, tokens: list[str]) -> tuple:
        segment = pop_segment(line_no, tokens)
        if len(tokens) in widths:
            i, j, c, p, *u = (integer(line_no, token) for token in tokens[1:])
            return i - 1, j - 1, c, p, u[0] if u else None, segment
        if len(tokens) == 6:
            raise InstanceFormatError(line_no, "capacity field not allowed on btp instances")
        raise InstanceFormatError(line_no, "edge needs: e <i> <j> <c> <p> [<u>]")

    try:
        supply, budget, records = transport_records(
            lines, header_line, n, m, num_edges, lambda line_no, tokens: tokens)
        columns = list(zip(*records)) if len(set(map(len, records))) == 1 else []
        segment = unset = (None,) * len(records)
        if columns and all(k.startswith("seg=") for k in columns[-1]):
            segment = tuple(int(k[4:]) for k in columns.pop())
        if len(columns) not in widths:
            raise ValueError("edge records of differing or wrong widths")
        src, dst, profit, price, *capacity = (tuple(map(int, c)) for c in columns[1:])
        columns = (tuple(i - 1 for i in src), tuple(j - 1 for j in dst), profit, price,
                   capacity[0] if capacity else unset, segment)
    except ValueError:
        supply, budget, rows = transport_records(lines, header_line, n, m, num_edges, edge)
        columns = tuple(zip(*rows)) or ((),) * 6
    return ProblemInstance(kind, supply, budget, *columns)


def serialize(instance: ProblemInstance) -> str:
    """Emit the canonical form: sorted records, no comments; parse round-trips it."""
    lines = [f"p {instance.kind.value} {instance.n} {instance.m} {len(instance.src)}"]
    for i, a in enumerate(instance.supply):
        lines.append(f"s {i + 1} {a}")
    for j, b in enumerate(instance.budget):
        lines.append(f"t {j + 1} {b}")
    rows = zip(instance.src, instance.dst, instance.profit, instance.price, instance.capacity,
               instance.segment)
    for i, j, c, p, u, k in sorted(rows, key=lambda r: (r[0], r[1], -1 if r[5] is None else r[5])):
        lines.append(f"e {i + 1} {j + 1} {c} {p}" + ("" if u is None else f" {u}")
                     + ("" if k is None else f" seg={k}"))
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
    finite capacity with probability `u_prob`.  Raises ValueError for
    impossible parameters, such as a range other than `c_range` starting at 0,
    and for a sampled edge set that comes out empty, which another seed may avoid.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if not (0 < density <= 1):
        raise ValueError("density must be in (0, 1]")
    for name, (lo, hi) in zip("abcpu", (a_range, b_range, c_range, p_range, u_range or (1, 1))):
        if lo > hi or lo < 0:
            raise ValueError("ranges must be non-negative and ordered")
        if lo < 1 and name != "c":  # a supply, budget, price or capacity below 1 fails `validate`
            raise ValueError(f"{name}_range must start at 1 or above")
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
            edges.append((i, j, rng.randint(*c_range), rng.randint(*p_range), capacity, None))
    if not edges:
        raise ValueError("empty edge set after sampling; raise density or retry seed")
    return ProblemInstance.from_edges(
        kind,
        supply=[rng.randint(*a_range) for _ in range(n)],
        budget=[rng.randint(*b_range) for _ in range(m)],
        edges=edges,
    )


def diagnostics(instance: ProblemInstance, epsilon: Fraction) -> InstanceDiagnostics:
    """Compute the spread U and the rise and per-rise bounds; needs one profitable edge."""
    epsilon = Fraction(epsilon)
    rates = [Fraction(c, p) for c, p in zip(instance.profit, instance.price) if c > 0]
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
