"""Properties of the line-record file formats.

Each writer round-trips through its reader, and a reader given a damaged
file (cut short anywhere, or one token replaced) either still accepts it or
raises InstanceFormatError / InstanceValidationError, never anything else.
The examples are derandomized and no example database is kept, so the suite
stays deterministic; `conftest.py` keeps Hypothesis's other cache out of the
checkout.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budget_flow.cli import parse_solution, solution_to_text
from budget_flow.instance import (
    EdgeSpec,
    InstanceFormatError,
    InstanceValidationError,
    Kind,
    ProblemInstance,
    SolverConfig,
    generate,
    parse,
    serialize,
)
from budget_flow.reductions import (
    PiecewiseEdge,
    PiecewiseInstance,
    parse_piecewise,
    serialize_piecewise,
)
from budget_flow.solver import solve
from conftest import PHASE_CAP

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

counts = st.integers(1, 4)
positive = st.integers(1, 20)


@st.composite
def instances(draw) -> ProblemInstance:
    kind = draw(st.sampled_from(Kind))
    n, m = draw(counts), draw(counts)
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), min_size=1, unique=True)
    )
    capacity = st.none() | positive if kind is Kind.BTS else st.none()
    edges = tuple(
        EdgeSpec(i, j, draw(st.integers(0, 9)), draw(st.integers(1, 6)), draw(capacity))
        for i, j in sorted(pairs)  # the writer's canonical order
    )
    supply = tuple(draw(positive) for _ in range(n))
    budget = tuple(draw(positive) for _ in range(m))
    return ProblemInstance.from_edges(kind, supply, budget, edges)


@st.composite
def piecewise_instances(draw) -> PiecewiseInstance:
    n, m = draw(counts), draw(counts)
    pairs = draw(  # an edgeless file cannot state its segment length
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), min_size=1, unique=True)
    )
    edges = tuple(
        PiecewiseEdge(
            i,
            j,
            draw(st.integers(1, 6)),
            tuple(sorted(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)), reverse=True)),
        )
        for i, j in sorted(pairs)
    )
    supply = tuple(draw(positive) for _ in range(n))
    budget = tuple(draw(positive) for _ in range(m))
    return PiecewiseInstance(supply, budget, draw(st.integers(1, 4)), edges)


FORMATS = {
    "btp/bts": (instances(), serialize, parse),
    "pw": (piecewise_instances(), serialize_piecewise, parse_piecewise),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
@PROPERTY
@given(data=st.data())
def test_serialize_then_parse_round_trips(name, data):
    strategy, write, read = FORMATS[name]
    value = data.draw(strategy)
    text = write(value)
    assert read(text) == value
    assert write(read(text)) == text


# Replacement tokens: numbers of every sign and size, rationals with a zero
# denominator, decimals, tags, comment marks and junk.  Drawn from a fixed
# alphabet so that no token asks for an unbounded amount of work.
tokens = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["", "0", "-1", "1/0", "0/0", "1/-2", "0.5", "1e-9", "nan", "inf", "#",
                     "seg=", "seg=2", "seg=x", "p", "s", "t", "e", "pw", "btp", "bts", "g",
                     "a", "src", "snk", "min", "max", "flow", "alpha", "beta", "epsilon", "mode",
                     "exact", "float"]),
    st.lists(st.sampled_from("0123456789/-+.e x#="), max_size=6).map("".join),
)


@st.composite
def damaged(draw, text: str) -> str:
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text)))]
    lines = [line.split() for line in text.splitlines()]
    spots = [(r, c) for r, tokens in enumerate(lines) for c in range(len(tokens))]
    row, col = draw(st.sampled_from(spots))
    lines[row][col] = draw(tokens)
    return "".join(" ".join(row) + "\n" for row in lines)


def _reads_or_rejects(read, text: str) -> None:
    try:
        read(text)
    except (InstanceFormatError, InstanceValidationError):
        pass


@pytest.mark.parametrize("name", sorted(FORMATS))
@PROPERTY
@given(data=st.data())
def test_damaged_input_raises_only_format_or_validation_errors(name, data):
    strategy, write, read = FORMATS[name]
    _reads_or_rejects(read, data.draw(damaged(write(data.draw(strategy)))))


def _solved(seed: int, kind_bts: bool):
    inst = generate(seed=seed, n=3, m=3, density=0.8, u_range=(1, 5) if kind_bts else None)
    return inst, solution_to_text(solve(inst, SolverConfig(epsilon=Fraction(1, 4), max_phases=PHASE_CAP)))


SOLVED = [_solved(seed, seed % 2 == 1) for seed in range(4)]


@PROPERTY
@given(data=st.data())
def test_damaged_solution_raises_only_format_errors(data):
    instance, text = data.draw(st.sampled_from(SOLVED))
    _reads_or_rejects(lambda t: parse_solution(t, instance), data.draw(damaged(text)))
