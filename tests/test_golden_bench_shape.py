"""Golden outputs at the benchmark's 12x12 shape, stat lines included.

`test_golden_rungs.py` pins exact solves of the 40 and 80 rungs only.  These
digests pin the full `solution_to_text` record, counters included, of the
instances perfbench's dense and piecewise workloads draw: btp and bts
`generate(n=m=12, density=0.7)` at eps 1/8 in exact and float mode, and one
8x8 piecewise profile split into segments of length 2, solved exactly.  A
change that moves a flow, a dual or a counter on this shape fails here.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from budget_flow.cli import solution_to_text
from budget_flow.instance import SolverConfig, generate
from budget_flow.reductions import PiecewiseEdge, PiecewiseInstance, split_piecewise
from budget_flow.solver import solve
from conftest import PHASE_CAP

EPS = Fraction(1, 8)

DENSE = {
    "btp-1-exact": "57b94f1528541b641a051f0affbf6dde0eddd5175a827a150f468b0f3ac2ed1c",
    "btp-1-float": "6607e69c8b9bad32fc4ae44fde1a6b60110cea2670701096ae47b48a5f0e5813",
    "btp-2-exact": "9e36873ef986a69bfd62441c099b8bf02dff8e1199680c126abde6fdc0c2e30c",
    "btp-2-float": "d3c603b0e06f10449e038d679ef37f965810079cd1480dff7f7d2444cf8b0a22",
    "bts-1-exact": "c41e228e16e459c875919e7970ac5922de15cbdb7f0771c4d55f7eb348f7eb38",
    "bts-1-float": "05061c32a381bfc0222caef66e9fdcb3d5abbe5b431fd9d31b5286b6b7210ebc",
    "bts-2-exact": "ce50b879964a173e6f42c4daa451eaa1ff91aa1e32ed4eec59c4712f272aa683",
    "bts-2-float": "10de6518b555978827a94390d1a0201b180cfa9f96925ae7263472dca73e0412",
}
# 110 split edges; the exact solve makes 40 cycle pushes and 210 price rises
PIECEWISE_SEED = 5
PIECEWISE = "2ac72fff34b9ebaa57e8908f171f268d658f780cb55e4636ef997d8683131738"


def dense_instance(kind: str, seed: int):
    return generate(seed=seed, n=12, m=12, density=0.7,
                    u_range=(1, 8) if kind == "bts" else None)


def piecewise_split(seed: int):
    """An 8x8 concave profile of 1-4 segments per edge, as perfbench draws one."""
    rng = random.Random(seed)
    edges = [
        PiecewiseEdge(src=i, dst=j, price=rng.randint(1, 6),
                      slopes=tuple(sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 4))),
                                          reverse=True)))
        for i in range(8) for j in range(8) if rng.random() < 0.7
    ]
    pw = PiecewiseInstance(supply=tuple(rng.randint(1, 10) for _ in range(8)),
                           budget=tuple(rng.randint(1, 20) for _ in range(8)),
                           segment_length=2, edges=tuple(edges))
    return split_piecewise(pw)[0]


def digest(inst, mode: str) -> str:
    config = SolverConfig(epsilon=EPS, numeric_mode=mode, max_phases=PHASE_CAP)
    text = solution_to_text(solve(inst, config))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DENSE))
def test_dense_solution_text_is_unchanged(name):
    kind, seed, mode = name.split("-")
    assert digest(dense_instance(kind, int(seed)), mode) == DENSE[name]


def test_piecewise_split_solution_text_is_unchanged():
    assert digest(piecewise_split(PIECEWISE_SEED), "exact") == PIECEWISE
