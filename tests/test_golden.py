"""Golden outputs: full solution records, counters included, must not drift.

Each case hashes the complete `solution_to_text` record, `stat` lines and all,
so a change that alters any flow, dual, certificate field or run counter
fails here.  The digests were recorded before the derived graph was indexed
(adjacency tuples, back-set memo, price-level heap stamps) and pin that those
optimisations leave every output byte-identical.
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

EPS = Fraction(1, 8)


def _piecewise_split(seed: int, n: int = 8):
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.random() >= 0.7:
                continue
            slopes = sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 4))), reverse=True)
            edges.append(PiecewiseEdge(src=i, dst=j, price=rng.randint(1, 6), slopes=tuple(slopes)))
    pw = PiecewiseInstance(
        supply=tuple(rng.randint(1, 10) for _ in range(n)),
        budget=tuple(rng.randint(1, 20) for _ in range(n)),
        segment_length=2,
        edges=tuple(edges),
    )
    return split_piecewise(pw)[0]


def _case(name: str):
    kind, mode, seed = name.split("-")
    if kind == "pw":
        return _piecewise_split(int(seed)), "exact"
    u_range = (1, 8) if kind == "bts" else None
    return generate(seed=int(seed), n=12, m=12, density=0.7, u_range=u_range), mode


GOLDEN = {
    "btp-exact-11": "88c1430890acf399c7fab36b84fe0515c06080bff9936d53a426420d5e7f3649",
    "bts-exact-12": "dc0a8ed78065c7752b98e5f9f21a342420143297c107af65112166196587926d",
    "btp-float-11": "eb1239b4d718b721a2517cbf0a406e89cd5a7b51881ffcd8da7a1c42bf5e602c",
    "bts-float-12": "bd148458e42e4f44696e32d8d7f98aa6e895657b47c6584e58bb7d8ac61b7b1e",
    "pw-exact-21": "1143be61a4f9c67f74bea0aebcfd44d3500ab02a664f4f687431f5de8543e316",
    "pw-exact-22": "3f6564a5481c0d457387bacc12c177723e761a1faad437dd7a9b3450143644d1",
}


def solution_digest(name: str) -> str:
    inst, mode = _case(name)
    sol = solve(inst, SolverConfig(epsilon=EPS, numeric_mode=mode))
    return hashlib.sha256(solution_to_text(sol).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_full_solution_text_is_unchanged(name):
    assert solution_digest(name) == GOLDEN[name]
