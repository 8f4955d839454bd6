"""Golden outputs: full solution records, counters included, must not drift.

`GOLDEN` hashes the complete `solution_to_text` record, `stat` lines and all,
so a change that alters any flow, dual, certificate field or run counter
fails here.  `STAT_FREE` hashes the same records without their `stat` lines:
it pins flows, duals and certificate fields alone.  Both were first recorded
before the derived graph was indexed (adjacency tuples, back-set memo,
price-level heap stamps).  Lazy heap re-keying then changed the
`heap_updates` and `operations` counters only: `GOLDEN` was re-recorded for
it, and `STAT_FREE`, recorded before that change, held unedited.
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
    "btp-exact-11": "b25e86eed1ebc45985a984420bba571e2456bba4a7b9b93c2dc032146cf2f1fb",
    "bts-exact-12": "f9c434211140ecc709e1a9c61e3796cf67a9ef41f826be2994fd02b1447a2279",
    "btp-float-11": "7fe30e55e99e99588593ca05840eb07b530e84048f0cbc008db25df5da3398ac",
    "bts-float-12": "05a7475c264bd19706d478b894cbb5ba909ad3839f8bfb5e03ee8c475d7e6794",
    "pw-exact-21": "93062ac147b664e3acec9a59e6a3dea427be1439570a0f2f4cd296f20ff0e00a",
    "pw-exact-22": "566b57f59063a264ef61a1d1684cc977bb7cbe44da62a7f677b00d4e1b7f2066",
}


STAT_FREE = {
    "btp-exact-11": "4e558de619e7c65da357b5520a5e6e671e0e02eab42a4bef64562c49b1fdb97b",
    "bts-exact-12": "91efeac8d24f584d25d4d2bed46201e39806c6f817dfa7d5941f12f51c589969",
    "btp-float-11": "5ed4a21dcb90e82dff5281807eefc5686946d33ba42af67ce85124c5f1ae25c2",
    "bts-float-12": "a9e122d62b333cb7a2c235a168ed482e51d1b9dce241bfa63dd4518b7e3ce7fb",
    "pw-exact-21": "5933a364c2d57986f60d0077092e626d6f5e4a306ae830b1969b26292b0b80ea",
    "pw-exact-22": "790b222c7ea490865fcc3361dc5c1aaf8938c17c303a6925bb445d888a38e96a",
}


def solution_text(name: str) -> str:
    inst, mode = _case(name)
    return solution_to_text(solve(inst, SolverConfig(epsilon=EPS, numeric_mode=mode)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_full_solution_text_is_unchanged(name):
    assert sha256(solution_text(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(STAT_FREE))
def test_solution_text_without_stats_is_unchanged(name):
    lines = solution_text(name).splitlines(keepends=True)
    assert sha256("".join(line for line in lines if not line.startswith("stat "))) == STAT_FREE[name]
