"""Golden outputs: full solution records, counters included, must not drift.

`GOLDEN` hashes the complete `solution_to_text` record, `stat` lines and all,
so a change that alters any flow, dual, certificate field or run counter
fails here.  `STAT_FREE` hashes the same records without their `stat` lines:
it pins flows, duals and certificate fields alone.  Both were first recorded
before the derived graph was indexed (adjacency tuples, back-set memo,
price-level heap stamps).  Lazy heap re-keying then changed the
`heap_updates` and `operations` counters only: `GOLDEN` was re-recorded for
it, and `STAT_FREE`, recorded before that change, held unedited.  Both
hashes of `bts-float-12` were re-recorded when its record gained the line
`gamma 8 10 0.822277547441109`: the certificate had counted that edge dual in
the `dual` line, but the record had left it out.  Both hashes of the `pw-*`
cases were re-recorded when each `gamma` line of a split segment gained the
`seg=k` tag its `flow` lines carry; no other byte of those records changed.
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
    "bts-float-12": "e7debdf81894748cffc23735dab92d0ddb855a7c5845ee58d148c10c3f678a0b",
    "pw-exact-21": "8f9651aa6fc48ba1c466807c45e5342b651ebba9974c0beeda5fc01c53dd6c2f",
    "pw-exact-22": "b7dbbd26f045cdaeb072c62d302056ea681e90828595464e765ba6a23e14d0d7",
}


STAT_FREE = {
    "btp-exact-11": "4e558de619e7c65da357b5520a5e6e671e0e02eab42a4bef64562c49b1fdb97b",
    "bts-exact-12": "91efeac8d24f584d25d4d2bed46201e39806c6f817dfa7d5941f12f51c589969",
    "btp-float-11": "5ed4a21dcb90e82dff5281807eefc5686946d33ba42af67ce85124c5f1ae25c2",
    "bts-float-12": "6c8e53cfd77f43aa4fa1a4411a83f0947e144e7f86b95b3736829af9659568af",
    "pw-exact-21": "6ad4fc9730d5e0878b8c0249c2790b6676a2393cdab40b845ea85d302600f542",
    "pw-exact-22": "23fea6b9385e89833d5a76808fab66f1d509664ffb6326125242e636e98f56c0",
}


def solution_text(name: str) -> str:
    inst, mode = _case(name)
    return solution_to_text(solve(inst, SolverConfig(epsilon=EPS, numeric_mode=mode,
                                                      max_phases=PHASE_CAP)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_full_solution_text_is_unchanged(name):
    assert sha256(solution_text(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(STAT_FREE))
def test_solution_text_without_stats_is_unchanged(name):
    lines = solution_text(name).splitlines(keepends=True)
    assert sha256("".join(line for line in lines if not line.startswith("stat "))) == STAT_FREE[name]


def assert_record_adds_up(inst, text: str, mode: str):
    """The `dual` line equals a*alpha + b*beta + u*gamma over the record's own
    lines, and the `primal` line c*flow: exactly in exact mode, and within a
    relative 1e-9 in float mode.  A float is written as its repr, so it reads
    back as a Fraction of the same value."""
    spec_of = {(spec.src + 1, spec.dst + 1, spec.segment): spec for spec in inst.edges}
    summed = {"dual": Fraction(0), "primal": Fraction(0)}
    stated = {}
    for line in text.splitlines():
        tag, *rest = line.split()
        if tag == "alpha":
            summed["dual"] += inst.supply[int(rest[0]) - 1] * Fraction(rest[1])
        elif tag == "beta":
            summed["dual"] += inst.budget[int(rest[0]) - 1] * Fraction(rest[1])
        elif tag in ("gamma", "flow"):
            seg = int(rest[3].removeprefix("seg=")) if len(rest) > 3 else None
            spec = spec_of[int(rest[0]), int(rest[1]), seg]
            if tag == "gamma":
                summed["dual"] += spec.capacity * Fraction(rest[2])
            else:
                summed["primal"] += spec.profit * Fraction(rest[2])
        elif tag in summed:
            stated[tag] = Fraction(rest[0])
    rel_tol = 0 if mode == "exact" else Fraction(1, 10**9)
    for tag in summed:
        assert abs(stated[tag] - summed[tag]) <= rel_tol * abs(stated[tag]), (
            tag, float(stated[tag]), float(summed[tag]))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solution_record_adds_up(name):
    # the record's gamma lines are the edge duals its dual value counts
    inst, mode = _case(name)
    assert_record_adds_up(inst, solution_text(name), mode)


def test_float_record_with_a_gamma_within_float_tol_adds_up():
    # a flow within float_tol of its capacity, short of it, still gets its gamma line
    inst = generate(seed=0, n=8, m=8, density=0.7, u_range=(1, 8))
    sol = solve(inst, SolverConfig(epsilon=EPS, numeric_mode="float", max_phases=PHASE_CAP))
    assert_record_adds_up(inst, solution_to_text(sol), "float")
