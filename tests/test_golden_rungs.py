"""Golden outputs of the larger ladder rungs, where exact runs rescale most.

Each digest is the sha256 of the full `solution_to_text` record, `stat` lines
included, of an exact solve at eps 1/8 of `generate(seed=3, n=m, density=0.7)`,
with `u_range=(1, 8)` for bts.  They were recorded while flows were still held
as Fractions, so they pin the integer representation to the same outputs.

The heavy rung adds `a_range=(10, 100)` and `b_range=(10, 200)` to the bts
80 rung: larger supplies and budgets make its runs cycle-heavy (201 cycle
pushes exact, 183 float, against 25 on the ladder rung), so it pins the
closed-form cycle push in both modes.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from budget_flow.cli import solution_to_text
from budget_flow.instance import SolverConfig, generate
from budget_flow.solver import solve
from conftest import PHASE_CAP

RUNGS = {
    "btp-40": "a04f493d06ee29ae4839261940b10d1a3dfd7e2a9584d27a83af16854d9c88f6",
    "bts-40": "2aa7ef26b12360a99066e6a3a74d161d95edc5d1a45408bc0a07bc951a07acaa",
    "btp-80": "5a46251f9d0adb6fb059c612cbf778484e8e9a8c31c46098ff8392f96564c73c",
    "bts-80": "7fc309e7b61840a52237c3f511f099fca1f2628d6c362856bb423b4a79bb7ac0",
}

HEAVY_80 = {
    "exact": "2dbc982d295c2cb55aad45e31723513f1989688e18b1d312c3e26746171a98df",
    "float": "cd3b1dfdb356fb3d49aa0a1aacd5cf4d5874a333a720909f68e2ad0f7271a491",
}


@pytest.mark.parametrize("name", sorted(RUNGS))
def test_exact_rung_solution_text_is_unchanged(name):
    kind, n = name.split("-")
    inst = generate(seed=3, n=int(n), m=int(n), density=0.7,
                    u_range=(1, 8) if kind == "bts" else None)
    text = solution_to_text(solve(inst, SolverConfig(epsilon=Fraction(1, 8), max_phases=PHASE_CAP)))
    assert hashlib.sha256(text.encode()).hexdigest() == RUNGS[name]


@pytest.mark.parametrize("mode", sorted(HEAVY_80))
def test_heavy_rung_solution_text_is_unchanged(mode):
    inst = generate(seed=3, n=80, m=80, density=0.7, u_range=(1, 8),
                    a_range=(10, 100), b_range=(10, 200))
    config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
    text = solution_to_text(solve(inst, config))
    assert hashlib.sha256(text.encode()).hexdigest() == HEAVY_80[mode]
