"""Golden outputs of the larger ladder rungs, where exact runs rescale most.

Each digest is the sha256 of the full `solution_to_text` record, `stat` lines
included, of an exact solve at eps 1/8 of `generate(seed=3, n=m, density=0.7)`,
with `u_range=(1, 8)` for bts.  They were recorded while flows were still held
as Fractions, so they pin the integer representation to the same outputs.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from budget_flow.cli import solution_to_text
from budget_flow.instance import SolverConfig, generate
from budget_flow.solver import solve

RUNGS = {
    "btp-40": "a04f493d06ee29ae4839261940b10d1a3dfd7e2a9584d27a83af16854d9c88f6",
    "bts-40": "2aa7ef26b12360a99066e6a3a74d161d95edc5d1a45408bc0a07bc951a07acaa",
    "btp-80": "5a46251f9d0adb6fb059c612cbf778484e8e9a8c31c46098ff8392f96564c73c",
    "bts-80": "7fc309e7b61840a52237c3f511f099fca1f2628d6c362856bb423b4a79bb7ac0",
}


@pytest.mark.parametrize("name", sorted(RUNGS))
def test_exact_rung_solution_text_is_unchanged(name):
    kind, n = name.split("-")
    inst = generate(seed=3, n=int(n), m=int(n), density=0.7,
                    u_range=(1, 8) if kind == "bts" else None)
    text = solution_to_text(solve(inst, SolverConfig(epsilon=Fraction(1, 8))))
    assert hashlib.sha256(text.encode()).hexdigest() == RUNGS[name]
