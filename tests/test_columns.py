"""The columnar instance: one record of the edge fields.

An instance holds its edges as columns (`src`, `dst`, `profit`, `price`,
`capacity`, `segment`); `edges` is a view of them as `EdgeSpec` rows for the
callers that want records.  These tests pin that the benchmark's pipeline
never builds that view or any `EdgeSpec`, that the writer's output is the one
the record-based instance gave (so the benchmark's input pools and digests are
unchanged), and that the record-style constructor and the reader agree.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from fractions import Fraction

import pytest

from budget_flow import cli, instance, reductions, solver
from budget_flow.instance import EdgeSpec, Kind, ProblemInstance, generate, parse, serialize
from budget_flow.reductions import PiecewiseEdge, PiecewiseInstance, serialize_piecewise
from conftest import PHASE_CAP
from test_golden_bench_shape import piecewise_split

certify = importlib.import_module("budget_flow.certify")

# The first seeds of the dense pool that `perfbench/run.py --seed 1` draws
# (btp, bts alternating), with the sha256 of each instance text as the
# record-based instance wrote it.
DENSE_POOL = [
    (2068608763, "ce191a5c105d57a939f6c9a2be0309c35038860bbf92f22a272e5cc872af7bd4"),
    (292140022, "924d531ef5a0009dc0a9f9b1bdb0e40a47ba650008518a5f3a91a0d449ad5dda"),
    (900811280, "a5fa4855293b75c78c801eebbf609a0864e9ed9abef1c11b2b7cfe5e68bced5c"),
    (1922952890, "22e97f406a733ccfaf6c117ffdb47232ce154ee4e0e62f8726d18524f8be5e2e"),
    (1284726423, "d11167c06211b606ab804865085ed8ce529fe68f6cbd0f586869b42b9d88ba5c"),
    (1696263673, "f02ee96245ae7f7dd23a895ca14c7965b4840ccc8040b24fa42d869b05868920"),
    (409051805, "949ec3fc9afe9433aa3d40bfab6d92a1fc06c97aa03e089170115e95a2a7b864"),
    (1101779734, "c897158b5e20caff9fc2d9c7ae80018697e1cbea16753f433a373228a7c31635"),
]
# sha256 of `serialize(piecewise_split(seed))`, as the record-based instance wrote it
SPLIT = {
    1: "f2323fc9e0e80e1565dc190fdfc89135c5792822a98877792e745d22384178a0",
    2: "9e0aa5716adafebc91123446acb283990e1a61787fc3e5533c66008d7d77a321",
    3: "5d419c98e4cfd0743bb31d6cb658cad36b228f05e62e7fcfe42f515e497fa8c2",
}


def dense_text(k: int) -> str:
    seed, _ = DENSE_POOL[k]
    return serialize(generate(seed=seed, n=12, m=12, density=0.7,
                              u_range=(1, 8) if k % 2 else None))


@pytest.mark.parametrize("k", range(len(DENSE_POOL)))
def test_dense_pool_texts_are_unchanged(k):
    assert hashlib.sha256(dense_text(k).encode()).hexdigest() == DENSE_POOL[k][1]


@pytest.mark.parametrize("seed", sorted(SPLIT))
def test_split_instance_texts_are_unchanged(seed):
    assert hashlib.sha256(serialize(piecewise_split(seed)).encode()).hexdigest() == SPLIT[seed]


def profile_text(seed: int) -> str:
    """An 8x8 profile file of 1-4 segments per edge, as the piecewise workload draws one."""
    rng = random.Random(seed)
    edges = tuple(
        PiecewiseEdge(i, j, rng.randint(1, 6),
                      tuple(sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 4))),
                                   reverse=True)))
        for i in range(8) for j in range(8) if rng.random() < 0.7
    )
    return serialize_piecewise(PiecewiseInstance(
        tuple(rng.randint(1, 10) for _ in range(8)), tuple(rng.randint(1, 20) for _ in range(8)),
        2, edges))


def refuse(*args, **kwargs):
    raise AssertionError("the pipeline built an EdgeSpec or read the edges view")


@pytest.mark.parametrize("stages, mode", [("plain", "exact"), ("plain", "float"),
                                          ("piecewise", "exact")])
def test_the_benchmark_pipeline_builds_no_edge_records(monkeypatch, stages, mode):
    """parse -> solve -> solution_to_text -> parse_solution -> certify, and for
    a profile file the reduction before it, as `perfbench/workloads.py` runs it."""
    text = dense_text(1) if stages == "plain" else profile_text(5)
    monkeypatch.setattr(ProblemInstance, "edges", property(refuse))
    monkeypatch.setattr(EdgeSpec, "__new__", staticmethod(refuse))
    monkeypatch.setattr(EdgeSpec, "_make", classmethod(refuse))
    if stages == "piecewise":
        split, _ = reductions.split_piecewise(reductions.parse_piecewise(text))
        text = instance.serialize(split)
    inst = instance.parse(text)
    config = instance.SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
    sol = solver.solve(inst, config)
    v_inst = instance.parse(text)
    flow, alpha, beta, eps, v_mode = cli.parse_solution(cli.solution_to_text(sol), v_inst)
    exact = v_mode == "exact"
    cert = certify.certify(v_inst, flow, alpha, beta, eps, rigorous=exact,
                           tol=0 if exact else instance.SolverConfig.float_tol)
    assert sol.certificate.passed and cert.passed


def test_the_refusal_catches_the_edges_view(monkeypatch):
    inst = parse(dense_text(0))
    monkeypatch.setattr(ProblemInstance, "edges", property(refuse))
    with pytest.raises(AssertionError, match="EdgeSpec"):
        inst.edges


def test_the_refusal_catches_an_edge_record(monkeypatch):
    monkeypatch.setattr(EdgeSpec, "__new__", staticmethod(refuse))
    monkeypatch.setattr(EdgeSpec, "_make", classmethod(refuse))
    with pytest.raises(AssertionError, match="EdgeSpec"):
        parse(dense_text(0)).edges


@pytest.mark.parametrize("text", [
    "p btp 2 2 3\ns 1 5\ns 2 4\nt 1 10\nt 2 6\ne 1 1 3 2\ne 1 2 4 1\ne 2 2 5 3\n",
    # capacities on some edges only, and the records out of order: read record by record
    "p bts 2 2 3\nt 2 6\ne 2 2 5 3 2\ns 2 4\ne 1 1 3 2\nt 1 10\ns 1 5\ne 1 2 4 1 7\n",
    # split segments, each with its seg= tag
    "p bts 1 1 2\ns 1 5\nt 1 10\ne 1 1 3 2 2 seg=1\ne 1 1 1 2 2 seg=2\n",
])
def test_record_built_and_parsed_instances_are_equal(text):
    parsed = parse(text)
    built = ProblemInstance.from_edges(parsed.kind, parsed.supply, parsed.budget,
                                       [EdgeSpec(*row) for row in parsed.edges])
    assert built == parsed
    assert serialize(built) == serialize(parsed)
    assert parse(serialize(parsed)) == ProblemInstance.from_edges(
        parsed.kind, parsed.supply, parsed.budget,
        sorted(parsed.edges, key=lambda s: (s.src, s.dst, s.segment or 0)))


def test_record_built_instance_reads_back_equal():
    built = ProblemInstance.from_edges(Kind.BTS, (5, 4), (10, 6), [
        EdgeSpec(0, 0, 3, 2, 4), EdgeSpec(0, 1, 4, 1), EdgeSpec(1, 1, 5, 3, 2, segment=1)])
    assert parse(serialize(built)) == built
    assert built.src == (0, 0, 1) and built.capacity == (4, None, 2)
    assert built.segment == (None, None, 1)
    assert built.edges[2] == EdgeSpec(1, 1, 5, 3, 2, 1)


@pytest.mark.parametrize("k", range(4))
def test_generated_and_parsed_instances_are_equal(k):
    inst = generate(seed=DENSE_POOL[k][0], n=12, m=12, density=0.7,
                    u_range=(1, 8) if k % 2 else None)
    assert parse(serialize(inst)) == inst


def test_split_and_parsed_instances_are_equal():
    split = piecewise_split(2)
    assert parse(serialize(split)) == split
    assert ProblemInstance.from_edges(split.kind, split.supply, split.budget, split.edges) == split
