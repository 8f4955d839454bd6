"""Workloads: seeded input pools and the per-item user pipeline with its gates.

Every workload is one sequential closed loop: the next item starts when the
previous one has finished.  Inputs are generated from the workload seed only
and handed to the library as file text, the way the `budget-flow` commands
receive them.  The library is always reached through module attributes
(`solver.solve`, `instance.parse`, ...) so that the tracer's wrappers, which
replace those attributes, see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from budget_flow import cli, instance, oracle, reductions, solver

# the package binds the name `certify` to the function, so fetch the module itself
certify = importlib.import_module("budget_flow.certify")

DENSE_N = 12
DENSE_DENSITY = 0.7
DENSE_EPSILON = Fraction(1, 8)
ORACLE_EPSILONS = (Fraction(1, 4), Fraction(1, 8))
ORACLE_EDGE_LIMIT = 12
PIECEWISE_N = 8
PIECEWISE_SEGMENT_LENGTH = 2


@dataclass(frozen=True)
class Item:
    text: str  # instance file, or `p pw` profile file for the piecewise workload
    epsilon: Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # numeric mode handed to the solver
    stages: str  # "plain", "oracle" or "piecewise"
    pool_size: int
    size: int  # n = m of generated instances; oracle-small cycles its own shapes
    digest_items: int  # items the output digest covers


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-exact",
            "btp/bts 12x12 at density 0.7, eps 1/8, exact mode: back_edges scans and "
            "Fraction arithmetic dominate the solve; adjacency and back-set indexes must move this",
            "exact", "plain", 256, DENSE_N, 8,
        ),
        Workload(
            "dense-float",
            "the dense-exact instances in float mode: same derived-graph work with cheap "
            "arithmetic, so adjacency changes show and Fraction-only changes do not",
            "float", "plain", 256, DENSE_N, 8,
        ),
        Workload(
            "oracle-small",
            "n,m<=4, |E|<=12, btp/bts and eps 1/4,1/8 alternating, checked against the exact "
            "oracle: per-solve fixed costs dominate, and it gives the tail percentile",
            "exact", "oracle", 1024, 4, 256,
        ),
        Workload(
            "piecewise",
            "reduce --piecewise pipeline on 8x8 concave profiles of 1-4 segments of length 2: "
            "parallel capacitated edges make saturations and cycle pushes common",
            "exact", "piecewise", 128, PIECEWISE_N, 16,
        ),
    )
}


# -- input pools ------------------------------------------------------------


def _dense_pool(rng: random.Random, n: int, count: int) -> list[Item]:
    items = []
    while len(items) < count:
        capacitated = len(items) % 2 == 1
        try:
            inst = instance.generate(
                seed=rng.randrange(2**31), n=n, m=n, density=DENSE_DENSITY,
                u_range=(1, 8) if capacitated else None,
            )
        except ValueError:  # empty edge set; draw another seed
            continue
        items.append(Item(instance.serialize(inst), DENSE_EPSILON))
    return items


def _oracle_pool(rng: random.Random, max_n: int, count: int) -> list[Item]:
    """Acceptance-criterion-1 shapes: every 4 items share (n, m) and cover
    btp/bts x eps 1/4, 1/8."""
    items = []
    while len(items) < count:
        k = len(items)
        shape = k // 4
        n = 1 + shape % max_n
        m = 1 + (shape // max_n) % max_n
        capacitated = k % 2 == 1
        try:
            inst = instance.generate(
                seed=rng.randrange(2**31), n=n, m=m, density=0.75,
                u_range=(1, 6) if capacitated else None,
            )
        except ValueError:
            continue
        if len(inst.edges) > ORACLE_EDGE_LIMIT:
            continue
        items.append(Item(instance.serialize(inst), ORACLE_EPSILONS[(k // 2) % 2]))
    return items


def _piecewise_pool(rng: random.Random, n: int, count: int) -> list[Item]:
    items = []
    while len(items) < count:
        edges = []
        for i in range(n):
            for j in range(n):
                if rng.random() >= DENSE_DENSITY:
                    continue
                slopes = sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 4))),
                                reverse=True)
                edges.append(reductions.PiecewiseEdge(
                    src=i, dst=j, price=rng.randint(1, 6), slopes=tuple(slopes)))
        if not edges:
            continue
        pw = reductions.PiecewiseInstance(
            supply=tuple(rng.randint(1, 10) for _ in range(n)),
            budget=tuple(rng.randint(1, 20) for _ in range(n)),
            segment_length=PIECEWISE_SEGMENT_LENGTH,
            edges=tuple(edges),
        )
        items.append(Item(reductions.serialize_piecewise(pw), DENSE_EPSILON))
    return items


_POOLS = {"plain": _dense_pool, "oracle": _oracle_pool, "piecewise": _piecewise_pool}


def make_pool(w: Workload, seed: int, size: int | None = None, count: int | None = None):
    """The workload's inputs for `seed`: same seed, same file texts.

    Workloads with the same stages share inputs, so dense-float solves the
    dense-exact instances.
    """
    rng = random.Random(f"{w.stages}/{seed}")
    return _POOLS[w.stages](rng, size or w.size, count or w.pool_size)


# -- one pipeline item --------------------------------------------------------


@dataclass
class Record:
    pipeline_s: float = 0.0
    solve_s: float = 0.0
    verify_s: float = 0.0
    oracle_s: float | None = None
    reduce_s: float | None = None
    n: int = 0
    m: int = 0
    edges: int = 0
    stats: dict = field(default_factory=dict)
    rise_bound: int = 0
    ops_allowance: float = 0.0
    beta_den_bits: int = 0
    gap_ratio: Fraction | float | None = None
    opt_ratio: Fraction | None = None
    digest: str = ""
    failures: list[str] = field(default_factory=list)


def run_item(w: Workload, item: Item) -> Record:
    """parse -> solve -> verify (-> oracle | -> map back), timed, then gated."""
    rec = Record()
    clock = time.perf_counter
    started = clock()
    if w.stages == "piecewise":
        pw = reductions.parse_piecewise(item.text)
        t = clock()
        split, edge_map = reductions.split_piecewise(pw)
        inst_text = instance.serialize(split)
        rec.reduce_s = clock() - t
    else:
        inst_text = item.text

    inst = instance.parse(inst_text)
    config = instance.SolverConfig(epsilon=item.epsilon, numeric_mode=w.mode)
    t = clock()
    sol = solver.solve(inst, config)
    rec.solve_s = clock() - t

    # independent re-verification, as `budget-flow verify` does it
    t = clock()
    v_inst = instance.parse(inst_text)
    text = cli.solution_to_text(sol)
    flow, alpha, beta, v_eps, v_mode = cli.parse_solution(text, v_inst)
    exact = v_mode == "exact"
    v_cert = certify.certify(v_inst, flow, alpha, beta, v_eps, rigorous=exact,
                             tol=0 if exact else config.float_tol)
    rec.verify_s = clock() - t

    if w.stages == "oracle":
        t = clock()
        opt, _ = oracle.exact_opt(inst)
        rec.oracle_s = clock() - t
    elif w.stages == "piecewise":
        t = clock()
        normalized = reductions.normalize_split_solution(sol.flow, edge_map)
        totals = reductions.reassemble(normalized, edge_map)
        profit = sum(
            (reductions.piecewise_profit(pw, o, totals[o]) for o in range(len(pw.edges))),
            start=Fraction(0),
        )
        rec.reduce_s += clock() - t
    rec.pipeline_s = clock() - started

    # -- outside the timed regions: facts, counters and correctness gates ----
    rec.n, rec.m, rec.edges = inst.n, inst.m, len(inst.edges)
    rec.stats = sol.stats.to_dict()
    try:
        rec.rise_bound = instance.diagnostics(inst, item.epsilon).beta_rise_bound
    except ValueError:  # no profitable edge: no price can ever rise
        rec.rise_bound = 0
    rec.ops_allowance = ops_per_rise_allowance(inst.n, inst.m)
    rec.beta_den_bits = max((Fraction(b).denominator.bit_length() for b in sol.beta), default=0)
    cert = sol.certificate
    rec.gap_ratio = cert.gap_ratio
    rec.digest = output_digest(text)

    fail = rec.failures.append
    if not sol.terminated:
        fail("solve did not terminate")
    if not cert.passed:
        fail("in-solve certificate failed")
    if not v_cert.passed:
        fail("re-verified certificate failed")
    if w.mode == "exact" and not (cert.rigorous and v_cert.rigorous):
        fail("exact certificate is not rigorous")
    if rec.stats.get("beta_rises", 0) > rec.rise_bound:
        fail(f"beta rises {rec.stats.get('beta_rises')} exceed bound {rec.rise_bound}")
    if w.stages == "oracle":
        if cert.primal_value < (1 - item.epsilon) * opt:
            fail(f"primal {cert.primal_value} < (1-eps)*OPT {opt}")
        if opt > 0:
            rec.opt_ratio = Fraction(cert.primal_value) / opt
    elif w.stages == "piecewise" and profit < cert.primal_value:
        fail(f"mapped-back profit {profit} below split primal {cert.primal_value}")
    return rec


def ops_per_rise_allowance(n: int, m: int) -> float:
    """Operations one price rise may pay for: 4(n^2 + n log2 m), as `bench` uses."""
    return 4 * (n**2 + n * math.log2(max(2, m)))


def output_digest(solution_text: str) -> str:
    """sha256 of a solution record without its `stat` counter lines."""
    body = "".join(
        line + "\n" for line in solution_text.splitlines() if not line.startswith("stat ")
    )
    return hashlib.sha256(body.encode()).hexdigest()
