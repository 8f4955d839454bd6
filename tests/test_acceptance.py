"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact rational arithmetic with zero tolerance except
where a criterion explicitly says a check is advisory.
"""

import random
from fractions import Fraction

import reference_auction as basic_auction
import reference_certify as reference
from budget_flow.certify import certify
from budget_flow.instance import SolverConfig, diagnostics, generate
from budget_flow.oracle import exact_opt
from budget_flow.reductions import (
    PiecewiseEdge,
    PiecewiseInstance,
    fill_order_holds,
    normalize_split_solution,
    piecewise_profit,
    reassemble,
    split_piecewise,
)
from budget_flow.solver import (
    PushReport,
    apply_cycle_bulk,
    cycle_geometry,
    solve,
)
from conftest import PHASE_CAP, build_cycle_state, move, simulate_revolutions, values

EPSILONS = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)]


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} {detail}".rstrip())


def _small_instances(kind_capacitated: bool, count: int):
    """Deterministic stream of oracle-sized instances (n, m <= 4, |E| <= 12)."""
    out = []
    seed = 0
    while len(out) < count:
        n = 1 + seed % 4
        m = 1 + (seed // 4) % 4
        try:
            inst = generate(
                seed=seed,
                n=n,
                m=m,
                density=0.75,
                u_range=(1, 6) if kind_capacitated else None,
            )
        except ValueError:
            seed += 1
            continue
        seed += 1
        if len(inst.edges) > 12:
            continue
        out.append(inst)
    return out


def test_criterion_1_approximation_guarantee():
    """Solver profit is at least (1-eps) times the exact optimum, exactly."""
    checked = 0
    for capacitated in (False, True):
        for k, inst in enumerate(_small_instances(capacitated, 500)):
            eps = EPSILONS[k % 3]
            sol = solve(inst, SolverConfig(epsilon=eps, max_phases=100000))
            assert sol.terminated
            opt, _ = exact_opt(inst)
            assert sol.certificate.primal_value >= (1 - eps) * opt, (
                f"kind={'bts' if capacitated else 'btp'} idx={k} eps={eps}: "
                f"{sol.certificate.primal_value} < (1-eps)*{opt}"
            )
            checked += 1
    verdict(1, "approximation guarantee", True, f"({checked} instances)")


def test_criterion_1_at_ten_by_ten():
    """The same guarantee on 10x10 instances at density 0.6, about 60 edges
    each, far past the 12-edge stream above."""
    eps = Fraction(1, 8)
    checked = 0
    for seed in range(8):
        capacitated = seed >= 4
        inst = generate(seed=seed, n=10, m=10, density=0.6,
                        u_range=(1, 6) if capacitated else None)
        sol = solve(inst, SolverConfig(epsilon=eps, max_phases=PHASE_CAP))
        assert sol.terminated
        opt, _ = exact_opt(inst)
        assert sol.certificate.primal_value >= (1 - eps) * opt, (
            f"kind={'bts' if capacitated else 'btp'} seed={seed}: "
            f"{sol.certificate.primal_value} < (1-eps)*{opt}"
        )
        checked += 1
    verdict(1, "approximation guarantee at 10x10", True, f"({checked} instances)")


def test_criterion_2_self_certification():
    """Certificates pass with exact gap <= eps and an exact gap identity."""
    checked = 0
    rng_sizes = random.Random(424242)
    for k in range(200):
        n = 5 + (k * 45) // 199
        m = 5 + rng_sizes.randint(0, 45)
        density = min(0.8, 420 / (n * m))
        eps = EPSILONS[k % 3]
        if eps == Fraction(1, 10) and n * m > 1200:
            eps = Fraction(1, 4)
        try:
            inst = generate(
                seed=10_000 + k,
                n=n,
                m=m,
                density=density,
                u_range=(1, 8) if k % 2 else None,
            )
        except ValueError:
            continue
        sol = solve(inst, SolverConfig(epsilon=eps, max_phases=500000))
        assert sol.terminated
        cert = sol.certificate
        assert cert.passed
        assert cert.gap_ratio is None or cert.gap_ratio <= eps
        assert cert.identity_ok
        # the identity recomputed here from raw parts, both ways
        gammas = dict(cert.gammas)
        shipped = [Fraction(0)] * inst.n
        paid = [Fraction(0)] * inst.m
        flow_slack = Fraction(0)
        for e, spec in enumerate(inst.edges):
            shipped[spec.src] += sol.flow[e]
            paid[spec.dst] += spec.price * sol.flow[e]
            flow_slack += sol.flow[e] * (
                spec.profit
                - sol.alpha[spec.src]
                - spec.price * sol.beta[spec.dst]
                - gammas.get(e, Fraction(0))
            )
        d2 = sum(
            sol.alpha[i] * (inst.supply[i] - shipped[i]) for i in range(inst.n)
        )
        d3 = sum(sol.beta[j] * (inst.budget[j] - paid[j]) for j in range(inst.m))
        d4 = sum(
            g * (inst.edges[e].capacity - sol.flow[e]) for e, g in gammas.items()
        )
        assert cert.dual_value - cert.primal_value == d2 + d3 + d4 - flow_slack
        checked += 1
    assert checked >= 190
    verdict(2, "self-certification", True, f"({checked} instances)")


def test_criterion_3_per_iteration_feasibility():
    """Primal/dual feasibility and the four running invariants at every step."""
    checked = 0
    seed = 0
    while checked < 50:
        try:
            inst = generate(
                seed=777 + seed,
                n=2 + seed % 6,
                m=2 + (seed // 2) % 6,
                density=0.8,
                u_range=(1, 6) if seed % 2 else None,
            )
        except ValueError:
            seed += 1
            continue
        seed += 1
        eps = EPSILONS[checked % 3]
        last_beta = [Fraction(0)] * inst.m
        tight: set[int] = set()

        def monitor(graph):
            flow = values(graph.primal, "flow")
            alpha, beta = values(graph.dual, "alpha"), values(graph.dual, "beta")
            shipped = [Fraction(0)] * inst.n
            paid = [Fraction(0)] * inst.m
            for e, spec in enumerate(inst.edges):
                assert flow[e] >= 0
                if spec.capacity is not None:
                    assert flow[e] <= spec.capacity
                shipped[spec.src] += flow[e]
                paid[spec.dst] += spec.price * flow[e]
            for i in range(inst.n):
                assert shipped[i] <= inst.supply[i]
            gammas = reference.reconstruct_gamma(inst, flow, alpha, beta)
            for j in range(inst.m):
                assert paid[j] <= inst.budget[j]
                if paid[j] < inst.budget[j]:
                    assert beta[j] == 0  # unsaturated implies zero price
                assert beta[j] >= last_beta[j]  # monotone prices
                last_beta[j] = beta[j]
                if paid[j] == inst.budget[j]:
                    tight.add(j)
                else:
                    assert j not in tight  # tightness persists
            for e, g in gammas.items():
                if g > 0:
                    assert flow[e] == inst.edges[e].capacity
            for e, spec in enumerate(inst.edges):
                bound = (
                    spec.profit
                    - spec.price * beta[spec.dst]
                    - gammas.get(e, Fraction(0))
                )
                assert alpha[spec.src] >= bound  # dual feasibility

        sol = solve(inst, SolverConfig(epsilon=eps, max_phases=100000), on_iteration=monitor)
        assert sol.terminated and sol.certificate.passed
        checked += 1
    verdict(3, "per-iteration feasibility", True, f"({checked} monitored runs)")


def test_criterion_4_complexity_counters():
    """Price rises within the hard bound; work per rise within the soft one."""
    soft_failures = []
    runs = 0
    seed = 0
    while runs < 60:
        try:
            inst = generate(
                seed=31_000 + seed,
                n=2 + seed % 8,
                m=2 + (seed // 3) % 8,
                density=0.8,
                u_range=(1, 7) if seed % 2 else None,
            )
        except ValueError:
            seed += 1
            continue
        seed += 1
        eps = EPSILONS[runs % 3]
        sol = solve(inst, SolverConfig(epsilon=eps, max_phases=200000))
        assert sol.terminated
        rises = sol.stats.get("beta_rises")
        try:
            diag = diagnostics(inst, eps)
        except ValueError:
            runs += 1
            continue
        bound = diag.beta_rise_bound
        assert rises <= bound, f"hard bound violated: {rises} > {bound}"
        ops = sol.stats.operations()
        if ops > diag.ops_per_rise_allowance * max(1, rises):
            soft_failures.append((inst.n, inst.m, eps, ops, rises))
        runs += 1
    detail = f"({runs} runs; soft failures: {len(soft_failures)})"
    if soft_failures:
        for n, m, eps, ops, rises in soft_failures[:5]:
            print(
                f"  advisory: ops/rise above allowance at n={n} m={m} eps={eps} "
                f"(ops={ops}, rises={rises})"
            )
    verdict(4, "complexity counters", True, detail)


def test_criterion_5_cycle_push_equivalence():
    """Closed-form bulk cycle update equals revolution-by-revolution pushing."""
    rng = random.Random(5150)
    trials = 0
    while trials < 1000:
        k = rng.randint(2, 4)
        prices_fwd = [rng.randint(1, 6) for _ in range(k)]
        prices_back = [rng.randint(1, 6) for _ in range(k)]
        back_flows = [Fraction(10**6)] * k
        surplus = Fraction(rng.randint(1, 30), rng.randint(1, 3))
        inst, primal, dual, graph, stats, cycle = build_cycle_state(
            prices_fwd, prices_back, back_flows, surplus
        )
        geom = cycle_geometry(primal, cycle, surplus)
        # pin one back edge so the revolution limit is at most the target
        target = rng.randint(0, 16)
        z = rng.randrange(k)
        per_rev = surplus * geom.cum_through[z]
        partial = sum(
            (per_rev * geom.rho_cycle**t for t in range(target + 1)),
            start=Fraction(0),
        )
        slop = per_rev * geom.rho_cycle ** (target + 1) * Fraction(rng.randint(0, 3), 4)
        back = cycle[2 * z + 1]
        move(graph, back, partial + slop - primal.value(primal.flow[back]))
        geom = cycle_geometry(primal, cycle, surplus)
        assert geom.r_min is not None and geom.r_min <= target
        if geom.r_min < 0:
            trials += 1
            continue
        expected, _ = simulate_revolutions(
            inst, values(primal, "flow"), cycle, surplus, geom.r_min + 1
        )
        apply_cycle_bulk(graph, geom, PushReport())
        assert values(primal, "flow") == expected
        trials += 1
    verdict(5, "cycle-push oracle equivalence", True, f"({trials} trials)")


def test_criterion_6_differential_baseline():
    """Baseline and production solver certify the same instances; duals bound OPT.

    Instances where the baseline's step-by-step displacement shrinks forever
    (transfer-ratio loops) are skipped deterministically: the baseline's own
    contract is to abort on those, so agreement is only sampled where both
    runs terminate.
    """
    eps = Fraction(1, 4)
    config = SolverConfig(epsilon=eps, max_phases=4000)
    shared = 0
    skipped = 0
    seed = 0
    while shared < 100:
        assert seed < 600, "seed budget exhausted"
        try:
            inst = generate(seed=2_000 + seed, n=1 + seed % 5, m=1 + (seed // 2) % 5,
                            density=0.8)
        except ValueError:
            seed += 1
            continue
        seed += 1
        base = basic_auction.run(inst, config)
        if not base.terminated:
            skipped += 1
            continue
        cert_base = certify(
            inst, list(base.primal.flow), list(base.dual.alpha), list(base.dual.beta), eps
        )
        sol = solve(inst, config)
        assert sol.terminated
        assert cert_base.passed, f"baseline certificate failed at seed offset {seed}"
        assert sol.certificate.passed
        if len(inst.edges) <= 12:
            opt, _ = exact_opt(inst)
            assert cert_base.dual_value >= opt
            assert sol.certificate.dual_value >= opt
        shared += 1
    verdict(
        6,
        "differential baseline",
        True,
        f"(100 shared instances; {skipped} skipped as baseline-nonterminating)",
    )


def test_criterion_7_piecewise_reduction():
    """Normalization is profit-monotone and reassembly matches the profile."""
    rng = random.Random(808)
    for trial in range(200):
        num_edges = rng.randint(1, 3)
        length = rng.randint(1, 4)
        edges = []
        pairs = set()
        while len(edges) < num_edges:
            pair = (rng.randrange(2), rng.randrange(2))
            if pair in pairs:
                continue
            pairs.add(pair)
            segs = rng.randint(1, 4)
            slopes = tuple(sorted((rng.randint(0, 9) for _ in range(segs)), reverse=True))
            edges.append(
                PiecewiseEdge(src=pair[0], dst=pair[1], price=rng.randint(1, 5), slopes=slopes)
            )
        pw = PiecewiseInstance(
            supply=(60, 60), budget=(10**6, 10**6), segment_length=length,
            edges=tuple(edges),
        )
        split, edge_map = split_piecewise(pw)
        cap = Fraction(length)
        flows = [
            min(Fraction(rng.randint(0, 4 * length), 4), cap)
            for _ in range(len(split.edges))
        ]
        profit_before = sum(
            spec.profit * f for spec, f in zip(split.edges, flows)
        )
        normalized = normalize_split_solution(flows, edge_map)
        assert fill_order_holds(normalized, edge_map)
        profit_after = sum(
            spec.profit * f for spec, f in zip(split.edges, normalized)
        )
        assert profit_after >= profit_before
        totals = reassemble(normalized, edge_map)
        for o in range(len(pw.edges)):
            group_profit = sum(
                split.edges[e].profit * normalized[e] for e in edge_map.groups[o]
            )
            assert piecewise_profit(pw, o, totals[o]) == group_profit
    verdict(7, "piecewise reduction", True, "(200 profiles)")
