"""Command-line interface: solve, verify, oracle, generate, reduce, bench.

Exit codes: 0 success / certificate passed, 1 verification failure,
2 malformed input or usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import oracle, reductions
from .certify import certify, fmt, reconstruct_gamma
from .instance import (
    EmptySample,
    InstanceFormatError,
    ProblemInstance,
    SolverConfig,
    check_float_range,
    diagnostics,
    fields,
    generate,
    indexed,
    integer,
    parse,
    pop_segment,
    rational,
    records,
    serialize,
)
from .solver import Solution, solve

MAX_EMPTY_DRAWS = 1000  # `bench --gen` gives up after this many empty samples in a row


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _epsilon_arg(option: str, text: str) -> Fraction:
    """A rational option value strictly between 0 and 1, in a file's rational syntax."""
    try:
        epsilon = rational(0, text)
    except InstanceFormatError as exc:
        raise ValueError(f"{option}: {exc.reason}") from None
    if not 0 < epsilon < 1:
        raise ValueError(f"{option}: {text} is not in (0, 1)")
    return epsilon


def flow_lines(instance: ProblemInstance, flow) -> list[str]:
    """`flow i j value [seg=k]` for every edge with positive flow, in edge order."""
    lines = []
    for e, spec in enumerate(instance.edges):
        if flow[e] > 0:
            seg = f" seg={spec.segment}" if spec.segment is not None else ""
            lines.append(f"flow {spec.src + 1} {spec.dst + 1} {fmt(flow[e])}{seg}")
    return lines


def solution_to_text(solution: Solution) -> str:
    """Deterministic line-oriented solution record (fractions as num/den)."""
    instance = solution.instance
    cert = solution.certificate
    lines = [
        f"solution {instance.kind.value} {instance.n} {instance.m} {len(instance.edges)}",
        f"epsilon {fmt(solution.config.epsilon)}",
        f"mode {solution.config.numeric_mode}",
        f"status {'terminated' if solution.terminated else 'aborted'}",
        *flow_lines(instance, solution.flow),
    ]
    for i, a in enumerate(solution.alpha):
        lines.append(f"alpha {i + 1} {fmt(a)}")
    for j, b in enumerate(solution.beta):
        lines.append(f"beta {j + 1} {fmt(b)}")
    gammas = reconstruct_gamma(instance, solution.flow, solution.alpha, solution.beta)
    for e in sorted(gammas):
        if gammas[e] > 0:
            spec = instance.edges[e]
            lines.append(f"gamma {spec.src + 1} {spec.dst + 1} {fmt(gammas[e])}")
    lines.append(f"primal {fmt(cert.primal_value)}")
    lines.append(f"dual {fmt(cert.dual_value)}")
    lines.append(f"gap {fmt(cert.gap_ratio) if cert.gap_ratio is not None else 'vacuous'}")
    lines.extend(cert.to_lines())
    for key, value in solution.stats.to_dict().items():
        lines.append(f"stat {key} {value}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, instance: ProblemInstance):
    """Read flows, duals, epsilon and mode back from a solution file.

    Only `flow`, `alpha`, `beta`, `epsilon` and `mode` records are read; the
    rest of what `solution_to_text` writes is ignored.  Absent values are zero.
    """
    edge_of = {(spec.src, spec.dst, spec.segment): e for e, spec in enumerate(instance.edges)}
    zero = Fraction(0)  # a parsed value is never this object, so `is zero` means unset
    flow = [zero] * len(instance.edges)
    alpha: list[Fraction | None] = [None] * instance.n
    beta: list[Fraction | None] = [None] * instance.m
    epsilon = None
    mode = "exact"
    for line_no, tokens in records(text):
        tag = tokens[0]
        if tag == "flow":
            seg = pop_segment(line_no, tokens)
            if len(tokens) != 4:
                raise InstanceFormatError(line_no, "expected: flow <i> <j> <value> [seg=<k>]")
            _, i, j, value = tokens
            e = edge_of.get((integer(line_no, i) - 1, integer(line_no, j) - 1, seg))
            if e is None:
                raise InstanceFormatError(line_no, f"flow on edge ({i},{j}) not in instance")
            if flow[e] is not zero:
                raise InstanceFormatError(line_no, f"duplicate flow line for edge ({i},{j})")
            flow[e] = rational(line_no, value)
        elif tag == "alpha":
            indexed(line_no, tokens, alpha, "source", rational)
        elif tag == "beta":
            indexed(line_no, tokens, beta, "sink", rational)
        elif tag == "epsilon":
            (value,) = fields(line_no, tokens, 1, "epsilon <value>")
            epsilon = rational(line_no, value)
            if not 0 < epsilon < 1:
                raise InstanceFormatError(line_no, f"epsilon {value} is not in (0, 1)")
        elif tag == "mode":
            (mode,) = fields(line_no, tokens, 1, "mode <exact|float>")
            if mode not in ("exact", "float"):
                raise InstanceFormatError(line_no, f"expected <exact|float>, got {mode!r}")
    alpha = [zero if v is None else v for v in alpha]
    beta = [zero if v is None else v for v in beta]
    return flow, alpha, beta, epsilon, mode


def cmd_solve(args) -> int:
    if args.max_phases is not None and args.max_phases < 0:
        raise ValueError(f"--max-phases must be at least 0, not {args.max_phases}")
    instance = parse(_read(args.instance))
    config = SolverConfig(
        epsilon=_epsilon_arg("--epsilon", args.epsilon),
        numeric_mode=args.mode,
        max_phases=args.max_phases,
    )
    solution = solve(instance, config)
    if args.mode == "float":
        print("warning: float mode produces a non-rigorous certificate", file=sys.stderr)
    text = solution_to_text(solution)
    if not args.seed_stats:
        text = "".join(
            line + "\n" for line in text.splitlines() if not line.startswith("stat ")
        )
    _write(args.output, text)
    return 0 if solution.certificate.passed else 1


def cmd_verify(args) -> int:
    instance = parse(_read(args.instance))
    flow, alpha, beta, epsilon, mode = parse_solution(_read(args.solution), instance)
    if args.epsilon is not None:
        epsilon = _epsilon_arg("--epsilon", args.epsilon)
    if epsilon is None:
        print("error: epsilon not in solution file; pass --epsilon", file=sys.stderr)
        return 2
    if mode == "float":
        check_float_range(instance, flow, alpha, beta)
    tol = SolverConfig.float_tol if mode == "float" else 0
    cert = certify(instance, flow, alpha, beta, epsilon, rigorous=(mode == "exact"), tol=tol)
    print(f"primal_feasible {cert.primal_feasible}")
    print(f"dual_feasible {cert.dual_feasible}")
    print(f"cs_source_worst {fmt(cert.cs_source_worst)}")
    print(f"cs_sink_worst {fmt(cert.cs_sink_worst)}")
    print(f"cs_edge_worst {fmt(cert.cs_edge_worst)}")
    print(f"cs_flow_worst_excess {fmt(cert.cs_flow_worst_excess)}")
    print(f"gap {fmt(cert.gap_ratio) if cert.gap_ratio is not None else 'vacuous'}")
    print(f"verdict {'pass' if cert.passed else 'fail'}")
    for violation in cert.primal_violations + cert.dual_violations:
        print(f"violation {violation}")
    return 0 if cert.passed else 1


def cmd_oracle(args) -> int:
    instance = parse(_read(args.instance))
    value, flow = oracle.exact_opt(instance)
    lines = [
        f"solution {instance.kind.value} {instance.n} {instance.m} {len(instance.edges)}",
        *flow_lines(instance, flow),
        f"primal {fmt(value)}",
    ]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_generate(args) -> int:
    u_range = _split_range("--u-range", args.u_range) if args.kind == "bts" else None
    instance = generate(
        seed=args.seed,
        n=args.n,
        m=args.m,
        density=args.density,
        a_range=_split_range("--a-range", args.a_range),
        b_range=_split_range("--b-range", args.b_range),
        c_range=_split_range("--c-range", args.c_range),
        p_range=_split_range("--p-range", args.p_range),
        u_range=u_range,
    )
    _write(args.output, serialize(instance))
    return 0


def _split_range(option: str, text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"{option} must be <lo>:<hi> integers, not {text!r}") from None


def cmd_reduce(args) -> int:
    pw = reductions.parse_piecewise(_read(args.input))
    split, edge_map = reductions.split_piecewise(pw)
    if args.map_back is None:
        _write(args.output, serialize(split))
        return 0
    flow, _, _, _, _ = parse_solution(_read(args.map_back), split)
    normalized = reductions.normalize_split_solution(flow, edge_map)
    totals = reductions.reassemble(normalized, edge_map)
    lines = []
    profit = Fraction(0)
    for o, edge in enumerate(pw.edges):
        lines.append(f"flow {edge.src + 1} {edge.dst + 1} {fmt(totals[o])}")
        profit += reductions.piecewise_profit(pw, o, totals[o])
    lines.append(f"primal {fmt(profit)}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, not {args.repeat}")
    instances: list[tuple[str, ProblemInstance]] = []
    if args.gen:
        params = {}
        for part in args.gen.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"--gen part {part!r} is not key=value")
            params[key] = value

        def number(key, cast, default):
            value = params.pop(key, default)
            try:
                return cast(value)
            except ValueError:
                what = "an integer" if cast is int else "a number"
                raise ValueError(f"--gen {key} must be {what}, not {value!r}") from None

        count = number("count", int, "3")
        seed0 = number("seed", int, "0")
        kind = params.pop("kind", "btp")
        if kind not in ("btp", "bts"):
            raise ValueError(f"--gen kind must be btp or bts, not {kind!r}")
        n = number("n", int, "4")
        m = number("m", int, "4")
        density = number("density", float, "0.9")
        if params:
            raise ValueError(f"unknown --gen keys {sorted(params)}")
        seed, empty = seed0, 0
        while len(instances) < count:
            try:
                inst = generate(
                    seed=seed, n=n, m=m, density=density,
                    u_range=(1, 8) if kind == "bts" else None,
                )
            except EmptySample:
                empty += 1
                if empty == MAX_EMPTY_DRAWS:
                    raise ValueError(f"--gen drew {empty} empty samples in a row; raise density")
            else:
                instances.append((f"gen:{seed}", inst))
                empty = 0
            seed += 1
    for path in args.paths:
        instances.append((path, parse(_read(path))))
    if not instances:
        print("error: nothing to bench; pass --gen or instance paths", file=sys.stderr)
        return 2

    configs = [
        SolverConfig(epsilon=_epsilon_arg("--epsilons", tok), numeric_mode=args.mode)
        for tok in args.epsilons.split(",")
    ]
    header = (
        "name n m edges eps time_ms phases beta_rises rise_bound ops "
        "ops_per_rise_ok gap mode pass"
    )
    print(header)
    failures = 0
    for name, inst in instances:
        for config in configs:
            eps = config.epsilon
            for _ in range(args.repeat):
                started = time.perf_counter()
                solution = solve(inst, config)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                rises = solution.stats.get("beta_rises")
                ops = solution.stats.operations()
                try:
                    diag = diagnostics(inst, eps)
                except ValueError:  # no profitable edge: no price rises, nothing to charge
                    bound, per_rise_ok = 0, True
                else:
                    bound = diag.beta_rise_bound
                    per_rise_ok = ops <= diag.ops_per_rise_allowance * max(1, rises)
                if rises > bound:
                    raise AssertionError(
                        f"{name}: beta rises {rises} exceed bound {bound}"
                    )
                gap = solution.certificate.gap_ratio
                ok = solution.certificate.passed
                failures += 0 if ok else 1
                print(
                    f"{name} {inst.n} {inst.m} {len(inst.edges)} {fmt(eps)} "
                    f"{elapsed_ms:.2f} {solution.stats.get('phases')} {rises} {bound} "
                    f"{ops} {per_rise_ok} "
                    f"{fmt(gap) if gap is not None else 'vacuous'} "
                    f"{args.mode} {ok}"
                )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budget-flow",
        description="Budgeted transportation solver with self-certifying solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance and certify the result")
    p_solve.add_argument("instance")
    p_solve.add_argument("--epsilon", default="1/4")
    p_solve.add_argument("--mode", choices=["exact", "float"], default="exact")
    p_solve.add_argument("--max-phases", type=int, default=None)
    p_solve.add_argument("--seed-stats", action="store_true", help="include run counters")
    p_solve.add_argument("-o", "--output", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="re-certify a solution file")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.add_argument("--epsilon", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="exact optimum of a small instance")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("-o", "--output", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("generate", help="deterministically sample an instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--density", type=float, default=1.0)
    p_gen.add_argument("--kind", choices=["btp", "bts"], default="btp")
    p_gen.add_argument("--a-range", default="1:10")
    p_gen.add_argument("--b-range", default="1:20")
    p_gen.add_argument("--c-range", default="0:9")
    p_gen.add_argument("--p-range", default="1:6")
    p_gen.add_argument("--u-range", default="1:8")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_reduce = sub.add_parser(
        "reduce", help="split piecewise-linear profits, or map a split solution back"
    )
    p_reduce.add_argument("--piecewise", action="store_true", required=True)
    p_reduce.add_argument("input")
    p_reduce.add_argument("output")
    p_reduce.add_argument("--map-back", default=None, metavar="SOLUTION")
    p_reduce.set_defaults(func=cmd_reduce)

    p_bench = sub.add_parser("bench", help="run instances and report counters")
    p_bench.add_argument("paths", nargs="*")
    p_bench.add_argument("--gen", default=None, help="count=,n=,m=,density=,seed=,kind=")
    p_bench.add_argument("--epsilons", default="1/4")
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--mode", choices=["exact", "float"], default="exact")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # malformed input, bad option or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
