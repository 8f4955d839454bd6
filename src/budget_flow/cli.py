"""Command-line interface: solve, verify, oracle, generate, reduce, bench.

Exit codes: 0 success / certificate passed, 1 verification failure,
2 malformed input or usage error, 3 a `bench` run whose price rises exceed
their proven bound, 141 (128 + SIGPIPE) when the reader of stdout has gone.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import oracle, reductions
from .certify import certify, fmt, nonzero
from .instance import (
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

# the north star's instance ladder, which `bench` runs when it is given no paths
LADDER = tuple(
    (f"{kind}-{n}", dict(seed=3, n=n, m=n, density=0.7,
                         u_range=(1, 8) if kind == "bts" else None))
    for n in (10, 20, 40, 80)
    for kind in ("btp", "bts")
)


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


def edge_line(tag: str, instance: ProblemInstance, e: int, value) -> str:
    """`<tag> i j value` for edge e, with its `seg=k` when it is a split segment."""
    seg = "" if instance.segment[e] is None else f" seg={instance.segment[e]}"
    return f"{tag} {instance.src[e] + 1} {instance.dst[e] + 1} {fmt(value)}{seg}"


def flow_lines(instance: ProblemInstance, flow) -> list[str]:
    """`flow i j value [seg=k]` for every edge with positive flow, in edge order."""
    return [edge_line("flow", instance, e, flow[e]) for e in nonzero(flow) if flow[e] > 0]


def solution_to_text(solution: Solution) -> str:
    """Deterministic line-oriented solution record (fractions as num/den)."""
    instance = solution.instance
    cert = solution.certificate
    lines = [
        f"solution {instance.kind.value} {instance.n} {instance.m} {len(instance.src)}",
        f"epsilon {fmt(solution.config.epsilon)}",
        f"mode {solution.config.numeric_mode}",
        f"status {'terminated' if solution.terminated else 'aborted'}",
        *flow_lines(instance, solution.flow),
    ]
    for i, a in enumerate(solution.alpha):
        lines.append(f"alpha {i + 1} {fmt(a)}")
    for j, b in enumerate(solution.beta):
        lines.append(f"beta {j + 1} {fmt(b)}")
    for e, g in cert.gammas:
        lines.append(edge_line("gamma", instance, e, g))
    lines.append(f"primal {fmt(cert.primal_value)}")
    lines.append(f"dual {fmt(cert.dual_value)}")
    lines.append(f"gap {fmt(cert.gap_ratio) if cert.gap_ratio is not None else 'vacuous'}")
    lines.extend(cert.to_lines())
    for key, value in solution.stats.to_dict().items():
        lines.append(f"stat {key} {value}")
    return "\n".join(lines) + "\n"


READ_TAGS = ("flow", "alpha", "beta", "epsilon", "mode")  # the records parse_solution reads


def parse_solution(text: str, instance: ProblemInstance):
    """Read flows, duals, epsilon and mode back from a solution file.

    Only `flow`, `alpha`, `beta`, `epsilon` and `mode` records are read; the
    rest of what `solution_to_text` writes is skipped unsplit.  Absent values
    are zero.
    """
    edge_of = dict(zip(zip(instance.src, instance.dst, instance.segment), range(len(instance.src))))
    zero = Fraction(0)  # a parsed value is never this object, so `is zero` means unset
    flow = [zero] * len(instance.src)
    alpha: list[Fraction | None] = [None] * instance.n
    beta: list[Fraction | None] = [None] * instance.m
    epsilon = None
    mode = "exact"
    for line_no, tokens in records(text, READ_TAGS):
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
        raise ValueError("epsilon not in solution file; pass --epsilon")
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
        f"solution {instance.kind.value} {instance.n} {instance.m} {len(instance.src)}",
        *flow_lines(instance, flow),
        f"primal {fmt(value)}",
    ]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_generate(args) -> int:
    instance = generate(
        seed=args.seed,
        n=args.n,
        m=args.m,
        density=args.density,
        a_range=_split_range("--a-range", args.a_range),
        b_range=_split_range("--b-range", args.b_range),
        c_range=_split_range("--c-range", args.c_range),
        p_range=_split_range("--p-range", args.p_range),
        u_range=None if args.u_range is None else _split_range("--u-range", args.u_range),
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
    for e, value in enumerate(flow):
        if not 0 <= value <= split.capacity[e]:
            raise ValueError(f"flow {split.src[e] + 1} {split.dst[e] + 1} seg={split.segment[e]}: "
                             f"{value} is outside [0, {split.capacity[e]}]")
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
    if args.paths:
        instances = [(path, parse(_read(path))) for path in args.paths]
    else:
        instances = [(name, generate(**params)) for name, params in LADDER]

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
            try:
                diag = diagnostics(inst, eps)
            except ValueError:  # no profitable edge: no price rises, nothing to charge
                bound, allowance = 0, float("inf")
            else:
                bound, allowance = diag.beta_rise_bound, diag.ops_per_rise_allowance
            for _ in range(args.repeat):
                started = time.perf_counter()
                solution = solve(inst, config)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                rises = solution.stats.get("beta_rises")
                ops = solution.stats.operations()
                per_rise_ok = ops <= allowance * max(1, rises)
                gap = solution.certificate.gap_ratio
                ok = solution.certificate.passed
                failures += 0 if ok else 1
                print(
                    f"{name} {inst.n} {inst.m} {len(inst.src)} {fmt(eps)} "
                    f"{elapsed_ms:.2f} {solution.stats.get('phases')} {rises} {bound} "
                    f"{ops} {per_rise_ok} "
                    f"{fmt(gap) if gap is not None else 'vacuous'} "
                    f"{args.mode} {ok}"
                )
                if rises > bound:  # only a solver defect gets here
                    print(f"error: {name}: beta rises {rises} exceed bound {bound}",
                          file=sys.stderr)
                    return 3
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
    p_gen.add_argument("--a-range", default="1:10")
    p_gen.add_argument("--b-range", default="1:20")
    p_gen.add_argument("--c-range", default="0:9")
    p_gen.add_argument("--p-range", default="1:6")
    p_gen.add_argument("--u-range", default=None, help="capacities; makes a bts instance")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_reduce = sub.add_parser(
        "reduce", help="split piecewise-linear profits, or map a split solution back"
    )
    p_reduce.add_argument("input")
    p_reduce.add_argument("output")
    p_reduce.add_argument("--map-back", default=None, metavar="SOLUTION")
    p_reduce.set_defaults(func=cmd_reduce)

    p_bench = sub.add_parser(
        "bench", help="run instances, or the north-star ladder, and report counters"
    )
    p_bench.add_argument("paths", nargs="*")
    p_bench.add_argument("--epsilons", default="1/4")
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--mode", choices=["exact", "float"], default="exact")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone, as under `| head`: stop without a word,
        # and let no later flush write to the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, the status of a process SIGPIPE ended
    except (ValueError, OSError) as exc:  # malformed input, bad option or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
