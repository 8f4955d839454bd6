import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from budget_flow import cli
from budget_flow.cli import main, solution_to_text
from budget_flow.instance import SolverConfig, generate, serialize
from budget_flow.solver import solve
from conftest import PHASE_CAP
from test_golden import _piecewise_split

ONE_BY_ONE = "p btp 1 1 1\ns 1 5\nt 1 10\ne 1 1 3 2\n"
BTS_BINDING = "p bts 1 1 1\ns 1 5\nt 1 10\ne 1 1 3 2 3\n"
PIECEWISE = "p pw 1 2 2\ns 1 6\nt 1 50\nt 2 40\ne 1 1 3 pw 2 5 3\ne 1 2 2 pw 2 4 1\n"


def run_cli(args):
    return main(list(args))


def test_solve_writes_certified_solution(tmp_path, capsys):
    inst = tmp_path / "inst.btp"
    inst.write_text(ONE_BY_ONE)
    out = tmp_path / "out.sol"
    assert run_cli(["solve", str(inst), "--epsilon", "1/4", "-o", str(out)]) == 0
    text = out.read_text()
    assert "primal 15/1" in text
    assert "cert passed true" in text


def test_solve_then_verify_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.btp"
    inst.write_text(ONE_BY_ONE)
    out = tmp_path / "out.sol"
    assert run_cli(["solve", str(inst), "-o", str(out)]) == 0
    assert run_cli(["verify", str(inst), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "verdict pass" in printed


def test_verify_rejects_tampered_flow(tmp_path, capsys):
    inst = tmp_path / "inst.btp"
    inst.write_text(ONE_BY_ONE)
    out = tmp_path / "out.sol"
    run_cli(["solve", str(inst), "-o", str(out)])
    tampered = []
    for line in out.read_text().splitlines():
        if line.startswith("flow 1 1 "):
            line = "flow 1 1 6/1"
        tampered.append(line)
    out.write_text("\n".join(tampered) + "\n")
    assert run_cli(["verify", str(inst), str(out)]) == 1
    printed = capsys.readouterr().out
    assert "violation" in printed


def test_verify_names_a_violating_edge_as_the_files_do(tmp_path, capsys):
    # the file's second edge carries 3 over its capacity 2
    inst = tmp_path / "inst.bts"
    inst.write_text("p bts 1 2 2\ns 1 9\nt 1 100\nt 2 100\ne 1 1 3 1 2\ne 1 2 5 1 2\n")
    sol = tmp_path / "out.sol"
    sol.write_text("epsilon 1/4\nflow 1 2 3\nalpha 1 5\n")
    assert run_cli(["verify", str(inst), str(sol)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if "violation" in line] == [
        "violation capacity exceeded on edge 2 (1,2)"]


def test_verify_wrong_instance_pairing_is_malformed(tmp_path, capsys):
    inst = tmp_path / "inst.btp"
    inst.write_text(ONE_BY_ONE)
    other = tmp_path / "other.btp"
    other.write_text("p btp 1 2 2\ns 1 5\nt 1 10\nt 2 4\ne 1 1 3 2\ne 1 2 1 1\n")
    out = tmp_path / "out.sol"
    run_cli(["solve", str(other), "-o", str(out)])
    assert run_cli(["verify", str(inst), str(out)]) == 2


def test_solve_malformed_file_exits_2(tmp_path, capsys):
    inst = tmp_path / "broken.btp"
    inst.write_text("p btp 1 1 2\ns 1 5\nt 1 10\ne 1 1 3 2\n")
    assert run_cli(["solve", str(inst)]) == 2


def test_solve_bts_reports_capacity_duals(tmp_path):
    inst = tmp_path / "inst.bts"
    inst.write_text(BTS_BINDING)
    out = tmp_path / "out.sol"
    assert run_cli(["solve", str(inst), "-o", str(out)]) == 0
    assert "gamma 1 1 " in out.read_text()


def test_oracle_command(tmp_path, capsys):
    inst = tmp_path / "inst.btp"
    inst.write_text(ONE_BY_ONE)
    assert run_cli(["oracle", str(inst)]) == 0
    printed = capsys.readouterr().out
    assert "primal 15/1" in printed
    assert "flow 1 1 5/1" in printed


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.btp"
    b = tmp_path / "b.btp"
    args = ["generate", "--seed", "5", "--n", "3", "--m", "2", "--density", "1.0"]
    assert run_cli(args + ["-o", str(a)]) == 0
    assert run_cli(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("option, value", [("--a-range", "5"), ("--u-range", "1:x")])
def test_generate_bad_range_names_the_option(capsys, option, value):
    args = ["generate", "--seed", "1", "--n", "2", "--m", "2", option, value]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {option} must be <lo>:<hi> integers, not {value!r}\n"
    assert captured.out == ""


def test_generate_u_range_makes_a_bts_instance(capsys):
    assert run_cli(["generate", "--seed", "7", "--n", "3", "--m", "4", "--u-range", "1:8"]) == 0
    want = serialize(generate(seed=7, n=3, m=4, density=1.0, u_range=(1, 8)))
    assert capsys.readouterr().out == want


def test_generate_malformed_u_range_exits_2(capsys):
    assert run_cli(["generate", "--seed", "1", "--n", "2", "--m", "2", "--u-range", "garbage"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --u-range must be <lo>:<hi> integers, not 'garbage'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "options, reason",
    [
        (["--n", "0"], "n and m must be positive"),
        (["--density", "0"], "density must be in (0, 1]"),
        (["--density", "2"], "density must be in (0, 1]"),
        (["--density", "1e-12"], "empty edge set after sampling; raise density or retry seed"),
        (["--c-range", "5:1"], "ranges must be non-negative and ordered"),
        (["--p-range", "0:0"], "p_range must start at 1 or above"),
        (["--a-range", "0:5"], "a_range must start at 1 or above"),
        (["--b-range", "0:0"], "b_range must start at 1 or above"),
        (["--u-range", "0:3"], "u_range must start at 1 or above"),
    ],
)
def test_generate_impossible_or_empty_sample_exits_2(capsys, options, reason):
    assert run_cli(["generate", "--seed", "0", "--n", "1", "--m", "1", *options]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {reason}\n"
    assert captured.out == ""


def test_generate_kind_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["generate", "--seed", "1", "--n", "2", "--m", "2", "--kind", "bts"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "budget-flow: error: unrecognized arguments: --kind bts"
    )
    assert captured.out == ""


def test_reduce_piecewise_edge_count(tmp_path):
    src = tmp_path / "in.pw"
    src.write_text(PIECEWISE)
    out = tmp_path / "out.bts"
    assert run_cli(["reduce", str(src), str(out)]) == 0
    text = out.read_text()
    assert text.startswith("p bts 1 2 4")  # two profiles of two segments
    assert "seg=1" in text and "seg=2" in text


def test_reduce_piecewise_map_back(tmp_path):
    src = tmp_path / "in.pw"
    src.write_text(PIECEWISE)
    reduced = tmp_path / "out.bts"
    run_cli(["reduce", str(src), str(reduced)])
    sol = tmp_path / "split.sol"
    assert run_cli(["solve", str(reduced), "-o", str(sol)]) == 0
    mapped = tmp_path / "mapped.txt"
    assert run_cli(
        ["reduce", str(src), str(mapped), "--map-back", str(sol)]
    ) == 0
    assert "primal" in mapped.read_text()


@pytest.mark.parametrize(
    "records, reason",
    [
        ("flow 1 1 2 seg=1\nflow 1 1 3 seg=2\n", "flow 1 1 seg=2: 3 is outside [0, 2]"),
        ("flow 1 1 -3 seg=1\n", "flow 1 1 seg=1: -3 is outside [0, 2]"),
    ],
)
def test_reduce_map_back_flow_outside_its_segment_exits_2(tmp_path, capsys, records, reason):
    # the profile `pw 2 5 3` has domain 4: two segments of capacity 2
    src = tmp_path / "in.pw"
    src.write_text(PIECEWISE)
    sol = tmp_path / "split.sol"
    sol.write_text(records)
    mapped = tmp_path / "mapped.txt"
    args = ["reduce", str(src), str(mapped), "--map-back", str(sol)]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not mapped.exists()


@pytest.mark.parametrize(
    "text, line",
    [
        ("p pw 2 1 1\ns 1 6\nt 1 50\ne 1 1 3 pw 2 5 3\n", 1),  # no `s 2` line
        ("p pw 1 1 1\ns 1\nt 1 50\ne 1 1 3 pw 2 5 3\n", 2),  # `s 1` lacks its value
        ("p pw 1 1 1\ns 1 6\nt 1 x\ne 1 1 3 pw 2 5 3\n", 3),
    ],
)
def test_reduce_piecewise_malformed_exits_2(tmp_path, capsys, text, line):
    src = tmp_path / "in.pw"
    src.write_text(text)
    assert run_cli(["reduce", str(src), str(tmp_path / "out.bts")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1


def test_reduce_piecewise_flag_is_gone(tmp_path, capsys):
    # `reduce` always splits a piecewise file, so the flag that said so is no option
    src = tmp_path / "in.pw"
    src.write_text(PIECEWISE)
    out = tmp_path / "out.bts"
    with pytest.raises(SystemExit) as info:
        run_cli(["reduce", "--piecewise", str(src), str(out)])
    assert info.value.code == 2
    assert not out.exists()
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --piecewise\n")


def refuse_gflow(capsys, args, out):
    """`reduce --gflow` is no option: it exits 2 before any file is read and
    writes nothing; returns the error text."""
    with pytest.raises(SystemExit) as info:
        run_cli(["reduce", "--gflow", *args])
    assert info.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.endswith("error: unrecognized arguments: --gflow\n")
    return err


@pytest.mark.parametrize(
    "text, line",
    [
        ("g 2 1\na 1 2 4 10 1/2\nsrc 1\nsnk 2 1\n", 3),
        ("g 2 1\na 1 x 4 10 1/2\nsrc 1 2\nsnk 2 1\n", 2),
    ],
)
def test_reduce_gflow_malformed_exits_2(tmp_path, capsys, text, line):
    # a generalized-flow file, malformed at `line`, that no reader gets to see
    src = tmp_path / "in.gfl"
    src.write_text(text)
    out = tmp_path / "out"
    assert f"line {line}" not in refuse_gflow(capsys, [str(src), str(out)], out)


@pytest.mark.parametrize(
    "records, line, reason",
    [
        ("mflow 999 5\n", 1, "edge index 999 out of range 1..3"),
        ("mflow 1 2\nmflow 0 5\n", 2, "edge index 0 out of range 1..3"),
        ("mflow 1 1/0\n", 1, "bad rational '1/0'"),
        ("mflow 1 2\nmflow 1 2\n", 2, "duplicate mflow line for edge 1"),
    ],
)
def test_reduce_gflow_map_back_malformed_exits_2(tmp_path, capsys, records, line, reason):
    # `mflow` records, malformed at `line` for `reason`, that no reader gets to see
    src = tmp_path / "in.gfl"
    src.write_text("g 2 1\na 1 2 4 10 1/2\nsrc 1 2\nsnk 2 1\n")
    mflow = tmp_path / "reduced.flow"
    mflow.write_text(records)
    out = tmp_path / "out"
    err = refuse_gflow(capsys, [str(src), str(out), "--map-back", str(mflow)], out)
    assert f"line {line}" not in err and reason not in err


def solved(tmp_path):
    """ONE_BY_ONE and its certified solution file."""
    inst = tmp_path / "inst.btp"
    inst.write_text(ONE_BY_ONE)
    sol = tmp_path / "out.sol"
    assert run_cli(["solve", str(inst), "-o", str(sol)]) == 0
    return inst, sol


@pytest.mark.parametrize("seed_stats", [True, False])
def test_solve_seed_stats_keeps_the_stat_lines(tmp_path, seed_stats):
    instance = generate(seed=3, n=4, m=4, density=0.7)
    inst, out = tmp_path / "inst.btp", tmp_path / "out.sol"
    inst.write_text(serialize(instance))
    flags = ["--seed-stats"] if seed_stats else []
    assert run_cli(["solve", str(inst), "--max-phases", str(PHASE_CAP),
                    *flags, "-o", str(out)]) == 0
    text = solution_to_text(solve(instance, SolverConfig(max_phases=PHASE_CAP)))
    stats = [line for line in text.splitlines() if line.startswith("stat ")]
    assert "stat phases" in " ".join(stats)
    if seed_stats:
        assert out.read_text() == text
    else:
        assert out.read_text().splitlines() == [
            line for line in text.splitlines() if line not in stats]


def test_verify_without_any_epsilon_exits_2(tmp_path, capsys):
    inst, sol = solved(tmp_path)
    lines = sol.read_text().splitlines()
    lines.remove("epsilon 1/4")
    sol.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(["verify", str(inst), str(sol)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: epsilon not in solution file; pass --epsilon\n"
    assert captured.out == ""
    assert run_cli(["verify", str(inst), str(sol), "--epsilon", "1/4"]) == 0
    assert "verdict pass" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_bad_epsilon_option_exits_2(tmp_path, capsys, command):
    inst, sol = solved(tmp_path)
    files = [str(inst), str(sol)] if command == "verify" else [str(inst)]
    assert run_cli([command, *files, "--epsilon", "1/0"]) == 2
    assert capsys.readouterr().err == "error: --epsilon: bad rational '1/0'\n"


def test_solve_epsilon_out_of_range_names_the_option(tmp_path, capsys):
    inst, _ = solved(tmp_path)
    assert run_cli(["solve", str(inst), "--epsilon", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --epsilon: 2 is not in (0, 1)\n"
    assert captured.out == ""


@pytest.mark.parametrize("value", ["-1", "2"])
def test_verify_epsilon_out_of_range_names_the_option(tmp_path, capsys, value):
    # an epsilon outside (0, 1) is bad input, not a failed certificate
    inst, sol = solved(tmp_path)
    assert run_cli(["verify", str(inst), str(sol), "--epsilon", value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --epsilon: {value} is not in (0, 1)\n"
    assert captured.out == ""


def test_verify_epsilon_record_out_of_range_exits_2(tmp_path, capsys):
    inst, sol = solved(tmp_path)
    text = sol.read_text()
    assert text.splitlines()[1] == "epsilon 1/4"
    sol.write_text(text.replace("epsilon 1/4\n", "epsilon -1\n"))
    assert run_cli(["verify", str(inst), str(sol)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: epsilon -1 is not in (0, 1)\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "prefix, record, reason",
    [
        ("flow 1 1 ", "flow 1 1 1/0", "bad rational '1/0'"),
        ("alpha 1 ", "alpha 0 5", "source index 0 out of range 1..1"),
        ("alpha 1 ", "alpha 2 5", "source index 2 out of range 1..1"),
        ("beta 1 ", "beta 0 5", "sink index 0 out of range 1..1"),
        ("beta 1 ", "beta 2 5", "sink index 2 out of range 1..1"),
        ("mode ", "mode fast", "expected <exact|float>, got 'fast'"),
    ],
)
def test_verify_malformed_solution_record_exits_2(tmp_path, capsys, prefix, record, reason):
    inst, sol = solved(tmp_path)
    lines = sol.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    lines[k] = record
    sol.write_text("\n".join(lines) + "\n")
    assert run_cli(["verify", str(inst), str(sol)]) == 2
    assert capsys.readouterr().err == f"error: line {k + 1}: {reason}\n"


HUGE = 10**400
# three profits beyond the float range; keys into sinks 1 and 2 tie as floats
HUGE_PROFITS = (f"p btp 2 2 4\ns 1 5\ns 2 5\nt 1 10\nt 2 10\ne 1 1 {HUGE} 2\n"
                f"e 1 2 {HUGE + 1} 2\ne 2 1 {HUGE + 7} 3\ne 2 2 3 1\n")


def test_exact_solve_takes_profits_beyond_the_float_range(tmp_path, capsys):
    inst = tmp_path / "huge.btp"
    inst.write_text(HUGE_PROFITS)
    out = tmp_path / "out.sol"
    assert run_cli(["solve", str(inst), "-o", str(out)]) == 0
    assert run_cli(["oracle", str(inst)]) == 0
    optimum = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("primal "))
    text = out.read_text()
    assert "cert passed true\n" in text
    assert f"{optimum}\n" in text


def test_float_solve_of_a_number_beyond_the_float_range_exits_2(tmp_path, capsys):
    inst = tmp_path / "huge.btp"
    inst.write_text(f"p btp 1 1 1\ns 1 5\nt 1 10\ne 1 1 {HUGE} 2\n")
    assert run_cli(["solve", str(inst), "--mode", "float"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: edge 1: number beyond the float range\n"
    assert captured.out == ""


def test_float_solve_whose_dual_value_leaves_the_float_range_exits_2(tmp_path, capsys):
    # every number fits in a float, but sum(a) * max c, a bound on the dual
    # value, does not: the certificate would read a gap of nan
    inst = tmp_path / "wide.btp"
    inst.write_text(f"p btp 2 2 3\ns 1 5\ns 2 5\nt 1 10\nt 2 10\n"
                    f"e 1 1 {10**308} 2\ne 1 2 {10**308} 2\ne 2 1 {10**307} 3\n")
    assert run_cli(["solve", str(inst), "--mode", "float"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: dual value bound beyond the float range\n"
    assert captured.out == ""
    assert run_cli(["solve", str(inst)]) == 0  # exact mode has no such limit
    assert "cert passed true\n" in capsys.readouterr().out


def test_float_verify_of_a_value_beyond_the_float_range_exits_2(tmp_path, capsys):
    inst, sol = solved(tmp_path)
    text = sol.read_text().replace("mode exact\n", "mode float\n")
    lines = [("alpha 1 1e400" if line.startswith("alpha 1 ") else line)
             for line in text.splitlines()]
    sol.write_text("\n".join(lines) + "\n")
    assert run_cli(["verify", str(inst), str(sol)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: alpha 1: number beyond the float range\n"
    assert captured.out == ""


def test_solve_negative_max_phases_exits_2(tmp_path, capsys):
    inst, _ = solved(tmp_path)
    assert run_cli(["solve", str(inst), "--max-phases", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --max-phases must be at least 0, not -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("mode, rigorous", [("exact", "true"), ("float", "false")])
def test_solve_certificate_follows_mode(tmp_path, capsys, mode, rigorous):
    # float flows are checked within the float tolerance and never stamped rigorous
    inst = tmp_path / "inst.btp"
    inst.write_text(serialize(generate(seed=0, n=4, m=4, density=0.8)))
    out = tmp_path / "out.sol"
    args = ["solve", str(inst), "--mode", mode, "--epsilon", "1/8", "-o", str(out)]
    assert run_cli(args) == 0
    text = out.read_text()
    assert f"cert rigorous {rigorous}\n" in text
    assert "cert passed true\n" in text


LADDER_ROWS = [  # name, n, m and edge count of each rung of `bench` without paths
    ("btp-10", 10, 10, 69), ("bts-10", 10, 10, 71),
    ("btp-20", 20, 20, 283), ("bts-20", 20, 20, 278),
    ("btp-40", 40, 40, 1115), ("bts-40", 40, 40, 1114),
    ("btp-80", 80, 80, 4473), ("bts-80", 80, 80, 4439),
]
BENCH_HEADER = (
    "name n m edges eps time_ms phases beta_rises rise_bound ops ops_per_rise_ok gap mode pass"
)


def test_bench_without_paths_runs_the_ladder(capsys):
    assert run_cli(["bench"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == BENCH_HEADER
    assert len(rows) == len(LADDER_ROWS)
    for row, (name, n, m, edges) in zip(rows, LADDER_ROWS):
        cols = row.split()
        assert cols[:5] == [name, str(n), str(m), str(edges), "1/4"]
        assert int(cols[7]) <= int(cols[8])
        assert cols[12:] == ["exact", "True"]


def test_bench_deterministic_counters(tmp_path, capsys):
    paths = []
    for seed in ("4", "5"):
        path = tmp_path / f"gen{seed}.btp"
        assert run_cli(["generate", "--seed", seed, "--n", "3", "--m", "3",
                        "--density", "1.0", "-o", str(path)]) == 0
        paths.append(str(path))
    args = ["bench", *paths, "--epsilons", "1/2,1/4"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    second = capsys.readouterr().out

    def strip_time(text):
        rows = []
        for line in text.splitlines()[1:]:
            cols = line.split()
            rows.append(cols[:5] + cols[6:])  # drop the wall-time column
        return rows

    assert strip_time(first) == strip_time(second)
    # the rise bound column is never exceeded (bench exits 3 on a breach)
    for line in first.splitlines()[1:]:
        cols = line.split()
        assert int(cols[7]) <= int(cols[8])


def test_bench_gen_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "--gen", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    # `x` is read as an instance path
    assert captured.err.splitlines()[-1] == "budget-flow: error: unrecognized arguments: --gen"
    assert captured.out == ""


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_repeat_below_one_exits_2(capsys, repeat):
    assert run_cli(["bench", "--repeat", repeat]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --repeat must be at least 1, not {repeat}\n"
    assert captured.out == ""


def test_bench_bad_epsilon_exits_before_the_header(capsys):
    assert run_cli(["bench", "--epsilons", "1/4,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --epsilons: 0 is not in (0, 1)\n"
    assert captured.out == ""


def test_bench_epsilon_out_of_range_names_the_option(tmp_path, capsys):
    path = tmp_path / "one.btp"
    path.write_text(ONE_BY_ONE)
    assert run_cli(["bench", str(path), "--epsilons", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --epsilons: 2 is not in (0, 1)\n"
    assert captured.out == ""


def test_bench_rise_bound_breach_exits_3_after_its_row(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gen.btp"
    path.write_text(serialize(generate(seed=4, n=3, m=3, density=1.0)))
    proven = cli.diagnostics
    monkeypatch.setattr(cli, "diagnostics",
                        lambda inst, eps: replace(proven(inst, eps), beta_rise_bound=1))
    # the second path is never run: the first breach ends the run
    assert run_cli(["bench", str(path), str(path)]) == 3
    captured = capsys.readouterr()
    header, row = captured.out.splitlines()
    assert header.split()[7:9] == ["beta_rises", "rise_bound"]
    rises, bound = map(int, row.split()[7:9])
    assert rises > bound == 1
    assert captured.err == f"error: {path}: beta rises {rises} exceed bound 1\n"


def test_bench_instance_without_a_profitable_edge(tmp_path, capsys):
    # no profitable edge: no price rises, so no bound to charge them against
    path = tmp_path / "zero.btp"
    path.write_text("p btp 1 1 1\ns 1 5\nt 1 10\ne 1 1 0 2\n")
    assert run_cli(["bench", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    cols = dict(zip(header.split(), row.split()))
    assert cols["rise_bound"] == "0"
    assert cols["ops_per_rise_ok"] == "True"
    assert cols["gap"] == "vacuous"
    assert cols["pass"] == "True"


def test_solve_float_first_price_below_tolerance_terminates(tmp_path, capsys):
    # the first sink price, about 3e-10, is below float_tol and still a price
    inst = Path(__file__).parent / "data" / "float_tiny_price.btp"
    out = tmp_path / "out.sol"
    args = ["solve", str(inst), "--mode", "float", "--epsilon", "1/8",
            "--max-phases", "1000", "-o", str(out)]
    assert run_cli(args) == 0
    assert "status terminated\n" in out.read_text()


def cli_process(*args):
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.Popen([sys.executable, "-m", "budget_flow.cli", *args],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("command", ["bench", "generate"])
def test_closed_stdout_stops_silently_with_141(tmp_path, command):
    # the reader goes before the first write, as `| head -1` does to a command
    # whose first line is late: bench writes a few lines, which reach the pipe
    # at the closing flush; generate writes a 200x200 instance of about 500 kB
    # in one call
    inst = tmp_path / "inst.btp"
    inst.write_text(ONE_BY_ONE)
    args = {"bench": ["bench", str(inst)],
            "generate": ["generate", "--seed", "1", "--n", "200", "--m", "200",
                         "--density", "1.0"]}[command]
    proc = cli_process(*args)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""  # no `error:` line, no traceback, no failed flush at exit


def test_unreadable_input_file_still_exits_2(tmp_path, capsys):
    assert run_cli(["solve", str(tmp_path / "missing.btp")]) == 2
    assert run_cli(["solve", str(tmp_path)]) == 2  # a directory
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_cli_entry_point_installed():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "budget_flow.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "budget-flow" in result.stdout


DATA = Path(__file__).parent / "data"
# `verify`'s stdout on each instance's own `solve --epsilon 1/8` output
VERIFIED = {
    "float_cs_source_dust": (
        "primal_feasible True\ndual_feasible True\ncs_source_worst 1.3098691005304406e-10\n"
        "cs_sink_worst 5.0008001718427305e-15\ncs_edge_worst 0.0\ncs_flow_worst_excess 0.0\n"
        "gap 0.011281651274930108\nverdict pass\n"
    ),
    "float_dust_cycle": (
        "primal_feasible True\ndual_feasible True\ncs_source_worst 1.0259605196708983e-14\n"
        "cs_sink_worst 2.4358805313286393e-15\ncs_edge_worst 0.0\ncs_flow_worst_excess 0.0\n"
        "gap 0.007636022886572391\nverdict pass\n"
    ),
    "float_tiny_price": (
        "primal_feasible True\ndual_feasible True\ncs_source_worst 0.0\ncs_sink_worst 0.0\n"
        "cs_edge_worst 0.0\ncs_flow_worst_excess 0.0\ngap 0.0012199445274362986\n"
        "verdict pass\n"
    ),
    "pw-exact-21": (
        "primal_feasible True\ndual_feasible True\ncs_source_worst 0/1\ncs_sink_worst 0/1\n"
        "cs_edge_worst 0/1\ncs_flow_worst_excess 0/1\ngap "
        "10780615432266400019930428882004069369/858182824778636310443520433293497466880\n"
        "verdict pass\n"
    ),
}


def verify_case(tmp_path, name):
    """The instance file and its mode: a float data file, or the split
    instance of the golden piecewise case 21."""
    if name.startswith("float_"):
        return DATA / f"{name}.btp", "float"
    inst = tmp_path / "pw.bts"
    inst.write_text(serialize(_piecewise_split(21)))
    return inst, "exact"


@pytest.mark.parametrize("name", sorted(VERIFIED))
def test_solve_then_verify_prints_the_recorded_certificate(tmp_path, capsys, name):
    inst, mode = verify_case(tmp_path, name)
    sol = tmp_path / "out.sol"
    args = ["solve", str(inst), "--mode", mode, "--epsilon", "1/8", "--max-phases", "20000"]
    assert run_cli(args + ["-o", str(sol)]) == 0
    capsys.readouterr()
    assert run_cli(["verify", str(inst), str(sol)]) == 0
    assert capsys.readouterr().out == VERIFIED[name]

    # one damaged flow value is bad input: exit 2, one error line citing it
    lines = sol.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("flow "))
    tokens = lines[k].split()
    tokens[3] = "1/0"
    lines[k] = " ".join(tokens)
    sol.write_text("\n".join(lines) + "\n")
    assert run_cli(["verify", str(inst), str(sol)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line {k + 1}: bad rational '1/0'\n"
    assert captured.out == ""


def readme_cli_lines():
    """The `budget-flow` lines of the README's `## CLI` block, comments stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("budget-flow ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "profile.pw").write_text(PIECEWISE)
    lines = readme_cli_lines()
    assert len(lines) >= 8
    for words in lines:
        assert run_cli(words[1:]) == 0, " ".join(words)
