import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from budget_flow.cli import MAX_EMPTY_DRAWS, main
from budget_flow.instance import generate, serialize

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
    args = ["generate", "--seed", "1", "--n", "2", "--m", "2", "--kind", "bts", option, value]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {option} must be <lo>:<hi> integers, not {value!r}\n"
    assert captured.out == ""


def test_reduce_piecewise_edge_count(tmp_path):
    src = tmp_path / "in.pw"
    src.write_text(PIECEWISE)
    out = tmp_path / "out.bts"
    assert run_cli(["reduce", "--piecewise", str(src), str(out)]) == 0
    text = out.read_text()
    assert text.startswith("p bts 1 2 4")  # two profiles of two segments
    assert "seg=1" in text and "seg=2" in text


def test_reduce_piecewise_map_back(tmp_path):
    src = tmp_path / "in.pw"
    src.write_text(PIECEWISE)
    reduced = tmp_path / "out.bts"
    run_cli(["reduce", "--piecewise", str(src), str(reduced)])
    sol = tmp_path / "split.sol"
    assert run_cli(["solve", str(reduced), "-o", str(sol)]) == 0
    mapped = tmp_path / "mapped.txt"
    assert run_cli(
        ["reduce", "--piecewise", str(src), str(mapped), "--map-back", str(sol)]
    ) == 0
    assert "primal" in mapped.read_text()


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
    assert run_cli(["reduce", "--piecewise", str(src), str(tmp_path / "out.bts")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1


def refuse_gflow(capsys, args, out):
    """`reduce --gflow` is no option: it exits 2 before any file is read and
    writes nothing; returns the error text."""
    with pytest.raises(SystemExit) as info:
        run_cli(["reduce", "--piecewise", "--gflow", *args])
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


def test_bench_deterministic_counters(tmp_path, capsys):
    args = [
        "bench",
        "--gen",
        "count=2,n=3,m=3,density=1.0,seed=4,kind=btp",
        "--epsilons",
        "1/2,1/4",
    ]
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
    # the rise bound column is never exceeded (hard assert inside bench)
    for line in first.splitlines()[1:]:
        cols = line.split()
        assert int(cols[7]) <= int(cols[8])


@pytest.mark.parametrize(
    "gen, reason",
    [
        ("n=0", "n and m must be positive"),
        ("density=0", "density must be in (0, 1]"),
        ("density=2", "density must be in (0, 1]"),
    ],
)
def test_bench_impossible_gen_parameters_exit_2(capsys, gen, reason):
    # no seed can satisfy these, so retrying on them would never end
    assert run_cli(["bench", "--gen", gen]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_bench_unknown_gen_kind_exit_2(capsys):
    # a typo must not silently run the btp family
    assert run_cli(["bench", "--gen", "count=1,kind=xyz"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --gen kind must be btp or bts, not 'xyz'\n"
    assert captured.out == ""


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_repeat_below_one_exits_2(capsys, repeat):
    assert run_cli(["bench", "--gen", "n=2,m=2,count=1", "--repeat", repeat]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --repeat must be at least 1, not {repeat}\n"
    assert captured.out == ""


def test_bench_gen_part_without_equals_exit_2(capsys):
    assert run_cli(["bench", "--gen", "n=2,count"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --gen part 'count' is not key=value\n"
    assert captured.out == ""


def test_bench_bad_epsilon_exits_before_the_header(capsys):
    assert run_cli(["bench", "--gen", "n=2,m=2,count=1", "--epsilons", "1/4,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --epsilons: 0 is not in (0, 1)\n"
    assert captured.out == ""


def test_bench_epsilon_out_of_range_names_the_option(capsys):
    assert run_cli(["bench", "--gen", "n=2,m=2,count=1", "--epsilons", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --epsilons: 2 is not in (0, 1)\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "gen, message",
    [
        ("count=x", "--gen count must be an integer, not 'x'"),
        ("n=2,m=1.5", "--gen m must be an integer, not '1.5'"),
        ("density=abc", "--gen density must be a number, not 'abc'"),
    ],
)
def test_bench_gen_bad_number_names_the_key(capsys, gen, message):
    assert run_cli(["bench", "--gen", gen]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_bench_gives_up_on_empty_samples(capsys):
    # a legal but tiny density draws empty edge sets seed after seed
    started = time.perf_counter()
    assert run_cli(["bench", "--gen", "n=1,m=1,density=1e-12"]) == 2
    assert time.perf_counter() - started < 10
    err = capsys.readouterr().err
    assert err == f"error: --gen drew {MAX_EMPTY_DRAWS} empty samples in a row; raise density\n"


def test_solve_float_first_price_below_tolerance_terminates(tmp_path, capsys):
    # the first sink price, about 3e-10, is below float_tol and still a price
    inst = Path(__file__).parent / "data" / "float_tiny_price.btp"
    out = tmp_path / "out.sol"
    args = ["solve", str(inst), "--mode", "float", "--epsilon", "1/8",
            "--max-phases", "1000", "-o", str(out)]
    assert run_cli(args) == 0
    assert "status terminated\n" in out.read_text()


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
