import subprocess
import sys

import pytest

from budget_flow.cli import main
from budget_flow.instance import generate, serialize

ONE_BY_ONE = "p btp 1 1 1\ns 1 5\nt 1 10\ne 1 1 3 2\n"
BTS_BINDING = "p bts 1 1 1\ns 1 5\nt 1 10\ne 1 1 3 2 3\n"
PIECEWISE = "p pw 1 2 2\ns 1 6\nt 1 50\nt 2 40\ne 1 1 3 pw 2 5 3\ne 1 2 2 pw 2 4 1\n"
GFLOW = "g 2 1\na 1 2 4 10 1/2\nsrc 1 2\nsnk 2 1\n"


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


@pytest.mark.parametrize(
    "text, line",
    [
        ("g 2 1\na 1 2 4 10 1/2\nsrc 1\nsnk 2 1\n", 3),
        ("g 2 1\na 1 x 4 10 1/2\nsrc 1 2\nsnk 2 1\n", 2),
    ],
)
def test_reduce_gflow_malformed_exits_2(tmp_path, capsys, text, line):
    src = tmp_path / "in.gfl"
    src.write_text(text)
    assert run_cli(["reduce", "--gflow", str(src), str(tmp_path / "out.mc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1


def test_reduce_gflow_counts(tmp_path):
    src = tmp_path / "in.gfl"
    src.write_text(GFLOW)
    out = tmp_path / "out.mc"
    assert run_cli(["reduce", "--gflow", str(src), str(out)]) == 0
    header = out.read_text().splitlines()[0]
    # |V| sources and |A|+1 sinks
    assert header == "p mincost 2 2 3 min"


@pytest.mark.parametrize("mode, rigorous", [("exact", "true"), ("float", "false")])
def test_baseline_certificate_follows_mode(tmp_path, capsys, mode, rigorous):
    # float flows are checked within the float tolerance and never stamped rigorous
    inst = tmp_path / "inst.btp"
    inst.write_text(serialize(generate(seed=0, n=4, m=4, density=0.8)))
    out = tmp_path / "out.sol"
    args = ["solve", str(inst), "--baseline", "--mode", mode, "--epsilon", "1/8", "-o", str(out)]
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


def test_cli_entry_point_installed():
    result = subprocess.run(
        [sys.executable, "-m", "budget_flow.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "budget-flow" in result.stdout
