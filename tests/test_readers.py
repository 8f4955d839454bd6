"""The line-record readers' contract, pinned record by record.

For one damaged record per branch of the instance reader (`parse`) and the
solution reader (`parse_solution`), the exact message and the line it cites.
`rational` is checked against `reference_rational`, a copy of the earlier
reader that handed every token other than `p/q` to `Fraction`: the two must
agree on every token, in value and type or in the error they raise.  Last,
writer and reader round-trip on inputs of the benchmark's shapes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from budget_flow.cli import parse_solution, solution_to_text
from budget_flow.instance import (
    InstanceFormatError,
    InstanceValidationError,
    SolverConfig,
    generate,
    parse,
    rational,
    serialize,
)
from budget_flow.solver import solve
from conftest import PHASE_CAP
from test_golden import _piecewise_split

BTP = "p btp 2 2 3\ns 1 5\ns 2 4\nt 1 10\nt 2 6\ne 1 1 3 2\ne 1 2 4 1\ne 2 2 5 3\n"
BTS = "p bts 2 2 3\ns 1 5\ns 2 4\nt 1 10\nt 2 6\ne 1 1 3 2 4\ne 1 2 4 1\ne 2 2 5 3 2 seg=1\n"


def damaged(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


# (text, cited line, reason); each damages one record of BTP or BTS
INSTANCE_FAULTS = [
    ("", 1, "empty input: missing header 'p <btp|bts> <n> <m> <E>'"),
    ("# only a comment\n", 1, "empty input: missing header 'p <btp|bts> <n> <m> <E>'"),
    ("q btp 2 2 3\n", 1, "header needs: p <btp|bts> <n> <m> <E>"),
    ("p btp 2 2\n", 1, "header needs: p <btp|bts> <n> <m> <E>"),
    ("p btp 2 2 3 4\n", 1, "header needs: p <btp|bts> <n> <m> <E>"),
    ("p xyz 2 2 3\n", 1, "expected <btp|bts>, got 'xyz'"),
    ("p btp x 2 3\n", 1, "bad integer 'x'"),
    ("\np btp 9 2 3\ns 1 5\n", 2, "header declares 9 sources and 2 sinks in 1 records"),
    # a non-integer in each edge field
    (damaged(BTP, "e 1 1 3 2", "e x 1 3 2"), 6, "bad integer 'x'"),
    (damaged(BTP, "e 1 1 3 2", "e 1 x 3 2"), 6, "bad integer 'x'"),
    (damaged(BTP, "e 1 1 3 2", "e 1 1 x 2"), 6, "bad integer 'x'"),
    (damaged(BTP, "e 1 1 3 2", "e 1 1 3 x"), 6, "bad integer 'x'"),
    (damaged(BTS, "e 1 1 3 2 4", "e 1 1 3 2 x"), 6, "bad integer 'x'"),
    (damaged(BTS, "e 1 1 3 2 4", "e 1 1 3 2 1.5"), 6, "bad integer '1.5'"),
    (damaged(BTP, "e 1 1 3 2", "e 1 1 3/1 2"), 6, "bad integer '3/1'"),
    (damaged(BTP, "e 1 1 3 2", "e 1 1 3 x\ne y 1 3 2"), 6, "bad integer 'x'"),
    (damaged(BTP, "e 1 1 3 2", "e 1 2 x y"), 6, "bad integer 'x'"),
    # 4 and 7 fields, the tag included; seg= is read before the count
    (damaged(BTP, "e 1 1 3 2", "e 1 1 3"), 6, "edge needs: e <i> <j> <c> <p> [<u>]"),
    (damaged(BTS, "e 1 1 3 2 4", "e 1 1 3 2 4 5"), 6, "edge needs: e <i> <j> <c> <p> [<u>]"),
    (damaged(BTS, "e 1 1 3 2 4", "e 1 1 3 2 4 seg=1 seg=2"), 6,
     "edge needs: e <i> <j> <c> <p> [<u>]"),
    (damaged(BTS, "e 1 1 3 2 4", "e 1 1 3 seg=1"), 6, "edge needs: e <i> <j> <c> <p> [<u>]"),
    (damaged(BTS, "e 1 1 3 2 4", "e"), 6, "edge needs: e <i> <j> <c> <p> [<u>]"),
    (damaged(BTS, "e 1 1 3 2 4", "e x y"), 6, "edge needs: e <i> <j> <c> <p> [<u>]"),
    # a capacity on btp, checked before the fields are read
    (damaged(BTP, "e 1 1 3 2", "e 1 1 3 2 4"), 6, "capacity field not allowed on btp instances"),
    (damaged(BTP, "e 1 1 3 2", "e x 1 3 2 4"), 6, "capacity field not allowed on btp instances"),
    # a bad seg=, read first
    (damaged(BTS, "seg=1", "seg=x"), 8, "bad integer 'x'"),
    (damaged(BTS, "seg=1", "seg="), 8, "bad integer ''"),
    (damaged(BTS, "seg=1", "seg=1.0"), 8, "bad integer '1.0'"),
    (damaged(BTS, "e 1 1 3 2 4", "e x 1 3 2 4 seg=y"), 6, "bad integer 'y'"),
    (damaged(BTS, "e 1 1 3 2 4", "e 1 1 3 2 4 seg=1 x"), 6,
     "edge needs: e <i> <j> <c> <p> [<u>]"),
    # s and t records
    (damaged(BTP, "s 2 4", "s 1 4"), 3, "duplicate s line for source 1"),
    (damaged(BTP, "s 2 4", "s 3 4"), 3, "source index 3 out of range 1..2"),
    (damaged(BTP, "s 2 4", "s 0 4"), 3, "source index 0 out of range 1..2"),
    (damaged(BTP, "s 2 4", "s 2"), 3, "expected: s <source> <value>"),
    (damaged(BTP, "s 2 4", "s 2 4 4"), 3, "expected: s <source> <value>"),
    (damaged(BTP, "s 2 4", "s 2 x"), 3, "bad integer 'x'"),
    (damaged(BTP, "s 2 4", "s y 4"), 3, "bad integer 'y'"),
    (damaged(BTP, "s 2 4", "s y x"), 3, "bad integer 'y'"),
    (damaged(BTP, "s 2 4", "s 3 x"), 3, "source index 3 out of range 1..2"),
    (damaged(BTP, "s 2 4", "s 1 x"), 3, "duplicate s line for source 1"),
    (damaged(BTP, "t 2 6", "t 1 6"), 5, "duplicate t line for sink 1"),
    (damaged(BTP, "t 2 6", "t 3 6"), 5, "sink index 3 out of range 1..2"),
    (damaged(BTP, "t 2 6", "t -1 6"), 5, "sink index -1 out of range 1..2"),
    (damaged(BTP, "t 2 6", "t 2 6 7"), 5, "expected: t <sink> <value>"),
    (damaged(BTP, "t 2 6", "t 2 1/2"), 5, "bad integer '1/2'"),
    (damaged(BTP, "s 2 4\n", "x 2 4\n"), 3, "unknown record 'x'"),
    (damaged(BTP, "s 2 4\n", "S 2 4\n"), 3, "unknown record 'S'"),
    # counts the header declares, cited at the header
    (damaged(BTP, "s 2 4\n", "# s 2 4\n"), 1, "missing line for source 2"),
    (damaged(BTP, "t 1 10\n", ""), 1, "missing line for sink 1"),
    (damaged(BTP, "p btp 2 2 3", "p btp 2 2 4"), 1, "header declares 4 edges, found 3"),
    (damaged(BTP, "p btp 2 2 3", "p btp 2 2 2"), 1, "header declares 2 edges, found 3"),
    (damaged(BTP, "p btp 2 2 3", "# c\np btp 2 2 2"), 2, "header declares 2 edges, found 3"),
    # a fault on an earlier line is the one reported
    (damaged(BTP, "s 2 4\nt 1 10", "s 2 x\nt 1 y"), 3, "bad integer 'x'"),
]


@pytest.mark.parametrize("text, line, reason", INSTANCE_FAULTS, ids=[
    f"{k:02d}-{reason}" for k, (_, _, reason) in enumerate(INSTANCE_FAULTS)])
def test_instance_reader_cites_the_damaged_line(text, line, reason):
    with pytest.raises(InstanceFormatError) as info:
        parse(text)
    assert (info.value.line_no, info.value.reason) == (line, reason)
    assert str(info.value) == f"line {line}: {reason}"


@pytest.mark.parametrize(
    "text, violations",
    [
        (damaged(BTP, "e 1 1 3 2", "e 1 1 3 0"), ["edge 1 (1,1): zero price"]),
        (damaged(BTP, "e 1 2 4 1", "e 1 1 4 1"), ["edge 2 (1,1): duplicate edge"]),
        (damaged(BTS, "e 1 2 4 1", "e 1 3 -4 1 0"), [
            "edge 2 (1,3): dangling sink index",
            "edge 2 (1,3): negative profit",
            "edge 2 (1,3): non-positive capacity",
        ]),
        (damaged(BTP, "s 2 4", "s 2 0"), ["non-positive supply at source 2"]),
        (damaged(BTS, "e 1 2 4 1", "e 2 2 4 1 3 seg=1"), ["edge 3 (2,2): duplicate edge"]),
        (damaged(BTS, "e 1 2 4 1", "e 2 2 4 1 3 seg=2"), []),
    ],
)
def test_instance_reader_validates_what_it_read(text, violations):
    if not violations:
        parse(text)
        return
    with pytest.raises(InstanceValidationError) as info:
        parse(text)
    assert info.value.violations == violations


@pytest.mark.parametrize(
    "text",
    [
        damaged(BTP, "e 1 1 3 2", "  e\t1 1 3 2   # a comment"),
        damaged(BTP, "e 1 1 3 2", "e +1 01 3_0 2"),
        damaged(BTP, "e 1 1 3 2", "e 1 1 ٣ 2"),
        damaged(BTP, "\n", "\n\n# comment\n"),
        BTP.replace("\n", "\r\n"),
    ],
)
def test_instance_reader_takes_what_int_takes(text):
    # fields are Python int literals: signs, leading zeros, underscores and
    # Unicode digits are accepted as before
    inst = parse(text)
    assert (inst.edges[0].src, inst.edges[0].dst) == (0, 0)
    assert inst.edges[0].profit in (3, 30)


SOLUTION_INSTANCE = BTS
SOLUTION = """solution bts 2 2 3
epsilon 1/4
mode exact
status terminated
flow 1 1 4/1
flow 2 2 2/1 seg=1
alpha 1 1/2
alpha 2 0/1
beta 1 1/1
beta 2 1/1
gamma 1 1 1/2
gamma 2 2 1/3 seg=1
primal 22/1
dual 25/1
gap 3/22
cert passed true
cert violation anything at all
stat phases 3
"""

# (old, new, cited line, reason); the line is that of `new`'s last line
SOLUTION_FAULTS = [
    ("flow 1 1 4/1", "flow 1 1", 5, "expected: flow <i> <j> <value> [seg=<k>]"),
    ("flow 1 1 4/1", "flow 1 1 4/1 5", 5, "expected: flow <i> <j> <value> [seg=<k>]"),
    ("flow 1 1 4/1", "flow x 1 4/1", 5, "bad integer 'x'"),
    ("flow 1 1 4/1", "flow 1 x 4/1", 5, "bad integer 'x'"),
    ("flow 1 1 4/1", "flow 1 1 4/0", 5, "bad rational '4/0'"),
    ("flow 1 1 4/1", "flow 1 1 x", 5, "bad rational 'x'"),
    ("flow 1 1 4/1", "flow 1 1 1e99999", 5, "bad rational '1e99999'"),
    ("flow 1 1 4/1", "flow 2 1 4/1", 5, "flow on edge (2,1) not in instance"),
    ("flow 1 1 4/1", "flow 0 1 4/1", 5, "flow on edge (0,1) not in instance"),
    ("flow 1 1 4/1", "flow 3 1 x", 5, "flow on edge (3,1) not in instance"),
    ("flow 1 1 4/1", "flow 1 1 4/1 seg=1", 5, "flow on edge (1,1) not in instance"),
    ("flow 1 1 4/1", "flow 1 1 4/1\nflow 1 1 3/1", 6, "duplicate flow line for edge (1,1)"),
    ("flow 1 1 4/1", "flow 1 1 0\nflow 1 1 x", 6, "duplicate flow line for edge (1,1)"),
    ("flow 2 2 2/1 seg=1", "flow 2 2 2/1 seg=x", 6, "bad integer 'x'"),
    ("flow 2 2 2/1 seg=1", "flow 2 2 x seg=y", 6, "bad integer 'y'"),
    ("flow 2 2 2/1 seg=1", "flow 2 2 2/1 seg=2", 6, "flow on edge (2,2) not in instance"),
    ("flow 2 2 2/1 seg=1", "flow 2 2 2/1", 6, "flow on edge (2,2) not in instance"),
    ("alpha 2 0/1", "alpha 3 0/1", 8, "source index 3 out of range 1..2"),
    ("alpha 2 0/1", "alpha 0 0/1", 8, "source index 0 out of range 1..2"),
    ("alpha 2 0/1", "alpha 1 0/1", 8, "duplicate alpha line for source 1"),
    ("alpha 2 0/1", "alpha 2", 8, "expected: alpha <source> <value>"),
    ("alpha 2 0/1", "alpha 2 0/1 1", 8, "expected: alpha <source> <value>"),
    ("alpha 2 0/1", "alpha 2 x", 8, "bad rational 'x'"),
    ("alpha 2 0/1", "alpha 2 1/0", 8, "bad rational '1/0'"),
    ("alpha 2 0/1", "alpha x 0/1", 8, "bad integer 'x'"),
    ("beta 2 1/1", "beta 3 1/1", 10, "sink index 3 out of range 1..2"),
    ("beta 2 1/1", "beta 1 1/1", 10, "duplicate beta line for sink 1"),
    ("beta 2 1/1", "beta 2 .", 10, "bad rational '.'"),
    ("beta 2 1/1", "beta 2 1.5.0", 10, "bad rational '1.5.0'"),
    ("beta 2 1/1", "beta 2 nan", 10, "bad rational 'nan'"),
    ("epsilon 1/4", "epsilon", 2, "expected: epsilon <value>"),
    ("epsilon 1/4", "epsilon 1/4 1/8", 2, "expected: epsilon <value>"),
    ("epsilon 1/4", "epsilon x", 2, "bad rational 'x'"),
    ("epsilon 1/4", "epsilon 1", 2, "epsilon 1 is not in (0, 1)"),
    ("epsilon 1/4", "epsilon 0.0", 2, "epsilon 0.0 is not in (0, 1)"),
    ("mode exact", "mode", 3, "expected: mode <exact|float>"),
    ("mode exact", "mode fast", 3, "expected <exact|float>, got 'fast'"),
    ("solution bts 2 2 3", "# c\n\nsolution bts 2 2 3\nflow 1 1 x", 4, "bad rational 'x'"),
]


@pytest.mark.parametrize("old, new, line, reason", SOLUTION_FAULTS, ids=[
    f"{k:02d}-{reason}" for k, (_, _, _, reason) in enumerate(SOLUTION_FAULTS)])
def test_solution_reader_cites_the_damaged_line(old, new, line, reason):
    with pytest.raises(InstanceFormatError) as info:
        parse_solution(damaged(SOLUTION, old, new), parse(SOLUTION_INSTANCE))
    assert (info.value.line_no, info.value.reason) == (line, reason)


def test_solution_reader_reads_only_its_five_records():
    inst = parse(SOLUTION_INSTANCE)
    flow, alpha, beta, epsilon, mode = parse_solution(SOLUTION, inst)
    assert (flow, alpha, beta, epsilon, mode) == (
        [4, 0, 2], [Fraction(1, 2), 0], [1, 1], Fraction(1, 4), "exact")
    assert all(type(x) is Fraction for x in flow + alpha + beta)
    # any other record, however malformed, is not read
    junk = "".join(f"{tag} x y z\n{tag}\n" for tag in (
        "gamma", "primal", "dual", "gap", "cert", "stat", "solution", "status", "flows", "alphax"))
    assert parse_solution(junk + SOLUTION + junk, inst) == (flow, alpha, beta, epsilon, mode)


@pytest.mark.parametrize(
    "records, flow, alpha, beta, epsilon, mode",
    [
        ("", [0, 0, 0], [0, 0], [0, 0], None, "exact"),
        ("  flow\t1 1 2.5 # c\nmode float\nmode exact\n", [Fraction(5, 2), 0, 0], [0, 0], [0, 0],
         None, "exact"),
        ("flow 2 2 -0.0 seg=1\nalpha 2 1e-3\nbeta 1 .5\nepsilon 0.125\n",
         [0, 0, 0], [0, Fraction(1, 1000)], [Fraction(1, 2), 0], Fraction(1, 8), "exact"),
        ("beta 2 5.\nbeta 1 1.5_0\nalpha 1 -7\n#flow 1 1 x\nflow#\n", None, None, None, None,
         None),
    ],
)
def test_solution_reader_values(records, flow, alpha, beta, epsilon, mode):
    inst = parse(SOLUTION_INSTANCE)
    if flow is None:  # `flow#` is a flow record with no fields
        with pytest.raises(InstanceFormatError) as info:
            parse_solution(records, inst)
        assert (info.value.line_no, info.value.reason) == (
            5, "expected: flow <i> <j> <value> [seg=<k>]")
        assert parse_solution(records[: records.index("flow#")], inst)[1:3] == (
            [-7, 0], [Fraction(3, 2), 5])
        return
    got = parse_solution(records, inst)
    assert got == (flow, alpha, beta, epsilon, mode)


# -- rational against the earlier, Fraction-only reader ------------------------


def reference_rational(line_no: int, token: str) -> Fraction:
    """The rational reader as it was: only `p/q` skipped Fraction's string parser."""
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        if "e" in token or "E" in token:  # Fraction computes 10**exponent exactly
            if len(token.lower().partition("e")[2].lstrip("+-")) > 4:
                raise ValueError
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InstanceFormatError(line_no, f"bad rational {token!r}") from None


def outcome(read, token: str):
    try:
        value = read(7, token)
    except InstanceFormatError as exc:
        return "error", exc.line_no, exc.reason
    return "value", type(value), value


signs = st.sampled_from(["", "-", "+", "--", "-+"])
# ASCII digits, Arabic-Indic and fullwidth digits, and a superscript that is no decimal digit
digit_runs = st.text(alphabet="0123456789١٣５²_", max_size=5)
exponents = st.one_of(
    st.just(""),
    st.tuples(st.sampled_from(["e", "E"]), signs, st.text(alphabet="0123456789_", min_size=1,
                                                          max_size=5)).map("".join),
)
decimals = st.tuples(signs, digit_runs, st.sampled_from(["", ".", ".."]), digit_runs,
                     exponents).map("".join)
ratios = st.tuples(signs, digit_runs, st.just("/"), signs,
                   st.one_of(digit_runs, st.sampled_from(["0", "00", "0_0"]))).map("".join)
junk = st.text(alphabet="0123456789-+._/eE ٣x", max_size=8)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(token=st.one_of(decimals, ratios, junk))
@example(".5")
@example("5.")
@example("1.5_0")
@example("-0.0")
@example("-0")
@example("+0.5")
@example("0.")
@example("-.5")
@example("007.2500")
@example("12345678901234567890.98765432109876543210")
@example("١.٥")
@example("1/0")
@example("-3/0")
@example("0/0")
@example("1e9999")
@example("1e10000")
@example("1E-05")
@example("1.5e+3")
@example("")
@example("-")
@example(".")
@example("1 ")
def test_rational_matches_the_earlier_reader(token):
    assert outcome(rational, token) == outcome(reference_rational, token)


# -- round trips on the benchmark's input shapes --------------------------------


POOL = [
    *(generate(seed=100 + k, n=12, m=12, density=0.7, u_range=(1, 8) if k % 2 else None)
      for k in range(16)),
    *(_piecewise_split(200 + k) for k in range(8)),  # split 8x8 profiles
]


@pytest.mark.parametrize("k", range(len(POOL)))
def test_instance_round_trips(k):
    inst = POOL[k]
    assert parse(serialize(inst)) == inst


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("k", range(len(POOL)))
def test_solution_round_trips(k, mode):
    inst = POOL[k]
    config = SolverConfig(epsilon=Fraction(1, 8), numeric_mode=mode, max_phases=PHASE_CAP)
    sol = solve(inst, config)
    flow, alpha, beta, epsilon, read_mode = parse_solution(solution_to_text(sol), inst)
    assert (epsilon, read_mode) == (config.epsilon, mode)
    for got, want in ((flow, sol.flow), (alpha, sol.alpha), (beta, sol.beta)):
        assert all(type(x) is Fraction for x in got)
        if mode == "exact":
            assert got == list(want)
        else:
            assert [float(x) for x in got] == list(want)
