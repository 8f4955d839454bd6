"""Shared builders: tiny instances, synthetic cycle states, reference simulators."""

from __future__ import annotations

import contextlib
import random
import shutil
import signal
import tempfile
import time
from fractions import Fraction

import pytest

from budget_flow.derived_graph import DerivedGraph
from budget_flow.instance import (
    EdgeSpec,
    InstanceValidationError,
    Kind,
    ProblemInstance,
    SolverConfig,
)
from budget_flow.state import ExactNumerics, PrimalState, make_states

# A phase cap for test solves: the runs here take at most a few hundred phases
# on instances whose rise bounds are at most a few hundred, so a run that
# cannot end fails its `terminated` check instead of hanging the suite.
PHASE_CAP = 20_000


def pytest_configure(config):
    """Hypothesis caches constants read from the package's source under its home
    directory, `.hypothesis/` in the working directory unless set, while tests
    are collected; give it a temporary home so the suite writes nothing there."""
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # without hypothesis only the property-test modules fail
        return
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


# Every test runs under this limit (`_test_time_limit`); the slowest takes a
# few seconds, so a test that reaches it fails instead of hanging the suite.
TEST_TIME_LIMIT = 60


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Fail the test when the body runs longer than `seconds`, through
    `SIGALRM` from `signal.setitimer`, so only in the main thread.  Inside
    another limit it restores the outer timer's remaining time on exit, and
    an outer limit that ends first stays in force with its own message.  It
    ends a loop between bytecodes, not one long operation on huge ints."""
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    if outer and outer <= seconds:
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"time limit of {seconds} s exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    started = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:  # an expired outer limit fires at once
            signal.setitimer(signal.ITIMER_REAL,
                             max(outer - (time.monotonic() - started), 1e-6))


@pytest.fixture(autouse=True)
def _test_time_limit():
    with _time_limit(TEST_TIME_LIMIT):
        yield


@pytest.fixture
def time_limit():
    """`with time_limit(seconds):` fails the test when its body runs longer.

    `PHASE_CAP` bounds a solve, not a loop inside one kernel call; this ends
    any loop that never ends, within the test's own `TEST_TIME_LIMIT`.
    """
    return _time_limit


def btp(supply, budget, edges) -> ProblemInstance:
    return ProblemInstance.from_edges(
        kind=Kind.BTP,
        supply=tuple(supply),
        budget=tuple(budget),
        edges=tuple(EdgeSpec(*e) for e in edges),
    )


def bts(supply, budget, edges) -> ProblemInstance:
    return ProblemInstance.from_edges(
        kind=Kind.BTS,
        supply=tuple(supply),
        budget=tuple(budget),
        edges=tuple(EdgeSpec(*e) for e in edges),
    )


def violations(build) -> list[str]:
    """The ordered violation list of the InstanceValidationError `build()` raises."""
    with pytest.raises(InstanceValidationError) as info:
        build()
    return info.value.violations


@pytest.fixture
def one_by_one() -> ProblemInstance:
    # single edge: supply 5, budget 10, profit 3, price 2
    return btp([5], [10], [(0, 0, 3, 2)])


@pytest.fixture
def two_sources_one_sink() -> ProblemInstance:
    # optimum 25 at flow (0, 5)
    return btp([10, 10], [10], [(0, 0, 2, 1), (1, 0, 5, 2)])


class FractionPrimal(PrimalState):
    """`PrimalState` with its float rules run on Fractions: every quantity a
    plain Fraction and every limit divided, with no shared denominator.  The
    same push on it and on the exact state must give the same values."""

    number = Fraction

    def __init__(self, instance: ProblemInstance):
        super().__init__(instance, ExactNumerics())


def build_cycle_state(prices_fwd, prices_back, back_flows, surplus, caps_fwd=None,
                      fractions=False):
    """Synthetic alternating cycle: k sources, k sinks, fwd[z]=(i_z,j_z), back[z]=(i_{z+1},j_z).

    Returns (instance, primal, dual, graph, stats, cycle), where cycle is
    [fwd[0], back[0], fwd[1], back[1], ...].  Supplies and budgets are large
    so only edge capacities and back-edge flows bind.  With `fractions` the
    primal state is a `FractionPrimal`.
    """
    k = len(prices_fwd)
    caps_fwd = caps_fwd or [None] * k
    edges = []
    cycle = []
    for z in range(k):
        fwd_idx = len(edges)
        edges.append(EdgeSpec(z, z, 10**6, prices_fwd[z], capacity=caps_fwd[z]))
        back_idx = len(edges)
        edges.append(EdgeSpec((z + 1) % k, z, 10**6, prices_back[z], capacity=None))
        cycle += [fwd_idx, back_idx]
    instance = ProblemInstance.from_edges(
        kind=Kind.BTS,
        supply=tuple([10**9] * k),
        budget=tuple([10**9] * k),
        edges=tuple(edges),
    )
    primal, dual, num = make_states(instance, SolverConfig(epsilon=Fraction(1, 4)))
    if fractions:
        primal = FractionPrimal(instance)
    graph = DerivedGraph(instance, primal, dual)
    for z in range(k):
        # assigned before sink z had a price, so the rise leaves it stale
        move(graph, cycle[2 * z + 1], back_flows[z])
        graph.raise_beta(z, Fraction(1))
    # the entry source's surplus is set to the requested value
    primal.surplus[0] = primal.units(Fraction(surplus))
    return instance, primal, dual, graph, graph.stats, cycle


def move(graph, e: int, amount) -> int:
    """`graph.move_flow` of an exact number, an int, Fraction or `Ratio`,
    converted to the primal state's units."""
    amount = Fraction(amount.numerator, amount.denominator)
    return graph.move_flow(e, graph.primal.units(amount))


def values(state, name: str) -> list:
    """A state's stored list `name` (flow, surplus, residual, alpha or beta) as numbers."""
    return [state.value(x) for x in getattr(state, name)]


def recompute_check(primal) -> bool:
    """Surpluses and residuals match their defining sums (an invariant monitor),
    read as numbers through the state's accessor."""
    instance, num = primal.instance, primal.num
    flow, surplus, residual = (values(primal, name) for name in ("flow", "surplus", "residual"))
    for i in range(instance.n):
        out = sum(flow[e] for e in instance.edges_of_source(i))
        if not num.eq(surplus[i], num.value(instance.supply[i]) - out):
            return False
    for j in range(instance.m):
        paid = sum(flow[e] * instance.edges[e].price for e in instance.edges_of_sink(j))
        if not num.eq(residual[j], num.value(instance.budget[j]) - paid):
            return False
    return True


def simulate_revolutions(instance, flows, cycle, surplus, revolutions):
    """Reference cycle push: move flow edge by edge, one revolution at a time.

    No clamping; the caller guarantees the revolution count is admissible.
    Returns (flows after, carry arriving back at the entry source).
    """
    out = list(flows)
    carry = Fraction(surplus)
    for _ in range(revolutions):
        x = carry
        for fwd, back in zip(cycle[::2], cycle[1::2]):
            out[fwd] += x
            x = x * instance.edges[fwd].price / instance.edges[back].price
            out[back] -= x
        carry = x
    return out, carry


def random_cycle_args(rng: random.Random) -> tuple:
    """Random `build_cycle_state` arguments with 2..4 (forward, back) edge pairs."""
    k = rng.randint(2, 4)
    prices_fwd = [rng.randint(1, 6) for _ in range(k)]
    prices_back = [rng.randint(1, 6) for _ in range(k)]
    back_flows = [Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(k)]
    surplus = Fraction(rng.randint(1, 30), rng.randint(1, 3))
    caps_fwd = [
        rng.randint(1, 60) if rng.random() < 0.5 else None for _ in range(k)
    ]
    return prices_fwd, prices_back, back_flows, surplus, caps_fwd


def random_simple_cycle(rng: random.Random, fractions: bool = False):
    """Random synthetic cycle state with 2..4 (forward, back) edge pairs."""
    return build_cycle_state(*random_cycle_args(rng), fractions=fractions)
