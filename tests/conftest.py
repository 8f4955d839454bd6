"""Shared builders: tiny instances, synthetic cycle states, reference simulators."""

from __future__ import annotations

import random
import shutil
import tempfile
from fractions import Fraction

import pytest

from budget_flow.derived_graph import DerivedGraph
from budget_flow.instance import EdgeSpec, Kind, ProblemInstance, SolverConfig
from budget_flow.solver import RunStats
from budget_flow.state import make_states


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


def btp(supply, budget, edges) -> ProblemInstance:
    return ProblemInstance(
        kind=Kind.BTP,
        supply=tuple(supply),
        budget=tuple(budget),
        edges=tuple(EdgeSpec(*e) for e in edges),
    )


def bts(supply, budget, edges) -> ProblemInstance:
    return ProblemInstance(
        kind=Kind.BTS,
        supply=tuple(supply),
        budget=tuple(budget),
        edges=tuple(EdgeSpec(*e) for e in edges),
    )


@pytest.fixture
def one_by_one() -> ProblemInstance:
    # single edge: supply 5, budget 10, profit 3, price 2
    return btp([5], [10], [(0, 0, 3, 2)])


@pytest.fixture
def two_sources_one_sink() -> ProblemInstance:
    # optimum 25 at flow (0, 5)
    return btp([10, 10], [10], [(0, 0, 2, 1), (1, 0, 5, 2)])


def build_cycle_state(prices_fwd, prices_back, back_flows, surplus, caps_fwd=None):
    """Synthetic alternating cycle: k sources, k sinks, fwd[z]=(i_z,j_z), back[z]=(i_{z+1},j_z).

    Returns (instance, primal, dual, graph, stats, cycle), where cycle is
    [fwd[0], back[0], fwd[1], back[1], ...].  Supplies and budgets are large
    so only edge capacities and back-edge flows bind.
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
    instance = ProblemInstance(
        kind=Kind.BTS,
        supply=tuple([10**9] * k),
        budget=tuple([10**9] * k),
        edges=tuple(edges),
    )
    primal, dual, num = make_states(instance, SolverConfig(epsilon=Fraction(1, 4)))
    stats = RunStats()
    graph = DerivedGraph(instance, primal, dual, stats)
    for z in range(k):
        # assigned before sink z had a price, so the rise leaves it stale
        graph.move_flow(cycle[2 * z + 1], Fraction(back_flows[z]), revalue=True)
        graph.raise_beta(z, Fraction(1))
    # entry surplus is whatever remains at source 0 minus the requested value
    entry = 0
    primal.surplus[entry] = Fraction(surplus)
    return instance, primal, dual, graph, stats, cycle


def recompute_check(primal) -> bool:
    """Surpluses and residuals match their defining sums (an invariant monitor)."""
    instance, num = primal.instance, primal.num
    for i in range(instance.n):
        out = sum(primal.flow[e] for e in instance.edges_of_source(i))
        if not num.eq(primal.surplus[i], num.value(instance.supply[i]) - out):
            return False
    for j in range(instance.m):
        paid = sum(primal.flow[e] * instance.edges[e].price for e in instance.edges_of_sink(j))
        if not num.eq(primal.residual[j], num.value(instance.budget[j]) - paid):
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


def random_simple_cycle(rng: random.Random):
    """Random synthetic cycle state with 2..4 (forward, back) edge pairs."""
    k = rng.randint(2, 4)
    prices_fwd = [rng.randint(1, 6) for _ in range(k)]
    prices_back = [rng.randint(1, 6) for _ in range(k)]
    back_flows = [Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(k)]
    surplus = Fraction(rng.randint(1, 30), rng.randint(1, 3))
    caps_fwd = [
        rng.randint(1, 60) if rng.random() < 0.5 else None for _ in range(k)
    ]
    return build_cycle_state(prices_fwd, prices_back, back_flows, surplus, caps_fwd)
