"""Independent verification of solutions: feasibility, slackness, duality gap.

Everything here is recomputed from the raw instance plus flows and duals; the
solver's internal state is never trusted.  In particular the implicit edge
duals are reconstructed from alpha and beta rather than taken as input, and the
certificate returns the ones it checked.

An exact certificate is computed on integers: the flows it is given are read
over their own common denominator and the duals over theirs, and Fractions
are built only for the fields it returns.  The solver's shared denominator is
not read; the flows arrive as plain numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import filterfalse


class CertificationError(ValueError):
    """Solution data does not fit the instance (wrong sizes)."""


def fmt(x) -> str:
    """Exact values as num/den; floats as repr."""
    # a float is told apart first: asking an ABC such as Fraction about it runs Python code
    if isinstance(x, float) or not isinstance(x, (Fraction, int)):
        return repr(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Certificate:
    """Self-contained verdict: feasibility flags, slackness residuals, gap.

    cs_flow_worst_excess is max over positive-flow edges of
    |c - alpha - p*beta - gamma| - epsilon*c, so any positive value is a
    violation.  The other three residuals are worst absolute complementary
    products and must be exactly zero.  gap_ratio is None ("vacuous") when the
    primal value is zero.  gammas holds the (edge, gamma) pairs of the edge
    duals the checks used, in edge order: an edge its flow fills, within tol,
    gets c - p*beta - alpha when that is above tol.
    """

    primal_feasible: bool
    primal_violations: tuple[str, ...]
    dual_feasible: bool
    dual_violations: tuple[str, ...]
    cs_source_worst: Fraction | float
    cs_sink_worst: Fraction | float
    cs_edge_worst: Fraction | float
    cs_flow_worst_excess: Fraction | float
    primal_value: Fraction | float
    dual_value: Fraction | float
    gammas: tuple[tuple[int, Fraction | float], ...]
    gap_ratio: Fraction | float | None
    gap_status: str  # "ok" | "vacuous"
    identity_ok: bool
    passed: bool
    rigorous: bool
    epsilon: Fraction | float

    def to_lines(self) -> list[str]:
        """Deterministic text block for solution files."""
        lines = [
            f"cert passed {'true' if self.passed else 'false'}",
            f"cert rigorous {'true' if self.rigorous else 'false'}",
            f"cert primal_feasible {'true' if self.primal_feasible else 'false'}",
            f"cert dual_feasible {'true' if self.dual_feasible else 'false'}",
            f"cert cs_source_worst {fmt(self.cs_source_worst)}",
            f"cert cs_sink_worst {fmt(self.cs_sink_worst)}",
            f"cert cs_edge_worst {fmt(self.cs_edge_worst)}",
            f"cert cs_flow_worst_excess {fmt(self.cs_flow_worst_excess)}",
            f"cert gap_status {self.gap_status}",
            f"cert identity_ok {'true' if self.identity_ok else 'false'}",
        ]
        for v in self.primal_violations + self.dual_violations:
            lines.append(f"cert violation {v}")
        return lines


def nonzero(values) -> list[int]:
    """Indices of the nonzero entries, in order.

    Each entry is first compared with one zero entry by identity; only the
    entries that are not that object are asked whether they are zero.  The
    solver and the solution reader share one zero object among their zero
    flows, so on their vectors no zero costs a Python-level call.
    """
    zero = next(filterfalse(None, values), None)
    return [e for e, value in enumerate(values) if value is not zero and value]


def _over_lcm(ratios) -> tuple[list[int], int]:
    """The numerators of (numerator, denominator) pairs over their lcm, and the lcm."""
    lcm = math.lcm(*{d for _, d in ratios})
    factor = {d: lcm // d for _, d in ratios}
    return [x * factor[d] for x, d in ratios], lcm


def certify(
    instance,
    flow,
    alpha,
    beta,
    epsilon,
    rigorous: bool = True,
    tol=0,
) -> Certificate:
    """Recompute feasibility, all four slackness residuals and the gap.

    Parameters
    ----------
    instance : ProblemInstance
    flow, alpha, beta : sequences sized |E|, n, m (ints and Fractions; read
        as floats when not rigorous)
    epsilon : approximation parameter the gap is measured against
    rigorous : exact comparisons, for exact-arithmetic runs; float-mode
        callers pass False
    tol : comparison slack, below 1; a rigorous certificate takes none, and
        raises ValueError on a nonzero tol

    Passes iff both solutions are feasible, the source/sink/edge complementary
    products are zero, every positive-flow edge's dual slack stays within
    epsilon*c, the gap identity checks out, and dual/primal - 1 <= epsilon
    (vacuously when both values are zero).

    One pass over the nonzero flows runs the per-edge primal and slackness
    tests and the gamma rule, and adds up the node sums and the primal value;
    a zero flow adds nothing to a sum and passes every such test.  One loop
    per source and one per sink then test the node constraints.  In exact
    mode (rigorous) the work is done on integers: the nonzero flows are read
    as numerators over their common denominator `lf`, alpha, beta and epsilon
    as numerators over theirs, `ld`, and each sum, product and comparison
    below runs on numerators; Fractions are built only for the returned
    fields.  The dual constraint, the one test every edge needs, runs on each
    node's own numerator and denominator, so its cost does not grow with
    `ld`.  Otherwise the values are read as numerators over 1, which leaves
    every float expression and its bits as they were.
    """
    if rigorous and tol:
        raise ValueError(f"a rigorous certificate compares exactly; tol must be 0, not {tol}")
    n, m, ne = instance.n, instance.m, len(instance.src)
    if len(flow) != ne or len(alpha) != n or len(beta) != m:
        raise CertificationError(
            f"solution shape ({len(alpha)},{len(beta)},{len(flow)}) "
            f"does not match instance ({n},{m},{ne})"
        )
    src, dst, profit, price, capacity = (
        instance.src, instance.dst, instance.profit, instance.price, instance.capacity)
    support = nonzero(flow)
    if rigorous:
        epsilon = Fraction(epsilon)
        given_alpha, given_beta = alpha, beta
        ratio_a = [a.as_integer_ratio() for a in alpha]
        ratio_b = [b.as_integer_ratio() for b in beta]
        nums, lf = _over_lcm([flow[e].as_integer_ratio() for e in support])
        # epsilon too, since it scales the dual slacks it is compared with
        duals, ld = _over_lcm(ratio_a + ratio_b + [epsilon.as_integer_ratio()])
        alpha, beta, eps, zero = duals[:n], duals[n:-1], duals[-1], 0
    else:
        # a float written by `fmt` reads back as a Fraction that converts
        # exactly; a zero flow is never read, so only the others are converted
        nums = [float(flow[e]) for e in support]
        alpha, beta = ([float(x) for x in v] for v in (alpha, beta))
        epsilon, zero = float(epsilon), 0.0
        lf, ld, eps = 1, 1, epsilon
    flows = dict(zip(support, nums))

    # the gamma rule, in the capacity branch: an edge its flow fills gets
    # c - p*beta - alpha when that is positive; a zero flow fills no edge,
    # since every capacity is at least 1 and tol is below 1
    gammas, primal_violations, dual_violations, value_terms = {}, [], [], []
    out_of, into = [zero] * n, [zero] * m
    cs_flow_excess = flow_slack_sum = zero
    for e, f in flows.items():
        i, j, c, p, u = src[e], dst[e], profit[e], price[e], capacity[e]
        if f < -tol:
            primal_violations.append(f"negative flow on edge {e + 1} ({i + 1},{j + 1})")
        gamma = zero
        if u is not None:
            if f - u * lf > tol:
                primal_violations.append(f"capacity exceeded on edge {e + 1} ({i + 1},{j + 1})")
            elif abs(f - u * lf) <= tol and (slack := c * ld - p * beta[j] - alpha[i]) > tol:
                gammas[e] = gamma = slack
        out_of[i] += f
        into[j] += p * f
        value_terms.append(c * f)
        if f > tol:
            slack = c * ld - alpha[i] - p * beta[j] - gamma
            flow_slack_sum += f * slack
            excess = abs(slack) - eps * c
            if excess > cs_flow_excess:
                cs_flow_excess = excess
    for i in range(n):
        if out_of[i] - instance.supply[i] * lf > tol:
            primal_violations.append(f"supply exceeded at source {i + 1}")
        if alpha[i] < -tol:
            dual_violations.append(f"negative alpha at source {i + 1}")
    for j in range(m):
        if into[j] - instance.budget[j] * lf > tol:
            primal_violations.append(f"budget exceeded at sink {j + 1}")
        if beta[j] < -tol:
            dual_violations.append(f"negative beta at sink {j + 1}")
    if rigorous:
        # c - p*beta - alpha > 0 times both denominators; a gamma makes it 0
        for e, i, j, c, p in zip(range(ne), src, dst, profit, price):
            na, da = ratio_a[i]
            nb, db = ratio_b[j]
            if (c * db - p * nb) * da > na * db and e not in gammas:
                dual_violations.append(
                    f"dual constraint violated on edge {e + 1} ({i + 1},{j + 1})")
    else:
        for e, i, j, c, p in zip(range(ne), src, dst, profit, price):
            if c - p * beta[j] - gammas.get(e, zero) - alpha[i] > tol:
                dual_violations.append(
                    f"dual constraint violated on edge {e + 1} ({i + 1},{j + 1})")

    # each complementary product once, over ld*lf: its worst for slackness,
    # its sum for the identity
    source_terms = [alpha[i] * (instance.supply[i] * lf - out_of[i]) for i in range(n)]
    sink_terms = [beta[j] * (instance.budget[j] * lf - into[j]) for j in range(m)]
    cap_terms = [g * (capacity[e] * lf - flows[e]) for e, g in gammas.items()]
    cs_source = max(map(abs, source_terms), default=zero)
    cs_sink = max(map(abs, sink_terms), default=zero)
    cs_edge = max(map(abs, cap_terms), default=zero)

    primal_value = sum(value_terms, start=zero)
    dual_value = sum(
        (instance.supply[i] * alpha[i] for i in range(n)), start=zero
    ) + sum(instance.budget[j] * beta[j] for j in range(m))
    for e, g in gammas.items():
        dual_value += capacity[e] * g

    # gap identity, recomputed both ways
    lhs = dual_value * lf - primal_value * ld
    rhs = (
        sum(source_terms, start=zero)
        + sum(sink_terms, start=zero)
        + sum(cap_terms, start=zero)
        - flow_slack_sum
    )
    identity_ok = lhs == rhs if rigorous else abs(lhs - rhs) <= tol * (1 + abs(lhs))

    if primal_value > tol:
        gap_ratio = Fraction(lhs, ld * primal_value) if rigorous else lhs / primal_value
        gap_status = "ok"
        gap_ok = gap_ratio <= epsilon + tol
    else:
        gap_ratio = None
        gap_status = "vacuous"
        gap_ok = abs(dual_value) <= tol

    passed = (
        not primal_violations
        and not dual_violations
        and cs_source <= tol
        and cs_sink <= tol
        and cs_edge <= tol
        and cs_flow_excess <= tol
        and identity_ok
        and gap_ok
    )
    if rigorous:
        cs_source, cs_sink = Fraction(cs_source, ld * lf), Fraction(cs_sink, ld * lf)
        # each gamma again, from the given values, so its type follows theirs
        gammas = {
            e: profit[e] - price[e] * given_beta[dst[e]] - given_alpha[src[e]] for e in gammas
        }
        # a gamma needs a full edge, so every capacity term is 0 and the worst
        # is the first
        cs_edge = next(
            (abs(g * (capacity[e] - flow[e])) for e, g in gammas.items()),
            Fraction(0),
        )
        cs_flow_excess = Fraction(cs_flow_excess, ld)
        primal_value, dual_value = Fraction(primal_value, lf), Fraction(dual_value, ld)
    return Certificate(
        primal_feasible=not primal_violations,
        primal_violations=tuple(primal_violations),
        dual_feasible=not dual_violations,
        dual_violations=tuple(dual_violations),
        cs_source_worst=cs_source,
        cs_sink_worst=cs_sink,
        cs_edge_worst=cs_edge,
        cs_flow_worst_excess=cs_flow_excess,
        primal_value=primal_value,
        dual_value=dual_value,
        gammas=tuple(gammas.items()),
        gap_ratio=gap_ratio,
        gap_status=gap_status,
        identity_ok=identity_ok,
        passed=passed,
        rigorous=rigorous,
        epsilon=epsilon,
    )


def weak_duality_bound(certificate: Certificate):
    """The certified upper bound on the optimum: the feasible dual's value."""
    if not (certificate.primal_feasible and certificate.dual_feasible):
        raise ValueError("weak duality bound needs both solutions feasible")
    return certificate.dual_value
