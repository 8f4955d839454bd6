"""Independent verification of solutions: feasibility, slackness, duality gap.

Everything here is recomputed from the raw instance plus flows and duals; the
solver's internal state is never trusted.  In particular the implicit edge
duals are reconstructed from alpha and beta rather than taken as input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class CertificationError(ValueError):
    """Solution data does not fit the instance (wrong sizes)."""


def fmt(x) -> str:
    """Exact values as num/den; floats as repr."""
    if isinstance(x, Fraction) or isinstance(x, int):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return repr(x)


@dataclass(frozen=True)
class Certificate:
    """Self-contained verdict: feasibility flags, slackness residuals, gap.

    cs_flow_worst_excess is max over positive-flow edges of
    |c - alpha - p*beta - gamma| - epsilon*c, so any positive value is a
    violation.  The other three residuals are worst absolute complementary
    products and must be exactly zero.  gap_ratio is None ("vacuous") when the
    primal value is zero.
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


def reconstruct_gamma(instance, flow, alpha, beta, tol=0) -> dict[int, Fraction | float]:
    """Edge duals from scratch: max(0, c - p*beta - alpha) where flow fills capacity.

    A zero flow is passed over without arithmetic: every capacity is at least 1
    and `tol` is below 1, so it never fills one.
    """
    gammas = {}
    for e, spec in enumerate(instance.edges):
        f = flow[e]
        if f and spec.capacity is not None and abs(f - spec.capacity) <= tol:
            slack = spec.profit - spec.price * beta[spec.dst] - alpha[spec.src]
            if slack > tol:
                gammas[e] = slack
    return gammas


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
    rigorous : stamp for exact-arithmetic runs; float-mode callers pass False
    tol : comparison slack, 0 in exact mode and below 1 otherwise

    Passes iff both solutions are feasible, the source/sink/edge complementary
    products are zero, every positive-flow edge's dual slack stays within
    epsilon*c, the gap identity checks out, and dual/primal - 1 <= epsilon
    (vacuously when both values are zero).

    Only nonzero flows enter the sums and the per-edge primal and slackness
    tests; a zero flow adds nothing to a sum and passes every such test.  In
    exact mode (rigorous, tol 0) the one test every edge needs, the dual
    constraint, runs on integer numerators and denominators.
    """
    n, m, ne = instance.n, instance.m, len(instance.edges)
    if len(flow) != ne or len(alpha) != n or len(beta) != m:
        raise CertificationError(
            f"solution shape ({len(alpha)},{len(beta)},{len(flow)}) "
            f"does not match instance ({n},{m},{ne})"
        )
    if rigorous:
        epsilon, zero = Fraction(epsilon), Fraction(0)
    else:
        # a float written by `fmt` reads back as a Fraction that converts exactly
        flow, alpha, beta = ([float(x) for x in v] for v in (flow, alpha, beta))
        epsilon, zero = float(epsilon), 0.0
    edges = instance.edges
    support = [e for e, f in enumerate(flow) if f]

    gammas = reconstruct_gamma(instance, flow, alpha, beta, tol)

    primal_violations = []
    out_of = [zero] * n
    into = [zero] * m
    cs_flow_excess = zero
    flow_slack_sum = zero
    for e in support:
        spec, f = edges[e], flow[e]
        if f < -tol:
            primal_violations.append(f"negative flow on edge {e}")
        if spec.capacity is not None and f - spec.capacity > tol:
            primal_violations.append(f"capacity exceeded on edge {e}")
        out_of[spec.src] += f
        into[spec.dst] += spec.price * f
        if f > tol:
            slack = (
                spec.profit
                - alpha[spec.src]
                - spec.price * beta[spec.dst]
                - gammas.get(e, zero)
            )
            flow_slack_sum += f * slack
            excess = abs(slack) - epsilon * spec.profit
            if excess > cs_flow_excess:
                cs_flow_excess = excess
    for i in range(n):
        if out_of[i] - instance.supply[i] > tol:
            primal_violations.append(f"supply exceeded at source {i + 1}")
    for j in range(m):
        if into[j] - instance.budget[j] > tol:
            primal_violations.append(f"budget exceeded at sink {j + 1}")

    dual_violations = []
    for i in range(n):
        if alpha[i] < -tol:
            dual_violations.append(f"negative alpha at source {i + 1}")
    for j in range(m):
        if beta[j] < -tol:
            dual_violations.append(f"negative beta at sink {j + 1}")
    if rigorous and not tol:
        # c - p*beta - alpha > 0 times both denominators; a gamma makes it 0
        ratio_a = [a.as_integer_ratio() for a in alpha]
        ratio_b = [b.as_integer_ratio() for b in beta]
        for e, spec in enumerate(edges):
            na, da = ratio_a[spec.src]
            nb, db = ratio_b[spec.dst]
            if (spec.profit * db - spec.price * nb) * da > na * db and e not in gammas:
                dual_violations.append(f"dual constraint violated on edge {e}")
    else:
        for e, spec in enumerate(edges):
            bound = spec.profit - spec.price * beta[spec.dst] - gammas.get(e, zero)
            if bound - alpha[spec.src] > tol:
                dual_violations.append(f"dual constraint violated on edge {e}")

    # each complementary product once: its worst for slackness, its sum for the identity
    source_terms = [alpha[i] * (instance.supply[i] - out_of[i]) for i in range(n)]
    sink_terms = [beta[j] * (instance.budget[j] - into[j]) for j in range(m)]
    cap_terms = [g * (edges[e].capacity - flow[e]) for e, g in gammas.items()]
    cs_source = max(map(abs, source_terms), default=zero)
    cs_sink = max(map(abs, sink_terms), default=zero)
    cs_edge = max(map(abs, cap_terms), default=zero)

    primal_value = sum((edges[e].profit * flow[e] for e in support), start=zero)
    dual_value = sum(
        (instance.supply[i] * alpha[i] for i in range(n)), start=zero
    ) + sum(instance.budget[j] * beta[j] for j in range(m))
    for e, g in gammas.items():
        dual_value += edges[e].capacity * g

    # gap identity, recomputed both ways
    lhs = dual_value - primal_value
    rhs = (
        sum(source_terms, start=zero)
        + sum(sink_terms, start=zero)
        + sum(cap_terms, start=zero)
        - flow_slack_sum
    )
    identity_ok = lhs == rhs if rigorous else abs(lhs - rhs) <= tol * (1 + abs(lhs))

    if primal_value > tol:
        gap_ratio = (dual_value - primal_value) / primal_value
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
