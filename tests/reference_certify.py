"""Reference certificate: the plain all-edges `certify` and gamma rule.

Every edge gets the full Fraction treatment here: flow sums, sign and capacity
tests, gamma reconstruction and the dual constraint, with each complementary
product computed once for its maximum and again for the gap identity.  This is
the desk-scale baseline that `budget_flow.certify` is checked against field by
field; the package's version skips zero flows and tests the dual constraint in
integers.
"""

from __future__ import annotations

from fractions import Fraction

from budget_flow.certify import Certificate, CertificationError


def tag(e, spec) -> str:
    """An edge as the files number it: `index (source,sink)`, counting from 1."""
    return f"{e + 1} ({spec.src + 1},{spec.dst + 1})"


def reconstruct_gamma(instance, flow, alpha, beta, tol=0) -> dict[int, Fraction | float]:
    """Edge duals from scratch: max(0, c - p*beta - alpha) where flow fills capacity."""
    gammas = {}
    for e, spec in enumerate(instance.edges):
        if spec.capacity is None:
            continue
        if abs(flow[e] - spec.capacity) <= tol:
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
    flow, alpha, beta : sequences sized |E|, n, m (exact Fractions or floats)
    epsilon : approximation parameter the gap is measured against
    rigorous : stamp for exact-arithmetic runs; float-mode callers pass False
    tol : comparison slack, 0 in exact mode

    Passes iff both solutions are feasible, the source/sink/edge complementary
    products are zero, every positive-flow edge's dual slack stays within
    epsilon*c, the gap identity checks out, and dual/primal - 1 <= epsilon
    (vacuously when both values are zero).
    """
    n, m, ne = instance.n, instance.m, len(instance.edges)
    if len(flow) != ne or len(alpha) != n or len(beta) != m:
        raise CertificationError(
            f"solution shape ({len(alpha)},{len(beta)},{len(flow)}) "
            f"does not match instance ({n},{m},{ne})"
        )
    epsilon = Fraction(epsilon) if rigorous else float(epsilon)
    zero = Fraction(0) if rigorous else 0.0

    gammas = reconstruct_gamma(instance, flow, alpha, beta, tol)

    primal_violations = []
    for e, spec in enumerate(instance.edges):
        if flow[e] < -tol:
            primal_violations.append(f"negative flow on edge {tag(e, spec)}")
        if spec.capacity is not None and flow[e] - spec.capacity > tol:
            primal_violations.append(f"capacity exceeded on edge {tag(e, spec)}")
    out_of = [zero] * n
    into = [zero] * m
    for e, spec in enumerate(instance.edges):
        out_of[spec.src] += flow[e]
        into[spec.dst] += spec.price * flow[e]
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
    for e, spec in enumerate(instance.edges):
        bound = spec.profit - spec.price * beta[spec.dst] - gammas.get(e, zero)
        if bound - alpha[spec.src] > tol:
            dual_violations.append(f"dual constraint violated on edge {tag(e, spec)}")

    cs_source = max(
        (abs(alpha[i] * (instance.supply[i] - out_of[i])) for i in range(n)),
        default=zero,
    )
    cs_sink = max(
        (abs(beta[j] * (instance.budget[j] - into[j])) for j in range(m)),
        default=zero,
    )
    cs_edge = max(
        (
            abs(g * (instance.edges[e].capacity - flow[e]))
            for e, g in gammas.items()
        ),
        default=zero,
    )
    cs_flow_excess = zero
    flow_slack_sum = zero
    for e, spec in enumerate(instance.edges):
        if flow[e] > tol:
            slack = (
                spec.profit
                - alpha[spec.src]
                - spec.price * beta[spec.dst]
                - gammas.get(e, zero)
            )
            flow_slack_sum += flow[e] * slack
            excess = abs(slack) - epsilon * spec.profit
            if excess > cs_flow_excess:
                cs_flow_excess = excess

    primal_value = sum(
        (spec.profit * flow[e] for e, spec in enumerate(instance.edges)), start=zero
    )
    dual_value = sum(
        (instance.supply[i] * alpha[i] for i in range(n)), start=zero
    ) + sum(instance.budget[j] * beta[j] for j in range(m))
    for e, g in gammas.items():
        dual_value += instance.edges[e].capacity * g

    # gap identity, recomputed both ways
    delta_source = sum(
        (alpha[i] * (instance.supply[i] - out_of[i]) for i in range(n)), start=zero
    )
    delta_sink = sum(
        (beta[j] * (instance.budget[j] - into[j]) for j in range(m)), start=zero
    )
    delta_cap = sum(
        (g * (instance.edges[e].capacity - flow[e]) for e, g in gammas.items()),
        start=zero,
    )
    lhs = dual_value - primal_value
    rhs = delta_source + delta_sink + delta_cap - flow_slack_sum
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
        gammas=tuple(gammas.items()),
        gap_ratio=gap_ratio,
        gap_status=gap_status,
        identity_ok=identity_ok,
        passed=passed,
        rigorous=rigorous,
        epsilon=epsilon,
    )
