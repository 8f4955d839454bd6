"""Layer tracing targets and the per-layer metrics derived from traced items.

Layers are the modules of `budget_flow`.  Two are left unwrapped on purpose:
`basic_auction` is the differential-testing baseline and never runs on the
user path, and `state.Numerics` is called millions of times per solve, so a
wrapper there would measure the wrapper.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass, field

from budget_flow import cli, derived_graph, instance, oracle, reductions, solver
from spans import Tracer, nearest

certify = importlib.import_module("budget_flow.certify")


@dataclass
class PhaseWatch:
    """Result hooks: which phases moved flow, raised a price, promoted an edge.

    `solve` calls `beta_update_pass` exactly once at the end of every phase, so
    that call closes the phase whose pushes were seen before it.
    """

    moved: bool = False
    passes: int = 0
    flow_phases: int = 0
    rise_passes: int = 0
    promotions: int = 0

    def on_push(self, report) -> None:
        self.moved = self.moved or report.moved

    def on_beta_pass(self, risen) -> None:
        self.passes += 1
        self.rise_passes += bool(risen)
        self.flow_phases += self.moved
        self.moved = False

    def on_fix_two_cycle(self, promoted) -> None:
        self.promotions += bool(promoted)


def make_tracer(watch: PhaseWatch) -> Tracer:
    dg = derived_graph.DerivedGraph
    return Tracer([
        (instance, "parse", "instance.parse", None),
        (instance, "validate", "instance.validate", None),
        (instance, "serialize", "instance.serialize", None),
        (instance, "diagnostics", "instance.diagnostics", None),
        (dg, "__init__", "derived_graph.build", None),
        (dg, "find_path", "derived_graph.find_path", None),
        (dg, "back_edges", "derived_graph.back_edges", None),
        (dg, "fix_two_cycle", "derived_graph.fix_two_cycle", watch.on_fix_two_cycle),
        (dg, "rebuild_preferred", "derived_graph.rebuild_preferred", None),
        (solver, "solve", "solver.solve", None),
        (solver, "push_flow_path", "solver.push_flow_path", watch.on_push),
        (solver, "push_flow_cycle", "solver.push_flow_cycle", watch.on_push),
        (solver, "beta_update_pass", "solver.beta_update_pass", watch.on_beta_pass),
        # solve() calls the name it imported, so both bindings are wrapped
        (solver, "certify", "certify.certify", None),
        (certify, "certify", "certify.certify", None),
        (oracle, "exact_opt", "oracle.exact_opt", None),
        (reductions, "parse_piecewise", "reductions.parse_piecewise", None),
        (reductions, "split_piecewise", "reductions.split_piecewise", None),
        (reductions, "normalize_split_solution", "reductions.normalize_split_solution", None),
        (reductions, "reassemble", "reductions.reassemble", None),
        (reductions, "piecewise_profit", "reductions.piecewise_profit", None),
        (cli, "solution_to_text", "cli.solution_to_text", None),
        (cli, "parse_solution", "cli.parse_solution", None),
    ])


BACK_EDGE_CALLERS = {"solver.beta_update_pass", "derived_graph.find_path", "derived_graph.build"}
MAP_BACK = ("reductions.normalize_split_solution", "reductions.reassemble",
            "reductions.piecewise_profit")


@dataclass
class LayerTotals:
    """Sums over traced items of span self times, call counts and solver counters."""

    items: int = 0
    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    stats: dict = field(default_factory=lambda: defaultdict(int))
    rise_bound_use: float = 0.0
    beta_den_bits: int = 0

    def add_spans(self, spans) -> None:
        for sid, _parent, name, _start, _end, self_s in spans:
            key = name
            if name == "derived_graph.back_edges":
                key = f"{name}@{nearest(spans, sid, BACK_EDGE_CALLERS)}"
            elif name == "certify.certify":
                in_solve = nearest(spans, sid, {"solver.solve"}) is not None
                key = f"{name}@{'solve' if in_solve else 'verify'}"
            self.calls[key] += 1
            self.self_s[key] += self_s

    def add_record(self, rec) -> None:
        self.items += 1
        for key, value in rec.stats.items():
            self.stats[key] += value
        if rec.rise_bound:
            use = rec.stats.get("beta_rises", 0) / rec.rise_bound
            self.rise_bound_use = max(self.rise_bound_use, use)
        self.beta_den_bits = max(self.beta_den_bits, rec.beta_den_bits)

    @staticmethod
    def prefixed(table: dict, prefix: str):
        """Sum of `table` over `prefix` and its per-caller keys `prefix@caller`."""
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "@"))


# name -> (unit, better); every value except the ratios is a mean per item
PER_LAYER = {
    "derived_graph.back_edges_s": ("s/item", "lower"),
    "derived_graph.back_edges.calls": ("count/item", "lower"),
    "derived_graph.back_edges.in_beta_update_s": ("s/item", "lower"),
    "derived_graph.back_edges.in_find_path_s": ("s/item", "lower"),
    "solver.beta_update_pass_s": ("s/item", "lower"),
    "solver.beta_update_pass.calls": ("count/item", "lower"),
    "solver.beta_update_pass.rise_ratio": ("ratio", "higher"),
    "derived_graph.rebuild_preferred_s": ("s/item", "lower"),
    "derived_graph.rebuild_preferred.calls": ("count/item", "lower"),
    "derived_graph.fix_two_cycle_s": ("s/item", "lower"),
    "derived_graph.fix_two_cycle.calls": ("count/item", "lower"),
    "derived_graph.fix_two_cycle.promote_ratio": ("ratio", "higher"),
    "derived_graph.find_path_s": ("s/item", "lower"),
    "derived_graph.find_path.calls": ("count/item", "lower"),
    "derived_graph.build_s": ("s/item", "lower"),
    "derived_graph.build.calls": ("count/item", "lower"),
    "solver.solve_self_s": ("s/item", "lower"),
    "solver.push_flow_path_s": ("s/item", "lower"),
    "solver.push_flow_path.calls": ("count/item", "lower"),
    "solver.push_flow_cycle_s": ("s/item", "lower"),
    "solver.push_flow_cycle.calls": ("count/item", "lower"),
    "solver.phases": ("count/item", "lower"),
    "solver.two_cycle_share": ("ratio", "lower"),
    "solver.cycle_share": ("ratio", "lower"),
    "solver.stall_share": ("ratio", "lower"),
    "solver.flow_phase_ratio": ("ratio", "higher"),
    "solver.beta_rises": ("count/item", "lower"),
    "solver.rise_bound_use": ("ratio", "lower"),
    "solver.operations": ("count/item", "lower"),
    "solver.walk_steps": ("count/item", "lower"),
    "solver.heap_updates": ("count/item", "lower"),
    "solver.flow_updates": ("count/item", "lower"),
    "solver.beta_den_bits.max": ("bits", "lower"),
    "certify.in_solve_s": ("s/item", "lower"),
    "certify.in_verify_s": ("s/item", "lower"),
    "instance.parse_s": ("s/item", "lower"),
    "instance.validate_s": ("s/item", "lower"),
    "cli.solution_to_text_s": ("s/item", "lower"),
    "cli.parse_solution_s": ("s/item", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# reported for the workloads that run these layers; zero elsewhere, so they are
# left out of the result line, whose metrics must exist on every workload
WORKLOAD_LAYER = {
    "oracle.exact_opt_s": "s/item",
    "oracle.exact_opt.calls": "count/item",
    "reductions.parse_piecewise_s": "s/item",
    "reductions.split_piecewise_s": "s/item",
    "reductions.map_back_s": "s/item",
    "instance.serialize_s": "s/item",
    "instance.diagnostics_s": "s/item",
}


def phase_shares(stats: dict) -> dict[str, float]:
    """Phase kinds as shares of all phases; a cycle phase is any phase that is
    not a two-cycle elimination, a stall or a path push."""
    phases = stats.get("phases", 0)
    if not phases:
        return {"two_cycle": 0.0, "cycle": 0.0, "stall": 0.0, "path": 0.0}
    two = stats.get("two_cycle_eliminations", 0)
    stall = stats.get("stalls", 0)
    path = stats.get("path_pushes", 0)
    return {
        "two_cycle": two / phases,
        "cycle": (phases - two - stall - path) / phases,
        "stall": stall / phases,
        "path": path / phases,
    }


def layer_metrics(tot: LayerTotals, watch: PhaseWatch, overhead_ratio: float) -> dict:
    """Every PER_LAYER and WORKLOAD_LAYER metric, as name -> value."""
    k = max(1, tot.items)

    def s(name: str) -> float:  # self seconds per item
        return tot.prefixed(tot.self_s, name) / k

    def c(name: str) -> float:  # calls per item
        return tot.prefixed(tot.calls, name) / k

    def per_item(key: str) -> float:  # solver counter per item
        return tot.stats.get(key, 0) / k

    shares = phase_shares(tot.stats)
    fix_calls = tot.prefixed(tot.calls, "derived_graph.fix_two_cycle")
    return {
        "derived_graph.back_edges_s": s("derived_graph.back_edges"),
        "derived_graph.back_edges.calls": c("derived_graph.back_edges"),
        "derived_graph.back_edges.in_beta_update_s":
            s("derived_graph.back_edges@solver.beta_update_pass"),
        "derived_graph.back_edges.in_find_path_s":
            s("derived_graph.back_edges@derived_graph.find_path"),
        "solver.beta_update_pass_s": s("solver.beta_update_pass"),
        "solver.beta_update_pass.calls": c("solver.beta_update_pass"),
        "solver.beta_update_pass.rise_ratio": watch.rise_passes / max(1, watch.passes),
        "derived_graph.rebuild_preferred_s": s("derived_graph.rebuild_preferred"),
        "derived_graph.rebuild_preferred.calls": c("derived_graph.rebuild_preferred"),
        "derived_graph.fix_two_cycle_s": s("derived_graph.fix_two_cycle"),
        "derived_graph.fix_two_cycle.calls": c("derived_graph.fix_two_cycle"),
        "derived_graph.fix_two_cycle.promote_ratio": watch.promotions / max(1, fix_calls),
        "derived_graph.find_path_s": s("derived_graph.find_path"),
        "derived_graph.find_path.calls": c("derived_graph.find_path"),
        "derived_graph.build_s": s("derived_graph.build"),
        "derived_graph.build.calls": c("derived_graph.build"),
        "solver.solve_self_s": s("solver.solve"),
        "solver.push_flow_path_s": s("solver.push_flow_path"),
        "solver.push_flow_path.calls": c("solver.push_flow_path"),
        "solver.push_flow_cycle_s": s("solver.push_flow_cycle"),
        "solver.push_flow_cycle.calls": c("solver.push_flow_cycle"),
        "solver.phases": per_item("phases"),
        "solver.two_cycle_share": shares["two_cycle"],
        "solver.cycle_share": shares["cycle"],
        "solver.stall_share": shares["stall"],
        "solver.flow_phase_ratio": watch.flow_phases / max(1, watch.passes),
        "solver.beta_rises": per_item("beta_rises"),
        "solver.rise_bound_use": tot.rise_bound_use,
        "solver.operations": per_item("operations"),
        "solver.walk_steps": per_item("walk_steps"),
        "solver.heap_updates": per_item("heap_updates"),
        "solver.flow_updates": per_item("flow_updates"),
        "solver.beta_den_bits.max": tot.beta_den_bits,
        "certify.in_solve_s": s("certify.certify@solve"),
        "certify.in_verify_s": s("certify.certify@verify"),
        "instance.parse_s": s("instance.parse"),
        "instance.validate_s": s("instance.validate"),
        "cli.solution_to_text_s": s("cli.solution_to_text"),
        "cli.parse_solution_s": s("cli.parse_solution"),
        "trace.overhead_ratio": overhead_ratio,
        "oracle.exact_opt_s": s("oracle.exact_opt"),
        "oracle.exact_opt.calls": c("oracle.exact_opt"),
        "reductions.parse_piecewise_s": s("reductions.parse_piecewise"),
        "reductions.split_piecewise_s": s("reductions.split_piecewise"),
        "reductions.map_back_s": sum(s(name) for name in MAP_BACK),
        "instance.serialize_s": s("instance.serialize"),
        "instance.diagnostics_s": s("instance.diagnostics"),
    }
