"""Benchmark of the certified solve, end to end and per layer.

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 25 --trace 0

Runs one workload (see `workloads.WORKLOADS`) as a sequential closed loop for
`--seconds`, on inputs generated from `--seed`, against the library in `src/`
of the checkout this file sits in.  Every item's outputs are gated
(certificates, termination, price-rise bound, oracle ratio, piecewise
map-back); any failure makes `correct` false and the exit code 1.

Times that carry a regression bound are given in probe units: the time
divided by the mean time of a fixed pure-Python loop (`probe`) that takes
PROBE_SHARE of the same loop, between items.  Load from other tenants of a shared host
slows both alike, so the ratio holds still where raw seconds swing by half.
`setup_s` must be in seconds, so it is set-up time in probe units, from
probes run just before each set-up, times PROBE_REFERENCE_S.  Raw seconds are
in the report.

`--trace 0` measures the end-to-end metrics untraced.  `--trace 1` runs each
item once untraced and once with every layer wrapped (`layers.make_tracer`)
and reports the per-layer metrics plus the tracing overhead.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.  The full
report, with the workload-specific metrics, digests, counters and shape
facts, goes to the lines before it and to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import write_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_PROBES = 10  # probes before each set-up, to convert it to probe units
PROBE_SHARE = 0.05
PROBE_REFERENCE_S = 0.002  # the probe's time on an unloaded core of a 2-vCPU Xeon VM
WARMUP_SIZE = {"plain": 6, "oracle": 4, "piecewise": 4}
WARMUP_SEED = 0  # one fixed warm-up item, so set-up time does not follow the seed

# name -> unit of the metrics on the result line; every workload has them all
END_TO_END = {
    "setup_s": "s",
    "solve.mean": "probe",
    "verify.mean": "probe",
    "items_per_probe": "1/probe",
    "peak_rss_mb": "MB",
}
# reported too, but not on the result line: raw seconds move with the host's
# load, and the rest exist only on some workloads or are 0 when all is well
REPORT_ONLY = {
    "probe_s.mean": "s",
    "setup_raw_s": "s",
    "solve_s.p50": "s",
    "solve_s.p99": "s",
    "verify_s.p50": "s",
    "oracle_s.p50": "s",
    "oracle.mean": "probe",
    "reduce_s.p50": "s",
    "reduce.mean": "probe",
    "items_per_s": "1/s",
    "fail_ratio": "ratio",
    "gap_ratio.max": "ratio",
    "opt_ratio.min": "ratio",
}


def import_library():
    """Import budget_flow from this checkout's src/ and the benchmark modules."""
    if not (SRC / "budget_flow" / "__init__.py").is_file():
        raise SystemExit(f"error: no budget_flow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import budget_flow

    if SRC.resolve() not in Path(budget_flow.__file__).resolve().parents:
        raise SystemExit(f"error: budget_flow imported from {budget_flow.__file__}, not {SRC}")
    import layers
    import workloads

    return workloads, layers


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that does not use the library."""
    t = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 800):
        x += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter() - t


def quantile(values, q: int):
    """The q-th percentile when at least ten samples lie beyond it, else None."""
    if len(values) * (100 - q) < 1000:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def setup(wl, w, seed: int, size: int | None, count: int | None):
    """Generate and serialize the pool, then run one small warm-up item."""
    pool = wl.make_pool(w, seed, size, count)
    (warm,) = wl.make_pool(w, WARMUP_SEED, size=WARMUP_SIZE[w.stages], count=1)
    return pool, wl.run_item(w, warm)


def run_loop(wl, layers, w, pool, seconds: float, trace: bool):
    """Closed loop over the pool until `seconds` have passed.

    With `trace`, each item runs once more with the tracer installed.  Returns
    (untraced records, traced records, errors, probe times, layer totals,
    phase watch, first traced item's spans).
    """
    plain, traced, errors, probes = [], [], [], []
    totals, watch = layers.LayerTotals(), layers.PhaseWatch()
    tracer = layers.make_tracer(watch) if trace else None
    first_spans = None
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    probed_s = 0.0
    k = 0
    while (now := time.perf_counter()) < deadline:
        # probe until probes have taken PROBE_SHARE of the loop so far
        while probed_s <= PROBE_SHARE * (now - start):
            probes.append(probe())
            probed_s += probes[-1]
        index = k % len(pool)
        item = pool[index]
        k += 1
        try:
            plain.append(wl.run_item(w, item))
            if tracer is not None:
                with tracer.installed():
                    traced.append(wl.run_item(w, item))
                spans = tracer.take()
                totals.add_spans(spans)
                totals.add_record(traced[-1])
                first_spans = first_spans or spans
        except Exception:  # an item that raises counts as failed; the loop goes on
            errors.append(f"pool item {index} raised:\n" + traceback.format_exc(limit=4))
    return plain, traced, errors, probes, totals, watch, first_spans


def digest(records, count: int) -> dict:
    covered = records[:count]
    h = hashlib.sha256("".join(r.digest for r in covered).encode()).hexdigest()
    return {"sha256": h, "items": len(covered)}


def shape_facts(layers, records) -> dict:
    k = max(1, len(records))
    stats: dict[str, int] = {}
    for r in records:
        for key, value in r.stats.items():
            stats[key] = stats.get(key, 0) + value
    return {
        "n_mean": sum(r.n for r in records) / k,
        "m_mean": sum(r.m for r in records) / k,
        "edges_mean": sum(r.edges for r in records) / k,
        "sink_in_degree_mean": sum(r.edges / r.m for r in records) / k,
        "phases_mean": stats.get("phases", 0) / k,
        "phase_shares": layers.phase_shares(stats),
    }


def rise_report(records) -> dict:
    """Price-rise counters against their bounds, as maxima over items."""
    rises = [r.stats.get("beta_rises", 0) for r in records]
    use = [r.stats.get("beta_rises", 0) / r.rise_bound for r in records if r.rise_bound]
    ops_use = [
        r.stats.get("operations", 0) / (r.ops_allowance * max(1, r.stats.get("beta_rises", 0)))
        for r in records
    ]
    return {
        "beta_rises_total": sum(rises),
        "beta_rises_max": max(rises, default=0),
        "beta_rise_bound_max": max((r.rise_bound for r in records), default=0),
        "rise_bound_use_max": max(use, default=0.0),
        "ops_per_rise_allowance": "4*(n^2 + n*log2(max(2, m))) per rise",
        "ops_per_rise_use_max": max(ops_use, default=0.0),
        "ops_per_rise_within_allowance": sum(u <= 1 for u in ops_use),
        "items": len(records),
    }


def end_to_end_metrics(records, probes, setup: tuple[float, float], attempted: int,
                       failed: int):
    """Every END_TO_END and REPORT_ONLY metric that applies to these records.

    `setup` is (set-up seconds, set-up in probe units).
    """
    probe_s = statistics.fmean(probes)
    solve = [r.solve_s for r in records]
    verify = [r.verify_s for r in records]
    busy_s = sum(r.pipeline_s for r in records)
    gaps = [float(r.gap_ratio) for r in records if r.gap_ratio is not None]
    out = {
        "setup_s": setup[1] * PROBE_REFERENCE_S,
        "solve.mean": statistics.fmean(solve) / probe_s,
        "verify.mean": statistics.fmean(verify) / probe_s,
        "items_per_probe": len(records) * probe_s / busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_s.mean": probe_s,
        "setup_raw_s": setup[0],
        "solve_s.p50": statistics.median(solve),
        "solve_s.p99": quantile(solve, 99),
        "verify_s.p50": statistics.median(verify),
        "items_per_s": len(records) / busy_s,
        "fail_ratio": failed / attempted,
        "gap_ratio.max": max(gaps, default=None),
    }
    oracle = [r.oracle_s for r in records if r.oracle_s is not None]
    if oracle:
        out["oracle_s.p50"] = statistics.median(oracle)
        out["oracle.mean"] = statistics.fmean(oracle) / probe_s
        out["opt_ratio.min"] = float(min(r.opt_ratio for r in records if r.opt_ratio is not None))
    reduce = [r.reduce_s for r in records if r.reduce_s is not None]
    if reduce:
        out["reduce_s.p50"] = statistics.median(reduce)
        out["reduce.mean"] = statistics.fmean(reduce) / probe_s
    return {k: v for k, v in out.items() if v is not None}


def measure(wl, layers, w, seed: int, seconds: float, trace: bool, import_s: float,
            size: int | None = None, count: int | None = None):
    """Set up, run the loop and build the report; returns (report, first spans).

    `size` and `count` shrink the generated instances and the pool (self-test).
    """
    setup_times, setup_probes, warm_failures = [], [], []
    for _ in range(SETUP_REPEATS):
        setup_probes.append(statistics.fmean(probe() for _ in range(SETUP_PROBES)))
        t = time.perf_counter()
        pool, warm = setup(wl, w, seed, size, count)
        setup_times.append(time.perf_counter() - t)
        warm_failures += warm.failures
    setup_raw_s = import_s + statistics.median(setup_times)
    setup_probe_units = import_s / setup_probes[0] + statistics.median(
        t / p for t, p in zip(setup_times, setup_probes)
    )

    plain, traced, errors, probes, totals, watch, first_spans = run_loop(
        wl, layers, w, pool, seconds, trace
    )
    records = plain + traced
    attempted = len(records) + len(errors)
    failed = len(errors) + sum(1 for r in records if r.failures)
    problems = warm_failures + errors + [f for r in records for f in r.failures]
    if [r.digest for r in traced] != [r.digest for r in plain[: len(traced)]]:
        problems.append("traced outputs differ from untraced outputs")
    if not plain:
        problems.append("no item completed")

    report = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "mode": w.mode,
        "loop": "closed, one client, sequential",
        "samples": len(plain),
        "attempted": attempted,
        "failed": failed,
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "probes": len(probes),
        "shape": shape_facts(layers, plain),
        "rises": rise_report(plain),
        "digest": {
            ("exact" if w.mode == "exact" else "float_nonrigorous"): digest(plain, w.digest_items)
        },
        "problems": problems,
    }
    if plain:
        units = {**END_TO_END, **REPORT_ONLY}
        report["end_to_end"] = {
            name: {"value": v, "unit": units[name]}
            for name, v in end_to_end_metrics(
                plain, probes, (setup_raw_s, setup_probe_units), attempted, failed
            ).items()
        }
    if traced:
        untraced_p50 = statistics.median(r.solve_s for r in plain)
        overhead = statistics.median(r.solve_s for r in traced) / untraced_p50 - 1
        units = {**{k: u for k, (u, _) in layers.PER_LAYER.items()}, **layers.WORKLOAD_LAYER}
        report["per_layer"] = {
            name: {"value": v, "unit": units[name]}
            for name, v in layers.layer_metrics(totals, watch, overhead).items()
        }
        report["traced_samples"] = len(traced)
    return report, first_spans


def result_line(report, layers) -> dict:
    """The contract line: the end-to-end metrics, or the per-layer ones if traced."""
    section, wanted = (
        ("per_layer", layers.PER_LAYER) if report["trace"] else ("end_to_end", END_TO_END)
    )
    got = report.get(section, {})
    metrics = {name: got[name] for name in wanted if name in got}
    return {
        "correct": not report["problems"] and len(metrics) == len(wanted),
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"] if report["attempted"] else 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    t = time.perf_counter()
    wl, layers = import_library()
    import_s = time.perf_counter() - t
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    report, first_spans = measure(
        wl, layers, wl.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), import_s,
    )

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    if first_spans:
        write_jsonl(first_spans, OUT / f"{stem}-spans.jsonl")

    section, samples = (
        ("per_layer", "traced_samples") if args.trace else ("end_to_end", "samples")
    )
    for name, m in report.get(section, {}).items():
        print(f"{name} {m['value']:.6g} {m['unit']} (n={report[samples]})")
    for problem in report["problems"][:20]:
        print(f"FAIL {problem.strip()}")
    print("report " + json.dumps({k: report[k] for k in ("shape", "rises", "digest")}))
    line = result_line(report, layers)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
