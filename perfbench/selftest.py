"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that the traced run leaves the original functions in place,
and that the same seed reproduces the same output digests.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import sys

import run

TINY = {"plain": 5, "oracle": 3, "piecewise": 3}
SEED = 7


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAIL: {what}")
        sys.exit(1)


def main() -> int:
    wl, layers = run.import_library()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS), "workload names")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "end-to-end metrics in BENCHMARK.json")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER,
          "per-layer metrics in BENCHMARK.json")

    targets = layers.make_tracer(layers.PhaseWatch()).targets
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in targets}

    def restored() -> bool:
        return all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())

    tracer = layers.make_tracer(layers.PhaseWatch())
    try:
        with tracer.installed():
            check(not restored(), "wrappers installed inside the block")
            raise KeyError("escape")
    except KeyError:
        pass
    check(restored(), "wrappers restored after an exception")

    for w in wl.WORKLOADS.values():
        size = TINY[w.stages]
        for trace in (False, True):
            report, _ = run.measure(wl, layers, w, SEED, 0.2, trace, 0.0, size=size, count=4)
            line = run.result_line(report, layers)
            check(line["correct"], f"{w.name} trace={trace}: {report['problems'][:3]}")
            section = "per_layer" if trace else "end_to_end"
            for m in spec[section]:
                got = line["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{w.name}: metric {m['name']} with unit {m['unit']}")
            check(restored(), f"{w.name}: original functions back after the traced run")

        runs = [
            [wl.run_item(w, item).digest for item in wl.make_pool(w, SEED, size, 3)]
            for _ in range(2)
        ]
        check(runs[0] == runs[1], f"{w.name}: digests reproduce")
        print(f"selftest ok: {w.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
