"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (`.perfbench/results/`
copied aside after each side's runs). For every workload and end-to-end
metric it prints both sides' median and quartile spread and the change's
median relative to the base, judged against BENCHMARK.json's bound. It flags
seeds whose generated inputs differ between the sides, which means the
workload itself changed, environment fields that differ, and a machine whose
speed probe moved between the sides.
"""

from __future__ import annotations

import glob
import json
import os
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV_KEYS = ("python", "numpy", "blas", "blas_threads", "cpu_model", "nproc")
PROBE_TOLERANCE = 0.10   # speed-probe medians further apart than this mean the machine changed


def load(directory: str) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    base, change = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    flags = []
    base_inputs = {(r["workload"], r["seed"]): r["inputs_sha256"] for r in base}
    for r in change:
        key = (r["workload"], r["seed"])
        if key in base_inputs and base_inputs[key] != r["inputs_sha256"]:
            flags.append("inputs differ: %s seed %d" % key)
    probes = [stats.median([r["environment"]["speed_probe_ms_start"] for r in side])
              for side in (base, change) if side]
    if len(probes) == 2 and abs(probes[1] - probes[0]) > PROBE_TOLERANCE * probes[0]:
        flags.append("machine speed differs: speed probe %.3g ms vs %.3g ms" % tuple(probes))
    for k in ENV_KEYS:
        seen = {str(r["environment"].get(k)) for r in base + change}
        if len(seen) > 1:
            flags.append("environment differs: %s %s" % (k, sorted(seen)))

    print("%-20s %-24s %12s %7s %12s %7s %8s %6s  %s" % (
        "workload", "metric", "base", "spread", "change", "spread", "gain", "bound", "verdict"))
    for workload in sorted({r["workload"] for r in base + change}):
        for m in spec["end_to_end"]:
            b = [r["result"]["metrics"][m["name"]]["value"] for r in base
                 if r["workload"] == workload and m["name"] in r["result"]["metrics"]]
            c = [r["result"]["metrics"][m["name"]]["value"] for r in change
                 if r["workload"] == workload and m["name"] in r["result"]["metrics"]]
            if not b or not c:
                continue
            mb, mc = stats.median(b), stats.median(c)
            worse = (mc - mb) / mb if m["better"] == "lower" else (mb - mc) / mb
            if stats.spread(b) > m["bound"] or stats.spread(c) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            print("%-20s %-24s %12.5g %7.3f %12.5g %7.3f %+7.1f%% %6.2f  %s" % (
                workload, m["name"], mb, stats.spread(b), mc, stats.spread(c),
                -100.0 * worse, m["bound"], verdict))
    for f in flags:
        print("FLAG: " + f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
