"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload pretrain-graph --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory and everything the run writes goes under `.perfbench/`. Inputs
are generated from the seed in a child process, so the measured process
holds only the workload. The run repeats the workload's commands until
`--seconds` have passed and prints, as its last stdout line, one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`. Full results, with the environment and input digests, go to
`.perfbench/results/`. See perfbench/README.md for every metric.
"""

from __future__ import annotations

import os

# BLAS threads must be fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import subprocess
import sys
import time

import stats
import workloads as wl
from layers import HOOKS, LAYER_METRICS, PKG, layer_metrics
from spans import Installed, Tracer
from speed import Gauge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# end-to-end metrics of BENCHMARK.json: every workload reports each of them
# under these names, read from its own phase (see README.md)
END_TO_END = {
    "setup_s": ("s", "setup_s"),
    "peak_rss_mb": ("MB", "peak_rss_mb"),
    "work_s.norm": ("s", "work_s.norm"),
    "train.items_per_s.norm": ("1/s", {"pretrain": "pretrain.examples_per_s.norm",
                                       "finetune-eval": "finetune.questions_per_s.norm"}),
    "train.loss_final": ("nat", {"pretrain": "pretrain.loss_final",
                                 "finetune-eval": "finetune.loss_final"}),
}

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio", "command_s": "s",
         "work_s": "s",
         "pretrain.examples_per_s": "1/s", "pretrain.loss_final": "nat",
         "finetune.questions_per_s": "1/s", "finetune.loss_final": "nat",
         "eval_qa.questions_per_s": "1/s", "eval_lp.queries_per_s": "1/s",
         "qa.accuracy": "ratio", "lp.mrr": "ratio"}


def speed_probe_ms() -> float:
    """Median time of a fixed loop of small numpy ops, a gauge of machine speed.

    The program does not run here, so a change to it cannot move the probe;
    a probe that differs between two runs means the machine did.
    """
    import numpy as np
    a = np.full((24, 64), 0.5, dtype=np.float32)
    b = np.full((64, 64), 0.25, dtype=np.float32)
    times = []
    for _ in range(7):
        t = time.perf_counter()
        for _ in range(2000):
            a = np.tanh(a @ b)
        times.append(1000.0 * (time.perf_counter() - t))
    return stats.median(times)


def environment() -> dict:
    import numpy as np
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": None, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "cpu_model": None, "load_avg_start": list(os.getloadavg()),
           "git_sha": None, "git_dirty": None, "src_sha256": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else None
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*a):
            return subprocess.run(["git", "-C", ROOT, *a], capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        env["git_sha"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain", "--", "src"))
    env["src_sha256"] = wl.combined_digest(wl.file_digests(os.path.join(SRC, PKG)))
    return env


def _summarise(workload: str, reps: list[wl.Rep]) -> dict:
    """Every end-to-end metric of the run: medians over repetitions, pooled
    step times, and `.norm` rates from each unit's median normalised time."""
    phase = "finetune" if workload == "finetune-eval" else "pretrain"
    out: dict[str, float] = {}
    keys = sorted({k for r in reps for k in r.values})
    for key in keys:
        out[key] = stats.median([r.values[key] for r in reps if key in r.values])
    norm = stats.median_unit_s([r.units for r in reps])
    if norm:
        out["work_s.norm"] = sum(norm.values())
    for name, (key, items) in reps[0].rates.items():
        if norm.get(key):
            out[name + ".norm"] = items / norm[key]
    steps = [x for r in reps for x in r.step_ms]
    if steps:
        out["%s.step_ms.p50" % phase] = stats.median(steps)
        tail = stats.tail_percentile(len(steps))
        if tail is not None:
            out["%s.step_ms.p%g" % (phase, tail)] = stats.percentile(steps, tail)
        out["%s.step_ms.n" % phase] = len(steps)
    return out


def _unit(name: str) -> str:
    if ".step_ms.n" in name:
        return "count"
    if ".step_ms." in name:
        return "ms"
    base = name.removesuffix(".norm").removesuffix(".wall")
    return UNITS.get(base) or LAYER_METRICS.get(name, "")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="perfbench")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)  # child: write inputs
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PKG, "__init__.py")):
        print("perfbench: program source %s not found" % os.path.join(SRC, PKG), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.generate:
        wl.generate_inputs(args.workload, args.seed, args.generate)
        return 0

    env = environment()
    env["speed_probe_ms_start"] = speed_probe_ms()
    work = os.path.join(ROOT, ".perfbench", "%s-s%d" % (args.workload, args.seed))
    results = os.path.join(ROOT, ".perfbench", "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(results, exist_ok=True)
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "rep")
    gen = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", "0", "--generate", inputs],
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=120)
    sys.stderr.write(gen.stdout)
    if gen.returncode != 0:
        print("perfbench: input generation failed (exit %d)" % gen.returncode, file=sys.stderr)
        return 1
    digests = wl.file_digests(inputs)

    import dragonforge.cli  # noqa: F401  (imports every program module the hooks wrap)

    traced = Tracer()
    reps: list[wl.Rep] = []
    missing: list[str] = []
    t0 = time.perf_counter()
    last = 0.0  # duration of the latest repetition: start another only if half of one still fits
    while (not reps or time.perf_counter() - t0 + last / 2 < args.seconds
           or (args.trace and len(reps) < 2)):
        started = time.perf_counter()
        trace_this = bool(args.trace) and bool(reps)   # traced runs keep rep 0 untraced as reference
        tracer = traced if trace_this else Tracer(Gauge())
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        hooks = Installed(tracer, HOOKS, trace_this, PKG)
        try:
            rep = wl.run_rep(args.workload, tracer, inputs, out, args.seed)
        finally:
            hooks.remove()
        rep.traced = trace_this
        last = time.perf_counter() - started
        missing = hooks.missing
        if reps and rep.digest != reps[0].digest:
            for cmd in rep.commands:
                cmd.outcome.failed_checks.append(
                    "outputs differ from the first (untraced) repetition")
        reps.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env["speed_probe_ms_end"] = speed_probe_ms()
    shutil.rmtree(out, ignore_errors=True)

    outcomes = [c.outcome for r in reps for c in r.commands]
    attempted, failed = stats.tally(outcomes)
    timed = [r for r in reps if r.traced == bool(args.trace)]
    summary = _summarise(args.workload, timed)
    summary.update(peak_rss_mb=peak_rss_mb, error_rate=failed / attempted)

    phase = "finetune-eval" if args.workload == "finetune-eval" else "pretrain"
    if args.trace:
        lp_skip = summary.get("evaluation.lp_skip_frac", 0.0)
        metrics = layer_metrics(traced.spans, missing, lp_skip)
        shown = {k: (metrics[k], LAYER_METRICS[k]) for k in LAYER_METRICS if k in metrics}
    else:
        shown = {}
        for name, (unit, source) in END_TO_END.items():
            key = source if isinstance(source, str) else source[phase]
            if key in summary:
                shown[name] = (summary[key], unit)

    for name in sorted(summary):
        print("%-44s %14.6g %s" % (name, summary[name], _unit(name)))
    for name, (value, unit) in shown.items():
        if name not in summary:
            print("%-44s %14.6g %s" % (name, value, unit))
    for target in missing:
        print("perfbench: hook target %s is gone; its metrics are left out" % target,
              file=sys.stderr)
    checks = [{"command": o.command, "failed": o.failed, "checks": o.failed_checks,
               "exit_code": o.exit_code} for o in outcomes if o.failed]
    for c in checks:
        print("perfbench: FAILED %s" % json.dumps(c), file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "repetitions": len(timed), "environment": env,
              "inputs": digests, "inputs_sha256": wl.combined_digest(digests),
              "outputs_sha256": reps[0].digest, "summary": summary,
              "per_repetition": [r.values for r in timed],
              "failures": checks, "missing_hooks": missing, "result": result}
    stem = os.path.join(results, "%s-s%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in traced.spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
