"""Workload inputs and the repetitions that drive the program's CLI in-process.

Each workload repeats one fixed unit of work (a repetition) until the run's
time is up: the same commands on the same inputs, so every repetition must
write byte-identical outputs. A repetition is timed through the spans of
`spans.Tracer`; untraced repetitions install only the hooks that mark
commands, loop functions and unit boundaries, and the probe points of the
tracer's machine-speed gauge. Durations leave out the probes' own time.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field

from spans import END, NAME, OK, PARENT, ROLE, START, Tracer
from stats import CommandOutcome

WORKLOADS = ("pretrain-graph", "pretrain-verbalized", "finetune-eval")

BATCH = 8                 # the CLI default batch size for pretrain and finetune
PRETRAIN_STEPS = 10       # steps in one pretrain repetition
LOSS_TAIL = 5             # loss_final averages the losses of this many last steps
START_CKPT_STEPS = 20     # untimed pretrain that makes finetune-eval's checkpoint
FT_EPOCHS = 1
# finetune-eval inputs: the first questions/queries of each generated split
FT_SUBSETS = {"ft_train.jsonl": ("mcqa_train.jsonl", 32),
              "ft_dev.jsonl": ("mcqa_dev.jsonl", 8),
              "ft_test.jsonl": ("mcqa_test.jsonl", 16),
              "lp_queries.jsonl": ("lp_test.jsonl", 50)}


class CommandFailed(RuntimeError):
    pass


def _cli(argv: list[str]) -> int:
    """Run one dragonforge command in this process; its console lines go to stderr."""
    from dragonforge import cli
    with contextlib.redirect_stdout(sys.stderr):
        try:
            return cli.main(argv)
        except Exception:  # an uncaught program error is a failed command, not a crash
            traceback.print_exc(file=sys.stderr)
            return 70


def generate_inputs(workload: str, seed: int, out_dir: str) -> None:
    """Write every input file of one workload for one seed.

    The world is the CLI-default synthetic "chains" world for `seed`.
    finetune-eval also gets question and query subsets and a starting
    checkpoint from a short pretrain, which belongs to the inputs and is
    not timed.
    """
    if _cli(["gen-synthetic", "--out", out_dir, "--seed", str(seed)]) != 0:
        raise CommandFailed("gen-synthetic failed for seed %d" % seed)
    if workload != "finetune-eval":
        return
    for name, (source, n) in FT_SUBSETS.items():
        with open(os.path.join(out_dir, source), encoding="utf-8") as fh:
            lines = fh.readlines()[:n]
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    argv = ["pretrain", "--corpus", os.path.join(out_dir, "corpus.txt"),
            "--kg", os.path.join(out_dir, "kg.tsv"), "--out", os.path.join(out_dir, "start"),
            "--seed", str(seed), "--set", "pretrain.steps=%d" % START_CKPT_STEPS]
    if _cli(argv) != 0:
        raise CommandFailed("starting-checkpoint pretrain failed for seed %d" % seed)


def file_digests(root: str) -> dict[str, str]:
    """sha256 of every file under `root`, keyed by relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


@dataclass
class Command:
    name: str
    span: int            # index of the command span in the tracer
    end: int             # one past the command's last span
    outcome: CommandOutcome


@dataclass
class Rep:
    commands: list[Command]
    digest: str                                   # sha256 of the deterministic outputs
    traced: bool = False
    values: dict = field(default_factory=dict)    # per-repetition metrics
    step_ms: list[float] = field(default_factory=list)
    # (command, unit kind, normalised ms) of every step, question and query, in order
    units: list[tuple[str, str, float]] = field(default_factory=list)
    # throughput metric -> ((command, unit kind) it times, items that work covers)
    rates: dict[str, tuple[tuple[str, str], int]] = field(default_factory=dict)


def _run_command(tracer: Tracer, argv: list[str], unit: str, planned: int) -> Command:
    tracer.tick(force=True)
    idx = tracer.open("cli." + argv[0], "command")
    rc = _cli(argv)
    tracer.close(idx, ok=rc == 0)
    tracer.tick(force=True)
    spans = tracer.spans
    completed = sum(1 for s in spans[idx + 1:] if s[ROLE] == "unit" and s[NAME] == unit and s[OK])
    return Command(argv[0], idx, len(spans), CommandOutcome(argv[0], planned, completed, rc))


def _within(tracer: Tracer, cmd: Command, name: str) -> list[int]:
    return [i for i in range(cmd.span + 1, cmd.end) if tracer.spans[i][NAME] == name]


def _dur(tracer: Tracer, i: int) -> float:
    return tracer.net(tracer.spans[i][START], tracer.spans[i][END])


def _record_units(tracer: Tracer, rep: Rep) -> None:
    """Fill `rep.units`, and `work_s`: the wall time of all its units."""
    work = 0.0
    for cmd in rep.commands:
        for i in range(cmd.span + 1, cmd.end):
            sp = tracer.spans[i]
            if sp[ROLE] == "unit" and sp[OK]:
                rep.units.append((cmd.name, sp[NAME],
                                  1000.0 * tracer.normalised(sp[START], sp[END])))
                work += _dur(tracer, i)
    rep.values["work_s"] = work


def _setup(tracer: Tracer, commands: list[tuple[Command, str]], rep: Rep) -> None:
    """`setup_s`: from each command's start to its first step, question or
    query, summed over the commands and normalised; `setup_s.wall` as is."""
    wall = norm = 0.0
    for cmd, unit in commands:
        first = _within(tracer, cmd, unit)
        start = tracer.spans[cmd.span][START]
        end = tracer.spans[first[0]][START] if first else tracer.spans[cmd.span][END]
        wall += tracer.net(start, end)
        norm += tracer.normalised(start, end)
    rep.values["setup_s"] = norm
    rep.values["setup_s.wall"] = wall


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        if os.path.exists(p):
            with open(p, "rb") as fh:
                h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _check(cmd: Command, ok: bool, what: str) -> None:
    if not ok:
        cmd.outcome.failed_checks.append(what)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def pretrain_rep(tracer: Tracer, inputs: str, out: str, seed: int, kg_mode: str) -> Rep:
    argv = ["pretrain", "--corpus", os.path.join(inputs, "corpus.txt"),
            "--kg", os.path.join(inputs, "kg.tsv"), "--out", out, "--seed", str(seed),
            "--set", "pretrain.steps=%d" % PRETRAIN_STEPS, "--set", "pretrain.kg_mode=" + kg_mode]
    cmd = _run_command(tracer, argv, "step", PRETRAIN_STEPS)
    metrics_path = os.path.join(out, "metrics.jsonl")
    losses: list[float] = []
    _check(cmd, cmd.outcome.exit_code == 0, "pretrain exited %d" % cmd.outcome.exit_code)
    if cmd.outcome.exit_code == 0:
        with open(metrics_path, encoding="utf-8") as fh:
            losses = [json.loads(line)["loss"] for line in fh if line.strip()]
        _check(cmd, len(losses) == PRETRAIN_STEPS,
               "metrics.jsonl has %d steps, expected %d" % (len(losses), PRETRAIN_STEPS))
        _check(cmd, all(math.isfinite(x) for x in losses), "non-finite pretrain loss")
    steps = [i for i in _within(tracer, cmd, "step") if tracer.spans[i][OK]]
    rep = Rep([cmd], _digest([metrics_path, os.path.join(out, "checkpoint.drgn")]))
    rep.step_ms = [1000.0 * _dur(tracer, i) for i in steps]
    if steps:
        loop_s = tracer.net(tracer.spans[steps[0]][START], tracer.spans[steps[-1]][END])
        rep.values["pretrain.examples_per_s"] = BATCH * len(steps) / loop_s
    _setup(tracer, [(cmd, "step")], rep)
    rep.values["command_s"] = _dur(tracer, cmd.span)
    rep.rates["pretrain.examples_per_s"] = (("pretrain", "step"), BATCH * PRETRAIN_STEPS)
    _record_units(tracer, rep)
    if losses:
        tail = losses[-LOSS_TAIL:]
        rep.values["pretrain.loss_final"] = sum(tail) / len(tail)
    return rep


def _count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def finetune_eval_rep(tracer: Tracer, inputs: str, out: str, seed: int) -> Rep:
    kg = os.path.join(inputs, "kg.tsv")
    n_train = _count_lines(os.path.join(inputs, "ft_train.jsonl"))
    n_test = _count_lines(os.path.join(inputs, "ft_test.jsonl"))
    n_queries = _count_lines(os.path.join(inputs, "lp_queries.jsonl"))
    ft_out, qa_out, lp_out = (os.path.join(out, d) for d in ("finetune", "eval_qa", "eval_lp"))
    tuned = os.path.join(ft_out, "finetuned.drgn")
    common = ["--kg", kg, "--seed", str(seed)]
    ft = _run_command(tracer, ["finetune", "--checkpoint", os.path.join(inputs, "start", "checkpoint.drgn"),
                               "--train", os.path.join(inputs, "ft_train.jsonl"),
                               "--dev", os.path.join(inputs, "ft_dev.jsonl"), "--out", ft_out,
                               "--set", "finetune.epochs=%d" % FT_EPOCHS] + common,
                      "step", FT_EPOCHS * math.ceil(n_train / BATCH))
    qa = _run_command(tracer, ["eval-qa", "--checkpoint", tuned,
                               "--data", os.path.join(inputs, "ft_test.jsonl"), "--out", qa_out] + common,
                      "question", n_test)
    lp = _run_command(tracer, ["eval-lp", "--checkpoint", tuned,
                               "--test", os.path.join(inputs, "lp_queries.jsonl"),
                               "--mode", "kg_plus_text", "--out", lp_out] + common,
                      "query", n_queries)
    outputs = [os.path.join(ft_out, "accuracy.json"), tuned,
               os.path.join(qa_out, "accuracy.json"), os.path.join(lp_out, "ranking.json")]
    rep = Rep([ft, qa, lp], _digest(outputs))
    for cmd in rep.commands:
        _check(cmd, cmd.outcome.exit_code == 0,
               "%s exited %d" % (cmd.name, cmd.outcome.exit_code))
    v = rep.values
    if ft.outcome.exit_code == 0:
        history = _read_json(outputs[0])["history"]
        losses = [h["train_loss"] for h in history]
        _check(ft, len(losses) == FT_EPOCHS and all(math.isfinite(x) for x in losses),
               "finetune history has missing or non-finite losses")
        if losses:
            v["finetune.loss_final"] = losses[-1]
    if qa.outcome.exit_code == 0:
        report = _read_json(outputs[2])
        _check(qa, report["n"] == n_test and 0.0 <= report["accuracy"] <= 1.0,
               "eval-qa scored %d of %d questions" % (report["n"], n_test))
        v["qa.accuracy"] = report["accuracy"]
    if lp.outcome.exit_code == 0:
        report = _read_json(outputs[3])
        _check(lp, report["n_queries"] > 0 and math.isfinite(report["mrr"]),
               "eval-lp ranked no queries")
        v["lp.mrr"] = report["mrr"]
        v["evaluation.lp_skip_frac"] = report["skipped"] / n_queries

    steps = [i for i in _within(tracer, ft, "step") if tracer.spans[i][OK]]
    rep.step_ms = [1000.0 * _dur(tracer, i) for i in steps]
    loops = _within(tracer, ft, "finetune.finetune_mcqa")
    if loops and steps:
        dev = sum(_dur(tracer, i) for i in _within(tracer, ft, "finetune.evaluate_mcqa")
                  if tracer.spans[i][PARENT] == loops[0])
        v["finetune.questions_per_s"] = FT_EPOCHS * n_train / (_dur(tracer, loops[0]) - dev)
    for cmd, loop, n, key in ((qa, "finetune.evaluate_mcqa", n_test, "eval_qa.questions_per_s"),
                              (lp, "evaluation.eval_link_prediction", n_queries,
                               "eval_lp.queries_per_s")):
        spans = _within(tracer, cmd, loop)
        if spans and cmd.outcome.exit_code == 0:
            v[key] = n / _dur(tracer, spans[0])
    _setup(tracer, [(ft, "step"), (qa, "question"), (lp, "query")], rep)
    v["command_s"] = sum(_dur(tracer, c.span) for c in rep.commands)
    rep.rates = {"finetune.questions_per_s": (("finetune", "step"), FT_EPOCHS * n_train),
                 "eval_qa.questions_per_s": (("eval-qa", "question"), n_test),
                 "eval_lp.queries_per_s": (("eval-lp", "query"), n_queries)}
    _record_units(tracer, rep)
    return rep


def run_rep(workload: str, tracer: Tracer, inputs: str, out: str, seed: int) -> Rep:
    if workload == "finetune-eval":
        return finetune_eval_rep(tracer, inputs, out, seed)
    return pretrain_rep(tracer, inputs, out, seed, workload.split("-", 1)[1])
