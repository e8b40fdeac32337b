"""Command-line pipeline: synthetic data generation, pretraining, finetuning,
evaluation, ablations, and attention dumps. pretrain builds its token
vocabulary from its --corpus; every later command reads it from the
checkpoint.

Configuration is a flat `key = value` text format with `#` comments. Its
sources are layered, each over the ones before: the defaults (declared by
the library signatures that consume them) < --config < --set < --seed. A
command that loads a checkpoint lays the checkpoint's config, with the
provenance `checkpoint`, over the defaults and under every other source. One
parser, parse_config_text, reads each source as lines: a --config file, the
--set items in order and a checkpoint's config text. Its errors name
`<source>:<line>`, and the key where there is one.
The effective configuration is written next to every command's outputs and
reproduces the run when fed back through --config under the same seed.

`ablation` writes a world and its own effective configuration. Each cell of
ABLATION_CELLS (DRAGON's ablation: the full model, then one change at a time)
and each seed then runs through main() as the commands a user would type,
pretrain, finetune, eval-qa on the test questions and (cells that train link
prediction) eval-lp, with outputs in <out>/cells/<cell>-seed<seed>/<command>/.
A row is read from those outputs; a failing command becomes its status.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import inspect
import io
import json
import math
import os
import sys
import traceback
from functools import cache, partial
from itertools import product, zip_longest

from . import evaluation as ev
from . import numerics as nm
from . import pretrain as pt
from .encoder import BIDIRECTIONAL, CONCAT_AT_END, EncoderConfig, param_shapes
from .finetune import (DataError, FinetuneConfig, evaluate_mcqa, finetune_mcqa,
                       load_mcqa, pooling_head_shapes, read_jsonl)
from .kg_store import load_kg, read_text
from .retrieval import Retriever, build_vocab, segment_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# name -> the four settings of an ablation cell: the full model, or one change
# to it; a verbalized KG trains no link prediction, so that cell is mlm_only
ABLATION_CELLS: dict[str, dict[str, str]] = {
    name: {"pretrain.objective": "joint", "pretrain.scorer": "distmult",
           "encoder.fusion": BIDIRECTIONAL, "pretrain.kg_mode": "graph", **change}
    for name, change in {
        "dragon": {},
        "mlm_only": {"pretrain.objective": "mlm_only"},
        "linkpred_only": {"pretrain.objective": "linkpred_only"},
        "transe": {"pretrain.scorer": "transe"},
        "rotate": {"pretrain.scorer": "rotate"},
        "concat_at_end": {"encoder.fusion": CONCAT_AT_END},
        "verbalized": {"pretrain.objective": "mlm_only", "pretrain.kg_mode": "verbalized"},
    }.items()}


def _signature_defaults(section: str, fn) -> dict[str, object]:
    """`section.name` -> default of every defaulted parameter of fn but seed."""
    return {"%s.%s" % (section, name): p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty and name != "seed"}


# key -> default; value types drive parsing of file/flag overrides. Each
# default is declared once, by the signature that consumes it.
DEFAULTS: dict[str, object] = {
    "seed": 0,
    **_signature_defaults("vocab", build_vocab),
    **_signature_defaults("encoder", EncoderConfig),
    **_signature_defaults("pretrain", pt.PretrainConfig),
    **_signature_defaults("finetune", FinetuneConfig),
    **_signature_defaults("world", ev.generate_synthetic_world),
}


class ConfigError(ValueError):
    pass


def parse_config_text(lines: list[str], source: str) -> dict[str, object]:
    """{key: value} of `key = value` lines, each value of its default's type;
    `#` starts a comment. A ConfigError names `<source>:<line>`."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        where = "%s:%d" % (source, lineno)
        if not eq:
            raise ConfigError("%s: expected key = value, got %r" % (where, line))
        if key not in DEFAULTS:
            raise ConfigError("%s: unknown key %r" % (where, key))
        kind = type(DEFAULTS[key])
        try:
            values[key] = kind(raw)
        except ValueError:
            raise ConfigError("%s: %s: expected %s, got %r" % (where, key, kind.__name__, raw)) from None
        if kind is float and not math.isfinite(values[key]):
            raise ConfigError("%s: %s: expected a finite float, got %r" % (where, key, raw))
    return values


class RunConfig:
    """DEFAULTS overlaid by (provenance, {key: value}) layers in order; each key
    keeps its last layer's provenance. Keys are checked where they are parsed.
    The layers are kept, so that a checkpoint's config can be laid under them."""

    def __init__(self, *layers: tuple[str, dict[str, object]]):
        self.layers = layers
        self.values = dict(DEFAULTS)
        self.provenance = dict.fromkeys(DEFAULTS, "default")
        for provenance, values in layers:
            for k, v in values.items():
                self.values[k] = v
                self.provenance[k] = provenance

    def __getitem__(self, key: str):
        return self.values[key]

    def to_text(self) -> str:
        return "".join("%s = %s  # %s\n" % (key, self.values[key], self.provenance[key])
                       for key in sorted(self.values))

    def section(self, prefix: str) -> dict[str, object]:
        return {k[len(prefix) + 1:]: v for k, v in self.values.items() if k.startswith(prefix + ".")}

    def _build(self, prefix: str, cls, **extra):
        try:
            return cls(**extra, **self.section(prefix))
        except ValueError as e:
            raise ConfigError("%s.%s" % (prefix, e)) from None

    def encoder_config(self) -> EncoderConfig:
        return self._build("encoder", EncoderConfig)

    def pretrain_config(self) -> pt.PretrainConfig:
        cfg = self._build("pretrain", pt.PretrainConfig, seed=self.values["seed"])
        try:
            pt.relation_table_width(cfg.scorer, self.values["encoder.d_node"])
        except ValueError as e:
            raise ConfigError("pretrain.scorer: %s" % e) from None
        return cfg

    def finetune_config(self) -> FinetuneConfig:
        return self._build("finetune", FinetuneConfig, seed=self.values["seed"])

    def world(self) -> ev.SyntheticWorld:
        return self._build("world", ev.generate_synthetic_world, seed=self.values["seed"])

    def validate(self) -> None:
        """Build every model and training section; a bad value raises ConfigError."""
        self.encoder_config(), self.pretrain_config(), self.finetune_config()


def _write_effective_config(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.txt"), "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dragonforge")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="config file (flat key = value)")
        p.add_argument("--seed", type=int, help="root seed (overrides --config and --set)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")

    p = sub.add_parser("gen-synthetic", help="generate an aligned corpus + KG world")
    common(p)

    p = sub.add_parser("pretrain", help="joint masked-token + link-prediction pretraining")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--aliases")
    common(p)

    p = sub.add_parser("finetune", help="finetune a checkpoint on multiple-choice QA")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    common(p)

    p = sub.add_parser("eval-qa", help="evaluate a checkpoint on a QA dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--data", required=True)
    common(p)

    p = sub.add_parser("eval-lp", help="link-prediction ranking evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--test", required=True, help="JSONL {head, rel, tail, text}")
    p.add_argument("--mode", choices=["kg_plus_text"], default="kg_plus_text")
    common(p)

    p = sub.add_parser("ablation", help="train/evaluate the declared ablation cells")
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    common(p)

    p = sub.add_parser("dump-attention", help="export graph attention for one example")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--text", required=True)
    common(p)
    return parser


def _run_config(args) -> RunConfig:
    config = ({} if args.config is None else
              parse_config_text(read_text(args.config).splitlines(), args.config))
    return RunConfig(("file", config), ("flag", parse_config_text(args.set, "--set")),
                     ("flag", {} if args.seed is None else {"seed": args.seed}))


def _load_checkpoint_bundle(args, flags: RunConfig, kg_mode: str | None = None):
    """--checkpoint parameters, its config overridden by anything given on the
    CLI, and a Retriever in kg_mode (by default the config's pretrain.kg_mode)
    over the --kg graph, whose entity and relation vocabularies must be the
    checkpoint's: the same names under the same ids.

    The checkpoint's own config must be valid; the run's config must declare
    every tensor, the encoder's must all be present and each head's all or
    none, each with its declared shape; otherwise CheckpointError names the
    file."""
    params, token_vocab, entities, relations, config_text = pt.load_checkpoint(args.checkpoint)
    source = "%s (config text)" % args.checkpoint
    try:
        ckpt_values = parse_config_text(config_text.splitlines(), source)
    except ConfigError as e:
        raise pt.CheckpointError(str(e)) from None
    try:
        RunConfig(("checkpoint", ckpt_values)).validate()
    except ConfigError as e:
        raise pt.CheckpointError("%s: %s" % (source, e)) from None
    cfg = RunConfig(("checkpoint", ckpt_values), *flags.layers)
    enc_cfg = cfg.encoder_config()
    declared = param_shapes(enc_cfg, len(token_vocab), len(entities), len(relations))
    for shapes in [*pt.pretrain_head_shapes(enc_cfg, cfg.pretrain_config().scorer,
                                            len(token_vocab), len(relations)),
                   pooling_head_shapes(enc_cfg)]:
        if shapes.keys() & params.keys():   # a head is whole or absent
            declared.update(shapes)
    for name, (shape, _) in declared.items():
        if name not in params:
            raise pt.CheckpointError("%s: no tensor %r" % (args.checkpoint, name))
        if params[name].shape != shape:
            raise pt.CheckpointError("%s: tensor %r has shape %s, the config declares %s"
                                     % (args.checkpoint, name, params[name].shape, shape))
    unknown = sorted(params.keys() - declared.keys())
    if unknown:
        raise pt.CheckpointError("%s: no config declares tensor %r" % (args.checkpoint, unknown[0]))
    kg, kg_entities, kg_relations = load_kg(args.kg)
    for kind, ours, theirs in (("entity", kg_entities.names, entities.names),
                               ("relation", kg_relations.names, relations.names)):
        for i, (a, b) in enumerate(zip_longest(ours, theirs)):
            if a != b:
                raise DataError("%s: %s id %d is %r, but %r in checkpoint %s"
                                % (args.kg, kind, i, a, b, args.checkpoint))
    return params, Retriever(kg, entities, relations, token_vocab, enc_cfg.max_seq_len,
                             enc_cfg.max_nodes, kg_mode or cfg.pretrain_config().kg_mode), cfg


def _cmd_gen_synthetic(args, cfg: RunConfig) -> int:
    world = cfg.world()
    paths = world.write_files(args.out)
    _write_effective_config(cfg, args.out)
    print("wrote %d files to %s (%d facts, %d train docs)"
          % (len(paths), args.out, len(world.facts), len(world.train_docs)))
    return EXIT_OK


def _cmd_pretrain(args, cfg: RunConfig) -> int:
    enc_cfg, pre_cfg = cfg.encoder_config(), cfg.pretrain_config()
    kg, entities, relations = load_kg(args.kg, alias_file=args.aliases)
    token_vocab = build_vocab(args.corpus, min_freq=cfg["vocab.min_freq"])
    segments = segment_corpus(args.corpus, enc_cfg.max_seq_len)
    if not segments:
        raise DataError("%s: no training segments" % args.corpus)
    _write_effective_config(cfg, args.out)
    ckpt = os.path.join(args.out, "checkpoint.drgn")
    metrics = os.path.join(args.out, "metrics.jsonl")
    _, records = pt.train(segments, kg, entities, relations, token_vocab, enc_cfg, pre_cfg,
                          metrics_path=metrics, checkpoint_path=ckpt, config_text=cfg.to_text())
    print("pretrained %d steps; final loss %.4f; checkpoint %s"
          % (len(records), records[-1]["loss"], ckpt))
    return EXIT_OK


def _cmd_finetune(args, cfg_flags: RunConfig) -> int:
    params, retriever, cfg = _load_checkpoint_bundle(args, cfg_flags)
    train_set, dev_set = load_mcqa(args.train), load_mcqa(args.dev)
    enc_cfg, ft_cfg = cfg.encoder_config(), cfg.finetune_config()
    _write_effective_config(cfg, args.out)
    params, history, dev = finetune_mcqa(train_set, dev_set, retriever, params, enc_cfg, ft_cfg)
    ckpt = os.path.join(args.out, "finetuned.drgn")
    pt.save_checkpoint(ckpt, params, retriever.token_vocab, retriever.entities,
                       retriever.relations, cfg.to_text())
    with open(os.path.join(args.out, "accuracy.json"), "w", encoding="utf-8") as fh:
        json.dump({"history": history, "reports": {"dev": {"split": "dev", **dev}}}, fh, indent=2)
    print("finetuned; dev accuracy %.4f" % dev["accuracy"])
    return EXIT_OK


def _cmd_eval_qa(args, cfg_flags: RunConfig) -> int:
    params, retriever, cfg = _load_checkpoint_bundle(args, cfg_flags)
    if "other.pool.wq" not in params:
        raise DataError("%s: checkpoint has no QA head; run finetune first" % args.checkpoint)
    data = load_mcqa(args.data)
    report = {"split": os.path.basename(args.data), **evaluate_mcqa(
        data, retriever, params, cfg.encoder_config(), cfg.finetune_config())}
    _write_effective_config(cfg, args.out)
    with open(os.path.join(args.out, "accuracy.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print("accuracy %.4f over %d examples" % (report["accuracy"], report["n"]))
    return EXIT_OK


def _cmd_eval_lp(args, cfg_flags: RunConfig) -> int:
    # candidates are local-graph nodes, so queries always get graph inputs
    params, retriever, cfg = _load_checkpoint_bundle(args, cfg_flags, kg_mode="graph")
    queries = read_jsonl(args.test, dict.fromkeys(("head", "rel", "tail", "text"), str), dict)
    pre_cfg = cfg.pretrain_config()
    hint = "use a checkpoint pretrained with pretrain.kg_mode=graph and a joint or linkpred_only objective"
    if not pre_cfg.trains_lp:
        why = ("pretrain.kg_mode: eval-lp scores graph inputs, which a %s checkpoint never saw"
               % pre_cfg.kg_mode if pre_cfg.kg_mode != "graph" else
               "pretrain.objective: eval-lp ranks with the link-prediction head, which an %s "
               "checkpoint never trained" % pre_cfg.objective)
        raise ConfigError("%s; %s" % (why, hint))
    if "other.linkpred.relations" not in params:
        raise DataError("%s: checkpoint has no link-prediction head; %s" % (args.checkpoint, hint))
    scorer = ev.ContextualScorer(params, cfg.encoder_config(), pt.linkpred_head(params, pre_cfg))
    report = ev.eval_link_prediction(scorer, queries, retriever, seed=cfg["seed"],
                                     batch_size=cfg.finetune_config().batch_size)
    _write_effective_config(cfg, args.out)
    with open(os.path.join(args.out, "ranking.json"), "w", encoding="utf-8") as fh:
        json.dump({"mode": args.mode, **dataclasses.asdict(report)}, fh, indent=2)
    print("%s: Hit@3 %.4f MRR %.4f over %d queries (%d skipped)"
          % (args.mode, report.hits3, report.mrr, report.n_queries, report.skipped))
    return EXIT_OK


def _run_command(argv: list[str]) -> str | None:
    """main(argv): None when it succeeds, else "error: <command>: " and its
    last stderr line or the exception that escaped it."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            if main(argv) == EXIT_OK:
                return None
    except Exception as e:   # a cell's failure must not stop the grid
        traceback.print_exc()
        err.write("%s: %s\n" % (type(e).__name__, e))
    return "error: %s: %s" % (argv[0], err.getvalue().splitlines()[-1])


def _cmd_ablation(args, cfg: RunConfig) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ConfigError("--seeds: expected comma-separated integers, got %r"
                          % args.seeds) from None
    if len(set(seeds)) < len(seeds):   # each run of a cell writes <cell>-seed<seed>/
        raise ConfigError("--seeds: a seed is repeated in %r" % args.seeds)
    cfg.validate()
    files = cfg.world().write_files(os.path.join(args.out, "world"))
    _write_effective_config(cfg, args.out)
    columns = ["cell", *ABLATION_CELLS["dragon"], "seed", "mcqa_accuracy", "lp_mrr", "status"]
    rows = []
    for (name, settings), seed in product(ABLATION_CELLS.items(), seeds):
        row = dict(zip(columns, (name, *settings.values(), seed, "", "", "ok")))
        rows.append(row)
        out = os.path.join(args.out, "cells", "%s-seed%d" % (name, seed))
        flags = ["--kg", files["kg.tsv"], "--seed", str(seed),
                 "--config", os.path.join(args.out, "effective_config.txt")]
        flags += [arg for setting in settings.items() for arg in ("--set", "%s=%s" % setting)]
        finetuned = os.path.join(out, "finetune", "finetuned.drgn")
        commands = [["pretrain", "--corpus", files["corpus.txt"],
                     "--aliases", files["aliases.tsv"]],
                    ["finetune", "--train", files["mcqa_train.jsonl"],
                     "--dev", files["mcqa_dev.jsonl"],
                     "--checkpoint", os.path.join(out, "pretrain", "checkpoint.drgn")],
                    ["eval-qa", "--data", files["mcqa_test.jsonl"], "--checkpoint", finetuned]]
        trains_lp = pt.PretrainConfig(objective=settings["pretrain.objective"],
                                      kg_mode=settings["pretrain.kg_mode"]).trains_lp
        if trains_lp:   # eval-lp ranks graph inputs with the link-prediction head
            commands.append(["eval-lp", "--test", files["lp_test.jsonl"], "--checkpoint", finetuned])
        for command in commands:
            status = _run_command(command + flags + ["--out", os.path.join(out, command[0])])
            if status:
                row["status"] = status
                break
        else:   # every command succeeded
            accuracy = json.loads(read_text(os.path.join(out, "eval-qa", "accuracy.json")))
            row["mcqa_accuracy"] = round(accuracy["accuracy"], 4)
            if trains_lp:
                ranking = json.loads(read_text(os.path.join(out, "eval-lp", "ranking.json")))
                row["lp_mrr"] = round(ranking["mrr"], 4) if ranking["n_queries"] else ""
                row["status"] = "ok" if ranking["n_queries"] else "no-lp-queries"
    with open(os.path.join(args.out, "ablation.tsv"), "w", encoding="utf-8") as fh:
        fh.write("".join("\t".join(map(str, values)) + "\n"
                         for values in [columns] + [list(row.values()) for row in rows]))
    with open(os.path.join(args.out, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
    print("wrote %d ablation rows to %s" % (len(rows), args.out))
    return EXIT_OK


def _cmd_dump_attention(args, cfg_flags: RunConfig) -> int:
    params, retriever, cfg = _load_checkpoint_bundle(args, cfg_flags)
    seg, local = retriever.inputs([args.text], partial(nm.split_rng, cfg["seed"], "dump"))
    lines = ev.dump_attention(params, cfg.encoder_config(), seg, local)
    _write_effective_config(cfg, args.out)
    path = os.path.join(args.out, "attention.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote %d attention lines to %s" % (len(lines), path))
    return EXIT_OK


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "eval-qa": _cmd_eval_qa,
    "eval-lp": _cmd_eval_lp,
    "ablation": _cmd_ablation,
    "dump-attention": _cmd_dump_attention,
}


# glibc's mallopt parameters (malloc.h) and the values the CLI fixes them at
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_TRIM_THRESHOLD, _HEAP_MMAP_THRESHOLD = 64 << 20, 32 << 20   # the latter glibc's 64-bit maximum


@cache
def _pin_heap() -> None:
    """Keep freed memory in the process heap, once per process.

    A training step frees and allocates the same arrays, up to a few hundred
    KB each, every step. By default glibc serves the larger ones with mmap
    and trims the freed top of the heap, handing pages back to the kernel,
    and the next step faults them in again. Where the C library has no
    mallopt, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    _pin_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _run_config(args)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        where = "" if e.filename is None else "%s: " % e.filename
        print("data error: %s%s" % (where, e.strerror or e), file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    except (nm.NumericError, pt.TrainingDiverged) as e:
        ckpt = getattr(args, "checkpoint", None)   # named once, also when loading it failed
        where = "" if ckpt is None or str(e).startswith(ckpt + ": ") else ckpt + ": "
        print("numeric abort: %s%s" % (where, e), file=sys.stderr)
        return EXIT_NUMERIC


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
