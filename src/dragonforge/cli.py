"""Command-line pipeline: vocabulary building, synthetic data generation,
pretraining, finetuning, evaluation, ablations, and attention dumps.

Configuration is a flat `key = value` text format with `#` comments; flags
take precedence over a config file, which takes precedence over defaults.
The effective configuration is written next to every command's outputs and
reproduces the run when fed back through --config under the same seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from itertools import zip_longest

from . import evaluation as ev
from . import numerics as nm
from . import pretrain as pt
from .encoder import EncoderConfig
from .finetune import (DataError, FinetuneConfig, evaluate_mcqa, finetune_mcqa,
                       load_mcqa, read_jsonl)
from .kg_store import EmptyGraphError, KGParseError, Vocab, load_kg
from .retrieval import RESERVED_TOKENS, Retriever, build_vocab, segment_corpus

SEED_ENV_VAR = "DRAGONFORGE_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# key -> default; value types drive parsing of file/flag overrides
DEFAULTS: dict[str, object] = {
    "seed": 0,
    "vocab.min_freq": 2,
    "encoder.n_unimodal": 2,
    "encoder.n_fusion": 2,
    "encoder.d_text": 64,
    "encoder.d_node": 32,
    "encoder.heads_text": 4,
    "encoder.heads_gnn": 2,
    "encoder.d_mint_hidden": 128,
    "encoder.d_ffn": 0,
    "encoder.dropout": 0.1,
    "encoder.max_seq_len": 64,
    "encoder.max_nodes": 24,
    "encoder.fusion": "bidirectional",
    "pretrain.mask_rate": 0.15,
    "pretrain.edge_drop_rate": 0.15,
    "pretrain.n_negatives": 16,
    "pretrain.margin": 0.0,
    "pretrain.scorer": "distmult",
    "pretrain.objective": "joint",
    "pretrain.kg_mode": "graph",
    "pretrain.batch_size": 8,
    "pretrain.steps": 300,
    "pretrain.lr_lm": 3e-4,
    "pretrain.lr_other": 1e-3,
    "pretrain.warmup_ratio": 0.1,
    "pretrain.grad_clip": 1.0,
    "pretrain.checkpoint_every": 0,
    "pretrain.optimizer": "adam",
    "finetune.epochs": 6,
    "finetune.batch_size": 8,
    "finetune.lr_lm": 1e-4,
    "finetune.lr_other": 1e-3,
    "finetune.warmup_ratio": 0.1,
    "finetune.grad_clip": 1.0,
    "finetune.freeze_lm_epochs": 0,
    "finetune.train_fraction": 1.0,
    "finetune.early_stop": True,
    "world.n_entities": 500,
    "world.n_relations": 8,
    "world.n_facts": 5000,
    "world.leak_rate": 0.1,
    "world.sentences_per_doc": 4,
    "world.eval_doc_fraction": 0.1,
    "world.structure": "chains",
    "eval.lp_baseline_steps": 600,
    "eval.lp_baseline_dim": 32,
}


class ConfigError(ValueError):
    pass


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError("%s: expected a boolean, got %r" % (key, raw))
    try:
        return type(default)(raw)
    except ValueError:
        raise ConfigError("%s: expected %s, got %r" % (key, type(default).__name__, raw)) from None


def parse_config_text(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value, got %r" % (lineno, line))
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        values[key] = _coerce(key, raw)
    return values


class RunConfig:
    """Merged configuration with per-key provenance (default | file | flag)."""

    def __init__(self, config_file: str | None = None,
                 overrides: dict[str, object] | None = None,
                 seed_flag: int | None = None):
        self.values = dict(DEFAULTS)
        self.provenance = {k: "default" for k in DEFAULTS}
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            self.values["seed"] = _coerce("seed", env_seed)
            self.provenance["seed"] = "env"
        if config_file is not None:
            with open(config_file, encoding="utf-8") as fh:
                for k, v in parse_config_text(fh.read()).items():
                    self.values[k] = v
                    self.provenance[k] = "file"
        for k, v in (overrides or {}).items():
            if k not in DEFAULTS:
                raise ConfigError("unknown config key %r" % k)
            self.values[k] = v
            self.provenance[k] = "flag"
        if seed_flag is not None:
            self.values["seed"] = seed_flag
            self.provenance["seed"] = "flag"

    def __getitem__(self, key: str):
        return self.values[key]

    def to_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            lines.append("%s = %s  # %s" % (key, self.values[key], self.provenance[key]))
        return "\n".join(lines) + "\n"

    def section(self, prefix: str) -> dict[str, object]:
        plen = len(prefix) + 1
        return {k[plen:]: v for k, v in self.values.items() if k.startswith(prefix + ".")}

    def _build(self, prefix: str, cls, **extra):
        try:
            return cls(**extra, **self.section(prefix))
        except ValueError as e:
            raise ConfigError("%s.%s" % (prefix, e)) from None

    def encoder_config(self) -> EncoderConfig:
        return self._build("encoder", EncoderConfig)

    def pretrain_config(self) -> pt.PretrainConfig:
        return self._build("pretrain", pt.PretrainConfig, seed=self.values["seed"])

    def finetune_config(self) -> FinetuneConfig:
        return self._build("finetune", FinetuneConfig, seed=self.values["seed"])

    @classmethod
    def from_checkpoint_text(cls, text: str) -> "RunConfig":
        cfg = cls()
        for k, v in parse_config_text(text).items():
            cfg.values[k] = v
            cfg.provenance[k] = "file"
        return cfg


def _write_effective_config(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "effective_config.txt")
    with open(path, "w", encoding="utf-8") as fh:
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
        p.add_argument("--seed", type=int, help="root seed (overrides %s)" % SEED_ENV_VAR)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")

    p = sub.add_parser("build-vocab", help="build a token vocabulary from a corpus")
    p.add_argument("--corpus", required=True)
    common(p)

    p = sub.add_parser("gen-synthetic", help="generate an aligned corpus + KG world")
    common(p)

    p = sub.add_parser("pretrain", help="joint masked-token + link-prediction pretraining")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--aliases")
    p.add_argument("--vocab", help="token vocab TSV; built from the corpus when omitted")
    common(p)

    p = sub.add_parser("finetune", help="finetune a checkpoint on multiple-choice QA")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--test")
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
    p.add_argument("--mode", choices=["kg_plus_text", "kg_only"], default="kg_plus_text")
    common(p)

    p = sub.add_parser("ablation", help="train/evaluate the full ablation grid")
    p.add_argument("--grid", default="default", choices=["default", "smoke"])
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    common(p)

    p = sub.add_parser("dump-attention", help="export graph attention for one example")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--text", required=True)
    common(p)
    return parser


def _run_config(args) -> RunConfig:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError("--set expects KEY=VALUE, got %r" % item)
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError("unknown config key %r" % key)
        overrides[key] = _coerce(key, raw)
    return RunConfig(config_file=args.config, overrides=overrides, seed_flag=args.seed)


def _load_checkpoint_bundle(args, flags: RunConfig, kg_mode: str | None = None):
    """--checkpoint parameters, its config overridden by anything given on the
    CLI, and a Retriever in kg_mode (by default the config's pretrain.kg_mode)
    over the --kg graph, whose entity and relation vocabularies must be the
    checkpoint's: the same names under the same ids."""
    params, token_vocab, entities, relations, config_text = pt.load_checkpoint(args.checkpoint)
    cfg = RunConfig.from_checkpoint_text(config_text)
    for key, prov in flags.provenance.items():
        if prov in ("flag", "file", "env"):
            cfg.values[key] = flags.values[key]
            cfg.provenance[key] = prov
    kg, kg_entities, kg_relations = load_kg(args.kg)
    for kind, ours, theirs in (("entity", kg_entities.names, entities.names),
                               ("relation", kg_relations.names, relations.names)):
        for i, (a, b) in enumerate(zip_longest(ours, theirs)):
            if a != b:
                raise DataError("%s: %s id %d is %r, but %r in checkpoint %s"
                                % (args.kg, kind, i, a, b, args.checkpoint))
    enc_cfg = cfg.encoder_config()
    return params, Retriever(kg, entities, relations, token_vocab, enc_cfg.max_seq_len,
                             enc_cfg.max_nodes, kg_mode or cfg.pretrain_config().kg_mode), cfg


def _cmd_build_vocab(args, cfg: RunConfig) -> int:
    vocab = build_vocab(args.corpus, min_freq=cfg["vocab.min_freq"])
    _write_effective_config(cfg, args.out)   # makes the directory
    with open(os.path.join(args.out, "vocab.tsv"), "w", encoding="utf-8") as fh:
        fh.write(vocab.to_tsv())
    print("wrote %d tokens to %s" % (len(vocab), os.path.join(args.out, "vocab.tsv")))
    return EXIT_OK


def _cmd_gen_synthetic(args, cfg: RunConfig) -> int:
    world = ev.generate_synthetic_world(seed=cfg["seed"], **cfg.section("world"))
    paths = world.write_files(args.out)
    _write_effective_config(cfg, args.out)
    print("wrote %d files to %s (%d facts, %d train docs)"
          % (len(paths), args.out, len(world.facts), len(world.train_docs)))
    return EXIT_OK


def _cmd_pretrain(args, cfg: RunConfig) -> int:
    kg, entities, relations = load_kg(args.kg, alias_file=args.aliases)
    if args.vocab:
        with open(args.vocab, encoding="utf-8") as fh:
            token_vocab = Vocab.from_tsv(fh.read(), args.vocab, RESERVED_TOKENS)
    else:
        token_vocab = build_vocab(args.corpus, min_freq=cfg["vocab.min_freq"])
    enc_cfg = cfg.encoder_config()
    segments = segment_corpus(args.corpus, enc_cfg.max_seq_len)
    _write_effective_config(cfg, args.out)
    ckpt = os.path.join(args.out, "checkpoint.drgn")
    metrics = os.path.join(args.out, "metrics.jsonl")
    _, records = pt.train(segments, kg, entities, relations, token_vocab, enc_cfg,
                          cfg.pretrain_config(), metrics_path=metrics,
                          checkpoint_path=ckpt, config_text=cfg.to_text())
    print("pretrained %d steps; final loss %.4f; checkpoint %s"
          % (len(records), records[-1]["loss"], ckpt))
    return EXIT_OK


def _cmd_finetune(args, cfg_flags: RunConfig) -> int:
    params, retriever, cfg = _load_checkpoint_bundle(args, cfg_flags)
    enc_cfg = cfg.encoder_config()
    train_set = load_mcqa(args.train)
    dev_set = load_mcqa(args.dev)
    _write_effective_config(cfg, args.out)
    params, history = finetune_mcqa(train_set, dev_set, retriever, params, enc_cfg,
                                    cfg.finetune_config())
    ckpt = os.path.join(args.out, "finetuned.drgn")
    pt.save_checkpoint(ckpt, params, retriever.token_vocab, retriever.entities,
                       retriever.relations, cfg.to_text())
    reports = {"dev": {"split": "dev", **evaluate_mcqa(dev_set, retriever, params, enc_cfg,
                                                       cfg["seed"])}}
    if args.test:
        test_set = load_mcqa(args.test)
        reports["test"] = {"split": "test", **evaluate_mcqa(test_set, retriever, params, enc_cfg,
                                                            cfg["seed"])}
    with open(os.path.join(args.out, "accuracy.json"), "w", encoding="utf-8") as fh:
        json.dump({"history": history, "reports": reports}, fh, indent=2)
    print("finetuned; dev accuracy %.4f%s"
          % (reports["dev"]["accuracy"],
             "; test accuracy %.4f" % reports["test"]["accuracy"] if args.test else ""))
    return EXIT_OK


def _cmd_eval_qa(args, cfg_flags: RunConfig) -> int:
    params, retriever, cfg = _load_checkpoint_bundle(args, cfg_flags)
    if "other.pool.wq" not in params:
        raise DataError("%s: checkpoint has no QA head; run finetune first" % args.checkpoint)
    data = load_mcqa(args.data)
    report = {"split": os.path.basename(args.data),
              **evaluate_mcqa(data, retriever, params, cfg.encoder_config())}
    _write_effective_config(cfg, args.out)
    with open(os.path.join(args.out, "accuracy.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print("accuracy %.4f over %d examples" % (report["accuracy"], report["n"]))
    return EXIT_OK


def _cmd_eval_lp(args, cfg_flags: RunConfig) -> int:
    # candidates are local-graph nodes, so queries always get graph inputs
    params, retriever, cfg = _load_checkpoint_bundle(args, cfg_flags, kg_mode="graph")
    queries = read_jsonl(args.test, dict.fromkeys(("head", "rel", "tail", "text"), str), dict)
    entities, relations, kg = retriever.entities, retriever.relations, retriever.kg
    known_true = {(entities.names[h], relations.names[r], entities.names[t])
                  for h, r, t in kg.triplets}
    known_true |= {(q["head"], q["rel"], q["tail"]) for q in queries}
    if args.mode == "kg_plus_text":
        pre_cfg = cfg.pretrain_config()
        if pre_cfg.kg_mode != "graph":
            raise ConfigError("pretrain.kg_mode: --mode kg_plus_text scores graph inputs, which "
                              "a %s checkpoint never saw; use --mode kg_only" % pre_cfg.kg_mode)
        scorer = ev.ContextualScorer(params, cfg.encoder_config(), pt.linkpred_head(params, pre_cfg))
    else:
        ent_emb, rel_emb = ev.train_distmult_baseline(
            kg, d=cfg["eval.lp_baseline_dim"], steps=cfg["eval.lp_baseline_steps"],
            seed=cfg["seed"])
        scorer = ev.NonContextualScorer(ent_emb, rel_emb)
    report = ev.eval_link_prediction(scorer, queries, retriever, known_true, seed=cfg["seed"])
    _write_effective_config(cfg, args.out)
    with open(os.path.join(args.out, "ranking.json"), "w", encoding="utf-8") as fh:
        json.dump({"mode": args.mode, **dataclasses.asdict(report)}, fh, indent=2)
    print("%s: Hit@3 %.4f MRR %.4f over %d queries (%d skipped)"
          % (args.mode, report.hits3, report.mrr, report.n_queries, report.skipped))
    return EXIT_OK


def _cmd_ablation(args, cfg: RunConfig) -> int:
    world = ev.generate_synthetic_world(seed=cfg["seed"], **cfg.section("world"))
    seeds = tuple(int(s) for s in args.seeds.split(","))
    kwargs = {}
    if args.grid == "smoke":
        kwargs = {"lp_query_limit": 20}
    rows = ev.run_ablation_suite(world, cfg.encoder_config(), cfg.pretrain_config(),
                                 cfg.finetune_config(), seeds=seeds, **kwargs)
    _write_effective_config(cfg, args.out)
    with open(os.path.join(args.out, "ablation.tsv"), "w", encoding="utf-8") as fh:
        fh.write(ev.ablation_tsv(rows))
    with open(os.path.join(args.out, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
    print("wrote %d ablation rows to %s" % (len(rows), args.out))
    return EXIT_OK


def _cmd_dump_attention(args, cfg_flags: RunConfig) -> int:
    params, retriever, cfg = _load_checkpoint_bundle(args, cfg_flags)
    seg, local = retriever.inputs([args.text], nm.split_rng(cfg["seed"], "dump"))
    lines = ev.dump_attention(params, cfg.encoder_config(), seg, local)
    _write_effective_config(cfg, args.out)
    path = os.path.join(args.out, "attention.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote %d attention lines to %s" % (len(lines), path))
    return EXIT_OK


_COMMANDS = {
    "build-vocab": _cmd_build_vocab,
    "gen-synthetic": _cmd_gen_synthetic,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "eval-qa": _cmd_eval_qa,
    "eval-lp": _cmd_eval_lp,
    "ablation": _cmd_ablation,
    "dump-attention": _cmd_dump_attention,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _run_config(args)
        return _COMMANDS[args.command](args, cfg)
    except (ConfigError,) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IsADirectoryError) as e:
        print("data error: %s: %s" % (e.filename, e.strerror), file=sys.stderr)
        return EXIT_DATA
    except (KGParseError, EmptyGraphError, DataError, ValueError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    except (nm.NumericError, pt.TrainingDiverged) as e:
        print("numeric abort: %s" % e, file=sys.stderr)
        return EXIT_NUMERIC


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
