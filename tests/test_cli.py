"""CLI contracts: determinism, exit codes, config echo, persistence."""

import ctypes
import inspect
import json
import os
import statistics
import struct
import sys
from functools import partial

import numpy as np
import pytest

from dragonforge import cli
from dragonforge import evaluation as ev
from dragonforge import numerics as nm
from dragonforge import pretrain as pt
from dragonforge.cli import (DEFAULTS, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                             RunConfig, main, parse_config_text)
from dragonforge.encoder import EncoderConfig
from dragonforge.finetune import FinetuneConfig
from dragonforge.kg_store import R_EL, load_kg
from dragonforge.retrieval import RESERVED_TOKENS, SEP, Retriever, build_vocab

# leak_rate 0.1 withholds half of the 30 derived facts from the KG; at 0.2
# every one is withheld, the derived relation is not in the KG, and eval-lp
# has no query to rank
MICRO_WORLD = ["--set", "world.n_entities=30", "--set", "world.n_relations=5",
               "--set", "world.n_facts=150", "--set", "world.leak_rate=0.1"]
MICRO_MODEL = ["--set", "encoder.n_unimodal=0", "--set", "encoder.n_fusion=1",
               "--set", "encoder.d_text=16", "--set", "encoder.d_node=8",
               "--set", "encoder.heads_text=2", "--set", "encoder.d_mint_hidden=16",
               "--set", "encoder.max_seq_len=32", "--set", "encoder.max_nodes=8",
               "--set", "vocab.min_freq=1"]


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("world"))
    assert main(["gen-synthetic", "--out", out, "--seed", "11"] + MICRO_WORLD) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def pretrained(world_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pre"))
    code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--aliases", os.path.join(world_dir, "aliases.tsv"),
                 "--out", out, "--seed", "11",
                 "--set", "pretrain.steps=4", "--set", "pretrain.batch_size=2"]
                + MICRO_MODEL)
    assert code == EXIT_OK
    return out


def test_config_text_round_trip():
    cfg = RunConfig(("flag", {"pretrain.steps": 7}))
    parsed = parse_config_text(cfg.to_text())
    assert parsed["pretrain.steps"] == 7
    assert parsed["encoder.d_text"] == DEFAULTS["encoder.d_text"]


def test_library_defaults_are_the_cli_defaults():
    cfg = RunConfig()
    assert EncoderConfig() == cfg.encoder_config()
    assert pt.PretrainConfig() == cfg.pretrain_config()
    assert FinetuneConfig() == cfg.finetune_config()
    world_defaults = {name: p.default for name, p in
                      inspect.signature(ev.generate_synthetic_world).parameters.items()
                      if name != "seed"}
    assert world_defaults == cfg.section("world")


def test_unknown_config_key_rejected(tmp_path):
    assert main(["gen-synthetic", "--out", str(tmp_path / "x"),
                 "--set", "nonsense.key=1"]) == EXIT_USAGE


def test_unknown_flag_exits_usage(tmp_path, capsys):
    assert main(["pretrain", "--does-not-exist", "x", "--out", str(tmp_path)]) == EXIT_USAGE


def test_missing_corpus_exits_data_error(tmp_path, capsys, world_dir):
    code = main(["pretrain", "--corpus", "/no/such/corpus.txt",
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "/no/such/corpus.txt" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n  \n\n\t\n"], ids=["empty", "blank_lines"])
def test_corpus_without_segments_exits_data_error_naming_it(world_dir, tmp_path, capsys, text):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text, encoding="utf-8")
    code = main(["pretrain", "--corpus", str(corpus), "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: %s: no training segments" % corpus]


def test_build_vocab_emits_tsv(world_dir, tmp_path):
    out = str(tmp_path / "v")
    assert main(["build-vocab", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--out", out]) == EXIT_OK
    lines = open(os.path.join(out, "vocab.tsv"), encoding="utf-8").read().splitlines()
    assert lines[0] == "[PAD]\t0"
    assert all(len(line.split("\t")) == 2 for line in lines)


def test_pretrain_metrics_byte_identical_across_runs(world_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                     "--kg", os.path.join(world_dir, "kg.tsv"),
                     "--aliases", os.path.join(world_dir, "aliases.tsv"),
                     "--out", out, "--seed", "7",
                     "--set", "pretrain.steps=10", "--set", "pretrain.batch_size=2"]
                    + MICRO_MODEL)
        assert code == EXIT_OK
        outs.append(out)
    m1 = open(os.path.join(outs[0], "metrics.jsonl"), "rb").read()
    m2 = open(os.path.join(outs[1], "metrics.jsonl"), "rb").read()
    assert m1 == m2
    c1 = open(os.path.join(outs[0], "checkpoint.drgn"), "rb").read()
    c2 = open(os.path.join(outs[1], "checkpoint.drgn"), "rb").read()
    assert c1 == c2


def test_config_echo_reproduces_run(world_dir, pretrained, tmp_path):
    out = str(tmp_path / "echo")
    code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--aliases", os.path.join(world_dir, "aliases.tsv"),
                 "--out", out,
                 "--config", os.path.join(pretrained, "effective_config.txt")])
    assert code == EXIT_OK
    m1 = open(os.path.join(pretrained, "metrics.jsonl"), "rb").read()
    m2 = open(os.path.join(out, "metrics.jsonl"), "rb").read()
    assert m1 == m2


def test_checkpoint_round_trip_forward_bitwise(world_dir, pretrained):
    from dragonforge.encoder import encode
    from dragonforge.kg_store import load_kg
    from dragonforge.retrieval import build_alias_index, link_entities, retrieve_local_kg

    ckpt = os.path.join(pretrained, "checkpoint.drgn")
    kg, _, _ = load_kg(os.path.join(world_dir, "kg.tsv"),
                       alias_file=os.path.join(world_dir, "aliases.tsv"))

    def forward():
        params, tv, entities, relations, text = pt.load_checkpoint(ckpt)
        cfg = RunConfig(("file", parse_config_text(text))).encoder_config()
        raw = open(os.path.join(world_dir, "corpus.txt"), encoding="utf-8").read().split("\n\n")[0]
        seg, v_el = link_entities(raw.replace("\n", " "), build_alias_index(entities), tv)
        local = retrieve_local_kg(v_el, kg, cfg.max_nodes, partial(nm.split_rng, 0, "t"))
        out = encode(seg, local, params, cfg, mode="eval")
        return out.tokens.values.tobytes(), out.nodes.values.tobytes()

    t1, n1 = forward()
    t2, n2 = forward()
    assert t1 == t2 and n1 == n2


def test_finetune_eval_qa_and_subsampling(world_dir, pretrained, tmp_path):
    out = str(tmp_path / "ft")
    code = main(["finetune", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--train", os.path.join(world_dir, "mcqa_train.jsonl"),
                 "--dev", os.path.join(world_dir, "mcqa_dev.jsonl"),
                 "--test", os.path.join(world_dir, "mcqa_test.jsonl"),
                 "--out", out, "--set", "finetune.epochs=1"])
    assert code == EXIT_OK
    report = json.load(open(os.path.join(out, "accuracy.json"), encoding="utf-8"))
    assert "test" in report["reports"]
    assert os.path.exists(os.path.join(out, "finetuned.drgn"))

    out2 = str(tmp_path / "qa")
    code = main(["eval-qa", "--checkpoint", os.path.join(out, "finetuned.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--data", os.path.join(world_dir, "mcqa_test.jsonl"),
                 "--out", out2])
    assert code == EXIT_OK
    rep = json.load(open(os.path.join(out2, "accuracy.json"), encoding="utf-8"))
    assert rep["n"] > 0 and 0.0 <= rep["accuracy"] <= 1.0


def test_eval_lp_both_modes(world_dir, pretrained, tmp_path):
    for mode in ("kg_plus_text", "kg_only"):
        out = str(tmp_path / mode)
        code = main(["eval-lp", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                     "--kg", os.path.join(world_dir, "kg.tsv"),
                     "--test", os.path.join(world_dir, "lp_test.jsonl"),
                     "--mode", mode, "--out", out,
                     "--set", "eval.lp_baseline_steps=50"])
        assert code == EXIT_OK
        rep = json.load(open(os.path.join(out, "ranking.json"), encoding="utf-8"))
        assert rep["mode"] == mode
        assert rep["hits1"] <= rep["hits3"] <= rep["hits10"]
        assert list(rep)[-2:] == ["chance_mrr", "chance_hits3"]
        assert 0.0 < rep["chance_mrr"] <= 1.0 and 0.0 < rep["chance_hits3"] <= 1.0


def test_eval_lp_with_no_rankable_query_reports_zero_mrr(world_dir, pretrained, tmp_path):
    lines = open(os.path.join(world_dir, "lp_test.jsonl"), encoding="utf-8").read().splitlines()
    queries = tmp_path / "unknown_tails.jsonl"
    queries.write_text("".join(json.dumps({**json.loads(line), "tail": "no_such_entity"}) + "\n"
                               for line in lines), encoding="utf-8")
    code = main(["eval-lp", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--test", str(queries),
                 "--out", str(tmp_path / "lp")])
    assert code == EXIT_OK
    rep = json.load(open(tmp_path / "lp" / "ranking.json", encoding="utf-8"))
    assert (rep["mrr"], rep["n_queries"], rep["skipped"]) == (0.0, 0, len(lines))


def test_dump_attention_cli(world_dir, pretrained, tmp_path):
    out = str(tmp_path / "attn")
    first_doc = open(os.path.join(world_dir, "corpus.txt"),
                     encoding="utf-8").read().split("\n\n")[0].replace("\n", " ")
    code = main(["dump-attention", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--text", first_doc, "--out", out])
    assert code == EXIT_OK
    lines = open(os.path.join(out, "attention.jsonl"), encoding="utf-8").read().splitlines()
    assert all(json.loads(line) for line in lines)


def test_overlong_lp_query_and_dump_text_are_cut_to_max_seq_len(world_dir, pretrained, tmp_path):
    ckpt = os.path.join(pretrained, "checkpoint.drgn")
    kg = os.path.join(world_dir, "kg.tsv")
    query = json.loads(open(os.path.join(world_dir, "lp_test.jsonl"), encoding="utf-8").readline())
    query["text"] = " ".join([query["text"]] * 20)   # far past max_seq_len = 32 tokens
    queries = tmp_path / "long.jsonl"
    queries.write_text(json.dumps(query) + "\n", encoding="utf-8")
    out = str(tmp_path / "lp")
    assert main(["eval-lp", "--checkpoint", ckpt, "--kg", kg, "--test", str(queries),
                 "--out", out]) == EXIT_OK
    rep = json.load(open(os.path.join(out, "ranking.json"), encoding="utf-8"))
    assert rep["n_queries"] + rep["skipped"] == 1
    assert main(["dump-attention", "--checkpoint", ckpt, "--kg", kg, "--text", query["text"],
                 "--out", str(tmp_path / "attn")]) == EXIT_OK


@pytest.fixture(scope="module")
def verbalized(world_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("verb"))
    code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--aliases", os.path.join(world_dir, "aliases.tsv"),
                 "--out", out, "--seed", "11", "--set", "pretrain.kg_mode=verbalized",
                 "--set", "pretrain.steps=2", "--set", "pretrain.batch_size=2"]
                + MICRO_MODEL)
    assert code == EXIT_OK
    return os.path.join(out, "checkpoint.drgn")


def test_verbalized_checkpoint_finetunes_and_evaluates_on_verbalized_inputs(
        world_dir, verbalized, tmp_path, monkeypatch):
    from dragonforge import finetune as ft
    batches = []
    encode_batch = ft.encode_batch

    def recording_encode_batch(inputs, *args, **kwargs):
        batches.append(list(inputs))
        return encode_batch(inputs, *args, **kwargs)

    monkeypatch.setattr(ft, "encode_batch", recording_encode_batch)
    kg = os.path.join(world_dir, "kg.tsv")
    ft_out = str(tmp_path / "ft")
    assert main(["finetune", "--checkpoint", verbalized, "--kg", kg,
                 "--train", os.path.join(world_dir, "mcqa_train.jsonl"),
                 "--dev", os.path.join(world_dir, "mcqa_dev.jsonl"),
                 "--out", ft_out, "--set", "finetune.epochs=1"]) == EXIT_OK
    n_finetune = len(batches)
    data = os.path.join(world_dir, "mcqa_test.jsonl")
    assert main(["eval-qa", "--checkpoint", os.path.join(ft_out, "finetuned.drgn"), "--kg", kg,
                 "--data", data, "--out", str(tmp_path / "qa")]) == EXIT_OK
    assert all(local.is_dummy for batch in batches for _, local in batch)
    assert any(seg.token_ids.count(SEP) > 1 for batch in batches[:n_finetune] for seg, _ in batch)

    # eval-qa's inputs are the graph-mode ones plus [SEP] and the retrieved
    # KG's sentences, whenever that KG has an edge besides interaction links
    _, tv, entities, relations, text = pt.load_checkpoint(verbalized)
    enc_cfg = RunConfig(("file", parse_config_text(text))).encoder_config()
    graph = Retriever(load_kg(kg)[0], entities, relations, tv, enc_cfg.max_seq_len,
                      enc_cfg.max_nodes)
    examples = ft.load_mcqa(data)
    evaluated = [example for batch in batches[n_finetune:] for example in batch]
    assert len(evaluated) == sum(len(ex.choices) for ex in examples)
    evaluated = iter(evaluated)
    n_suffixed = 0
    for i, ex in enumerate(examples):
        for c, choice in enumerate(ex.choices):
            seg, _ = next(evaluated)
            g_seg, g_local = graph.inputs([ex.question, choice],
                                          partial(nm.split_rng, 11, "ft_retrieval", i, c))
            assert seg.token_ids[:g_seg.length] == g_seg.token_ids
            suffixed = seg.length > g_seg.length
            assert suffixed == any(r != R_EL for _, r, _ in g_local.edges)
            assert not suffixed or seg.token_ids[g_seg.length] == SEP
            n_suffixed += suffixed
    assert n_suffixed > 0


def test_eval_lp_on_verbalized_checkpoint(world_dir, verbalized, tmp_path, capsys):
    args = ["eval-lp", "--checkpoint", verbalized, "--kg", os.path.join(world_dir, "kg.tsv"),
            "--test", os.path.join(world_dir, "lp_test.jsonl")]
    assert main(args + ["--out", str(tmp_path / "ctx")]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: pretrain.kg_mode: ")
    out = str(tmp_path / "kg_only")
    assert main(args + ["--mode", "kg_only", "--out", out,
                        "--set", "eval.lp_baseline_steps=20"]) == EXIT_OK
    assert json.load(open(os.path.join(out, "ranking.json"), encoding="utf-8"))["n_queries"] > 0


def test_eval_lp_on_mlm_only_checkpoint(world_dir, tmp_path, capsys):
    # mlm_only never trains the link-prediction head it saves, so ranking with
    # it is refused before anything is retrieved or written
    pre = str(tmp_path / "pre")
    assert main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--out", pre, "--seed", "11",
                 "--set", "pretrain.objective=mlm_only", "--set", "pretrain.steps=2",
                 "--set", "pretrain.batch_size=2"] + MICRO_MODEL) == EXIT_OK
    args = ["eval-lp", "--checkpoint", os.path.join(pre, "checkpoint.drgn"),
            "--kg", os.path.join(world_dir, "kg.tsv"),
            "--test", os.path.join(world_dir, "lp_test.jsonl")]
    capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "ctx")]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: pretrain.objective: --mode kg_plus_text ranks with the link-prediction head, "
        "which an mlm_only checkpoint never trained; use --mode kg_only"]
    assert not (tmp_path / "ctx").exists()
    out = str(tmp_path / "kg_only")
    assert main(args + ["--mode", "kg_only", "--out", out,
                        "--set", "eval.lp_baseline_steps=20"]) == EXIT_OK
    assert json.load(open(os.path.join(out, "ranking.json"), encoding="utf-8"))["n_queries"] > 0


def test_numeric_abort_exit_code(world_dir, tmp_path):
    with np.errstate(all="ignore"):
        code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                     "--kg", os.path.join(world_dir, "kg.tsv"),
                     "--out", str(tmp_path / "nan"), "--seed", "1",
                     "--set", "pretrain.steps=40", "--set", "pretrain.lr_lm=100000000.0",
                     "--set", "pretrain.lr_other=100000000.0",
                     "--set", "pretrain.warmup_ratio=0.0"] + MICRO_MODEL)
    assert code == EXIT_NUMERIC


def test_env_var_seed(world_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("DRAGONFORGE_SEED", "123")
    out = str(tmp_path / "env")
    assert main(["gen-synthetic", "--out", out] + MICRO_WORLD) == EXIT_OK
    text = open(os.path.join(out, "effective_config.txt"), encoding="utf-8").read()
    assert "seed = 123  # env" in text
    monkeypatch.setenv("DRAGONFORGE_SEED", "123")
    out2 = str(tmp_path / "env2")
    assert main(["gen-synthetic", "--out", out2, "--seed", "55"] + MICRO_WORLD) == EXIT_OK
    text2 = open(os.path.join(out2, "effective_config.txt"), encoding="utf-8").read()
    assert "seed = 55  # flag" in text2


ABLATION_RUN = ["--set", "pretrain.steps=2", "--set", "pretrain.batch_size=2",
                "--set", "finetune.epochs=1"]


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    # min_freq 5 gives the micro world a smaller vocabulary than the default 2
    out = str(tmp_path_factory.mktemp("abl"))
    assert main(["ablation", "--out", out, "--seed", "5"] + MICRO_WORLD + MICRO_MODEL
                + ABLATION_RUN + ["--set", "vocab.min_freq=5"]) == EXIT_OK
    return out


def test_ablation_default_grid_row_count(ablation):
    lines = open(os.path.join(ablation, "ablation.tsv"), encoding="utf-8").read().splitlines()
    assert lines[0].split("\t") == ["cell", "pretrain.objective", "pretrain.scorer",
                                     "encoder.fusion", "pretrain.kg_mode", "seed",
                                     "mcqa_accuracy", "lp_mrr", "status"]
    rows = json.load(open(os.path.join(ablation, "ablation.json"), encoding="utf-8"))
    assert len(lines) == 1 + len(rows)
    assert [r["cell"] for r in rows] == ["dragon", "mlm_only", "linkpred_only", "transe",
                                         "rotate", "concat_at_end", "verbalized"]
    for r in rows:
        assert {k: r[k] for k in cli.ABLATION_CELLS[r["cell"]]} == cli.ABLATION_CELLS[r["cell"]]
        assert r["seed"] == 0 and r["status"] == "ok", r
        assert isinstance(r["mcqa_accuracy"], float), r
        # eval-lp ranks graph inputs with the link-prediction head, which
        # neither a verbalized KG nor the mlm_only objective trains
        untrained = r["cell"] in ("mlm_only", "verbalized")
        assert (r["lp_mrr"] == "") == untrained, r
        assert os.path.exists(os.path.join(ablation, "cells", r["cell"] + "-seed0", "eval-lp")) \
            != untrained, r


def test_ablation_builds_vocab_with_configured_min_freq(ablation):
    # the ablation's own settings reach every command of every cell
    corpus = os.path.join(ablation, "world", "corpus.txt")
    assert len(build_vocab(corpus, 5)) < len(build_vocab(corpus, 2))
    cells = sorted(os.listdir(os.path.join(ablation, "cells")))
    assert cells == sorted(name + "-seed0" for name in cli.ABLATION_CELLS)
    n_commands = 0
    for cell in cells:
        for command in os.listdir(os.path.join(ablation, "cells", cell)):
            path = os.path.join(ablation, "cells", cell, command, "effective_config.txt")
            values = parse_config_text(open(path, encoding="utf-8").read())
            assert values["vocab.min_freq"] == 5 and values["pretrain.steps"] == 2, path
            n_commands += 1
        ckpt = os.path.join(ablation, "cells", cell, "pretrain", "checkpoint.drgn")
        assert pt.load_checkpoint(ckpt)[1].names == build_vocab(corpus, 5).names
    assert n_commands == 5 * 3 + 2 * 2   # cells with eval-lp, mlm_only and verbalized


def test_ablation_cell_rerun_by_hand_reproduces_row(ablation, tmp_path):
    rows = json.load(open(os.path.join(ablation, "ablation.json"), encoding="utf-8"))
    row = next(r for r in rows if r["cell"] == "rotate")
    cell = os.path.join(ablation, "cells", "rotate-seed0")
    world = os.path.join(ablation, "world")
    out = str(tmp_path)

    def run(command, *args):
        config = os.path.join(cell, command, "effective_config.txt")
        assert main([command, *args, "--kg", os.path.join(world, "kg.tsv"), "--config", config,
                     "--out", os.path.join(out, command)]) == EXIT_OK

    run("pretrain", "--corpus", os.path.join(world, "corpus.txt"),
        "--aliases", os.path.join(world, "aliases.tsv"))
    run("finetune", "--checkpoint", os.path.join(out, "pretrain", "checkpoint.drgn"),
        "--train", os.path.join(world, "mcqa_train.jsonl"),
        "--dev", os.path.join(world, "mcqa_dev.jsonl"),
        "--test", os.path.join(world, "mcqa_test.jsonl"))
    run("eval-lp", "--checkpoint", os.path.join(out, "finetune", "finetuned.drgn"),
        "--test", os.path.join(world, "lp_test.jsonl"))
    for command, name in (("pretrain", "metrics.jsonl"), ("finetune", "accuracy.json"),
                          ("eval-lp", "ranking.json")):
        assert open(os.path.join(out, command, name), "rb").read() == \
            open(os.path.join(cell, command, name), "rb").read(), name
    accuracy = json.load(open(os.path.join(out, "finetune", "accuracy.json"), encoding="utf-8"))
    ranking = json.load(open(os.path.join(out, "eval-lp", "ranking.json"), encoding="utf-8"))
    assert row["mcqa_accuracy"] == round(accuracy["reports"]["test"]["accuracy"], 4)
    assert row["lp_mrr"] == round(ranking["mrr"], 4)


def test_ablation_records_an_unexpected_exception_as_the_cell_status(tmp_path, monkeypatch):
    trained = []

    def no_training(segments, kg, entities, relations, token_vocab, enc_cfg, pre_cfg, **kwargs):
        trained.append(({"pretrain.objective": pre_cfg.objective, "pretrain.scorer": pre_cfg.scorer,
                         "encoder.fusion": enc_cfg.fusion, "pretrain.kg_mode": pre_cfg.kg_mode},
                        pre_cfg.seed))
        raise RuntimeError("not trained")

    monkeypatch.setattr(pt, "train", no_training)
    out = str(tmp_path / "abl")
    assert main(["ablation", "--out", out, "--seeds", "0,1"] + MICRO_WORLD) == EXIT_OK
    rows = json.load(open(os.path.join(out, "ablation.json"), encoding="utf-8"))
    assert [(r["cell"], r["seed"]) for r in rows] == [
        (name, seed) for name in cli.ABLATION_CELLS for seed in (0, 1)]
    assert {r["status"] for r in rows} == {"error: pretrain: RuntimeError: not trained"}
    # one pretrain per cell per seed, each with its cell's settings
    assert trained == [(settings, seed) for settings in cli.ABLATION_CELLS.values()
                       for seed in (0, 1)]


def test_ablation_records_a_failing_command_as_the_cell_status(tmp_path, monkeypatch):
    # an odd node width suits every cell's config but rotate's, whose pretrain
    # exits 1; its last stderr line becomes the status and the grid goes on
    def no_training(*args, **kwargs):
        raise RuntimeError("not trained")

    monkeypatch.setattr(pt, "train", no_training)
    out = str(tmp_path / "abl")
    assert main(["ablation", "--out", out, "--set", "encoder.d_node=7",
                 "--set", "encoder.heads_gnn=1"] + MICRO_WORLD) == EXIT_OK
    rows = json.load(open(os.path.join(out, "ablation.json"), encoding="utf-8"))
    assert {r["cell"]: r["status"] for r in rows} == {
        name: "error: pretrain: error: pretrain.scorer: rotate needs an even encoder.d_node, got 7"
        if name == "rotate" else "error: pretrain: RuntimeError: not trained"
        for name in cli.ABLATION_CELLS}


def test_ablation_bad_seeds_exit_usage_before_the_world_is_written(tmp_path, capsys):
    out = tmp_path / "abl"
    assert main(["ablation", "--out", str(out), "--seeds", "1,x"]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: --seeds: expected comma-separated integers, got '1,x'"]
    assert not out.exists()


@pytest.mark.parametrize("setting", ["encoder.d_text=abc", "encoder.heads_text=5",
                                     "pretrain.scorer=bogus", "pretrain.steps=0",
                                     "pretrain.optimizer=adamw", "pretrain.batch_size=0",
                                     "pretrain.mask_rate=0", "pretrain.margin=nan",
                                     "pretrain.margin=inf", "pretrain.lr_lm=inf",
                                     "encoder.max_nodes=0",
                                     "world.n_relations=20", "world.n_facts=0",
                                     "world.leak_rate=0.9", "world.sentences_per_doc=0",
                                     "world.leak_rate=-1", "world.eval_doc_fraction=2"])
def test_bad_config_value_exits_usage(world_dir, tmp_path, capsys, setting):
    pretrain = ["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                "--kg", os.path.join(world_dir, "kg.tsv"), "--set", "pretrain.steps=1"]
    for command in [["gen-synthetic"], ["ablation"]] if setting.startswith("world.") else [pretrain]:
        code = main(command + ["--out", str(tmp_path / "o"), "--set", setting])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + setting.split("=")[0] + ": ")


def test_rotate_with_odd_node_width_exits_usage_before_reading_data(tmp_path, capsys):
    code = main(["pretrain", "--corpus", str(tmp_path / "missing.txt"),
                 "--kg", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "o"),
                 "--set", "pretrain.scorer=rotate", "--set", "encoder.heads_gnn=1",
                 "--set", "encoder.d_node=33"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: pretrain.scorer: rotate needs an even encoder.d_node, got 33"]


def test_linkpred_only_with_verbalized_kg_exits_usage_before_reading_data(tmp_path, capsys):
    # verbalized inputs carry a dummy graph, so link prediction has nothing to train
    code = main(["pretrain", "--corpus", str(tmp_path / "missing.txt"),
                 "--kg", str(tmp_path / "missing.tsv"), "--vocab", str(tmp_path / "missing.tsv"),
                 "--out", str(tmp_path / "o"), "--set", "pretrain.objective=linkpred_only",
                 "--set", "pretrain.kg_mode=verbalized"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: pretrain.objective: linkpred_only ")
    assert not (tmp_path / "o").exists()


def test_bad_finetune_config_value_exits_usage(world_dir, pretrained, tmp_path, capsys):
    code = main(["finetune", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--train", os.path.join(world_dir, "mcqa_train.jsonl"),
                 "--dev", os.path.join(world_dir, "mcqa_dev.jsonl"),
                 "--out", str(tmp_path / "ft"), "--set", "finetune.batch_size=0"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: finetune.batch_size: must be >= 1, got 0"]


def test_eval_qa_without_qa_head_exits_data_error(world_dir, pretrained, tmp_path, capsys):
    ckpt = os.path.join(pretrained, "checkpoint.drgn")
    code = main(["eval-qa", "--checkpoint", ckpt, "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--data", os.path.join(world_dir, "mcqa_test.jsonl"),
                 "--out", str(tmp_path / "qa")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: checkpoint has no QA head; run finetune first" % ckpt]


def test_eval_lp_without_linkpred_head_exits_data_error(world_dir, pretrained, tmp_path, capsys):
    params, token_vocab, entities, relations, config_text = pt.load_checkpoint(
        os.path.join(pretrained, "checkpoint.drgn"))
    del params["other.linkpred.relations"]
    ckpt = str(tmp_path / "no_lp_head.drgn")
    pt.save_checkpoint(ckpt, params, token_vocab, entities, relations, config_text)
    code = main(["eval-lp", "--checkpoint", ckpt, "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--test", os.path.join(world_dir, "lp_test.jsonl"), "--mode", "kg_plus_text",
                 "--out", str(tmp_path / "lp")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: checkpoint has no link-prediction head; use --mode kg_only" % ckpt]


def test_finetune_reports_dev_accuracy_under_run_seed(world_dir, pretrained, tmp_path):
    # max_nodes=1 makes retrieval sample, so the retrieval seed changes the inputs
    out = str(tmp_path / "ft")
    code = main(["finetune", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--train", os.path.join(world_dir, "mcqa_train.jsonl"),
                 "--dev", os.path.join(world_dir, "mcqa_dev.jsonl"),
                 "--out", out, "--seed", "3", "--set", "encoder.max_nodes=1",
                 "--set", "finetune.epochs=3"])
    assert code == EXIT_OK
    report = json.load(open(os.path.join(out, "accuracy.json"), encoding="utf-8"))
    best = max(h["dev_accuracy"] for h in report["history"])
    assert report["reports"]["dev"]["accuracy"] == best


def test_finetune_test_report_equals_eval_qa_under_run_seed(world_dir, pretrained, tmp_path,
                                                           monkeypatch):
    # max_nodes=1 makes retrieval sample; eval-qa reads the run seed and
    # max_nodes from the finetuned checkpoint's config
    from dragonforge import finetune as ft
    tables = []
    choice_logits = ft.choice_logits

    def recording_choice_logits(*args):
        logits = choice_logits(*args)
        if len(args) == 3:   # eval mode: no dropout seeds
            tables.append(logits.values.copy())
        return logits

    monkeypatch.setattr(ft, "choice_logits", recording_choice_logits)
    test = os.path.join(world_dir, "mcqa_test.jsonl")
    ft_out, qa_out = str(tmp_path / "ft"), str(tmp_path / "qa")
    assert main(["finetune", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--train", os.path.join(world_dir, "mcqa_train.jsonl"),
                 "--dev", os.path.join(world_dir, "mcqa_dev.jsonl"), "--test", test,
                 "--out", ft_out, "--seed", "7", "--set", "encoder.max_nodes=1",
                 "--set", "finetune.epochs=1"]) == EXIT_OK
    n_finetune = len(tables)
    assert main(["eval-qa", "--checkpoint", os.path.join(ft_out, "finetuned.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--data", test,
                 "--out", qa_out]) == EXIT_OK
    finetune_report = json.load(open(os.path.join(ft_out, "accuracy.json"),
                                     encoding="utf-8"))["reports"]["test"]
    qa_report = json.load(open(os.path.join(qa_out, "accuracy.json"), encoding="utf-8"))
    assert {**finetune_report, "split": None} == {**qa_report, "split": None}
    evaluated = tables[n_finetune:]
    assert evaluated
    # finetune's last eval-mode batches are its --test evaluation
    for ours, theirs in zip(tables[n_finetune - len(evaluated):n_finetune], evaluated):
        np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("bad_line", ["zzz\t999", "zzz", None],
                         ids=["non_dense_id", "no_tab", "missing_reserved"])
def test_pretrain_rejects_malformed_vocab(world_dir, tmp_path, capsys, bad_line):
    vocab_dir = str(tmp_path / "v")
    assert main(["build-vocab", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--out", vocab_dir]) == EXIT_OK
    vocab = os.path.join(vocab_dir, "vocab.tsv")
    lines = open(vocab, encoding="utf-8").read().splitlines()
    if bad_line is None:   # the corpus words alone, numbered from 0
        lines = ["%s\t%d" % (line.split("\t")[0], i)
                 for i, line in enumerate(lines[len(RESERVED_TOKENS):])]
        bad_lineno = 1
    else:
        lines, bad_lineno = lines + [bad_line], len(lines) + 1
    with open(vocab, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--vocab", vocab,
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "%s:%d:" % (vocab, bad_lineno) in err[0]


def first_tensor_header(data: bytes) -> int:
    """Offset of the first tensor's dtype tag; its rank byte and dimensions follow."""
    def skip_blob(pos):
        return pos + 4 + struct.unpack_from("<I", data, pos)[0]

    pos = skip_blob(8)                          # magic, version, config text
    (n_tables,) = struct.unpack_from("<I", data, pos)
    pos += 4
    for _ in range(2 * n_tables):               # each table's name and text
        pos = skip_blob(pos)
    return skip_blob(pos + 4)                   # the tensor count, the first tensor's name


def tensor_data(data: bytes, name: str) -> int:
    """Offset of a checkpoint tensor's first float."""
    pos = data.index(name.encode()) + len(name)   # its dtype tag and rank follow the name
    return pos + 2 + 4 * data[pos + 1]


@pytest.mark.parametrize("corruption", ["truncated", "alias_out_of_range", "tokens_byte_flipped",
                                        "last_float_inf", "rank_200", "first_dim_max",
                                        "config_key_flipped", "tensor_name_flipped",
                                        "config_d_text_17", "config_d_text_18", "huge_gain"])
def test_corrupt_checkpoint_exits_data_error(world_dir, pretrained, tmp_path, capsys, corruption):
    """A corrupt checkpoint exits 2 (data), or 3 (numeric) for a non-finite
    tensor or one that overflows the forward pass, with one line naming the file."""
    good = os.path.join(pretrained, "checkpoint.drgn")
    bad = str(tmp_path / "bad.drgn")
    data = bytearray(open(good, "rb").read())
    if corruption in ("rank_200", "first_dim_max"):
        header = first_tensor_header(data)
        if corruption == "rank_200":
            data[header + 1] = 200
        else:
            data[header + 2:header + 6] = struct.pack("<I", 0xFFFFFFFF)
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = "data error: %s: " % bad
    elif corruption == "truncated":
        with open(bad, "wb") as fh:
            fh.write(data[:len(data) // 2])
        expected = "%s: truncated" % bad
    elif corruption == "tokens_byte_flipped":
        data[data.index(b"[PAD]\t0\n")] ^= 0xFF   # the tokens table comes first
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = "data error: %s: tokens table is not valid UTF-8" % bad
    elif corruption == "config_key_flipped":
        data[data.index(b"eval.lp_baseline_dim") + len("eval.lp_baseline_")] ^= 0x20   # d -> D
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = ("data error: %s: config text: line 13: unknown key 'eval.lp_baseline_Dim'"
                    % bad)
    elif corruption == "tensor_name_flipped":
        data[data.index(b"lm.layer0.ffn.w1") + len("lm.layer0.ffn.w")] ^= 0x01   # w1 -> w0
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = "data error: %s: no tensor 'lm.layer0.ffn.w1'" % bad
    elif corruption.startswith("config_d_text_"):
        # 17: heads_text 2 no longer divides it; 18: valid, but not the tensors' width
        d_text = corruption[-2:]
        pos = data.index(b"encoder.d_text = 16") + len("encoder.d_text = ")
        data[pos:pos + 2] = d_text.encode()
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = ("data error: %s: config text: encoder.heads_text: 2 does not divide d_text 17"
                    % bad if d_text == "17" else "data error: %s: tensor 'lm.tok_emb' has shape" % bad)
    elif corruption == "last_float_inf":
        data[-4:] = struct.pack("<f", np.inf)
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = "numeric abort: %s: checkpoint tensor" % bad
    elif corruption == "huge_gain":   # finite, so it loads; a layer norm overflows
        pos = tensor_data(data, "lm.emb_ln.g")
        data[pos:pos + 4] = struct.pack("<f", 3e38)
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = "numeric abort: %s: " % bad
    else:
        params, token_vocab, entities, relations, config_text = pt.load_checkpoint(good)
        entities.aliases["zzz"] = 999
        pt.save_checkpoint(bad, params, token_vocab, entities, relations, config_text)
        expected = "%s (aliases table):%d:" % (bad, sorted(entities.aliases).index("zzz") + 1)
    with np.errstate(all="ignore"):
        code = main(["dump-attention", "--checkpoint", bad, "--text", "zzz",
                     "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path / "attn")])
    assert code == (EXIT_NUMERIC if corruption in ("last_float_inf", "huge_gain") else EXIT_DATA)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and expected in err[0]


@pytest.mark.parametrize("name, expected", [
    ("other.pool.mlp.w1", "no tensor 'other.pool.mlp.w1'"),
    ("lm.mlm_head.w", "no tensor 'lm.mlm_head.w'"),
    ("other.linkpred.relations", "no config declares tensor 'other.linkpred.relationr'"),
], ids=["pooling_head_in_part", "mlm_head_in_part", "undeclared_name"])
def test_flipped_head_tensor_name_exits_data_error(world_dir, finetuned, tmp_path, capsys,
                                                   name, expected):
    data = bytearray(open(finetuned, "rb").read())
    data[data.index(name.encode()) + len(name) - 1] ^= 0x01
    bad = str(tmp_path / "bad.drgn")
    with open(bad, "wb") as fh:
        fh.write(data)
    code = main(["dump-attention", "--checkpoint", bad, "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--text", "zzz", "--out", str(tmp_path / "attn")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: %s: %s" % (bad, expected)]


def test_head_shape_that_differs_from_its_declaration_exits_data_error(world_dir, pretrained,
                                                                      tmp_path, capsys):
    # a distmult relation table is d_node wide; rotate declares d_node / 2
    ckpt = os.path.join(pretrained, "checkpoint.drgn")
    code = main(["eval-lp", "--checkpoint", ckpt, "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--test", os.path.join(world_dir, "lp_test.jsonl"), "--out", str(tmp_path / "lp"),
                 "--set", "pretrain.scorer=rotate"])
    assert code == EXIT_DATA
    n_relations = len(pt.load_checkpoint(ckpt)[3])
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: tensor 'other.linkpred.relations' has shape (%d, 8), the config "
        "declares (%d, 4)" % (ckpt, n_relations, n_relations)]


def test_finetune_with_empty_train_file_exits_data_error(world_dir, pretrained, tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    train.write_text("", encoding="utf-8")
    code = main(["finetune", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--train", str(train),
                 "--dev", os.path.join(world_dir, "mcqa_dev.jsonl"), "--out", str(tmp_path / "ft")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: no questions to train on" % train]
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("setting, message", [
    ("eval.lp_baseline_dim=-1", "eval.lp_baseline_dim: must be >= 1, got -1"),
    ("eval.lp_baseline_dim=0", "eval.lp_baseline_dim: must be >= 1, got 0"),
    ("eval.lp_baseline_steps=-5", "eval.lp_baseline_steps: must be >= 0, got -5"),
], ids=["dim=-1", "dim=0", "steps=-5"])
def test_bad_lp_baseline_setting_exits_usage(world_dir, pretrained, tmp_path, capsys, setting,
                                             message):
    for command in (["eval-lp", "--mode", "kg_only",
                     "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                     "--kg", os.path.join(world_dir, "kg.tsv"),
                     "--test", os.path.join(world_dir, "lp_test.jsonl")], ["ablation"]):
        code = main(command + ["--out", str(tmp_path / "o"), "--set", setting])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == ["error: " + message]
        assert not (tmp_path / "o").exists()


def test_finetune_with_empty_dev_file_exits_data_error(world_dir, pretrained, tmp_path, capsys):
    dev = tmp_path / "dev.jsonl"
    dev.write_text("", encoding="utf-8")
    code = main(["finetune", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--train", os.path.join(world_dir, "mcqa_train.jsonl"), "--dev", str(dev),
                 "--out", str(tmp_path / "ft"), "--set", "finetune.epochs=2"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: %s: " % dev)


@pytest.mark.parametrize("bad_line", [
    "[1, 2]",
    '{"head": "a", "rel": "b", "tail": "c", "text": 5}',
    '{"head": 3, "rel": "b", "tail": "c", "text": "a b c"}',
], ids=["not_an_object", "text_not_a_string", "head_not_a_string"])
def test_eval_lp_rejects_malformed_query_line(world_dir, pretrained, tmp_path, capsys, bad_line):
    queries = tmp_path / "queries.jsonl"
    first = open(os.path.join(world_dir, "lp_test.jsonl"), encoding="utf-8").readline()
    queries.write_text(first + bad_line + "\n", encoding="utf-8")
    code = main(["eval-lp", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--test", str(queries),
                 "--out", str(tmp_path / "lp")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: %s:2: " % queries)


@pytest.fixture(scope="module")
def finetuned(world_dir, pretrained, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ft"))
    code = main(["finetune", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--train", os.path.join(world_dir, "mcqa_train.jsonl"),
                 "--dev", os.path.join(world_dir, "mcqa_dev.jsonl"),
                 "--out", out, "--set", "finetune.epochs=1"])
    assert code == EXIT_OK
    return os.path.join(out, "finetuned.drgn")


@pytest.mark.parametrize("command", ["eval-qa", "eval-lp"])
def test_kg_that_disagrees_with_checkpoint_vocab_exits_data_error(world_dir, finetuned, tmp_path,
                                                                  capsys, command):
    # the same triplets in another line order give the entities other ids
    lines = open(os.path.join(world_dir, "kg.tsv"), encoding="utf-8").read().splitlines()
    shuffled = tmp_path / "kg.tsv"
    shuffled.write_text("".join(lines[i] + "\n" for i in np.random.default_rng(0).permutation(len(lines))),
                        encoding="utf-8")
    _, _, entities, _, _ = pt.load_checkpoint(finetuned)
    _, shuffled_entities, _ = load_kg(str(shuffled))
    i = next(i for i, (a, b) in enumerate(zip(shuffled_entities.names, entities.names)) if a != b)
    data = ["--data", os.path.join(world_dir, "mcqa_test.jsonl")] if command == "eval-qa" \
        else ["--test", os.path.join(world_dir, "lp_test.jsonl")]
    code = main([command, "--checkpoint", finetuned, "--kg", str(shuffled),
                 "--out", str(tmp_path / "o")] + data)
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: entity id %d is %r, but %r in checkpoint %s"
        % (shuffled, i, shuffled_entities.names[i], entities.names[i], finetuned)]


def test_kg_with_a_reserved_relation_name_exits_data_error(world_dir, tmp_path, capsys):
    lines = open(os.path.join(world_dir, "kg.tsv"), encoding="utf-8").read().splitlines()
    kg = tmp_path / "kg.tsv"
    kg.write_text("".join(line + "\n" for line in lines[:3] + ["a\t[R_EL]\tb"] + lines[3:]),
                  encoding="utf-8")
    out = tmp_path / "o"
    code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"), "--kg", str(kg),
                 "--out", str(out), "--set", "pretrain.steps=1"] + MICRO_MODEL)
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s:4: relation '[R_EL]' is reserved for the interaction link" % kg]
    assert not out.exists()


@pytest.mark.parametrize("which", ["kg", "aliases"])
def test_file_that_is_not_utf8_exits_data_error_naming_file_and_line(world_dir, tmp_path, capsys,
                                                                      which):
    lines = open(os.path.join(world_dir, which + ".tsv"), encoding="utf-8").read().splitlines()
    bad = tmp_path / (which + ".tsv")
    bad.write_bytes("".join(line + "\n" for line in lines[:4]).encode() + b"\xffx\ty\tz\n"
                    + "".join(line + "\n" for line in lines[4:]).encode())
    paths = {"kg": os.path.join(world_dir, "kg.tsv"), "aliases": os.path.join(world_dir, "aliases.tsv"),
             which: str(bad)}
    out = tmp_path / "o"
    code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"), "--kg", paths["kg"],
                 "--aliases", paths["aliases"], "--out", str(out), "--set", "pretrain.steps=1"]
                + MICRO_MODEL)
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: %s:5: not valid UTF-8" % bad]
    assert not out.exists()


def _with_config_line(checkpoint: str, line: str, out: str) -> int:
    """Save checkpoint's tensors under out with line added to its sorted
    config text, as a checkpoint of an older version; return its line number."""
    params, token_vocab, entities, relations, config_text = pt.load_checkpoint(checkpoint)
    lines = sorted(config_text.splitlines() + [line])
    pt.save_checkpoint(out, params, token_vocab, entities, relations, "".join(x + "\n" for x in lines))
    return lines.index(line) + 1


def test_the_retired_negative_count_key_is_refused(world_dir, pretrained, tmp_path, capsys):
    # pretraining ranks each held-out tail among all local nodes, so no
    # setting counts negatives; a checkpoint whose config names one fails
    code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path / "o"),
                 "--set", "pretrain.n_negatives=4"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: unknown config key 'pretrain.n_negatives'"]
    old = str(tmp_path / "old.drgn")
    lineno = _with_config_line(os.path.join(pretrained, "checkpoint.drgn"),
                               "pretrain.n_negatives = 16  # default", old)
    code = main(["dump-attention", "--checkpoint", old, "--text", "zzz",
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path / "attn")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: config text: line %d: unknown key 'pretrain.n_negatives'" % (old, lineno)]
    assert not (tmp_path / "attn").exists()


def test_the_retired_world_structure_key_is_refused(world_dir, pretrained, tmp_path, capsys):
    # chains is the only synthetic world, so no setting picks one; a
    # checkpoint whose config names the key fails
    code = main(["gen-synthetic", "--out", str(tmp_path / "w"), "--set", "world.structure=chains"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: unknown config key 'world.structure'"]
    assert not (tmp_path / "w").exists()
    old = str(tmp_path / "old.drgn")
    lineno = _with_config_line(os.path.join(pretrained, "checkpoint.drgn"),
                               "world.structure = chains  # default", old)
    code = main(["eval-lp", "--checkpoint", old, "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--test", os.path.join(world_dir, "lp_test.jsonl"), "--out", str(tmp_path / "lp")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: config text: line %d: unknown key 'world.structure'" % (old, lineno)]
    assert not (tmp_path / "lp").exists()


def test_world_pretrains_with_its_own_aliases_when_some_names_are_in_no_fact(tmp_path):
    # 20 facts name at most 40 of the 100 generated entities; aliases.tsv
    # lists only the names kg.tsv uses, so load_kg resolves every one
    world = str(tmp_path / "world")
    assert main(["gen-synthetic", "--out", world, "--seed", "3",
                 "--set", "world.n_entities=100", "--set", "world.n_facts=20",
                 "--set", "world.n_relations=5", "--set", "world.leak_rate=0"]) == EXIT_OK
    kg_names = {name for line in open(os.path.join(world, "kg.tsv"), encoding="utf-8")
                for name in line.rstrip("\n").split("\t")[::2]}
    alias_names = [line.split("\t")[0]
                   for line in open(os.path.join(world, "aliases.tsv"), encoding="utf-8")]
    assert sorted(alias_names) == sorted(kg_names) and len(kg_names) < 100
    assert main(["pretrain", "--corpus", os.path.join(world, "corpus.txt"),
                 "--kg", os.path.join(world, "kg.tsv"),
                 "--aliases", os.path.join(world, "aliases.tsv"),
                 "--out", str(tmp_path / "pre"), "--set", "pretrain.steps=1"]
                + MICRO_MODEL) == EXIT_OK


def _mallopt_resolves() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux") or not _mallopt_resolves(),
                    reason="needs Linux fault counters and glibc's mallopt")
def test_pinned_heap_keeps_the_training_step_resident(world_dir, tmp_path, monkeypatch):
    # a verbalized step of the CLI-default model frees and allocates the same
    # arrays of up to a few hundred KB each step; unpinned, glibc handed them
    # back and every step faulted several hundred pages in again (about 200
    # with the fused sublayers alone); pinned, the median step faulted 0
    import resource

    faults, step = [], pt.train_step

    def counted(*args, **kw):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = step(*args, **kw)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return result

    monkeypatch.setattr(pt, "train_step", counted)
    assert main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path), "--seed", "11",
                 "--set", "pretrain.steps=20", "--set", "pretrain.kg_mode=verbalized"]) == EXIT_OK
    assert len(faults) == 20
    assert statistics.median(faults[5:]) <= 20, faults


class _LibcWithoutMallopt:
    def __init__(self, name):
        pass


def _unloadable(error):
    def load(name):
        raise error
    return load


@pytest.mark.parametrize("cdll", [_LibcWithoutMallopt, _unloadable(OSError("no libc")),
                                  _unloadable(TypeError("no library name"))],
                         ids=["no_symbol", "os_error", "type_error"])
def test_heap_pin_is_a_silent_no_op_without_mallopt(monkeypatch, capsys, cdll):
    # macOS's C library has no mallopt symbol; Windows cannot load CDLL(None)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._pin_heap.__wrapped__() is None
    assert capsys.readouterr() == ("", "")
