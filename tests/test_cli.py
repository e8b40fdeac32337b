"""CLI contracts: determinism, exit codes, config echo, persistence."""

import ctypes
import errno
import inspect
import json
import os
import re
import statistics
import struct
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from dragonforge import cli
from dragonforge import evaluation as ev
from dragonforge import kg_store
from dragonforge import numerics as nm
from dragonforge import pretrain as pt
from dragonforge import retrieval as rt
from dragonforge.cli import (DEFAULTS, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                             RunConfig, main, parse_config_text)
from dragonforge.encoder import EncoderConfig, init_params
from dragonforge.finetune import FinetuneConfig
from dragonforge.kg_store import R_EL, load_kg
from dragonforge.retrieval import SEP, Retriever

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
# the remedy each of eval-lp's checkpoint refusals names
LP_CHECKPOINT_HINT = ("use a checkpoint pretrained with pretrain.kg_mode=graph and a joint or "
                      "linkpred_only objective")


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
    parsed = parse_config_text(cfg.to_text().splitlines(), "effective_config.txt")
    assert parsed["pretrain.steps"] == 7
    assert parsed["encoder.d_text"] == DEFAULTS["encoder.d_text"]


def test_every_setting_parses_as_its_default_type():
    # the parser reads a value as type(default)(text), which would read any
    # nonempty text, "false" too, as a true bool
    assert {type(v) for v in DEFAULTS.values()} == {int, float, str}


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


@pytest.mark.parametrize("argv", [["build-vocab", "--corpus", "c.txt"],
                                  ["pretrain", "--corpus", "c.txt", "--kg", "kg.tsv",
                                   "--vocab", "vocab.tsv"]], ids=["build-vocab", "pretrain-vocab"])
def test_the_retired_vocabulary_paths_exit_usage(tmp_path, capsys, argv):
    # pretrain builds its vocabulary from its --corpus, so no command writes
    # one and no flag reads one
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "dragonforge: error: " in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "o").exists()


def corpus_vocab(corpus: str, min_freq: int):
    """The token vocabulary pretrain builds from corpus; a segment length
    changes no token count, since each token lies in one segment."""
    return rt.build_vocab(rt.segment_corpus(corpus, 32), min_freq)


def test_pretrain_setup_reads_and_tokenizes_its_corpus_once(world_dir, tmp_path, monkeypatch):
    # segment_corpus reads the corpus through read_text and tokenizes each
    # line once; build_vocab counts the segments without tokenizing them
    corpus = os.path.join(world_dir, "corpus.txt")
    reads, tokenized, in_build_vocab = [], [], []
    read_text, tokenize, build_vocab = rt.read_text, rt.tokenize, rt.build_vocab
    for module in (cli, kg_store, rt):
        monkeypatch.setattr(module, "read_text", lambda path: reads.append(path) or read_text(path))
    monkeypatch.setattr(rt, "tokenize", lambda text: tokenized.append(text) or tokenize(text))

    def counting_build_vocab(segments, min_freq):
        before = len(tokenized)
        vocab = build_vocab(segments, min_freq)
        in_build_vocab.append(len(tokenized) - before)
        return vocab

    class Stopped(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stopped

    monkeypatch.setattr(cli, "build_vocab", counting_build_vocab)
    monkeypatch.setattr(pt, "train", stop)
    kg, aliases = os.path.join(world_dir, "kg.tsv"), os.path.join(world_dir, "aliases.tsv")
    with pytest.raises(Stopped):
        main(["pretrain", "--corpus", corpus, "--kg", kg, "--aliases", aliases,
              "--out", str(tmp_path / "o")])
    assert sorted(reads) == sorted([kg, aliases, corpus])
    assert in_build_vocab == [0]
    text = read_text(corpus)
    assert text.count("\n") > 100
    # each line once, in order, and nothing else but the end of the file
    assert "\n".join(tokenized).rstrip("\n") == text.rstrip("\n")


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


@pytest.mark.parametrize("kg_mode", ["graph", "verbalized"])
def test_pretrain_vocabulary_is_build_vocab_of_its_corpus(world_dir, tmp_path, kg_mode):
    # min_freq 5 leaves some corpus tokens out of the checkpoint's table
    corpus = os.path.join(world_dir, "corpus.txt")
    assert len(corpus_vocab(corpus, 5)) < len(corpus_vocab(corpus, 1))
    out = str(tmp_path / "pre")
    assert main(["pretrain", "--corpus", corpus, "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--aliases", os.path.join(world_dir, "aliases.tsv"), "--out", out, "--seed", "7",
                 "--set", "pretrain.steps=2", "--set", "pretrain.batch_size=2",
                 "--set", "pretrain.kg_mode=%s" % kg_mode]
                + MICRO_MODEL + ["--set", "vocab.min_freq=5"]) == EXIT_OK
    token_vocab = pt.load_checkpoint(os.path.join(out, "checkpoint.drgn"))[1]
    assert token_vocab.to_tsv() == corpus_vocab(corpus, 5).to_tsv()


def test_fusion_cells_differ_at_two_fusion_layers(world_dir, tmp_path):
    # with one fusion layer the only MInt output feeds no loss, so dragon and
    # concat_at_end pretrain to equal tensors; with two, MInt layer 0 reaches
    # the tokens of fusion layer 1 under dragon and is never run under
    # concat_at_end
    outputs = {}
    for cell in ("dragon", "concat_at_end"):
        out = str(tmp_path / cell)
        settings = [arg for setting in cli.ABLATION_CELLS[cell].items()
                    for arg in ("--set", "%s=%s" % setting)]
        assert main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                     "--kg", os.path.join(world_dir, "kg.tsv"),
                     "--aliases", os.path.join(world_dir, "aliases.tsv"), "--out", out,
                     "--seed", "7", "--set", "pretrain.steps=3", "--set", "pretrain.batch_size=2"]
                    + MICRO_MODEL + ["--set", "encoder.n_fusion=2"] + settings) == EXIT_OK
        ckpt = os.path.join(out, "checkpoint.drgn")
        outputs[cell] = [open(path, "rb").read() for path in (os.path.join(out, "metrics.jsonl"), ckpt)]
        params, tv, entities, relations, text = pt.load_checkpoint(ckpt)
        enc_cfg = RunConfig(("file", parse_config_text(text.splitlines(), ckpt))).encoder_config()
        initial = init_params(enc_cfg, 7, len(tv), len(entities), len(relations))
        mint = [name for name in initial if name.startswith("mint.layer0.")]
        assert len(mint) == 4
        moved = [name for name in mint
                 if not np.array_equal(params[name].values, initial[name].values)]
        assert moved == (mint if cell == "dragon" else []), cell
    metrics, checkpoints = zip(outputs["dragon"], outputs["concat_at_end"])
    assert metrics[0] != metrics[1] and checkpoints[0] != checkpoints[1]


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
        cfg = RunConfig(("file", parse_config_text(text.splitlines(), ckpt))).encoder_config()
        raw = open(os.path.join(world_dir, "corpus.txt"), encoding="utf-8").read().split("\n\n")[0]
        seg, v_el = link_entities(raw.replace("\n", " "), build_alias_index(entities), tv)
        local = retrieve_local_kg(v_el, kg, cfg.max_nodes, partial(nm.split_rng, 0, "t"))
        out = encode(seg, local, params, cfg)
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
                 "--out", out, "--set", "finetune.epochs=1"])
    assert code == EXIT_OK
    report = json.load(open(os.path.join(out, "accuracy.json"), encoding="utf-8"))
    assert list(report["reports"]) == ["dev"]
    assert os.path.exists(os.path.join(out, "finetuned.drgn"))

    out2 = str(tmp_path / "qa")
    code = main(["eval-qa", "--checkpoint", os.path.join(out, "finetuned.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--data", os.path.join(world_dir, "mcqa_test.jsonl"),
                 "--out", out2])
    assert code == EXIT_OK
    rep = json.load(open(os.path.join(out2, "accuracy.json"), encoding="utf-8"))
    assert rep["n"] > 0 and 0.0 <= rep["accuracy"] <= 1.0


def test_eval_lp_both_modes(world_dir, pretrained, tmp_path, capsys):
    # kg_plus_text ranks with the checkpoint's own encoder and head; kg_only,
    # the retired KG-only DistMult baseline, is refused before anything is written
    args = ["eval-lp", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
            "--kg", os.path.join(world_dir, "kg.tsv"),
            "--test", os.path.join(world_dir, "lp_test.jsonl")]
    out = str(tmp_path / "kg_plus_text")
    assert main(args + ["--mode", "kg_plus_text", "--out", out]) == EXIT_OK
    rep = json.load(open(os.path.join(out, "ranking.json"), encoding="utf-8"))
    assert rep["mode"] == "kg_plus_text"
    assert rep["hits1"] <= rep["hits3"] <= rep["hits10"]
    assert list(rep)[-2:] == ["chance_mrr", "chance_hits3"]
    assert 0.0 < rep["chance_mrr"] <= 1.0 and 0.0 < rep["chance_hits3"] <= 1.0
    capsys.readouterr()
    assert main(args + ["--mode", "kg_only", "--out", str(tmp_path / "kg_only")]) == EXIT_USAGE
    assert "--mode: invalid choice: 'kg_only'" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "kg_only").exists()


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
    enc_cfg = RunConfig(("file", parse_config_text(text.splitlines(), verbalized))).encoder_config()
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
    assert capsys.readouterr().err.splitlines() == [
        "error: pretrain.kg_mode: eval-lp scores graph inputs, which a verbalized checkpoint "
        "never saw; %s" % LP_CHECKPOINT_HINT]
    assert not (tmp_path / "ctx").exists()


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
        "error: pretrain.objective: eval-lp ranks with the link-prediction head, which an "
        "mlm_only checkpoint never trained; %s" % LP_CHECKPOINT_HINT]
    assert not (tmp_path / "ctx").exists()


def test_numeric_abort_exit_code(world_dir, tmp_path):
    with np.errstate(all="ignore"):
        code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                     "--kg", os.path.join(world_dir, "kg.tsv"),
                     "--out", str(tmp_path / "nan"), "--seed", "1",
                     "--set", "pretrain.steps=40", "--set", "pretrain.lr_lm=100000000.0",
                     "--set", "pretrain.lr_other=100000000.0",
                     "--set", "pretrain.warmup_ratio=0.0"] + MICRO_MODEL)
    assert code == EXIT_NUMERIC


def test_seed_in_the_environment_is_not_read(tmp_path, monkeypatch):
    # the seed comes from --seed, --set seed=N or a --config line alone
    def effective_config(out):
        assert main(["gen-synthetic", "--out", str(out)] + MICRO_WORLD) == EXIT_OK
        return (out / "effective_config.txt").read_bytes()

    without = effective_config(tmp_path / "without")
    monkeypatch.setenv("DRAGONFORGE_SEED", "123")
    assert effective_config(tmp_path / "with") == without
    assert b"seed = 0  # default\n" in without


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
    assert len(corpus_vocab(corpus, 5)) < len(corpus_vocab(corpus, 2))
    cells = sorted(os.listdir(os.path.join(ablation, "cells")))
    assert cells == sorted(name + "-seed0" for name in cli.ABLATION_CELLS)
    n_commands = 0
    for cell in cells:
        for command in os.listdir(os.path.join(ablation, "cells", cell)):
            path = os.path.join(ablation, "cells", cell, command, "effective_config.txt")
            values = parse_config_text(open(path, encoding="utf-8").read().splitlines(), path)
            assert values["vocab.min_freq"] == 5 and values["pretrain.steps"] == 2, path
            n_commands += 1
        ckpt = os.path.join(ablation, "cells", cell, "pretrain", "checkpoint.drgn")
        assert pt.load_checkpoint(ckpt)[1].names == corpus_vocab(corpus, 5).names
    assert n_commands == 5 * 4 + 2 * 3   # cells with eval-lp, mlm_only and verbalized


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
        "--dev", os.path.join(world, "mcqa_dev.jsonl"))
    run("eval-qa", "--checkpoint", os.path.join(out, "finetune", "finetuned.drgn"),
        "--data", os.path.join(world, "mcqa_test.jsonl"))
    run("eval-lp", "--checkpoint", os.path.join(out, "finetune", "finetuned.drgn"),
        "--test", os.path.join(world, "lp_test.jsonl"))
    for command, name in (("pretrain", "metrics.jsonl"), ("finetune", "accuracy.json"),
                          ("eval-qa", "accuracy.json"), ("eval-lp", "ranking.json")):
        assert open(os.path.join(out, command, name), "rb").read() == \
            open(os.path.join(cell, command, name), "rb").read(), (command, name)
    accuracy = json.load(open(os.path.join(out, "eval-qa", "accuracy.json"), encoding="utf-8"))
    ranking = json.load(open(os.path.join(out, "eval-lp", "ranking.json"), encoding="utf-8"))
    assert row["mcqa_accuracy"] == round(accuracy["accuracy"], 4)
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


def test_ablation_repeated_seed_exits_usage_before_the_world_is_written(tmp_path, capsys):
    # both runs of a cell would share one output directory and the table
    # would list each of its rows twice
    out = tmp_path / "abl"
    assert main(["ablation", "--out", str(out), "--seeds", "0,3,0"]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: --seeds: a seed is repeated in '0,3,0'"]
    assert not out.exists()


def test_ablation_bad_seeds_exit_usage_before_the_world_is_written(tmp_path, capsys):
    out = tmp_path / "abl"
    assert main(["ablation", "--out", str(out), "--seeds", "1,x"]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: --seeds: expected comma-separated integers, got '1,x'"]
    assert not out.exists()


@pytest.mark.parametrize("setting", ["encoder.d_text=abc", "encoder.heads_text=5",
                                     "pretrain.scorer=bogus", "pretrain.steps=0",
                                     "pretrain.batch_size=0",
                                     "pretrain.mask_rate=0", "pretrain.margin=nan",
                                     "pretrain.margin=inf", "pretrain.lr_lm=inf",
                                     "encoder.max_nodes=0",
                                     "world.n_relations=20", "world.n_facts=0",
                                     "world.n_facts=7", "world.n_entities=347901",
                                     "world.leak_rate=0.9", "world.leak_rate=0.2",
                                     "world.leak_rate=-1", "world.eval_doc_fraction=2"])
def test_bad_config_value_exits_usage(world_dir, tmp_path, capsys, setting):
    pretrain = ["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                "--kg", os.path.join(world_dir, "kg.tsv"), "--set", "pretrain.steps=1"]
    for command in [["gen-synthetic"], ["ablation"]] if setting.startswith("world.") else [pretrain]:
        code = main(command + ["--out", str(tmp_path / "o"), "--set", setting])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        # a value of the wrong type fails in the parser, which names the
        # --set item; one out of range fails where its section is built
        assert len(err) == 1 and re.match(r"error: (--set:\d+: )?%s: " % re.escape(setting.split("=")[0]),
                                          err[0]), err


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
                 "--kg", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "o"),
                 "--set", "pretrain.objective=linkpred_only",
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
        "data error: %s: checkpoint has no link-prediction head; %s" % (ckpt, LP_CHECKPOINT_HINT)]


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


def test_finetune_dev_report_equals_eval_qa_under_run_seed(world_dir, pretrained, tmp_path,
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
    dev = os.path.join(world_dir, "mcqa_dev.jsonl")
    ft_out, qa_out = str(tmp_path / "ft"), str(tmp_path / "qa")
    assert main(["finetune", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--train", os.path.join(world_dir, "mcqa_train.jsonl"), "--dev", dev,
                 "--out", ft_out, "--seed", "7", "--set", "encoder.max_nodes=1",
                 "--set", "finetune.epochs=1"]) == EXIT_OK
    n_finetune = len(tables)
    assert main(["eval-qa", "--checkpoint", os.path.join(ft_out, "finetuned.drgn"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--data", dev,
                 "--out", qa_out]) == EXIT_OK
    finetune_report = json.load(open(os.path.join(ft_out, "accuracy.json"),
                                     encoding="utf-8"))["reports"]["dev"]
    qa_report = json.load(open(os.path.join(qa_out, "accuracy.json"), encoding="utf-8"))
    assert {**finetune_report, "split": None} == {**qa_report, "split": None}
    # one epoch: finetune's eval-mode batches are its one dev evaluation
    assert n_finetune and len(tables) == 2 * n_finetune
    for ours, theirs in zip(tables[:n_finetune], tables[n_finetune:]):
        np.testing.assert_array_equal(ours, theirs)


def blob_end(data: bytes, pos: int) -> int:
    """Offset just past the length-prefixed blob at pos."""
    return pos + 4 + struct.unpack_from("<I", data, pos)[0]


def first_tensor_header(data: bytes) -> int:
    """Offset of the first tensor's dtype tag; its rank byte and dimensions follow."""
    pos = blob_end(data, 8)                # magic, version, config text
    (n_tables,) = struct.unpack_from("<I", data, pos)
    pos += 4
    for _ in range(2 * n_tables):          # each table's name and text
        pos = blob_end(data, pos)
    return blob_end(data, pos + 4)         # the tensor count, the first tensor's name


def tensor_data(data: bytes, name: str) -> int:
    """Offset of a checkpoint tensor's first float."""
    pos = data.index(name.encode()) + len(name)   # its dtype tag and rank follow the name
    return pos + 2 + 4 * data[pos + 1]


@pytest.mark.parametrize("corruption", ["truncated", "alias_out_of_range", "tokens_byte_flipped",
                                        "token_id_not_dense",
                                        "last_float_inf", "rank_200", "first_dim_max",
                                        "config_key_flipped", "tensor_name_flipped",
                                        "config_d_text_17", "config_d_text_18", "huge_gain",
                                        "table_repeated", "tensor_repeated"])
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
    elif corruption == "token_id_not_dense":   # the tokens table's second line
        data[data.index(b"[UNK]\t1\n") + len("[UNK]\t")] = ord("9")
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = "data error: %s (tokens table):2: " % bad
    elif corruption == "config_key_flipped":
        data[data.index(b"finetune.batch_size") + len("finetune.batch_")] ^= 0x20   # s -> S
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = ("data error: %s (config text):12: unknown key 'finetune.batch_Size'"
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
        expected = ("data error: %s (config text): encoder.heads_text: 2 does not divide d_text 17"
                    % bad if d_text == "17" else "data error: %s: tensor 'lm.tok_emb' has shape" % bad)
    elif corruption == "table_repeated":   # the tokens table stored again after itself
        count = blob_end(data, 8)
        tokens = data[count + 4:blob_end(data, blob_end(data, count + 4))]
        data[count:count + 4] = struct.pack("<I", struct.unpack_from("<I", data, count)[0] + 1)
        data[count + 4:count + 4] = tokens
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = "data error: %s: table 'tokens' is stored twice" % bad
    elif corruption == "tensor_repeated":   # the last tensor stored again after itself
        names = sorted(pt.load_checkpoint(good)[0])
        count = first_tensor_header(data) - len(names[0]) - 8
        data[count:count + 4] = struct.pack("<I", len(names) + 1)
        data += data[data.rindex(struct.pack("<I", len(names[-1])) + names[-1].encode()):]
        with open(bad, "wb") as fh:
            fh.write(data)
        expected = "data error: %s: tensor %r is stored twice" % (bad, names[-1])
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


def test_settings_from_a_checkpoint_are_labelled_checkpoint(finetuned):
    # finetune ran without --config: the pretrained checkpoint supplies every
    # setting that its one --set leaves alone
    text = open(os.path.join(os.path.dirname(finetuned), "effective_config.txt"),
                encoding="utf-8").read()
    provenance = dict(line.split("  # ") for line in text.splitlines())
    assert provenance.pop("finetune.epochs = 1") == "flag"
    assert set(provenance.values()) == {"checkpoint"}
    assert "pretrain.steps = 4" in provenance
    assert pt.load_checkpoint(finetuned)[4] == text


@pytest.mark.parametrize("command, flag", [("finetune", "--train"), ("finetune", "--dev"),
                                           ("eval-qa", "--data"), ("eval-lp", "--test")],
                         ids=["finetune_train", "finetune_dev", "eval_qa_data", "eval_lp_test"])
@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank_lines"])
def test_record_file_with_no_records_exits_data_error_naming_it(world_dir, pretrained, finetuned,
                                                               tmp_path, capsys, command, flag,
                                                               text):
    empty = tmp_path / "records.jsonl"
    empty.write_text(text, encoding="utf-8")
    records = {"finetune": {"--train": "mcqa_train.jsonl", "--dev": "mcqa_dev.jsonl"},
               "eval-qa": {"--data": "mcqa_test.jsonl"}, "eval-lp": {"--test": "lp_test.jsonl"}}
    args = [arg for f, name in records[command].items()
            for arg in (f, str(empty) if f == flag else os.path.join(world_dir, name))]
    ckpt = finetuned if command == "eval-qa" else os.path.join(pretrained, "checkpoint.drgn")
    code = main([command, *args, "--checkpoint", ckpt, "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: %s: no records" % empty]
    assert not (tmp_path / "out").exists()


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


# input kind -> (file it is made from, argv before its --out); {bad} is the file
# with a byte that is not UTF-8 on line 5, {w} the world and {ckpt} a checkpoint
NON_UTF8_INPUTS = {
    "kg": ("kg.tsv", ["pretrain", "--corpus", "{w}/corpus.txt", "--kg", "{bad}",
                      "--aliases", "{w}/aliases.tsv"]),
    "aliases": ("aliases.tsv", ["pretrain", "--corpus", "{w}/corpus.txt", "--kg", "{w}/kg.tsv",
                                "--aliases", "{bad}"]),
    "pretrain-corpus": ("corpus.txt", ["pretrain", "--corpus", "{bad}", "--kg", "{w}/kg.tsv"]),
    "config": ("config.txt", ["gen-synthetic", "--config", "{bad}"]),
    "mcqa": ("mcqa_train.jsonl", ["finetune", "--checkpoint", "{ckpt}", "--kg", "{w}/kg.tsv",
                                  "--train", "{bad}", "--dev", "{w}/mcqa_dev.jsonl"]),
    "lp": ("lp_test.jsonl", ["eval-lp", "--checkpoint", "{ckpt}", "--kg", "{w}/kg.tsv",
                             "--test", "{bad}"]),
}


@pytest.mark.parametrize("which", list(NON_UTF8_INPUTS))
def test_file_that_is_not_utf8_exits_data_error_naming_file_and_line(world_dir, pretrained,
                                                                      tmp_path, capsys, which):
    source, argv = NON_UTF8_INPUTS[which]
    if source == "config.txt":
        text = RunConfig().to_text()
    else:
        text = open(os.path.join(world_dir, source), encoding="utf-8").read()
    lines = text.splitlines(keepends=True)
    bad = tmp_path / source
    bad.write_bytes("".join(lines[:4]).encode() + b"\xff\n" + "".join(lines[4:]).encode())
    fill = {"bad": str(bad), "w": world_dir, "ckpt": os.path.join(pretrained, "checkpoint.drgn")}
    out = tmp_path / "o"
    code = main([arg.format(**fill) for arg in argv] + ["--out", str(out)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: %s:5: not valid UTF-8" % bad]
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-synthetic", "pretrain", "eval-lp"])
@pytest.mark.parametrize("where", ["a_file", "under_a_file", "name_too_long"])
def test_out_path_that_cannot_be_a_directory_exits_data_error_naming_it(world_dir, pretrained,
                                                                        tmp_path, capsys,
                                                                        command, where):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    out, reason = {"a_file": (tmp_path / "taken", errno.EEXIST),
                   "under_a_file": (tmp_path / "taken" / "o", errno.ENOTDIR),
                   "name_too_long": (tmp_path / ("a" * 300), errno.ENAMETOOLONG)}[where]
    argv = {"gen-synthetic": ["gen-synthetic"] + MICRO_WORLD,
            "pretrain": ["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                         "--kg", os.path.join(world_dir, "kg.tsv")] + MICRO_MODEL,
            "eval-lp": ["eval-lp", "--checkpoint", os.path.join(pretrained, "checkpoint.drgn"),
                        "--kg", os.path.join(world_dir, "kg.tsv"),
                        "--test", os.path.join(world_dir, "lp_test.jsonl")]}[command]
    assert main(argv + ["--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: %s" % (out, os.strerror(reason))]


def test_input_path_in_a_symlink_loop_exits_data_error_naming_it(tmp_path, capsys):
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    assert main(["pretrain", "--corpus", str(loop), "--kg", str(loop),
                 "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: %s" % (loop, os.strerror(errno.ELOOP))]
    assert not (tmp_path / "o").exists()


def test_os_error_that_names_no_file_exits_data_error(world_dir, tmp_path, capsys, monkeypatch):
    # a failed write, such as a full disk, names no file
    def disk_full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(pt, "train", disk_full)
    assert main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: %s" % os.strerror(errno.ENOSPC)]


def _with_config_line(checkpoint: str, line: str, out: str) -> int:
    """Save checkpoint's tensors under out with line added to its sorted
    config text, as a checkpoint of an older version; return its line number."""
    params, token_vocab, entities, relations, config_text = pt.load_checkpoint(checkpoint)
    lines = sorted(config_text.splitlines() + [line])
    pt.save_checkpoint(out, params, token_vocab, entities, relations, "".join(x + "\n" for x in lines))
    return lines.index(line) + 1


# the same bad text through each config source: the line, and what the parser says of it
BAD_CONFIG_LINES = {"malformed": ("foo", "expected key = value, got 'foo'"),
                    "unknown_key": ("pretrain.bogus = 1", "unknown key 'pretrain.bogus'"),
                    "bad_value": ("pretrain.steps = many", "pretrain.steps: expected int, got 'many'")}


@pytest.mark.parametrize("kind", BAD_CONFIG_LINES)
@pytest.mark.parametrize("source", ["config", "set", "checkpoint"])
def test_bad_config_line_names_its_source_and_line(world_dir, pretrained, tmp_path, capsys,
                                                   source, kind):
    """One line naming <source>:<line>, exit 1; a checkpoint's config text
    exits 2."""
    line, said = BAD_CONFIG_LINES[kind]
    out = tmp_path / "o"
    argv = ["gen-synthetic", "--out", str(out)] + MICRO_WORLD
    if source == "config":
        path = tmp_path / "bad.cfg"
        path.write_text("# a comment\n%s\n" % line, encoding="utf-8")
        argv += ["--config", str(path)]
        expected = "error: %s:2: %s" % (path, said)
    elif source == "set":
        argv += ["--set", line]   # after MICRO_WORLD's items
        expected = "error: --set:%d: %s" % (argv.count("--set"), said)
    else:
        old = str(tmp_path / "old.drgn")
        lineno = _with_config_line(os.path.join(pretrained, "checkpoint.drgn"), line, old)
        argv = ["dump-attention", "--checkpoint", old, "--text", "zzz",
                "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(out)]
        expected = "data error: %s (config text):%d: %s" % (old, lineno, said)
    assert main(argv) == (EXIT_DATA if source == "checkpoint" else EXIT_USAGE)
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not out.exists()


def test_config_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    # the mark is not part of the first key
    outs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        cfg = tmp_path / ("bom%d.cfg" % len(bom))
        cfg.write_bytes(bom + b"world.n_entities = 30\nworld.n_relations = 5\nworld.n_facts = 150\n")
        out = tmp_path / ("o%d" % len(bom))
        assert main(["gen-synthetic", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[1] == outs[0]


@pytest.mark.parametrize("text, said", [
    ("pretrain.steps = 2\x0cpretrain.batch_size = 4\n",
     ":1: pretrain.steps: expected int, got '2\\x0cpretrain.batch_size = 4'"),
    ("pretrain.steps = 2\x0cpretrain.batch_size = 4\nbogus.key = 1\n",
     ":1: pretrain.steps: expected int, got '2\\x0cpretrain.batch_size = 4'"),
    ("# a note\x0cpretrain.batch_size = 4\nbogus.key = 1\n", ":2: unknown key 'bogus.key'"),
    ("# a\x0bb\x1cc\x1dd\x1ee\x85f\u2028g\u2029h\nbogus.key = 1\n", ":2: unknown key 'bogus.key'"),
], ids=["form_feed_in_a_value", "form_feed_then_unknown_key", "form_feed_in_a_comment",
        "every_other_line_break_in_a_comment"])
def test_config_file_lines_end_at_a_newline_only(tmp_path, capsys, text, said):
    # as in every other input file; str.splitlines would also end a line at
    # each of these characters, reading a setting out of a comment or a value
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text, encoding="utf-8")
    assert main(["gen-synthetic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: %s%s" % (cfg, said)]


def test_checkpoint_config_lines_end_at_a_newline_only(world_dir, pretrained, tmp_path):
    # the form feed leaves the whole line a comment
    old = str(tmp_path / "old.drgn")
    _with_config_line(os.path.join(pretrained, "checkpoint.drgn"), "# a note\x0cpretrain.bogus = 1", old)
    assert main(["dump-attention", "--checkpoint", old, "--text", "zzz",
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_the_retired_negative_count_key_is_refused(world_dir, pretrained, tmp_path, capsys):
    # pretraining ranks each held-out tail among all local nodes, so no
    # setting counts negatives; a checkpoint whose config names one fails
    code = main(["pretrain", "--corpus", os.path.join(world_dir, "corpus.txt"),
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path / "o"),
                 "--set", "pretrain.n_negatives=4"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: --set:1: unknown key 'pretrain.n_negatives'"]
    old = str(tmp_path / "old.drgn")
    lineno = _with_config_line(os.path.join(pretrained, "checkpoint.drgn"),
                               "pretrain.n_negatives = 16  # default", old)
    code = main(["dump-attention", "--checkpoint", old, "--text", "zzz",
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path / "attn")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s (config text):%d: unknown key 'pretrain.n_negatives'" % (old, lineno)]
    assert not (tmp_path / "attn").exists()


def test_the_retired_world_structure_key_is_refused(world_dir, pretrained, tmp_path, capsys):
    # chains is the only synthetic world, so no setting picks one; a
    # checkpoint whose config names the key fails
    code = main(["gen-synthetic", "--out", str(tmp_path / "w"), "--set", "world.structure=chains"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: --set:1: unknown key 'world.structure'"]
    assert not (tmp_path / "w").exists()
    old = str(tmp_path / "old.drgn")
    lineno = _with_config_line(os.path.join(pretrained, "checkpoint.drgn"),
                               "world.structure = chains  # default", old)
    code = main(["eval-lp", "--checkpoint", old, "--kg", os.path.join(world_dir, "kg.tsv"),
                 "--test", os.path.join(world_dir, "lp_test.jsonl"), "--out", str(tmp_path / "lp")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s (config text):%d: unknown key 'world.structure'" % (old, lineno)]
    assert not (tmp_path / "lp").exists()


@pytest.mark.parametrize("line", ["pretrain.optimizer = adam  # default",
                                  "world.sentences_per_doc = 4  # default",
                                  "eval.lp_baseline_dim = 32  # default",
                                  "eval.lp_baseline_steps = 600  # default",
                                  "encoder.d_ffn = 0  # default",
                                  "finetune.early_stop = True  # default"])
def test_the_retired_optimizer_and_document_size_keys_are_refused(world_dir, pretrained, tmp_path,
                                                                   capsys, line):
    # Adam is the only optimizer, each story is one document, eval-lp trains
    # no KG-only baseline, the feed-forward width is 4 * d_text and finetune
    # always keeps its best dev epoch, so no such key sets anything; a
    # checkpoint whose config names one fails
    key, value = (part.split("#")[0].strip() for part in line.split("="))
    code = main(["gen-synthetic", "--out", str(tmp_path / "w"), "--set", "%s=%s" % (key, value)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: --set:1: unknown key %r" % key]
    assert not (tmp_path / "w").exists()
    old = str(tmp_path / "old.drgn")
    lineno = _with_config_line(os.path.join(pretrained, "checkpoint.drgn"), line, old)
    code = main(["dump-attention", "--checkpoint", old, "--text", "zzz",
                 "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path / "attn")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s (config text):%d: unknown key %r" % (old, lineno, key)]
    assert not (tmp_path / "attn").exists()


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


def test_module_entry_point_exits_with_the_documented_codes(world_dir, tmp_path):
    # `python -m dragonforge.cli` runs main_entry, which turns main's return
    # value into the process's exit status
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = {EXIT_OK: ["gen-synthetic", "--out", str(tmp_path / "w")] + MICRO_WORLD,
            EXIT_USAGE: ["gen-synthetic", "--out", str(tmp_path / "u"), "--set", "nonsense.key=1"],
            EXIT_DATA: ["pretrain", "--corpus", str(tmp_path / "missing.txt"),
                        "--kg", os.path.join(world_dir, "kg.tsv"), "--out", str(tmp_path / "d")]}
    for code, argv in runs.items():
        done = subprocess.run([sys.executable, "-m", "dragonforge.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
    assert os.path.exists(tmp_path / "w" / "kg.tsv")
    assert done.stderr.splitlines() == ["data error: %s: No such file or directory"
                                        % (tmp_path / "missing.txt")]
