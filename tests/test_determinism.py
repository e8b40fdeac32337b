"""Pinned output digests of fixed-seed micro runs.

A pure refactor of the tape, the encoder or the input path must leave every
file below byte-identical. A deliberate change of output updates the digest
here and says in CHANGES.md which outputs changed and why. The digests are
those of one numpy and BLAS build (numpy 2.4.6, OpenBLAS 0.3.31); another
build may round a reduction differently and so write other bytes.
"""

import hashlib
import json
import os

import pytest

from dragonforge.cli import EXIT_OK, main

MICRO_WORLD = ["--set", "world.n_entities=30", "--set", "world.n_relations=3",
               "--set", "world.n_facts=150", "--set", "world.leak_rate=0.2",
               "--set", "world.structure=flat"]
# one unimodal and one fusion layer, with dropout at its default rate, so every
# taped op of the encoder and of both pretraining losses runs
MICRO_MODEL = ["--set", "encoder.n_unimodal=1", "--set", "encoder.n_fusion=1",
               "--set", "encoder.d_text=16", "--set", "encoder.d_node=8",
               "--set", "encoder.heads_text=2", "--set", "encoder.d_mint_hidden=16",
               "--set", "encoder.max_seq_len=32", "--set", "encoder.max_nodes=8",
               "--set", "vocab.min_freq=1"]

DIGESTS = {
    ("pretrain-graph", "metrics.jsonl"):
        "53ef9e3b7ff4bcb993f8469565d08a9d5be6190a4bb1841780141385a060ecff",
    ("pretrain-graph", "checkpoint.drgn"):
        "441e922910ee89f29a4821b14f0148840d758eb54c565372b66569b026097b3c",
    ("pretrain-verbalized", "metrics.jsonl"):
        "2ab45f52ec1602f6c880b1f1bb4b436ad63ea44778405cf842376ccd90812264",
    ("pretrain-verbalized", "checkpoint.drgn"):
        "f2a1a880662ffaf8f01955292278560303f52683f3db3427820eacb57ffe4c19",
    ("finetune", "accuracy.json"):
        "76c6d67c2e5ed5cf67f83cdd883559a2ffff2e7e13ab1f1240cf2d70e3699824",
    ("finetune", "finetuned.drgn"):
        "9b4a1ebd72c2255d2a0bc0a49920b39924a835567c1e9d8cd2efc3947449fd72",
    ("pretrain-rotate", "metrics.jsonl"):
        "7e75801c6fabaadf2414591d9ba754e3c84c0fcd766e4ca5fb624c8c568f0aa2",
    ("eval-qa", "accuracy.json"):
        "38b50331a4923b15d51fc0f5f4d4c6abc3a06ea94f218c03b3d20159c8e13dec",
    ("eval-lp-kg_plus_text", "ranking.json"):
        "1218b4c818bd2ec8a92599acbba43e017f8f7e0a32dcb950d65f81393303b756",
    ("eval-lp-kg_only", "ranking.json"):
        "11c5aa8c4a6a984fb667df374c21a8e927a4429a03f1aecb669019ea3111d78d",
    ("dump-attention", "attention.jsonl"):
        "346034e6e8a650713ff5becd8f1649ff6e1f759abb299e02ca58dd42b1c1d200",
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_micro_pipeline(root: str) -> dict[tuple[str, str], str]:
    """Write the micro world under root, pretrain 5 steps on it in graph and
    in verbalized mode and with the rotate scorer, finetune the graph
    checkpoint for one epoch with a test split, evaluate the finetuned
    checkpoint on QA, on link prediction in both modes and with an attention
    dump, and return the sha256 of each pinned output."""
    world = os.path.join(root, "world")
    assert main(["gen-synthetic", "--out", world, "--seed", "11"] + MICRO_WORLD) == EXIT_OK
    data = {name: os.path.join(world, name) for name in
            ("corpus.txt", "kg.tsv", "aliases.tsv", "mcqa_train.jsonl", "mcqa_dev.jsonl",
             "mcqa_test.jsonl", "lp_test.jsonl")}
    for run, setting in (("graph", "pretrain.kg_mode=graph"),
                         ("verbalized", "pretrain.kg_mode=verbalized"),
                         ("rotate", "pretrain.scorer=rotate")):
        assert main(["pretrain", "--corpus", data["corpus.txt"], "--kg", data["kg.tsv"],
                     "--aliases", data["aliases.tsv"], "--out", os.path.join(root, "pretrain-" + run),
                     "--seed", "11", "--set", "pretrain.steps=5", "--set", "pretrain.batch_size=4",
                     "--set", setting] + MICRO_MODEL) == EXIT_OK
    assert main(["finetune", "--checkpoint", os.path.join(root, "pretrain-graph", "checkpoint.drgn"),
                 "--kg", data["kg.tsv"], "--train", data["mcqa_train.jsonl"],
                 "--dev", data["mcqa_dev.jsonl"], "--test", data["mcqa_test.jsonl"],
                 "--out", os.path.join(root, "finetune"), "--seed", "11",
                 "--set", "finetune.epochs=1"]) == EXIT_OK
    finetuned = ["--checkpoint", os.path.join(root, "finetune", "finetuned.drgn"),
                 "--kg", data["kg.tsv"], "--seed", "11"]
    assert main(["eval-qa", "--data", data["mcqa_test.jsonl"],
                 "--out", os.path.join(root, "eval-qa")] + finetuned) == EXIT_OK
    for mode in ("kg_plus_text", "kg_only"):
        assert main(["eval-lp", "--test", data["lp_test.jsonl"], "--mode", mode,
                     "--set", "eval.lp_baseline_steps=50",
                     "--out", os.path.join(root, "eval-lp-" + mode)] + finetuned) == EXIT_OK
    with open(data["lp_test.jsonl"], encoding="utf-8") as fh:
        text = json.loads(fh.readline())["text"]
    assert main(["dump-attention", "--text", text,
                 "--out", os.path.join(root, "dump-attention")] + finetuned) == EXIT_OK
    return {(run, name): sha256(os.path.join(root, run, name)) for run, name in DIGESTS}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_micro_pipeline(str(tmp_path_factory.mktemp("determinism")))


@pytest.mark.parametrize("run,name", list(DIGESTS), ids=["/".join(k) for k in DIGESTS])
def test_fixed_seed_output_is_pinned(digests, run, name):
    assert digests[(run, name)] == DIGESTS[(run, name)]
