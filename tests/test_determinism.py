"""Pinned output digests of fixed-seed micro runs.

A pure refactor of the tape, the encoder or the input path must leave every
file below byte-identical. A deliberate change of output updates the digest
here and says in CHANGES.md which outputs changed and why. The digests are
those of one numpy and BLAS build (numpy 2.4.6, OpenBLAS 0.3.31); another
build may round a reduction differently and so write other bytes.
"""

import hashlib
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
        "f2043699c19a5978ae7f93168d771cbb9cc885dfcd82215d2e02dc430e9521c3",
    ("pretrain-graph", "checkpoint.drgn"):
        "7754c63aa664beec7ff03fdb5696403649abba390bd75a7289fe896caf55a9fd",
    ("pretrain-verbalized", "metrics.jsonl"):
        "2ab45f52ec1602f6c880b1f1bb4b436ad63ea44778405cf842376ccd90812264",
    ("pretrain-verbalized", "checkpoint.drgn"):
        "9e3a46d7f9cf9f65b396294db767b1cdbb47c93fe83bfc0fee64a94bebfc88a6",
    ("finetune", "accuracy.json"):
        "dbd771933fdce5957a95a1136e327bb6d66e3814eca191340db89f1428ed102c",
    ("finetune", "finetuned.drgn"):
        "3969452501af5495b55f2a79f8e8fcae004c58f5e62e2ab9748004cb1f2b1372",
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_micro_pipeline(root: str) -> dict[tuple[str, str], str]:
    """Write the micro world under root, pretrain 5 steps on it in graph and
    in verbalized mode, finetune the graph checkpoint for one epoch with a
    test split, and return the sha256 of each pinned output."""
    world = os.path.join(root, "world")
    assert main(["gen-synthetic", "--out", world, "--seed", "11"] + MICRO_WORLD) == EXIT_OK
    data = {name: os.path.join(world, name) for name in
            ("corpus.txt", "kg.tsv", "aliases.tsv", "mcqa_train.jsonl", "mcqa_dev.jsonl",
             "mcqa_test.jsonl")}
    for mode in ("graph", "verbalized"):
        assert main(["pretrain", "--corpus", data["corpus.txt"], "--kg", data["kg.tsv"],
                     "--aliases", data["aliases.tsv"], "--out", os.path.join(root, "pretrain-" + mode),
                     "--seed", "11", "--set", "pretrain.steps=5", "--set", "pretrain.batch_size=4",
                     "--set", "pretrain.kg_mode=" + mode] + MICRO_MODEL) == EXIT_OK
    assert main(["finetune", "--checkpoint", os.path.join(root, "pretrain-graph", "checkpoint.drgn"),
                 "--kg", data["kg.tsv"], "--train", data["mcqa_train.jsonl"],
                 "--dev", data["mcqa_dev.jsonl"], "--test", data["mcqa_test.jsonl"],
                 "--out", os.path.join(root, "finetune"), "--seed", "11",
                 "--set", "finetune.epochs=1"]) == EXIT_OK
    return {(run, name): sha256(os.path.join(root, run, name)) for run, name in DIGESTS}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_micro_pipeline(str(tmp_path_factory.mktemp("determinism")))


@pytest.mark.parametrize("run,name", list(DIGESTS), ids=["/".join(k) for k in DIGESTS])
def test_fixed_seed_output_is_pinned(digests, run, name):
    assert digests[(run, name)] == DIGESTS[(run, name)]
