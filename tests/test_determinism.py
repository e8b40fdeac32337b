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

# a chains world of 30 two-hop stories; leak_rate 0.1 withholds half of their
# derived facts from the KG, so the derived relation stays in the KG and
# eval-lp ranks every withheld one
MICRO_WORLD = ["--set", "world.n_entities=30", "--set", "world.n_relations=5",
               "--set", "world.n_facts=150", "--set", "world.leak_rate=0.1"]
# one unimodal and one fusion layer, with dropout at its default rate, so every
# taped op of the encoder and of both pretraining losses runs
MICRO_MODEL = ["--set", "encoder.n_unimodal=1", "--set", "encoder.n_fusion=1",
               "--set", "encoder.d_text=16", "--set", "encoder.d_node=8",
               "--set", "encoder.heads_text=2", "--set", "encoder.d_mint_hidden=16",
               "--set", "encoder.max_seq_len=32", "--set", "encoder.max_nodes=8",
               "--set", "vocab.min_freq=1"]

DIGESTS = {
    ("pretrain-graph", "metrics.jsonl"):
        "2e619b6906714a66dfa0a3300addbb57fe4310d8b56cc4cc033bf5b68bb8178a",
    ("pretrain-graph", "checkpoint.drgn"):
        "f6d3a06e7721d74beb8a3bec5d7f3310f9b5fb17bf59f4aec5e1c8344b6fb6d3",
    ("pretrain-verbalized", "metrics.jsonl"):
        "7705ba63b0ddb44252bcb6dff91500da14443d52b1f638bdb355bb1281014167",
    ("pretrain-verbalized", "checkpoint.drgn"):
        "4d1efeb8b60db6b2959d26edf9c6e66e39f8d490784a0134dafa829779206727",
    ("finetune", "accuracy.json"):
        "e8b500a4215986efda1c0ab8a1b7df11df65083edba3e4c87310b6a1e7d303a2",
    ("finetune", "finetuned.drgn"):
        "2239ab5c8d16cea469e31fb1255c90c55ca417412d5266ff524b8deefc8bae51",
    ("pretrain-rotate", "metrics.jsonl"):
        "5d0a5d2374600bd29b334931e4ac3281aee77e3501ac5dff95b557ad26055106",
    ("eval-qa", "accuracy.json"):
        "016d34c13465d78e8f0dba152194cb43253e127326db74c4beec9d5d784dc6df",
    ("eval-lp-kg_plus_text", "ranking.json"):
        "0fd0f1afade1115f59522579ed602cc7934d218e6a62c685c8c353b38a34e1a6",
    ("eval-lp-kg_only", "ranking.json"):
        "991f403bd4609bcc850d00494a3e97a3996ceee42b66c2af2a795c9b9eb70974",
    ("dump-attention", "attention.jsonl"):
        "ea96e66a98b2bdca99922792c286ba4d48ebcba48234c16fd08e4a5eae27e5e4",
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
