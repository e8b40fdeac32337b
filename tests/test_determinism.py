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
# one unimodal and two fusion layers, with dropout at its default rate, so every
# taped op of the encoder and of both pretraining losses runs: pretraining
# runs no final exchange, so only a non-final fusion layer exercises mint_block
MICRO_MODEL = ["--set", "encoder.n_unimodal=1", "--set", "encoder.n_fusion=2",
               "--set", "encoder.d_text=16", "--set", "encoder.d_node=8",
               "--set", "encoder.heads_text=2", "--set", "encoder.d_mint_hidden=16",
               "--set", "encoder.max_seq_len=32", "--set", "encoder.max_nodes=8",
               "--set", "vocab.min_freq=1"]

DIGESTS = {
    ("world", "corpus.txt"):
        "9d92a0947cefa5635c12986becea7d93ec87ae18b86203554376578ae27d7acf",
    ("world", "corpus_eval.txt"):
        "1cefbe1ed2226d2258b52cd7fdf50e3d715711ca76d9ee56ad6e962594ad1799",
    ("world", "kg.tsv"):
        "83ac8812ebf2ccacea2aef084091dbafa60193da6b3c36e8d8006f20d003ddd7",
    ("world", "aliases.tsv"):
        "387962680f853af616fc29005f51a4ca496e4d766b1fea38893719afc52b3d1d",
    ("world", "lp_test.jsonl"):
        "5a3691555ab18f24a2bfae2120da76de0050b3ab59947c6a59e6daed76d65675",
    ("world", "mcqa_train.jsonl"):
        "7dc2f7781b91769b34cd534c5255a5f6f5077c5e90230e9affbcc267ff1442d7",
    ("world", "mcqa_dev.jsonl"):
        "134661fb072c7c810757dde41f4bf6fff50bad8e472beb55e14b602d7fade341",
    ("world", "mcqa_test.jsonl"):
        "9506ccf32366c34d836586cb06150e395559e1ed84c31083617ee2651697aed9",
    ("pretrain-graph", "metrics.jsonl"):
        "903f953c557135af887d69b86aa206ac566a68bebd01084dab9aa52c455a132e",
    ("pretrain-graph", "checkpoint.drgn"):
        "a5ebcad0bf0d011b6c02bec8389e774a0ca15689f46e569142745ed763242634",
    ("pretrain-verbalized", "metrics.jsonl"):
        "2a6c737ce20c9ecd5a31907ed7d3f4148acb180b5424ca2847a8d7dbe509dbc9",
    ("pretrain-verbalized", "checkpoint.drgn"):
        "a9747054f03fff4df0b7324921703d00cac24be06dcb875978d545c118991750",
    ("finetune", "accuracy.json"):
        "20c481c1d578555dabff7f5d868c94eeac2576a463aa78fc832c9ce6ec419270",
    ("finetune", "finetuned.drgn"):
        "d823932dd5960089fb22c267d98e1210817b972832b391bf5bb325bedca5a8d1",
    ("pretrain-rotate", "metrics.jsonl"):
        "fc387e59d36452b1afc503bfd0c76a48dbf5f74bb0feb129fe89e2cc8a970068",
    ("eval-qa", "accuracy.json"):
        "016d34c13465d78e8f0dba152194cb43253e127326db74c4beec9d5d784dc6df",
    ("eval-lp-kg_plus_text", "ranking.json"):
        "d593b71bd04667d91f6c470f77ea843d77ed776f8862e3e1ddca7864179ed23a",
    ("dump-attention", "attention.jsonl"):
        "966e8c5699b7d9c2632d88959fcf97a358289a268bc2c243ba225ea90aad6a5a",
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_micro_pipeline(root: str) -> dict[tuple[str, str], str]:
    """Write the micro world under root (its files but effective_config.txt
    are pinned too), pretrain 5 steps on it in graph and
    in verbalized mode and with the rotate scorer, finetune the graph
    checkpoint for one epoch, evaluate the finetuned checkpoint on the QA
    test split, on link prediction and with an attention dump, and
    return the sha256 of each pinned output."""
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
                 "--dev", data["mcqa_dev.jsonl"],
                 "--out", os.path.join(root, "finetune"), "--seed", "11",
                 "--set", "finetune.epochs=1"]) == EXIT_OK
    finetuned = ["--checkpoint", os.path.join(root, "finetune", "finetuned.drgn"),
                 "--kg", data["kg.tsv"], "--seed", "11"]
    assert main(["eval-qa", "--data", data["mcqa_test.jsonl"],
                 "--out", os.path.join(root, "eval-qa")] + finetuned) == EXIT_OK
    assert main(["eval-lp", "--test", data["lp_test.jsonl"], "--mode", "kg_plus_text",
                 "--out", os.path.join(root, "eval-lp-kg_plus_text")] + finetuned) == EXIT_OK
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
