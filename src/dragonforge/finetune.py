"""Downstream adaptation: attention pooling over node vectors and
multiple-choice QA scoring over (question, answer-choice) inputs.

The Retriever turns each (question, choice) into "question [SEP] choice"
and a local KG, verbalized for verbalized checkpoints. Training and
evaluation score a batch of questions the same way (choice_logits): all their
choices share one encoder batch, are pooled to vectors and scored by a
one-hidden-layer perceptron, trained by cross-entropy over each question's.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import numerics as nm
from .encoder import (NORMAL, EncoderConfig, EncoderOutput, Reads, check_fields, encode_batch,
                      init_param)
from .kg_store import read_text
from .numerics import Tensor
from .pretrain import Optimizer, train_step
from .retrieval import LocalKG, Retriever, TextSegment


class DataError(ValueError):
    """Malformed downstream dataset record, or a KG file that disagrees
    with a checkpoint's vocabularies."""


@dataclass
class MCQAExample:
    question: str
    choices: list[str]
    gold: int

    def __post_init__(self):
        if len(self.choices) < 2:
            raise DataError("need at least two choices, got %r" % (self.choices,))
        if not 0 <= self.gold < len(self.choices):
            raise DataError("gold index %d out of range for %d choices" % (self.gold, len(self.choices)))


# read_jsonl field kind -> (check, description)
_KINDS = {
    str: (lambda v: isinstance(v, str), "a string"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    list: (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of strings"),
}


def read_jsonl(path: str, fields: dict, make: Callable) -> list:
    """make(**record) for each JSON-object line of a file, blank lines skipped.

    fields maps each required key to str, int (not bool) or list (of
    strings). A line that is not such an object, or that make() rejects
    with a DataError, raises DataError("path:line: ..."), and a file with no
    record raises DataError naming it; bytes that are not UTF-8 raise
    KGParseError naming their line (kg_store.read_text).
    """
    out = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise DataError("expected a JSON object, got %s" % type(rec).__name__)
            for key, kind in fields.items():
                check, description = _KINDS[kind]
                if key not in rec:
                    raise DataError("missing field %r" % key)
                if not check(rec[key]):
                    raise DataError("%r must be %s, got %r" % (key, description, rec[key]))
            out.append(make(**{key: rec[key] for key in fields}))
        except (json.JSONDecodeError, DataError) as e:
            raise DataError("%s:%d: %s" % (path, lineno, e)) from None
    if not out:
        raise DataError("%s: no records" % path)
    return out


def load_mcqa(path: str) -> list[MCQAExample]:
    """JSON lines {question: str, choices: [str, ...], gold: int}."""
    return read_jsonl(path, {"question": str, "choices": list, "gold": int}, MCQAExample)


def pooling_head_shapes(enc_cfg: EncoderConfig) -> dict[str, tuple[tuple[int, ...], float | None]]:
    """Name -> (shape, init_param fill) of the QA pooling head's tensors."""
    dt, dn = enc_cfg.d_text, enc_cfg.d_node
    return {"other.pool.wq": ((dt, dn), NORMAL), "other.pool.wk": ((dn, dn), NORMAL),
            "other.pool.mlp.w1": ((dt + 2 * dn, dt), NORMAL), "other.pool.mlp.b1": ((dt,), 0.0),
            "other.pool.mlp.w2": ((dt, 1), NORMAL), "other.pool.mlp.b2": ((1,), 0.0)}


def add_pooling_head(params: dict[str, Tensor], enc_cfg: EncoderConfig, seed: int) -> None:
    for name, (shape, fill) in pooling_head_shapes(enc_cfg).items():
        init_param(params, seed, name, shape, fill)


def pool(out: EncoderOutput, params: dict[str, Tensor]) -> tuple[Tensor, np.ndarray]:
    """Attention-pool each example's node vectors with its interaction token
    as query (a softmax over the example's non-interaction nodes).

    It reads the interaction token and node and every node state, so `out`
    needs no more than Reads([()] * B) of encode_batch.

    Returns the [B, 1] pooled scores (perceptron over [H_int; V_int; G]) and
    the attention weights over non-interaction nodes, example after example,
    for inspection.
    """
    offsets = out.node_offsets
    b = out.batch_size
    owner = np.repeat(np.arange(b), np.diff(offsets) - 1)        # example of each pooled node
    rest = np.delete(np.arange(offsets[-1]), offsets[:-1])     # non-interaction node rows
    h_int, v_int = out.h_int, out.v_int                          # [B, d_text], [B, d_node]
    v_rest = nm.gather_rows(out.nodes, rest)                     # [J, d_node]
    q = nm.matmul(h_int, params["other.pool.wq"])                # [B, d_node]
    k = nm.matmul(v_rest, params["other.pool.wk"])               # [J, d_node]
    g, alpha = nm.segment_attention(q, k, v_rest, owner, 1)      # [B, d_node], [J, 1]
    z = nm.concat([h_int, v_int, g], axis=1)
    hid = nm.gelu(nm.linear(z, params["other.pool.mlp.w1"], params["other.pool.mlp.b1"]))
    x = nm.linear(hid, params["other.pool.mlp.w2"], params["other.pool.mlp.b2"])
    return x, alpha.reshape(-1).copy()


@dataclass
class FinetuneConfig:
    epochs: int = 6
    batch_size: int = 8
    lr_lm: float = 1e-4          # full-scale reference: {1e-5, 2e-5, 3e-5}
    lr_other: float = 1e-3       # full-scale reference: {3e-4, 1e-3}
    warmup_ratio: float = 0.1
    grad_clip: float = 1.0
    freeze_lm_epochs: int = 0    # full-scale reference: 4
    train_fraction: float = 1.0  # low-resource subsampling
    seed: int = 0

    def __post_init__(self):
        check_fields(self, lambda v: v >= 1, ">= 1", "epochs", "batch_size")
        check_fields(self, lambda v: 0.0 < v <= 1.0, "in (0, 1]", "train_fraction")
        check_fields(self, lambda v: 0.0 <= v <= 1.0, "in [0, 1]", "warmup_ratio")
        check_fields(self, lambda v: v >= 0, ">= 0", "lr_lm", "lr_other", "grad_clip",
                     "freeze_lm_epochs")


def prepare_choice_inputs(ex: MCQAExample, retriever: Retriever, seed: int, example_idx: int
                          ) -> list[tuple[TextSegment, LocalKG]]:
    """One (segment, local KG) per choice, retrieved from question + choice."""
    return [retriever.inputs([ex.question, choice],
                             partial(nm.split_rng, seed, "ft_retrieval", example_idx, c))
            for c, choice in enumerate(ex.choices)]


def choice_logits(questions: list[list[tuple[TextSegment, LocalKG]]], params: dict[str, Tensor],
                  enc_cfg: EncoderConfig, seeds: list[int] | None = None) -> Tensor:
    """Encode and pool every choice of the questions in one batch: the [Q, C_max]
    logits, question q's in row q, padded with NEG_FILL. Training (dropout) with
    one dropout seed per choice, question after question; evaluation without."""
    width = max(len(q) for q in questions)
    cells = [qi * width + c for qi, q in enumerate(questions) for c in range(len(q))]
    choices = [choice for q in questions for choice in q]
    x, _ = pool(encode_batch(choices, params, enc_cfg, seeds, Reads([()] * len(choices))), params)
    fill = np.full((len(questions) * width, 1), nm.NEG_FILL)
    fill[cells] = 0.0
    table = nm.add(nm.scatter_rows(x, cells, len(fill)), fill)
    return nm.reshape(table, (len(questions), width))


def memoized_choice_inputs(memo: dict[int, list[tuple[TextSegment, LocalKG]]], ex: MCQAExample,
                           retriever: Retriever, seed: int, example_idx: int
                           ) -> list[tuple[TextSegment, LocalKG]]:
    """prepare_choice_inputs of question example_idx, retrieved on its first
    request only and kept in memo, which is keyed by question index."""
    if example_idx not in memo:
        memo[example_idx] = prepare_choice_inputs(ex, retriever, seed, example_idx)
    return memo[example_idx]


def evaluate_mcqa(examples: list[MCQAExample], retriever: Retriever, params: dict[str, Tensor],
                  enc_cfg: EncoderConfig, cfg: FinetuneConfig,
                  memo: dict[int, list[tuple[TextSegment, LocalKG]]] | None = None) -> dict:
    """Accuracy report: n, accuracy, per_choice_count. Questions are retrieved
    with the run seed cfg.seed and scored cfg.batch_size at a time. A memo
    from an earlier call on the same examples supplies the questions it
    holds, and keeps the ones retrieved now."""
    memo = {} if memo is None else memo
    correct = 0
    for lo in range(0, len(examples), cfg.batch_size):
        batch = examples[lo:lo + cfg.batch_size]
        inputs = [memoized_choice_inputs(memo, ex, retriever, cfg.seed, lo + i)
                  for i, ex in enumerate(batch)]
        preds = np.argmax(choice_logits(inputs, params, enc_cfg).values, axis=1)
        correct += sum(int(pred == ex.gold) for pred, ex in zip(preds, batch))
    n = len(examples)
    return {"n": n, "accuracy": correct / n if n else 0.0,
            "per_choice_count": dict(Counter(str(len(ex.choices)) for ex in examples))}


def subsample(examples: list[MCQAExample], fraction: float, seed: int) -> list[MCQAExample]:
    """Seeded selection of ceil(fraction * N) examples (low-resource setting)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("train fraction must be in (0, 1]")
    k = int(np.ceil(fraction * len(examples)))
    rng = nm.split_rng(seed, "ft_subsample")
    idx = sorted(rng.choice(len(examples), size=k, replace=False).tolist())
    return [examples[i] for i in idx]


def finetune_mcqa(train_examples: list[MCQAExample], dev_examples: list[MCQAExample],
                  retriever: Retriever, params: dict[str, Tensor], enc_cfg: EncoderConfig,
                  cfg: FinetuneConfig) -> tuple[dict[str, Tensor], list[dict], dict]:
    """Train the pooling head (and encoder) on MCQA; dev-accuracy early stopping.

    Each training and dev question is retrieved once, when an epoch first
    uses it, and its inputs are kept for the run's later epochs (one memo per
    set, keyed by question index); nothing is retrieved before the first step.

    Returns the best epoch's parameters by dev accuracy (the earliest on a tie),
    a per-epoch history and the returned parameters' dev report.
    """
    if "other.pool.wq" not in params:
        add_pooling_head(params, enc_cfg, cfg.seed)
    train_set = subsample(train_examples, cfg.train_fraction, cfg.seed)
    if not train_set:
        raise DataError("empty training set")
    steps_per_epoch = int(np.ceil(len(train_set) / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    opt = Optimizer(params, cfg.lr_lm, cfg.lr_other, total_steps, cfg.warmup_ratio)
    train_inputs, dev_inputs = {}, {}   # question index -> its choices' inputs

    def batch_loss(batch_ids: np.ndarray, step: int) -> tuple[Tensor]:
        questions, seeds, golds = [], [], []
        for bi, i in enumerate(batch_ids.tolist()):
            ex = train_set[i]
            questions.append(memoized_choice_inputs(train_inputs, ex, retriever, cfg.seed, i))
            seeds += nm.split_rng(cfg.seed, "ft_step", step, bi).integers(
                2 ** 62, size=len(ex.choices)).tolist()
            golds.append(ex.gold)
        logits = choice_logits(questions, params, enc_cfg, seeds)
        return (nm.reduce_mean(nm.cross_entropy_with_logits(logits, golds)),)

    history: list[dict] = []
    best = None   # (dev report, parameter copy) of the best epoch
    step = 0
    for epoch in range(cfg.epochs):
        opt.frozen_prefixes = ("lm.",) if epoch < cfg.freeze_lm_epochs else ()
        order = nm.split_rng(cfg.seed, "ft_order", epoch).permutation(len(train_set))
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, len(train_set), cfg.batch_size):
            (loss,), _ = train_step(opt, step, cfg.grad_clip,
                                    partial(batch_loss, order[lo:lo + cfg.batch_size], step))
            epoch_loss += loss.item()
            n_batches += 1
            step += 1
        dev = evaluate_mcqa(dev_examples, retriever, params, enc_cfg, cfg, dev_inputs)
        history.append({"epoch": epoch, "train_loss": epoch_loss / max(1, n_batches),
                        "dev_accuracy": dev["accuracy"]})
        if best is None or dev["accuracy"] > best[0]["accuracy"]:
            best = (dev, {k: Tensor(p.values.copy(), requires_grad=True, name=k)
                          for k, p in params.items()})
    dev, params = best
    return params, history, dev
