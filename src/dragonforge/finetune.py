"""Downstream adaptation: attention pooling over node vectors and
multiple-choice QA scoring over (question, answer-choice) inputs.

Each choice is encoded from the text "question [SEP] choice" with its own
retrieved local KG (all choices of a question, or of a training step, in one
encoder batch), pooled into a single vector, and scored by a one-hidden-layer
perceptron; training is cross-entropy over choice logits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import numerics as nm
from .encoder import NORMAL, EncoderConfig, EncoderOutput, encode_batch, init_param
from .kg_store import EntityVocab, KnowledgeGraph
from .numerics import Tensor
from .pretrain import Optimizer, train_step
from .retrieval import (SEP, LocalKG, TextSegment, TokenVocab, build_alias_index,
                        link_entities, retrieve_local_kg)


class DataError(ValueError):
    """Malformed downstream dataset record."""


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


def load_mcqa(path: str) -> list[MCQAExample]:
    """JSON lines {question, choices: [...], gold: int}."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                out.append(MCQAExample(rec["question"], list(rec["choices"]), int(rec["gold"])))
            except (KeyError, TypeError, ValueError) as e:
                raise DataError("%s:%d: %s" % (path, lineno, e)) from None
    return out


def add_pooling_head(params: dict[str, Tensor], enc_cfg: EncoderConfig, seed: int) -> None:
    dt, dn = enc_cfg.d_text, enc_cfg.d_node
    init_param(params, seed, "other.pool.wq", (dt, dn), NORMAL)
    init_param(params, seed, "other.pool.wk", (dn, dn), NORMAL)
    init_param(params, seed, "other.pool.mlp.w1", (dt + 2 * dn, dt), NORMAL)
    init_param(params, seed, "other.pool.mlp.b1", (dt,), 0.0)
    init_param(params, seed, "other.pool.mlp.w2", (dt, 1), NORMAL)
    init_param(params, seed, "other.pool.mlp.b2", (1,), 0.0)


def pool(out: EncoderOutput, params: dict[str, Tensor]) -> tuple[Tensor, np.ndarray]:
    """Attention-pool each example's node vectors with its interaction token
    as query (a softmax over the example's non-interaction nodes).

    Returns the [B, 1] pooled scores (perceptron over [H_int; V_int; G]) and
    the attention weights over non-interaction nodes, example after example,
    for inspection.
    """
    offsets = out.node_offsets
    b = out.batch_size
    counts = np.diff(offsets) - 1
    owner = np.repeat(np.arange(b), counts)                      # example of each pooled node
    rest = np.delete(np.arange(offsets[-1]), offsets[:-1])     # non-interaction node rows
    h_int, v_int = out.h_int, out.v_int                          # [B, d_text], [B, d_node]
    v_rest = nm.gather_rows(out.nodes, rest)                     # [J, d_node]
    q = nm.matmul(h_int, params["other.pool.wq"])                # [B, d_node]
    k = nm.matmul(v_rest, params["other.pool.wk"])               # [J, d_node]
    dn = k.shape[1]
    logits = nm.matmul(nm.mul(nm.gather_rows(q, owner), k), nm.constant(np.full((dn, 1), 1.0 / np.sqrt(dn))))
    alpha = nm.segment_softmax(logits, owner, b)                 # [J, 1]
    weighted = nm.mul(nm.matmul(alpha, nm.constant(np.ones((1, dn)))), v_rest)
    g = nm.scatter_rows(weighted, owner, b)                      # [B, d_node]
    z = nm.concat([h_int, v_int, g], axis=1)
    hid = nm.gelu(nm.add(nm.matmul(z, params["other.pool.mlp.w1"]), params["other.pool.mlp.b1"]))
    x = nm.add(nm.matmul(hid, params["other.pool.mlp.w2"]), params["other.pool.mlp.b2"])
    return x, alpha.values.reshape(-1).copy()


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
    early_stop: bool = True


def prepare_choice_inputs(ex: MCQAExample, kg: KnowledgeGraph, entities: EntityVocab,
                          token_vocab: TokenVocab, enc_cfg: EncoderConfig, seed: int,
                          example_idx: int, alias_index: dict
                          ) -> list[tuple[TextSegment, LocalKG]]:
    """One (segment, local KG) per choice, retrieved from question + choice."""
    q_seg, q_el = link_entities(ex.question, entities, token_vocab, alias_index)
    out = []
    for c, choice in enumerate(ex.choices):
        c_seg, c_el = link_entities(choice, entities, token_vocab, alias_index)
        ids = q_seg.token_ids + [SEP] + c_seg.token_ids[1:]
        spans = q_seg.spans + [(-1, -1)] + c_seg.spans[1:]
        if len(ids) > enc_cfg.max_seq_len:
            ids = ids[:enc_cfg.max_seq_len]
            spans = spans[:enc_cfg.max_seq_len]
        seg = TextSegment(ids, spans, source=ex.question + " [SEP] " + choice)
        v_el = q_el | c_el
        local = retrieve_local_kg(v_el, kg, enc_cfg.max_nodes,
                                  nm.split_rng(seed, "ft_retrieval", example_idx, c))
        out.append((seg, local))
    return out


def _choice_seeds(n_choices: int, mode: str, seed: int) -> list[int]:
    if mode != "train":
        return [0] * n_choices
    return [int(nm.split_rng(seed, "ft_dropout", c).integers(2 ** 62)) for c in range(n_choices)]


def choice_logits(inputs: list[tuple[TextSegment, LocalKG]], params: dict[str, Tensor],
                  enc_cfg: EncoderConfig, mode: str, seed: int = 0) -> tuple[Tensor, list[np.ndarray]]:
    """Encode and pool all choices in one batch; returns [1, n_choices]
    logits and each choice's pooling attention."""
    out = encode_batch(inputs, params, enc_cfg, mode, _choice_seeds(len(inputs), mode, seed))
    x, alpha = pool(out, params)
    alphas = np.split(alpha, np.cumsum(np.diff(out.node_offsets) - 1)[:-1])
    return nm.reshape(x, (1, len(inputs))), alphas


def evaluate_mcqa(examples: list[MCQAExample], kg: KnowledgeGraph, entities: EntityVocab,
                  token_vocab: TokenVocab, params: dict[str, Tensor],
                  enc_cfg: EncoderConfig, seed: int = 0) -> dict:
    """Accuracy report {split-agnostic}: n, accuracy, per_choice_count."""
    alias_index = build_alias_index(entities)
    correct = 0
    per_choice: dict[str, int] = {}
    for i, ex in enumerate(examples):
        inputs = prepare_choice_inputs(ex, kg, entities, token_vocab, enc_cfg, seed, i, alias_index)
        logits, _ = choice_logits(inputs, params, enc_cfg, mode="eval")
        pred = int(np.argmax(logits.values.reshape(-1)))
        correct += int(pred == ex.gold)
        key = str(len(ex.choices))
        per_choice[key] = per_choice.get(key, 0) + 1
    n = len(examples)
    return {"n": n, "accuracy": correct / n if n else 0.0, "per_choice_count": per_choice}


def subsample(examples: list[MCQAExample], fraction: float, seed: int) -> list[MCQAExample]:
    """Seeded selection of ceil(fraction * N) examples (low-resource setting)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("train fraction must be in (0, 1]")
    if fraction == 1.0:
        return list(examples)
    k = int(np.ceil(fraction * len(examples)))
    rng = nm.split_rng(seed, "ft_subsample")
    idx = sorted(rng.choice(len(examples), size=k, replace=False).tolist())
    return [examples[i] for i in idx]


def finetune_mcqa(train_examples: list[MCQAExample], dev_examples: list[MCQAExample],
                  kg: KnowledgeGraph, entities: EntityVocab, token_vocab: TokenVocab,
                  params: dict[str, Tensor], enc_cfg: EncoderConfig, cfg: FinetuneConfig
                  ) -> tuple[dict[str, Tensor], list[dict]]:
    """Train the pooling head (and encoder) on MCQA; dev-accuracy early stopping.

    Returns the best parameters by dev accuracy and a per-epoch history.
    """
    if "other.pool.wq" not in params:
        add_pooling_head(params, enc_cfg, cfg.seed)
    train_set = subsample(train_examples, cfg.train_fraction, cfg.seed)
    if not train_set:
        raise DataError("empty training set")
    alias_index = build_alias_index(entities)
    steps_per_epoch = int(np.ceil(len(train_set) / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    opt = Optimizer(params, cfg.lr_lm, cfg.lr_other, total_steps, cfg.warmup_ratio)

    def batch_loss(batch_ids: np.ndarray, step: int) -> tuple[Tensor]:
        # every choice of every question in one encoder batch; question bi's
        # logits fill row bi of a [Q, C_max] table padded with NEG_FILL
        inputs, seeds, cells, golds = [], [], [], []
        width = max(len(train_set[int(i)].choices) for i in batch_ids)
        for bi, i in enumerate(batch_ids):
            ex = train_set[int(i)]
            inputs += prepare_choice_inputs(ex, kg, entities, token_vocab, enc_cfg,
                                            cfg.seed, int(i), alias_index)
            ft_seed = int(nm.split_rng(cfg.seed, "ft_step", step, bi).integers(2 ** 62))
            seeds += _choice_seeds(len(ex.choices), "train", ft_seed)
            cells += [bi * width + c for c in range(len(ex.choices))]
            golds.append(ex.gold)
        x, _ = pool(encode_batch(inputs, params, enc_cfg, "train", seeds), params)
        n_cells = len(batch_ids) * width
        fill = np.full((n_cells, 1), nm.NEG_FILL)
        fill[cells] = 0.0
        table = nm.add(nm.scatter_rows(x, cells, n_cells), fill)
        logits = nm.reshape(table, (len(batch_ids), width))
        return (nm.reduce_mean(nm.cross_entropy_with_logits(logits, golds)),)

    history: list[dict] = []
    best_acc, best_params = -1.0, None
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
        dev = evaluate_mcqa(dev_examples, kg, entities, token_vocab, params, enc_cfg, cfg.seed)
        history.append({"epoch": epoch, "train_loss": epoch_loss / max(1, n_batches),
                        "dev_accuracy": dev["accuracy"]})
        if dev["accuracy"] > best_acc:
            best_acc = dev["accuracy"]
            best_params = {k: Tensor(p.values.copy(), requires_grad=True, name=k)
                           for k, p in params.items()}
    if cfg.early_stop and best_params is not None:
        params = best_params
    return params, history
