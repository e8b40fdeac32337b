"""Self-supervised corruption, task heads, losses, and the joint training loop.

Masking replaces tokens with [MASK] outright; edge holdout removes non
interaction-link edges from the encoder's view and pairs each held-out
positive with corrupted negatives drawn from the local node set. The link
prediction loss follows the published objective verbatim: positives pushed
up through -log sigma, negatives pushed down through +log sigma.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import numerics as nm
from .encoder import NORMAL, EncoderConfig, encode_batch, init_param, init_params
from .kg_store import EntityVocab, KnowledgeGraph, R_EL, RelationVocab, read_vocab_tsv
from .numerics import Tensor
from .retrieval import (MASK, PAD, SEP, LocalKG, TextSegment, TokenVocab, build_alias_index,
                        dummy_local_kg, link_entities, retrieve_local_kg, verbalize_kg)

SCORERS = ("distmult", "transe", "rotate")
OBJECTIVES = ("joint", "mlm_only", "linkpred_only")
KG_MODES = ("graph", "verbalized")


class TrainingDiverged(ArithmeticError):
    """Loss went non-finite; the last periodic checkpoint remains on disk."""


@dataclass
class MaskingPlan:
    positions: list[int]
    original_ids: list[int]
    flagged_empty: bool = False

    def __len__(self) -> int:
        return len(self.positions)


def apply_masking(seg: TextSegment, rate: float, rng: np.random.Generator) -> tuple[TextSegment, MaskingPlan]:
    """Independent per-token masking; forces one mask if sampling picks none."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("mask rate must be in (0, 1]")
    eligible = [i for i in range(1, seg.length) if seg.token_ids[i] not in (PAD, SEP)]
    if not eligible:
        return seg, MaskingPlan([], [], flagged_empty=True)
    draws = rng.random(len(eligible)) < rate
    positions = [p for p, hit in zip(eligible, draws) if hit]
    if not positions:
        positions = [eligible[int(rng.integers(len(eligible)))]]
    originals = [seg.token_ids[p] for p in positions]
    new_ids = list(seg.token_ids)
    for p in positions:
        new_ids[p] = MASK
    return TextSegment(new_ids, seg.spans, seg.source), MaskingPlan(positions, originals)


@dataclass
class EdgeHoldout:
    # local-index triplets (head, rel, tail)
    positives: list[tuple[int, int, int]]
    negatives: list[list[tuple[int, int, int]]]
    flagged_empty: bool = False

    def __len__(self) -> int:
        return len(self.positives)


def hold_out_edges(local: LocalKG, rate: float, n: int, rng: np.random.Generator
                   ) -> tuple[LocalKG, EdgeHoldout]:
    """Hold out non interaction-link edges and attach corrupted negatives.

    Each negative differs from its positive in exactly one endpoint, drawn
    uniformly from the local non-interaction nodes.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("edge drop rate must be in (0, 1]")
    if n < 1:
        raise ValueError("need at least one negative per positive")
    if local.is_dummy:
        return local, EdgeHoldout([], [], flagged_empty=True)
    droppable = [i for i, e in enumerate(local.edges) if e[1] != R_EL]
    if not droppable:
        return local, EdgeHoldout([], [], flagged_empty=True)
    draws = rng.random(len(droppable)) < rate
    dropped = [i for i, hit in zip(droppable, draws) if hit]
    if not dropped:
        dropped = [droppable[int(rng.integers(len(droppable)))]]
    dropped_set = set(dropped)

    pool = list(range(1, local.n_nodes))  # local indices, interaction node excluded
    positives: list[tuple[int, int, int]] = []
    negatives: list[list[tuple[int, int, int]]] = []
    for i in dropped:
        h, r, t = local.edges[i]
        head_pool = [c for c in pool if c != h]
        tail_pool = [c for c in pool if c != t]
        if not head_pool and not tail_pool:
            continue  # single-node self-loop: no corruption possible
        negs: list[tuple[int, int, int]] = []
        for _ in range(n):
            corrupt_head = rng.random() < 0.5
            if corrupt_head and head_pool:
                negs.append((int(rng.choice(head_pool)), r, t))
            elif tail_pool:
                negs.append((h, r, int(rng.choice(tail_pool))))
            else:
                negs.append((int(rng.choice(head_pool)), r, t))
        positives.append((h, r, t))
        negatives.append(negs)

    reduced = LocalKG(nodes=list(local.nodes),
                      edges=[e for i, e in enumerate(local.edges) if i not in dropped_set],
                      linked=set(local.linked))
    if not positives:
        return reduced, EdgeHoldout([], [], flagged_empty=True)
    return reduced, EdgeHoldout(positives, negatives)


@dataclass
class LinkPredHead:
    scorer: str
    margin: float
    relations: Tensor  # [n_relations, d] for distmult/transe, [n_relations, d/2] angles for rotate

    def __post_init__(self):
        if self.scorer not in SCORERS:
            raise ValueError("unknown scorer %r" % self.scorer)


def relation_table_width(scorer: str, d_node: int) -> int:
    if scorer == "rotate":
        if d_node % 2:
            raise ValueError("rotate scoring needs an even node dimension")
        return d_node // 2
    return d_node


def triplet_scores(h: Tensor, rel_ids, t: Tensor, head: LinkPredHead) -> Tensor:
    """Score a batch of triplets from [P, d] head/tail vectors; returns [P]."""
    if h.shape != t.shape or h.values.ndim != 2:
        raise nm.ShapeError("triplet_scores expects matching [P, d] vectors, got %s vs %s"
                            % (h.shape, t.shape))
    r = nm.gather_rows(head.relations, rel_ids)
    if head.scorer == "distmult":
        return nm.reduce_sum(nm.mul(nm.mul(h, r), t), axis=1)
    if head.scorer == "transe":
        diff = nm.sub(nm.add(h, r), t)
        return nm.neg(nm.sqrt(nm.reduce_sum(nm.mul(diff, diff), axis=1)))
    # rotate: first half real, second half imaginary; relations are angles
    d = h.shape[1]
    hr, hi = nm.split(h, [d // 2, d // 2], axis=1)
    tr, ti = nm.split(t, [d // 2, d // 2], axis=1)
    cr, sr = nm.cos(r), nm.sin(r)
    rot_r = nm.sub(nm.mul(hr, cr), nm.mul(hi, sr))
    rot_i = nm.add(nm.mul(hr, sr), nm.mul(hi, cr))
    dr = nm.sub(rot_r, tr)
    di = nm.sub(rot_i, ti)
    return nm.neg(nm.sqrt(nm.reduce_sum(nm.add(nm.mul(dr, dr), nm.mul(di, di)), axis=1)))


def linkpred_loss(holdouts: list[tuple[EdgeHoldout, int]], node_vecs: Tensor,
                  head: LinkPredHead) -> Tensor:
    """Mean over holdouts of: sum over positives of -log sig(phi + margin)
    + mean_neg log sig(phi' + margin).

    Each holdout comes with the row of node_vecs that holds its local node 0.
    """
    if not holdouts or not all(h.positives for h, _ in holdouts):
        raise ValueError("linkpred_loss requires non-empty holdouts")
    triples, weights = [], []
    for holdout, offset in holdouts:
        for pos, negs in zip(holdout.positives, holdout.negatives):
            triples += [(h + offset, r, t + offset) for h, r, t in [pos] + negs]
            weights += [-1.0] + [1.0 / len(negs)] * len(negs)
    h, r, t = np.array(triples, dtype=np.int64).T
    phi = triplet_scores(nm.gather_rows(node_vecs, h), r, nm.gather_rows(node_vecs, t), head)
    terms = nm.log_sigmoid(nm.add_scalar(phi, head.margin))
    return nm.reduce_sum(nm.mul(terms, np.array(weights) / len(holdouts)))


def mlm_loss(plans: list[tuple[MaskingPlan, int]], token_vecs: Tensor,
             params: dict[str, Tensor]) -> Tensor:
    """Mean over plans of each plan's mean cross-entropy of the linear
    vocabulary head over its masked positions.

    Each plan comes with the row of token_vecs that holds its position 0.
    """
    if not plans or not all(plan.positions for plan, _ in plans):
        raise ValueError("mlm_loss requires non-empty masking plans")
    rows = np.concatenate([np.asarray(plan.positions) + offset for plan, offset in plans])
    targets = [t for plan, _ in plans for t in plan.original_ids]
    weights = np.concatenate([np.full(len(plan), 1.0 / (len(plan) * len(plans))) for plan, _ in plans])
    hm = nm.gather_rows(token_vecs, rows)
    logits = nm.add(nm.matmul(hm, params["lm.mlm_head.w"]), params["lm.mlm_head.b"])
    return nm.reduce_sum(nm.mul(nm.cross_entropy_with_logits(logits, targets), weights))


@dataclass
class PretrainConfig:
    mask_rate: float = 0.15
    edge_drop_rate: float = 0.15
    n_negatives: int = 16        # full-scale reference default: 128
    margin: float = 0.0
    scorer: str = "distmult"
    objective: str = "joint"
    kg_mode: str = "graph"       # graph | verbalized
    batch_size: int = 8
    steps: int = 300
    lr_lm: float = 3e-4          # full-scale reference default: 2e-5
    lr_other: float = 1e-3       # full-scale reference default: 3e-4
    warmup_ratio: float = 0.1
    grad_clip: float = 1.0
    seed: int = 0
    checkpoint_every: int = 0    # 0 -> only at the end
    optimizer: str = "adam"      # adam | radam

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError("objective: unknown value %r" % self.objective)
        if self.scorer not in SCORERS:
            raise ValueError("scorer: unknown value %r" % self.scorer)
        if self.kg_mode not in KG_MODES:
            raise ValueError("kg_mode: unknown value %r" % self.kg_mode)


class Optimizer:
    """Adam (optionally rectified) with two lr groups, warmup-then-decay."""

    def __init__(self, params: dict[str, Tensor], lr_lm: float, lr_other: float,
                 total_steps: int, warmup_ratio: float = 0.1,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 rectified: bool = False):
        self.params = params
        self.lr_lm = lr_lm
        self.lr_other = lr_other
        self.total_steps = total_steps
        self.warmup_steps = max(1, int(round(total_steps * warmup_ratio)))
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.rectified = rectified
        self.t = 0
        self._m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.values) for k, p in params.items()}
        self.frozen_prefixes: tuple[str, ...] = ()

    def schedule(self, step: int) -> float:
        if step < self.warmup_steps:
            return (step + 1) / self.warmup_steps
        remaining = self.total_steps - self.warmup_steps
        if remaining <= 0:
            return 1.0
        return max(0.0, (self.total_steps - step) / remaining)

    def learning_rates(self, step: int) -> tuple[float, float]:
        s = self.schedule(step)
        return self.lr_lm * s, self.lr_other * s

    def step(self, step: int) -> None:
        self.t += 1
        lr_lm, lr_other = self.learning_rates(step)
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        if self.rectified:
            rho_inf = 2.0 / (1.0 - b2) - 1.0
            rho_t = rho_inf - 2.0 * self.t * (b2 ** self.t) / bc2
        for name, p in self.params.items():
            if p.grad is None or any(name.startswith(fp) for fp in self.frozen_prefixes):
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / bc1
            lr = lr_lm if name.startswith("lm.") else lr_other
            if self.rectified:
                if rho_t > 4.0:
                    vhat = np.sqrt(v / bc2)
                    rect = np.sqrt(((rho_t - 4) * (rho_t - 2) * rho_inf)
                                   / ((rho_inf - 4) * (rho_inf - 2) * rho_t))
                    p.values -= (lr * rect * mhat / (vhat + self.eps)).astype(p.values.dtype)
                else:
                    p.values -= (lr * mhat).astype(p.values.dtype)
            else:
                vhat = np.sqrt(v / bc2)
                p.values -= (lr * mhat / (vhat + self.eps)).astype(p.values.dtype)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


def train_step(opt: Optimizer, step: int, grad_clip: float,
               forward: Callable[[], tuple[Tensor, ...]]) -> tuple[tuple[Tensor, ...], float]:
    """One update: run `forward` on a fresh tape, backpropagate its first
    result (the loss), clip, apply the optimizer step, then clear gradients.

    Returns forward's results and the gradient norm before clipping.
    """
    with nm.ComputationTape() as tape:
        results = forward()
        tape.backward(results[0])
    grad_norm = clip_gradients(opt.params, grad_clip)
    opt.step(step)
    opt.zero_grad()
    return results, grad_norm


def add_pretrain_heads(params: dict[str, Tensor], enc_cfg: EncoderConfig,
                       cfg: PretrainConfig, vocab_size: int, n_relations: int,
                       seed: int) -> None:
    init_param(params, seed, "lm.mlm_head.w", (enc_cfg.d_text, vocab_size), NORMAL)
    init_param(params, seed, "lm.mlm_head.b", (vocab_size,), 0.0)
    init_param(params, seed, "other.linkpred.relations",
               (n_relations, relation_table_width(cfg.scorer, enc_cfg.d_node)), NORMAL)


def linkpred_head(params: dict[str, Tensor], cfg: PretrainConfig) -> LinkPredHead:
    return LinkPredHead(scorer=cfg.scorer, margin=cfg.margin,
                        relations=params["other.linkpred.relations"])


def prepare_examples(raw_segments: list[str], kg: KnowledgeGraph, entities: EntityVocab,
                     relations: RelationVocab, token_vocab: TokenVocab,
                     enc_cfg: EncoderConfig, seed: int, kg_mode: str = "graph"
                     ) -> list[tuple[TextSegment, LocalKG]]:
    """Link + retrieve every raw segment; verbalized mode folds the local KG
    into the token sequence and replaces the graph with a dummy."""
    alias_index = build_alias_index(entities)
    out: list[tuple[TextSegment, LocalKG]] = []
    for idx, raw in enumerate(raw_segments):
        seg, v_el = link_entities(raw, entities, token_vocab, alias_index)
        local = retrieve_local_kg(v_el, kg, enc_cfg.max_nodes, nm.split_rng(seed, "retrieval", idx))
        if kg_mode == "verbalized":
            budget = enc_cfg.max_seq_len - seg.length - 1
            suffix = verbalize_kg(local, entities, relations, token_vocab, budget=max(0, budget))
            if suffix:
                ids = seg.token_ids + [SEP] + suffix
                spans = seg.spans + [(-1, -1)] * (len(suffix) + 1)
                seg = TextSegment(ids, spans, seg.source)
            local = dummy_local_kg()
        out.append((seg, local))
    return out


def train(raw_segments: list[str], kg: KnowledgeGraph, entities: EntityVocab,
          relations: RelationVocab, token_vocab: TokenVocab,
          enc_cfg: EncoderConfig, cfg: PretrainConfig,
          metrics_path: str | None = None, checkpoint_path: str | None = None,
          config_text: str = "") -> tuple[dict[str, Tensor], list[dict]]:
    """Joint pretraining loop; returns final parameters and the metrics stream.

    The `seconds` metric field is written as 0.0 so that metrics files are
    byte-identical under a fixed seed; wall-clock timing belongs to the
    console, not the reproducibility contract.
    """
    examples = prepare_examples(raw_segments, kg, entities, relations, token_vocab,
                                enc_cfg, cfg.seed, cfg.kg_mode)
    if not examples:
        raise ValueError("no training segments")
    params = init_params(enc_cfg, cfg.seed, len(token_vocab), len(entities), len(relations))
    add_pretrain_heads(params, enc_cfg, cfg, len(token_vocab), len(relations), cfg.seed)
    head = linkpred_head(params, cfg)
    opt = Optimizer(params, cfg.lr_lm, cfg.lr_other, cfg.steps, cfg.warmup_ratio,
                    rectified=(cfg.optimizer == "radam"))

    metrics: list[dict] = []
    use_mlm = cfg.objective in ("joint", "mlm_only")
    use_lp = cfg.objective in ("joint", "linkpred_only") and cfg.kg_mode == "graph"
    if not use_mlm and not use_lp:
        raise ValueError("objective %r with kg_mode %r leaves no trainable objective"
                         % (cfg.objective, cfg.kg_mode))

    def batch_loss(step: int) -> tuple[Tensor, Tensor | None, Tensor | None]:
        batch_rng = nm.split_rng(cfg.seed, "batch", step)
        idxs = batch_rng.integers(0, len(examples), size=cfg.batch_size)
        batch, seeds, plans, holdouts = [], [], [], []
        for slot, ex_i in enumerate(idxs):
            seg, local = examples[int(ex_i)]
            if use_mlm:
                seg, plan = apply_masking(
                    seg, cfg.mask_rate, nm.split_rng(cfg.seed, "mask", step, slot))
                plans.append((slot, plan))
            if use_lp:
                local, holdout = hold_out_edges(
                    local, cfg.edge_drop_rate, cfg.n_negatives,
                    nm.split_rng(cfg.seed, "holdout", step, slot))
                holdouts.append((slot, holdout))
            batch.append((seg, local))
            seeds.append(int(nm.split_rng(cfg.seed, "dropout", step, slot).integers(2 ** 62)))
        out = encode_batch(batch, params, enc_cfg, mode="train", seeds=seeds)

        mlm_terms = [(plan, slot * out.max_len) for slot, plan in plans if not plan.flagged_empty]
        lp_terms = [(holdout, out.node_offsets[slot]) for slot, holdout in holdouts
                    if not holdout.flagged_empty]
        loss_mlm = mlm_loss(mlm_terms, out.tokens, params) if mlm_terms else None
        loss_lp = linkpred_loss(lp_terms, out.nodes, head) if lp_terms else None
        if loss_mlm is not None and loss_lp is not None:
            loss = nm.add(loss_mlm, loss_lp)
        else:
            loss = loss_mlm if loss_mlm is not None else loss_lp
        if loss is None:
            raise ValueError("batch produced no loss terms")
        return loss, loss_mlm, loss_lp

    fh = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        for step in range(cfg.steps):
            lr_lm, lr_other = opt.learning_rates(step)
            try:
                (loss, loss_mlm, loss_lp), grad_norm = train_step(
                    opt, step, cfg.grad_clip, partial(batch_loss, step))
            except nm.NumericError as e:
                raise TrainingDiverged("step %d: %s" % (step, e)) from None

            rec = {"step": step,
                   "loss": round(loss.item(), 6),
                   "loss_mlm": round(loss_mlm.item(), 6) if loss_mlm is not None else 0.0,
                   "loss_lp": round(loss_lp.item(), 6) if loss_lp is not None else 0.0,
                   "lr_lm": lr_lm, "lr_other": lr_other,
                   "grad_norm": round(grad_norm, 6), "seconds": 0.0}
            metrics.append(rec)
            if fh:
                fh.write(json.dumps(rec) + "\n")
            if checkpoint_path and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(checkpoint_path, params, token_vocab, entities, relations, config_text)
    finally:
        if fh:
            fh.close()

    if checkpoint_path:
        save_checkpoint(checkpoint_path, params, token_vocab, entities, relations, config_text)
    return params, metrics


# ---------------------------------------------------------------------------
# Checkpoint wire format: magic "DRGN", u32 version, canonical config text,
# vocab tables, then named tensor records (little-endian float32 row-major).
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"DRGN"
CHECKPOINT_VERSION = 1


def _write_blob(fh, data: bytes) -> None:
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _read_blob(fh) -> bytes:
    (n,) = struct.unpack("<I", fh.read(4))
    return fh.read(n)


def _vocab_tsv(pairs) -> bytes:
    return "".join("%s\t%d\n" % (k, v) for k, v in pairs).encode("utf-8")


def save_checkpoint(path: str, params: dict[str, Tensor], token_vocab: TokenVocab,
                    entities: EntityVocab, relations: RelationVocab,
                    config_text: str = "") -> None:
    for name, p in params.items():
        if not np.all(np.isfinite(p.values)):
            raise nm.NumericError("refusing to checkpoint non-finite tensor %r" % name)
    tables = [
        ("tokens", _vocab_tsv((t, i) for i, t in enumerate(token_vocab.tokens))),
        ("entities", _vocab_tsv((n, i) for i, n in enumerate(entities.names))),
        ("relations", _vocab_tsv((n, i) for i, n in enumerate(relations.names))),
        ("aliases", _vocab_tsv(sorted(entities.aliases.items()))),
    ]
    # write a temp file beside the target, then rename over it: a crash
    # mid-write leaves the previous checkpoint whole
    tmp = "%s.tmp%d" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            _write_checkpoint(fh, params, tables, config_text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_checkpoint(fh, params: dict[str, Tensor], tables: list, config_text: str) -> None:
    fh.write(CHECKPOINT_MAGIC)
    fh.write(struct.pack("<I", CHECKPOINT_VERSION))
    _write_blob(fh, config_text.encode("utf-8"))
    fh.write(struct.pack("<I", len(tables)))
    for name, payload in tables:
        _write_blob(fh, name.encode("utf-8"))
        _write_blob(fh, payload)
    fh.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name].values, dtype="<f4")
        _write_blob(fh, name.encode("utf-8"))
        fh.write(struct.pack("<B", 0))  # dtype tag: float32
        fh.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(arr.tobytes(order="C"))


def load_checkpoint(path: str) -> tuple[dict[str, Tensor], TokenVocab, EntityVocab,
                                        RelationVocab, str]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("%s: not a checkpoint (bad magic %r)" % (path, magic))
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError("%s: unsupported checkpoint version %d" % (path, version))
        config_text = _read_blob(fh).decode("utf-8")
        (n_tables,) = struct.unpack("<I", fh.read(4))
        tables: dict[str, str] = {}
        for _ in range(n_tables):
            name = _read_blob(fh).decode("utf-8")
            tables[name] = _read_blob(fh).decode("utf-8")

        def vocab(table: str, empty):
            return read_vocab_tsv(tables[table], "%s (%s table)" % (path, table), empty)

        token_vocab = vocab("tokens", TokenVocab(tokens=[], ids={}))
        entities = vocab("entities", EntityVocab())
        entities.aliases = {}
        for line in tables["aliases"].splitlines():
            surface, eid = line.split("\t")
            entities.aliases[surface] = int(eid)
        relations = vocab("relations", RelationVocab(names=[], ids={}))

        (n_tensors,) = struct.unpack("<I", fh.read(4))
        params: dict[str, Tensor] = {}
        for _ in range(n_tensors):
            name = _read_blob(fh).decode("utf-8")
            (dtype_tag,) = struct.unpack("<B", fh.read(1))
            if dtype_tag != 0:
                raise ValueError("unknown dtype tag %d for tensor %r" % (dtype_tag, name))
            (rank,) = struct.unpack("<B", fh.read(1))
            dims = [struct.unpack("<I", fh.read(4))[0] for _ in range(rank)]
            count = int(np.prod(dims)) if dims else 1
            arr = np.frombuffer(fh.read(4 * count), dtype="<f4").reshape(dims)
            t = Tensor(arr.astype(np.float32), requires_grad=True, name=name)
            if not np.all(np.isfinite(t.values)):
                raise nm.NumericError("checkpoint tensor %r contains non-finite values" % name)
            params[name] = t
    return params, token_vocab, entities, relations, config_text
