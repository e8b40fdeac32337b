"""Self-supervised corruption, task heads, losses, and the joint training loop.

Masking replaces tokens with [MASK] outright; edge holdout removes non
interaction-link edges from the encoder's view and turns each held-out edge
into a link-prediction query that ranks its tail among every other local
entity node, the query that link-prediction evaluation ranks too. The link
prediction loss follows the published objective's printed form: the gold
tail pushed up through -log sigma, the query's other candidates, as its
negatives, pushed down through +log sigma.

The losses read the encoder's masked-token rows and, when a batch holds a
hold-out, its entity-node states; nothing reads the interaction token or
node. So each step's encode runs no final exchange, no final GNN layer
without link prediction, and no final transformer layer without masking.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import numerics as nm
from .encoder import (NORMAL, EncoderConfig, Reads, check_fields, encode_batch, init_param,
                      init_params)
from .kg_store import (RESERVED_RELATIONS, EntityVocab, KnowledgeGraph, R_EL, Vocab, name_table,
                       read_name_table)
from .numerics import Tensor
from .retrieval import MASK, PAD, RESERVED_TOKENS, SEP, LocalKG, Retriever, TextSegment

SCORERS = ("distmult", "transe", "rotate")
OBJECTIVES = ("joint", "mlm_only", "linkpred_only")
KG_MODES = ("graph", "verbalized")


class TrainingDiverged(ArithmeticError):
    """Loss went non-finite. The last periodic checkpoint remains on disk
    when checkpoint_every > 0; with 0 the run has written none."""


class CheckpointError(ValueError):
    """Unreadable checkpoint file; the message names the path."""


@dataclass
class MaskingPlan:
    positions: list[int]
    original_ids: list[int]

    @property
    def flagged_empty(self) -> bool:
        return not self.positions

    def __len__(self) -> int:
        return len(self.positions)


def _pick(items: list[int], rate: float, rng: np.random.Generator) -> list[int]:
    """Each item independently with probability rate; one uniform item if none is."""
    picked = [x for x, hit in zip(items, rng.random(len(items)) < rate) if hit]
    return picked or [items[int(rng.integers(len(items)))]]


def apply_masking(seg: TextSegment, rate: float, rng: np.random.Generator) -> tuple[TextSegment, MaskingPlan]:
    """Independent per-token masking; forces one mask if sampling picks none."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("mask rate must be in (0, 1]")
    eligible = [i for i in range(1, seg.length) if seg.token_ids[i] not in (PAD, SEP)]
    if not eligible:
        return seg, MaskingPlan([], [])
    positions = _pick(eligible, rate, rng)
    new_ids = list(seg.token_ids)
    for p in positions:
        new_ids[p] = MASK
    return TextSegment(new_ids), MaskingPlan(positions, [seg.token_ids[p] for p in positions])


class LPQuery(NamedTuple):
    """One link-prediction query: rank `candidates` as tails of (head, rel).
    Head, candidates and gold are local node indices of one example's graph;
    the gold is the held-out (or test) tail and is one of the candidates."""
    head: int
    rel: int
    candidates: list[int]
    gold: int


def tail_query(local: LocalKG, head: int, rel: int, tail: int, drop=frozenset()) -> LPQuery | None:
    """The query ranking `tail` among every local entity node except the head
    and the nodes in `drop`; None when the tail is not one of them or fewer
    than two candidates remain. The interaction node 0 is never a candidate."""
    candidates = [j for j in range(1, local.n_nodes) if j != head and j not in drop]
    if tail not in candidates or len(candidates) < 2:
        return None
    return LPQuery(head, rel, candidates, tail)


@dataclass
class EdgeHoldout:
    """The link-prediction queries of one example's held-out edges."""
    queries: list[LPQuery]

    @property
    def flagged_empty(self) -> bool:
        return not self.queries

    def __len__(self) -> int:
        return len(self.queries)


def hold_out_edges(local: LocalKG, rate: float, rng: np.random.Generator
                   ) -> tuple[LocalKG, EdgeHoldout]:
    """Hold out non interaction-link edges, each as its tail_query.

    A held-out edge that makes no query (a self-loop, or a graph with fewer
    than two candidates) still leaves the reduced graph. rng draws only the
    held-out edges.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("edge drop rate must be in (0, 1]")
    droppable = [i for i, e in enumerate(local.edges) if e[1] != R_EL]
    if not droppable:
        return local, EdgeHoldout([])
    dropped = _pick(droppable, rate, rng)
    dropped_set = set(dropped)
    reduced = LocalKG(nodes=list(local.nodes),
                      edges=[e for i, e in enumerate(local.edges) if i not in dropped_set])
    queries = (tail_query(local, *local.edges[i]) for i in dropped)
    return reduced, EdgeHoldout([q for q in queries if q is not None])


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
            raise ValueError("rotate needs an even encoder.d_node, got %d" % d_node)
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


def query_scores(vectors: Tensor, queries: list[tuple[LPQuery, np.ndarray]],
                 head: LinkPredHead) -> Tensor:
    """Flat scores of every candidate of every query, in query order, from one
    triplet_scores call. Each query comes with `rows`: rows[j] is the row of
    vectors that holds its local node j."""
    heads = np.concatenate([np.full(len(q.candidates), rows[q.head]) for q, rows in queries])
    rels = np.concatenate([np.full(len(q.candidates), q.rel) for q, _ in queries])
    tails = np.concatenate([rows[q.candidates] for q, rows in queries])
    return triplet_scores(nm.gather_rows(vectors, heads), rels, nm.gather_rows(vectors, tails), head)


def linkpred_loss(holdouts: list[tuple[EdgeHoldout, np.ndarray]], node_vecs: Tensor,
                  head: LinkPredHead) -> Tensor:
    """Mean over holdouts of the sum over their queries of
    -log sig(phi_gold + margin) + mean_c log sig(phi_c + margin),
    where c runs over the query's other candidates: the tail is ranked
    against every other local entity node, and the published objective's
    negative term reads those nodes as the negatives.

    Each holdout comes with the rows of node_vecs of its local nodes (see
    query_scores).
    """
    if not holdouts or not all(len(h) for h, _ in holdouts):
        raise ValueError("linkpred_loss requires non-empty holdouts")
    queries = [(q, rows) for holdout, rows in holdouts for q in holdout.queries]
    weights = np.concatenate([np.where(np.asarray(q.candidates) == q.gold, -1.0,
                                       1.0 / (len(q.candidates) - 1)) for q, _ in queries])
    terms = nm.log_sigmoid(nm.add(query_scores(node_vecs, queries, head), head.margin))
    return nm.reduce_sum(nm.mul(terms, weights / len(holdouts)))


def mlm_loss(plans: list[tuple[MaskingPlan, np.ndarray]], token_vecs: Tensor,
             params: dict[str, Tensor]) -> Tensor:
    """Mean over plans of each plan's mean cross-entropy of the linear
    vocabulary head over its masked positions.

    Each plan comes with the rows of token_vecs that hold its masked
    positions, in the plan's order.
    """
    if not plans or not all(plan.positions for plan, _ in plans):
        raise ValueError("mlm_loss requires non-empty masking plans")
    rows = np.concatenate([rows for _, rows in plans])
    targets = [t for plan, _ in plans for t in plan.original_ids]
    weights = np.concatenate([np.full(len(plan), 1.0 / (len(plan) * len(plans))) for plan, _ in plans])
    hm = nm.gather_rows(token_vecs, rows)
    logits = nm.linear(hm, params["lm.mlm_head.w"], params["lm.mlm_head.b"])
    return nm.reduce_sum(nm.mul(nm.cross_entropy_with_logits(logits, targets), weights))


@dataclass
class PretrainConfig:
    mask_rate: float = 0.15
    edge_drop_rate: float = 0.15
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

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError("objective: unknown value %r" % self.objective)
        if self.scorer not in SCORERS:
            raise ValueError("scorer: unknown value %r" % self.scorer)
        if self.kg_mode not in KG_MODES:
            raise ValueError("kg_mode: unknown value %r" % self.kg_mode)
        if self.objective == "linkpred_only" and self.kg_mode == "verbalized":
            raise ValueError("objective: linkpred_only trains on graph inputs, which kg_mode "
                             "verbalized replaces with a dummy graph; nothing would train")
        check_fields(self, lambda v: v >= 1, ">= 1", "batch_size", "steps")
        check_fields(self, lambda v: 0.0 < v <= 1.0, "in (0, 1]", "mask_rate", "edge_drop_rate")
        check_fields(self, lambda v: 0.0 <= v <= 1.0, "in [0, 1]", "warmup_ratio")
        check_fields(self, lambda v: v >= 0, ">= 0", "lr_lm", "lr_other", "grad_clip",
                     "checkpoint_every")

    @property
    def trains_mlm(self) -> bool:
        return self.objective != "linkpred_only"

    @property
    def trains_lp(self) -> bool:
        """A verbalized KG reaches the encoder as a dummy graph, with no edge to hold out."""
        return self.objective != "mlm_only" and self.kg_mode == "graph"


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam moment decays and denominator floor


class Optimizer:
    """Adam with two lr groups: `lm.` parameters take lr_lm and the others
    lr_other, each scaled by a linear warmup then a linear decay to zero."""

    def __init__(self, params: dict[str, Tensor], lr_lm: float, lr_other: float,
                 total_steps: int, warmup_ratio: float):
        self.params = params
        self.lr_lm = lr_lm
        self.lr_other = lr_other
        self.total_steps = total_steps
        self.warmup_steps = max(1, int(round(total_steps * warmup_ratio)))
        self._m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.values) for k, p in params.items()}
        self.frozen_prefixes: tuple[str, ...] = ()

    def trainable(self) -> dict[str, Tensor]:
        """The parameters that step() updates: those outside frozen_prefixes."""
        return {name: p for name, p in self.params.items() if not name.startswith(self.frozen_prefixes)}

    def schedule(self, step: int) -> float:
        """The lr scale of step (0 <= step < total_steps)."""
        if step < self.warmup_steps:
            return (step + 1) / self.warmup_steps
        return (self.total_steps - step) / (self.total_steps - self.warmup_steps)

    def learning_rates(self, step: int) -> tuple[float, float]:
        s = self.schedule(step)
        return self.lr_lm * s, self.lr_other * s

    def step(self, step: int) -> None:
        """Apply step's gradients. Steps run from 0, one update each, so Adam's
        bias correction counts step + 1 updates."""
        lr_lm, lr_other = self.learning_rates(step)
        bc1 = 1.0 - BETA1 ** (step + 1)
        bc2 = 1.0 - BETA2 ** (step + 1)
        for name, p in self.trainable().items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self._m[name], self._v[name]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            lr = lr_lm if name.startswith("lm.") else lr_other
            p.values -= (lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)).astype(p.values.dtype, copy=False)

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
    The norm and the clipping cover only the gradients that the step applies;
    frozen parameters' gradients are left out.

    Returns forward's results and that gradient norm before clipping.
    """
    with nm.ComputationTape() as tape:
        results = forward()
        tape.backward(results[0])
    grad_norm = clip_gradients(opt.trainable(), grad_clip)
    opt.step(step)
    opt.zero_grad()
    return results, grad_norm


def pretrain_head_shapes(enc_cfg: EncoderConfig, scorer: str, vocab_size: int, n_relations: int
                         ) -> list[dict[str, tuple[tuple[int, ...], float | None]]]:
    """Name -> (shape, init_param fill) of the tensors of the masked-token
    head, then of the link-prediction head."""
    return [{"lm.mlm_head.w": ((enc_cfg.d_text, vocab_size), NORMAL),
             "lm.mlm_head.b": ((vocab_size,), 0.0)},
            {"other.linkpred.relations":
             ((n_relations, relation_table_width(scorer, enc_cfg.d_node)), NORMAL)}]


def add_pretrain_heads(params: dict[str, Tensor], enc_cfg: EncoderConfig,
                       cfg: PretrainConfig, vocab_size: int, n_relations: int,
                       seed: int) -> None:
    for shapes in pretrain_head_shapes(enc_cfg, cfg.scorer, vocab_size, n_relations):
        for name, (shape, fill) in shapes.items():
            init_param(params, seed, name, shape, fill)


def linkpred_head(params: dict[str, Tensor], cfg: PretrainConfig) -> LinkPredHead:
    return LinkPredHead(scorer=cfg.scorer, margin=cfg.margin,
                        relations=params["other.linkpred.relations"])


def prepare_examples(raw_segments: list[str], retriever: Retriever, seed: int, indices: np.ndarray
                     ) -> dict[int, tuple[TextSegment, LocalKG]]:
    """Encoder inputs of the raw segments that `indices` names, by index:
    each distinct segment is retrieved once, with its own stream factory
    partial(split_rng, seed, "retrieval", idx), and the others not at all."""
    return {idx: retriever.inputs([raw_segments[idx]], partial(nm.split_rng, seed, "retrieval", idx))
            for idx in sorted(set(indices.ravel().tolist()))}


def train(raw_segments: list[str], kg: KnowledgeGraph, entities: EntityVocab,
          relations: Vocab, token_vocab: Vocab,
          enc_cfg: EncoderConfig, cfg: PretrainConfig,
          metrics_path: str | None = None, checkpoint_path: str | None = None,
          config_text: str = "") -> tuple[dict[str, Tensor], list[dict]]:
    """Joint pretraining loop; returns final parameters and the metrics stream.

    Before step 0 it draws the [steps, batch_size] batch schedule, step s's
    row from its own stream split_rng(seed, "batch", s), and retrieves each
    segment the schedule names once (prepare_examples); a segment that no
    step draws is never retrieved.

    The `seconds` metric field is written as 0.0 so that metrics files are
    byte-identical under a fixed seed; wall-clock timing belongs to the
    console, not the reproducibility contract.
    """
    if not raw_segments:
        raise ValueError("no training segments")
    schedule = np.stack([nm.split_rng(cfg.seed, "batch", step).integers(
        0, len(raw_segments), size=cfg.batch_size) for step in range(cfg.steps)])
    examples = prepare_examples(raw_segments, Retriever(kg, entities, relations, token_vocab,
                                enc_cfg.max_seq_len, enc_cfg.max_nodes, cfg.kg_mode), cfg.seed,
                                schedule)
    params = init_params(enc_cfg, cfg.seed, len(token_vocab), len(entities), len(relations))
    add_pretrain_heads(params, enc_cfg, cfg, len(token_vocab), len(relations), cfg.seed)
    head = linkpred_head(params, cfg)
    opt = Optimizer(params, cfg.lr_lm, cfg.lr_other, cfg.steps, cfg.warmup_ratio)

    metrics: list[dict] = []

    def batch_loss(step: int) -> tuple[Tensor, Tensor | None, Tensor | None]:
        """Slot k's masking, hold-out and dropout seed are drawn, in that
        order, from its one stream split_rng(seed, "example", step, k)."""
        batch, seeds, plans, holdouts = [], [], [], []
        for slot, ex_i in enumerate(schedule[step].tolist()):
            seg, local = examples[ex_i]
            rng = nm.split_rng(cfg.seed, "example", step, slot)
            if cfg.trains_mlm:
                seg, plan = apply_masking(seg, cfg.mask_rate, rng)
                plans.append((slot, plan))
            if cfg.trains_lp:
                local, holdout = hold_out_edges(local, cfg.edge_drop_rate, rng)
                holdouts.append((slot, holdout))
            batch.append((seg, local))
            seeds.append(int(rng.integers(2 ** 62)))
        # the losses read the masked tokens and, with a hold-out, the nodes
        out = encode_batch(batch, params, enc_cfg, seeds, Reads(
            [plan.positions for _, plan in plans] or [()] * len(batch),
            nodes=any(len(holdout) for _, holdout in holdouts), interaction=False))

        mlm_terms = [(plan, slot * out.width + np.arange(len(plan))) for slot, plan in plans
                     if not plan.flagged_empty]
        lp_terms = [(holdout, np.arange(*out.node_offsets[slot:slot + 2])) for slot, holdout
                    in holdouts if not holdout.flagged_empty]
        loss_mlm = mlm_loss(mlm_terms, out.tokens, params) if mlm_terms else None
        loss_lp = linkpred_loss(lp_terms, out.nodes, head) if lp_terms else None
        terms = [term for term in (loss_mlm, loss_lp) if term is not None]
        if not terms:
            raise ValueError("batch produced no loss terms")
        loss = nm.add(*terms) if len(terms) == 2 else terms[0]
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
            # every checkpoint_every steps, and once after the last step
            if checkpoint_path and (step + 1 == cfg.steps or cfg.checkpoint_every
                                    and (step + 1) % cfg.checkpoint_every == 0):
                save_checkpoint(checkpoint_path, params, token_vocab, entities, relations, config_text)
    finally:
        if fh:
            fh.close()
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


class _Reader:
    """A checkpoint file read front to back. Every length, count and tensor
    size is checked against the bytes left before it is read; a value that
    does not fit raises CheckpointError naming the path."""

    def __init__(self, fh):
        self.fh, self.path = fh, fh.name
        self.left = os.fstat(fh.fileno()).st_size

    def take(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise CheckpointError("%s: truncated or corrupt at byte %d (%s needs %d bytes, %d left)"
                                  % (self.path, self.fh.tell(), what, n, self.left))
        self.left -= n
        return self.fh.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def count(self, min_bytes: int, what: str) -> int:
        """A u32 count of records that take at least min_bytes each."""
        (n,) = self.unpack("<I", what + " count")
        if n * min_bytes > self.left:
            raise CheckpointError("%s: %d %s cannot fit in the %d bytes left"
                                  % (self.path, n, what, self.left))
        return n

    def text(self, what: str) -> str:
        """The next length-prefixed blob as UTF-8."""
        try:
            return self.take(self.unpack("<I", what)[0], what).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("%s: %s is not valid UTF-8" % (self.path, what)) from None


def save_checkpoint(path: str, params: dict[str, Tensor], token_vocab: Vocab,
                    entities: EntityVocab, relations: Vocab, config_text: str = "") -> None:
    for name, p in params.items():
        if not np.all(np.isfinite(p.values)):
            raise nm.NumericError("refusing to checkpoint non-finite tensor %r" % name)
    tables = [("tokens", token_vocab.to_tsv()), ("entities", entities.to_tsv()),
              ("relations", relations.to_tsv()),
              ("aliases", name_table(sorted(entities.aliases.items())))]
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
    for name, text in tables:
        _write_blob(fh, name.encode("utf-8"))
        _write_blob(fh, text.encode("utf-8"))
    fh.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name].values, dtype="<f4")
        _write_blob(fh, name.encode("utf-8"))
        fh.write(struct.pack("<BB%dI" % arr.ndim, 0, arr.ndim, *arr.shape))  # dtype tag 0: float32
        fh.write(arr.tobytes(order="C"))


def load_checkpoint(path: str) -> tuple[dict[str, Tensor], Vocab, EntityVocab, Vocab, str]:
    """Parameters, token/entity/relation vocabularies and config text.

    A file cut short, foreign or with trailing bytes, a length, count or
    shape that does not fit in the bytes left, text that is not UTF-8, an
    unknown version or dtype, a missing table, or a table or tensor name
    stored twice raises CheckpointError
    naming the path; a tokens, entities, relations or aliases table that
    kg_store.read_tsv refuses, or whose names or ids are out of place, raises
    KGParseError naming `<path> (<name> table):<line>`, a malformed line
    before a misplaced one; a non-finite tensor raises NumericError naming
    the path.
    """
    with open(path, "rb") as fh:
        rd = _Reader(fh)
        (magic,) = rd.unpack("4s", "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError("%s: not a checkpoint (bad magic %r)" % (path, magic))
        (version,) = rd.unpack("<I", "version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError("%s: unsupported checkpoint version %d" % (path, version))
        config_text = rd.text("config text")
        tables: dict[str, str] = {}
        for _ in range(rd.count(8, "tables")):   # two length prefixes each
            name = rd.text("table name")
            if name in tables:
                raise CheckpointError("%s: table %r is stored twice" % (path, name))
            tables[name] = rd.text(name + " table")

        def table(name: str) -> tuple[str, str]:
            if name not in tables:
                raise CheckpointError("%s: no %s table" % (path, name))
            return tables[name], "%s (%s table)" % (path, name)

        token_vocab = Vocab.from_tsv(*table("tokens"), RESERVED_TOKENS)
        entities = EntityVocab.from_tsv(*table("entities"))
        entities.aliases = dict(read_name_table(*table("aliases"), len(entities)))
        relations = Vocab.from_tsv(*table("relations"), RESERVED_RELATIONS)

        params: dict[str, Tensor] = {}
        for _ in range(rd.count(6, "tensors")):   # name length, dtype tag and rank each
            name = rd.text("tensor name")
            if name in params:
                raise CheckpointError("%s: tensor %r is stored twice" % (path, name))
            dtype_tag, rank = rd.unpack("<BB", "tensor %r header" % name)
            if dtype_tag != 0:
                raise CheckpointError("%s: unknown dtype tag %d for tensor %r" % (path, dtype_tag, name))
            dims = rd.unpack("<%dI" % rank, "tensor %r shape" % name)
            data = rd.take(4 * math.prod(dims), "tensor %r data" % name)
            # an empty tensor's other dimensions can still overflow numpy's size limit
            if not data and math.prod(max(d, 1) for d in dims) > rd.left:
                raise CheckpointError("%s: empty tensor %r of rank %d has a corrupt shape"
                                      % (path, name, rank))
            t = Tensor(np.frombuffer(data, dtype="<f4").reshape(dims).astype(np.float32),
                       requires_grad=True, name=name)
            if not np.all(np.isfinite(t.values)):
                raise nm.NumericError("%s: checkpoint tensor %r contains non-finite values"
                                      % (path, name))
            params[name] = t
        if rd.left:
            raise CheckpointError("%s: %d unread bytes after the last tensor" % (path, rd.left))
    return params, token_vocab, entities, relations, config_text
