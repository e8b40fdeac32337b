"""Cross-modal encoder: unimodal transformer layers, then fusion layers that
run one transformer layer on tokens, one relation-aware GNN layer on nodes,
and exchange information through the interaction token/node perceptron.

A minibatch is encoded in one pass: tokens in one padded matrix with a
key-padding mask, the local graphs as one disjoint-union node table with an
edge softmax per destination node, and the exchange on one row per example.

Token outputs never depend on the graph when fusion is disabled
(concat_at_end), and dummy graphs keep zero node states with no message
passing, so the model backs off to text plus the exchange perceptron's bias
path.

Each head reads a small part of the last fusion layer's outputs, and a
caller says which (Reads): masked-token prediction the masked tokens, link
prediction the entity nodes, QA pooling the interaction token and node and
every node. That layer's transformer layer then runs queries, residual and
FFN on the read token rows only (keys and values on every row), its GNN
layer only when node states are read, and its exchange only when the
interaction is. Reading everything is the full pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .retrieval import PAD, LocalKG, TextSegment

BIDIRECTIONAL = "bidirectional"
CONCAT_AT_END = "concat_at_end"


def check_fields(cfg, ok, rule: str, *keys: str) -> None:
    """ValueError "<key>: must be <rule>, got <value>" for the first of a
    config's keys whose value fails ok."""
    for key in keys:
        if not ok(getattr(cfg, key)):
            raise ValueError("%s: must be %s, got %r" % (key, rule, getattr(cfg, key)))


@dataclass
class EncoderConfig:
    n_unimodal: int = 2          # transformer layers before fusion starts
    n_fusion: int = 2            # fusion layers (transformer + GNN + exchange)
    d_text: int = 64
    d_node: int = 32
    heads_text: int = 4
    heads_gnn: int = 2
    d_mint_hidden: int = 128
    dropout: float = 0.1
    max_seq_len: int = 64
    max_nodes: int = 24
    fusion: str = BIDIRECTIONAL

    def __post_init__(self):
        check_fields(self, lambda v: v >= 0, ">= 0", "n_unimodal")
        check_fields(self, lambda v: v >= 1, ">= 1", "n_fusion", "d_text", "d_node", "heads_text",
                     "heads_gnn", "d_mint_hidden", "max_nodes")
        check_fields(self, lambda v: v >= 2, ">= 2 ([INT] and a token)", "max_seq_len")
        check_fields(self, lambda v: 0.0 <= v < 1.0, "in [0, 1)", "dropout")
        if self.d_text % self.heads_text:
            raise ValueError("heads_text: %d does not divide d_text %d" % (self.heads_text, self.d_text))
        if self.d_node % self.heads_gnn:
            raise ValueError("heads_gnn: %d does not divide d_node %d" % (self.heads_gnn, self.d_node))
        if self.fusion not in (BIDIRECTIONAL, CONCAT_AT_END):
            raise ValueError("fusion: unknown mode %r" % self.fusion)


@dataclass(frozen=True)
class Reads:
    """The final states an encode_batch caller reads; its last fusion layer
    computes only those (see encode_batch).

    positions: per example, the token positions it reads besides its
        interaction token, each in 1 .. its length - 1, in the order of its
        token rows; None reads every position, padding included, and the
        interaction.
    nodes: the node states but the interaction nodes'.
    interaction: the interaction token and node after the final exchange,
        and with them every node state. Unread, the interaction nodes' rows
        hold their states before the final exchange.
    """
    positions: Sequence[Sequence[int]] | None = None
    nodes: bool = True
    interaction: bool = True


@dataclass
class EncoderOutput:
    """Encoder states of a batch of B examples, as far as the Reads say.

    tokens: [B * width, d_text], or None when no token is read. Example b
        owns rows b * width .. b * width + width - 1. Reading every position,
        width is the batch's padded length and row b * width + i holds token
        i (i = 0 the interaction token; rows past the example's length are
        padding). Otherwise the example's rows hold its interaction token
        when that is read, then its read positions in order; rows past those
        pad the example to width, with no meaning.
    nodes: [N, d_node], the disjoint union of the local graphs, or None when
        unread; node j of example b is row node_offsets[b] + j (j = 0 its
        interaction node). A dummy graph keeps two zero rows.
    graph_attention: one [M, heads_gnn] array per fusion layer, the last one
        only when node states are read: the attention weight per head of
        every message. Messages run example by example; within an example,
        message 2e is edge e of local.edges read head->tail and 2e+1 its
        reverse. Dummy graphs send no messages.
    """
    tokens: Tensor | None
    nodes: Tensor | None
    graph_attention: list
    width: int
    node_offsets: np.ndarray       # [B + 1]

    @property
    def batch_size(self) -> int:
        return len(self.node_offsets) - 1

    @property
    def h_int(self) -> Tensor:
        """[B, d_text] interaction-token states, each example's first token
        row (read through Reads.interaction)."""
        return nm.gather_rows(self.tokens, np.arange(self.batch_size) * self.width)

    @property
    def v_int(self) -> Tensor:
        """[B, d_node] interaction-node states."""
        return nm.gather_rows(self.nodes, self.node_offsets[:-1])


NORMAL = None  # init_param fill that draws Normal(0, 0.02) weights


def init_param(params: dict[str, Tensor], seed: int, name: str, shape, fill: float | None) -> None:
    """Add params[name]: Normal(0, 0.02) from the name-keyed stream "init/<name>"
    when fill is NORMAL, else `fill` everywhere (biases, layer-norm gains).

    Two configurations sharing a parameter name initialize it identically
    under the same seed.
    """
    if fill is NORMAL:
        values = nm.split_rng(seed, "init/" + name).normal(0.0, 0.02, size=shape)
    else:
        values = np.full(shape, fill)
    params[name] = Tensor(values, requires_grad=True, name=name)


def param_shapes(cfg: EncoderConfig, vocab_size: int, n_entities: int, n_relations: int
                 ) -> dict[str, tuple[tuple[int, ...], float | None]]:
    """Name -> (shape, init_param fill) of every encoder tensor: Normal(0, 0.02)
    weights, zero biases, unit layer-norm gains."""
    shapes: dict[str, tuple[tuple[int, ...], float | None]] = {}

    def put(name: str, shape: tuple[int, ...], fill: float | None) -> None:
        shapes[name] = (shape, fill)

    dt, dn = cfg.d_text, cfg.d_node
    put("lm.tok_emb", (vocab_size, dt), NORMAL)
    put("lm.pos_emb", (cfg.max_seq_len, dt), NORMAL)
    put("lm.emb_ln.g", (dt,), 1.0)
    put("lm.emb_ln.b", (dt,), 0.0)
    for i in range(cfg.n_unimodal + cfg.n_fusion):
        p = "lm.layer%d." % i
        for w in ("wq", "wk", "wv", "wo"):
            put(p + "attn." + w, (dt, dt), NORMAL)
            put(p + "attn.b" + w[1], (dt,), 0.0)
        put(p + "ln1.g", (dt,), 1.0)
        put(p + "ln1.b", (dt,), 0.0)
        put(p + "ffn.w1", (dt, 4 * dt), NORMAL)
        put(p + "ffn.b1", (4 * dt,), 0.0)
        put(p + "ffn.w2", (4 * dt, dt), NORMAL)
        put(p + "ffn.b2", (dt,), 0.0)
        put(p + "ln2.g", (dt,), 1.0)
        put(p + "ln2.b", (dt,), 0.0)

    put("node_emb.table", (n_entities, dn), NORMAL)
    put("node_emb.v_int", (1, dn), NORMAL)
    put("gnn.rel_emb", (2 * n_relations, dn), NORMAL)
    for l in range(cfg.n_fusion):
        p = "gnn.layer%d." % l
        put(p + "w_msg", (2 * dn, dn), NORMAL)
        put(p + "b_msg", (dn,), 0.0)
        for w in ("wq", "wk", "wv", "wo"):
            put(p + w, (dn, dn), NORMAL)
            put(p + "b" + w[1], (dn,), 0.0)
        put(p + "ln.g", (dn,), 1.0)
        put(p + "ln.b", (dn,), 0.0)
        q = "mint.layer%d." % l
        put(q + "w1", (dt + dn, cfg.d_mint_hidden), NORMAL)
        put(q + "b1", (cfg.d_mint_hidden,), 0.0)
        put(q + "w2", (cfg.d_mint_hidden, dt + dn), NORMAL)
        put(q + "b2", (dt + dn,), 0.0)
    return shapes


def init_params(cfg: EncoderConfig, seed: int, vocab_size: int, n_entities: int,
                n_relations: int) -> dict[str, Tensor]:
    """The tensors of param_shapes, each drawn from its name-keyed stream."""
    params: dict[str, Tensor] = {}
    for name, (shape, fill) in param_shapes(cfg, vocab_size, n_entities, n_relations).items():
        init_param(params, seed, name, shape, fill)
    return params


@dataclass
class Batch:
    """Row layout of one padded minibatch (see EncoderOutput) and its dropout
    keep masks (None unless training with dropout; True on padding and dummy
    graphs' rows) by site: token site 0 the embeddings, 1 + 2i / 2 + 2i layer
    i's attention / FFN output; node site 0 the embeddings, 1 + l GNN layer l."""
    max_len: int
    key_pad: np.ndarray            # [B, max_len], True at padding
    node_offsets: np.ndarray       # [B + 1]
    graph: np.ndarray              # [B] bool: the example has a real (non-dummy) graph
    src: np.ndarray                # [M] message source node rows
    dst: np.ndarray                # [M] message destination node rows
    reldir: np.ndarray             # [M] relation/direction id 2r (head->tail) or 2r+1
    token_keep: np.ndarray | None  # [1 + 2 * (n_unimodal + n_fusion), B * max_len, d_text]
    mint_keep: np.ndarray | None   # [n_fusion, B, d_mint_hidden]: exchange hidden layers
    node_keep: np.ndarray | None   # [1 + n_fusion, N, d_node]


def make_batch(examples: list[tuple[TextSegment, LocalKG]], cfg: EncoderConfig,
               seeds: list[int] | None) -> Batch:
    """Lay out a batch; IndexError names the first example over a size limit.

    Given seeds (training) and dropout, example b's masks come from its one
    stream split_rng(seeds[b], "dropout"): one draw for all token sites, one
    for all exchange hidden layers, then, for a real graph only, one for all
    node sites. Without seeds (evaluation) there are no masks.
    """
    if not examples or (seeds is not None and len(seeds) != len(examples)):
        raise ValueError("need one dropout seed per example and at least one example")
    lengths = [seg.length for seg, _ in examples]
    for seg, local in examples:
        if seg.length > cfg.max_seq_len:
            raise IndexError("segment length %d exceeds max_seq_len %d" % (seg.length, cfg.max_seq_len))
        if local.n_nodes > cfg.max_nodes + 1:
            raise IndexError("local KG has %d nodes, limit %d" % (local.n_nodes - 1, cfg.max_nodes))
    max_len = max(lengths)
    pad = np.arange(max_len)[None, :] >= np.array(lengths)[:, None]
    node_offsets = np.cumsum([0] + [local.n_nodes for _, local in examples])
    graph = np.array([not local.is_dummy for _, local in examples])
    # every graph's edges (a dummy graph has none) in one [E, 3] array; message
    # 2e reads edge e head->tail and 2e + 1 tail->head, node ids shifted to batch rows
    edge_lists = [local.edges for _, local in examples]
    edges = np.fromiter(chain.from_iterable(chain.from_iterable(edge_lists)), dtype=np.int64).reshape(-1, 3)
    shift = np.repeat(node_offsets[:-1], [len(es) for es in edge_lists])[:, None]
    src = (edges[:, [0, 2]] + shift).reshape(-1)
    dst = (edges[:, [2, 0]] + shift).reshape(-1)
    reldir = (2 * edges[:, [1, 1]] + [0, 1]).reshape(-1)

    token_keep = mint_keep = node_keep = None
    if seeds is not None and (p := cfg.dropout) > 0.0:
        token_keep = np.ones((1 + 2 * (cfg.n_unimodal + cfg.n_fusion), len(examples) * max_len,
                              cfg.d_text), dtype=bool)
        mint_keep = np.ones((cfg.n_fusion, len(examples), cfg.d_mint_hidden), dtype=bool)
        node_keep = np.ones((1 + cfg.n_fusion, node_offsets[-1], cfg.d_node), dtype=bool)
        for b, n in enumerate(lengths):
            rng, lo = nm.split_rng(seeds[b], "dropout"), b * max_len
            token_keep[:, lo:lo + n] = rng.random((len(token_keep), n, cfg.d_text)) >= p
            mint_keep[:, b] = rng.random((cfg.n_fusion, cfg.d_mint_hidden)) >= p
            if graph[b]:
                lo, hi = node_offsets[b], node_offsets[b + 1]
                node_keep[:, lo:hi] = rng.random((len(node_keep), hi - lo, cfg.d_node)) >= p

    return Batch(max_len=max_len, key_pad=pad, node_offsets=node_offsets, graph=graph,
                 src=src, dst=dst, reldir=reldir,
                 token_keep=token_keep, mint_keep=mint_keep, node_keep=node_keep)


def _maybe_dropout(x: Tensor, cfg: EncoderConfig, keep: np.ndarray | None, site: int) -> Tensor:
    """Dropout with the precomputed mask keep[site] of one of the batch's
    mask groups (see Batch); the identity when keep is None."""
    if keep is None:
        return x
    return nm.dropout(x, cfg.dropout, keep[site])


_ATTENTION_WEIGHTS = ("attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv", "attn.wo",
                      "attn.bo", "ln1.g", "ln1.b")
_FFN_WEIGHTS = ("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln2.g", "ln2.b")


def _site_keep(keep: np.ndarray | None, site: int, rows: np.ndarray | None = None) -> np.ndarray | None:
    """The keep mask keep[site] of one of the batch's mask groups (see
    Batch), at its rows `rows` when given; None without masks."""
    if keep is None:
        return None
    return keep[site] if rows is None else keep[site][rows]


def _transformer_layer(x: Tensor, params, cfg: EncoderConfig, idx: int, batch: Batch,
                       rows: np.ndarray | None = None) -> Tensor:
    """Transformer layer idx over x's [B * max_len] token rows. Given rows
    ([B * W] indices into x, W per example), queries, the residual and the
    FFN run on those rows only and the output has them, keys and values
    still every row; the dropout masks are those rows of the batch's."""
    p, keep = "lm.layer%d." % idx, batch.token_keep
    x = nm.attention_block(x, [params[p + n] for n in _ATTENTION_WEIGHTS], batch.key_pad,
                           cfg.heads_text, cfg.dropout, _site_keep(keep, 1 + 2 * idx, rows), rows)
    return nm.ffn_block(x, [params[p + n] for n in _FFN_WEIGHTS], cfg.dropout,
                        _site_keep(keep, 2 + 2 * idx, rows))


_GNN_WEIGHTS = ("w_msg", "b_msg", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln.g", "ln.b")
_MINT_WEIGHTS = ("w1", "b1", "w2", "b2")


def _gnn_layer(v: Tensor, params, cfg: EncoderConfig, layer: int,
               batch: Batch) -> tuple[Tensor, np.ndarray]:
    """Relation-aware attention over in-neighborhoods with directed messages.

    Every edge (h, r, t) contributes a forward message h->t and a reverse
    message t->h; the relation/direction pair selects the message embedding.
    Each destination node normalizes its messages' scores (edge softmax).
    Dummy graphs' rows stay zero. Returns the new node states and the [M,
    heads] attention of every message.
    """
    p = "gnn.layer%d." % layer
    live = None if batch.graph.all() else np.repeat(batch.graph, np.diff(batch.node_offsets))
    return nm.gnn_block(v, params["gnn.rel_emb"], [params[p + n] for n in _GNN_WEIGHTS], batch.src,
                        batch.dst, batch.reldir, cfg.heads_gnn, cfg.dropout,
                        _site_keep(batch.node_keep, 1 + layer), live)


def _mint(x: Tensor, v: Tensor, params, cfg: EncoderConfig, layer: int,
          batch: Batch) -> tuple[Tensor, Tensor]:
    """Two-layer perceptron over each example's [H_int; V_int]; residual
    update of both rows. x holds the same number of token rows per example,
    the first of them its interaction token. Dummy graphs' interaction nodes
    stay zero."""
    p, n_ex = "mint.layer%d." % layer, len(batch.graph)
    int_rows, v_rows = np.arange(n_ex) * (x.shape[0] // n_ex), batch.node_offsets[:-1]
    upd = nm.mint_block(x, v, [params[p + n] for n in _MINT_WEIGHTS], int_rows, v_rows, cfg.dropout,
                        _site_keep(batch.mint_keep, layer))
    uh, uv = nm.split(upd, [cfg.d_text, cfg.d_node], axis=1)
    x = nm.add(x, nm.scatter_rows(uh, int_rows, x.shape[0]))
    if batch.graph.any():
        live = np.flatnonzero(batch.graph)
        if len(live) < len(batch.graph):
            uv = nm.gather_rows(uv, live)
        v = nm.add(v, nm.scatter_rows(uv, v_rows[live], v.shape[0]))
    return x, v


def _query_rows(reads: Reads, examples: list[tuple[TextSegment, LocalKG]], max_len: int
                ) -> np.ndarray | None:
    """The [B * W] rows of the padded token matrix that the last transformer
    layer runs its queries on, W per example (slots past an example's reads
    repeat its interaction token); None for every row."""
    if reads.positions is None:
        if not reads.interaction:
            raise ValueError("reads: every position includes the interaction token")
        return None
    if len(reads.positions) != len(examples) or any(
            not all(0 < p < seg.length for p in ps) for ps, (seg, _) in zip(reads.positions, examples)):
        raise ValueError("reads: need, per example, token positions in 1 .. its length - 1")
    slots = [[0] * reads.interaction + list(ps) for ps in reads.positions]
    width = max(len(s) for s in slots)
    table = np.zeros((len(examples), width), dtype=np.int64)
    for b, s in enumerate(slots):
        table[b, :len(s)] = s
    return (table + max_len * np.arange(len(examples))[:, None]).reshape(-1)


def encode_batch(examples: list[tuple[TextSegment, LocalKG]], params: dict[str, Tensor],
                 cfg: EncoderConfig, seeds: list[int] | None = None,
                 reads: Reads = Reads()) -> EncoderOutput:
    """Cross-modal forward pass over a batch of (text, local KG) examples.

    Given seeds, the pass trains: seeds[b] keys example b's dropout masks.
    Without them it evaluates, with no dropout. Example b's rows match
    encode() of that example alone up to float rounding.

    The last fusion layer computes only what `reads` asks for: its
    transformer layer on the read token rows (the interaction token's among
    them when the interaction is read), not at all when no token is read;
    its GNN layer when node states are read; its exchange when the
    interaction is. Read states equal a full pass's up to float rounding,
    and the dropout masks are drawn in full, so no stream changes.
    """
    batch = make_batch(examples, cfg, seeds)
    rows = _query_rows(reads, examples, batch.max_len)
    read_nodes = reads.nodes or reads.interaction

    def run(stage, fn, *args):
        try:
            return fn(*args)
        except nm.NumericError as e:
            raise nm.NumericError("%s: %s" % (stage, e)) from None

    n_tokens = len(examples) * batch.max_len
    tok_ids = np.full(n_tokens, PAD, dtype=np.int64)
    for b, (seg, _) in enumerate(examples):
        tok_ids[b * batch.max_len:b * batch.max_len + seg.length] = seg.token_ids
    positions = np.tile(np.arange(batch.max_len), len(examples))
    x = nm.add(nm.gather_rows(params["lm.tok_emb"], tok_ids),
               nm.gather_rows(params["lm.pos_emb"], positions))
    x = nm.layer_norm(x, params["lm.emb_ln.g"], params["lm.emb_ln.b"])
    x = _maybe_dropout(x, cfg, batch.token_keep, 0)

    for i in range(cfg.n_unimodal):
        x = run("lm.layer%d" % i, _transformer_layer, x, params, cfg, i, batch)

    if batch.graph.any():
        # rows: interaction node, entity table, then one zero row for dummy graphs
        table = nm.concat([params["node_emb.v_int"], params["node_emb.table"],
                           nm.constant(np.zeros((1, cfg.d_node)))], axis=0)
        zero_row = table.shape[0] - 1
        node_rows = []
        for _, local in examples:
            node_rows += [zero_row] * 2 if local.is_dummy else [0] + [1 + e for e in local.entity_ids()]
        v = _maybe_dropout(nm.gather_rows(table, node_rows), cfg, batch.node_keep, 0)
    else:
        v = nm.constant(np.zeros((batch.node_offsets[-1], cfg.d_node)))

    graph_attention: list[np.ndarray] = []
    for l in range(cfg.n_fusion):
        final, idx = l == cfg.n_fusion - 1, cfg.n_unimodal + l
        if not final or rows is None or rows.size:
            x = run("lm.layer%d" % idx, _transformer_layer, x, params, cfg, idx, batch,
                    rows if final else None)
        else:
            x = None
        if not final or read_nodes:
            attn = np.zeros((0, cfg.heads_gnn))
            if batch.graph.any():
                v, attn = run("gnn.layer%d" % l, _gnn_layer, v, params, cfg, l, batch)
            graph_attention.append(attn)
        if cfg.fusion == BIDIRECTIONAL and (not final or reads.interaction):
            x, v = run("mint.layer%d" % l, _mint, x, v, params, cfg, l, batch)

    width = batch.max_len if rows is None else len(rows) // len(examples)
    return EncoderOutput(tokens=x, nodes=v if read_nodes else None, graph_attention=graph_attention,
                         width=width, node_offsets=batch.node_offsets)


def encode(segment: TextSegment, local: LocalKG, params: dict[str, Tensor],
           cfg: EncoderConfig, seed: int | None = None) -> EncoderOutput:
    """Full cross-modal forward pass for one (text, local KG) example; a seed
    means training, as in encode_batch."""
    return encode_batch([(segment, local)], params, cfg, None if seed is None else [seed])
