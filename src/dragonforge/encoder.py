"""Cross-modal encoder: unimodal transformer layers, then fusion layers that
run one transformer layer on tokens, one relation-aware GNN layer on nodes,
and exchange information through the interaction token/node perceptron.

Token outputs never depend on the graph when fusion is disabled
(concat_at_end), and dummy graphs bypass message passing entirely so the
model backs off to text plus the exchange perceptron's bias path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .retrieval import LocalKG, TextSegment

BIDIRECTIONAL = "bidirectional"
CONCAT_AT_END = "concat_at_end"


@dataclass
class EncoderConfig:
    n_unimodal: int = 2          # transformer layers before fusion starts
    n_fusion: int = 3            # fusion layers (transformer + GNN + exchange)
    d_text: int = 128
    d_node: int = 64
    heads_text: int = 4
    heads_gnn: int = 2
    d_mint_hidden: int = 256
    d_ffn: int = 0               # 0 -> 4 * d_text
    dropout: float = 0.2
    max_seq_len: int = 128
    max_nodes: int = 32
    fusion: str = BIDIRECTIONAL

    def __post_init__(self):
        if self.n_unimodal < 0 or self.n_fusion < 1:
            raise ValueError("n_unimodal must be >= 0 and n_fusion >= 1")
        if self.d_text % self.heads_text:
            raise ValueError("heads_text: %d does not divide d_text %d" % (self.heads_text, self.d_text))
        if self.d_node % self.heads_gnn:
            raise ValueError("heads_gnn: %d does not divide d_node %d" % (self.heads_gnn, self.d_node))
        if self.d_ffn == 0:
            self.d_ffn = 4 * self.d_text
        if self.fusion not in (BIDIRECTIONAL, CONCAT_AT_END):
            raise ValueError("fusion: unknown mode %r" % self.fusion)


@dataclass
class EncoderOutput:
    tokens: Tensor                    # [L, d_text], row 0 = interaction token
    nodes: Tensor                     # [J+1, d_node], row 0 = interaction node
    # one entry per fusion layer: per-head [J+1, 2E] attention over messages,
    # where message 2e is edge e of local.edges read head->tail and 2e+1 its
    # reverse; empty for dummy graphs
    graph_attention: list = field(default_factory=list)

    @property
    def h_int(self) -> Tensor:
        return nm.gather_rows(self.tokens, [0])

    @property
    def v_int(self) -> Tensor:
        return nm.gather_rows(self.nodes, [0])


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


def init_params(cfg: EncoderConfig, seed: int, vocab_size: int, n_entities: int,
                n_relations: int) -> dict[str, Tensor]:
    """Normal(0, 0.02) weights, zero biases, unit layer-norm gains."""
    params: dict[str, Tensor] = {}
    put = partial(init_param, params, seed)
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
        put(p + "ffn.w1", (dt, cfg.d_ffn), NORMAL)
        put(p + "ffn.b1", (cfg.d_ffn,), 0.0)
        put(p + "ffn.w2", (cfg.d_ffn, dt), NORMAL)
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
    return params


def _maybe_dropout(x: Tensor, cfg: EncoderConfig, train: bool, seed: int, site: str) -> Tensor:
    if not train or cfg.dropout == 0.0:
        return x
    return nm.dropout(x, cfg.dropout, nm.split_rng(seed, "dropout/" + site))


def _attn_linear(x: Tensor, params, layer: str, w: str) -> Tensor:
    return nm.add(nm.matmul(x, params[layer + "attn." + w]), params[layer + "attn.b" + w[1]])


def _transformer_layer(x: Tensor, params, cfg: EncoderConfig, idx: int, train: bool, seed: int) -> Tensor:
    p = "lm.layer%d." % idx
    dh = cfg.d_text // cfg.heads_text
    q = _attn_linear(x, params, p, "wq")
    k = _attn_linear(x, params, p, "wk")
    v = _attn_linear(x, params, p, "wv")
    qs = nm.split(q, [dh] * cfg.heads_text, axis=1)
    ks = nm.split(k, [dh] * cfg.heads_text, axis=1)
    vs = nm.split(v, [dh] * cfg.heads_text, axis=1)
    heads = []
    inv = 1.0 / np.sqrt(dh)
    for h in range(cfg.heads_text):
        logits = nm.scale(nm.matmul(qs[h], nm.transpose(ks[h])), inv)
        probs = nm.softmax(logits, axis=-1)
        heads.append(nm.matmul(probs, vs[h]))
    attn = nm.add(nm.matmul(nm.concat(heads, axis=1), params[p + "attn.wo"]), params[p + "attn.bo"])
    attn = _maybe_dropout(attn, cfg, train, seed, p + "attn")
    x = nm.layer_norm(nm.add(x, attn), params[p + "ln1.g"], params[p + "ln1.b"])
    f = nm.gelu(nm.add(nm.matmul(x, params[p + "ffn.w1"]), params[p + "ffn.b1"]))
    f = nm.add(nm.matmul(f, params[p + "ffn.w2"]), params[p + "ffn.b2"])
    f = _maybe_dropout(f, cfg, train, seed, p + "ffn")
    return nm.layer_norm(nm.add(x, f), params[p + "ln2.g"], params[p + "ln2.b"])


def _gnn_layer(v: Tensor, local: LocalKG, params, cfg: EncoderConfig, layer: int,
               train: bool, seed: int) -> tuple[Tensor, list[np.ndarray]]:
    """Relation-aware attention over in-neighborhoods with directed messages.

    Every edge (h, r, t) contributes a forward message h->t and a reverse
    message t->h; the relation/direction pair selects the message embedding.
    Returns the new node states and each head's [n, n_messages] attention.
    """
    p = "gnn.layer%d." % layer
    n = v.shape[0]
    src, dst, reldir = [], [], []
    for h, r, t in local.edges:
        src.append(h); dst.append(t); reldir.append(2 * r)
        src.append(t); dst.append(h); reldir.append(2 * r + 1)
    dst_arr = np.array(dst, dtype=np.int64)

    s = nm.gather_rows(v, src)
    re = nm.gather_rows(params["gnn.rel_emb"], reldir)
    msg = nm.add(nm.matmul(nm.concat([s, re], axis=1), params[p + "w_msg"]), params[p + "b_msg"])

    q = nm.add(nm.matmul(v, params[p + "wq"]), params[p + "bq"])
    k = nm.add(nm.matmul(msg, params[p + "wk"]), params[p + "bk"])
    val = nm.add(nm.matmul(msg, params[p + "wv"]), params[p + "bv"])

    dh = cfg.d_node // cfg.heads_gnn
    qs = nm.split(q, [dh] * cfg.heads_gnn, axis=1)
    ks = nm.split(k, [dh] * cfg.heads_gnn, axis=1)
    vals = nm.split(val, [dh] * cfg.heads_gnn, axis=1)

    incidence = (dst_arr[None, :] == np.arange(n)[:, None])  # [n, n_messages]
    inc_const = nm.constant(incidence.astype(float))
    inv = 1.0 / np.sqrt(dh)
    heads, alpha_per_head = [], []
    for h in range(cfg.heads_gnn):
        logits = nm.scale(nm.matmul(qs[h], nm.transpose(ks[h])), inv)
        logits = nm.masked_fill(logits, ~incidence, nm.NEG_FILL)
        alpha = nm.mul(nm.softmax(logits, axis=-1), inc_const)  # zero rows with no messages
        alpha_per_head.append(alpha.values)
        heads.append(nm.matmul(alpha, vals[h]))
    agg = nm.add(nm.matmul(nm.concat(heads, axis=1), params[p + "wo"]), params[p + "bo"])
    agg = _maybe_dropout(agg, cfg, train, seed, p + "agg")
    out = nm.layer_norm(nm.add(v, nm.gelu(agg)), params[p + "ln.g"], params[p + "ln.b"])
    return out, alpha_per_head


def _mint(x: Tensor, v: Tensor, params, cfg: EncoderConfig, layer: int,
          train: bool, seed: int) -> tuple[Tensor, Tensor]:
    """Two-layer perceptron over [H_int; V_int]; residual update of both rows."""
    p = "mint.layer%d." % layer
    L, n = x.shape[0], v.shape[0]
    x_int, x_rest = nm.split(x, [1, L - 1], axis=0)
    v_int, v_rest = nm.split(v, [1, n - 1], axis=0)
    z = nm.concat([x_int, v_int], axis=1)
    hid = nm.gelu(nm.add(nm.matmul(z, params[p + "w1"]), params[p + "b1"]))
    hid = _maybe_dropout(hid, cfg, train, seed, p + "hidden")
    upd = nm.add(nm.matmul(hid, params[p + "w2"]), params[p + "b2"])
    uh, uv = nm.split(upd, [cfg.d_text, cfg.d_node], axis=1)
    return (nm.concat([nm.add(x_int, uh), x_rest], axis=0),
            nm.concat([nm.add(v_int, uv), v_rest], axis=0))


def encode(segment: TextSegment, local: LocalKG, params: dict[str, Tensor],
           cfg: EncoderConfig, mode: str = "train", seed: int = 0) -> EncoderOutput:
    """Full cross-modal forward pass for one (text, local KG) example."""
    if mode not in ("train", "eval"):
        raise ValueError("mode must be train or eval")
    train = mode == "train"
    L = segment.length
    if L > cfg.max_seq_len:
        raise IndexError("segment length %d exceeds max_seq_len %d" % (L, cfg.max_seq_len))
    if local.n_nodes > cfg.max_nodes + 1:
        raise IndexError("local KG has %d nodes, limit %d" % (local.n_nodes - 1, cfg.max_nodes))

    def run(stage, fn, *args):
        try:
            return fn(*args)
        except nm.NumericError as e:
            raise nm.NumericError("%s: %s" % (stage, e)) from None

    x = nm.add(nm.gather_rows(params["lm.tok_emb"], segment.token_ids),
               nm.gather_rows(params["lm.pos_emb"], list(range(L))))
    x = nm.layer_norm(x, params["lm.emb_ln.g"], params["lm.emb_ln.b"])
    x = _maybe_dropout(x, cfg, train, seed, "emb")

    for i in range(cfg.n_unimodal):
        x = run("lm.layer%d" % i, _transformer_layer, x, params, cfg, i, train, seed)

    if local.is_dummy:
        # zero node states, no message passing: the graph propagates nothing
        v = nm.constant(np.zeros((2, cfg.d_node)))
    else:
        ent_rows = nm.gather_rows(params["node_emb.table"], local.entity_ids())
        v = nm.concat([params["node_emb.v_int"], ent_rows], axis=0)
        v = _maybe_dropout(v, cfg, train, seed, "node_emb")

    graph_attention: list[list[np.ndarray]] = []
    for l in range(cfg.n_fusion):
        x = run("lm.layer%d" % (cfg.n_unimodal + l), _transformer_layer,
                x, params, cfg, cfg.n_unimodal + l, train, seed)
        attn = []
        if not local.is_dummy:
            v, attn = run("gnn.layer%d" % l, _gnn_layer, v, local, params, cfg, l, train, seed)
        graph_attention.append(attn)
        if cfg.fusion == BIDIRECTIONAL:
            if local.is_dummy:
                # node side pinned to zero: the exchange sees a zero node
                # vector every layer and contributes only its bias path
                x, _ = run("mint.layer%d" % l, _mint, x, v, params, cfg, l, train, seed)
            else:
                x, v = run("mint.layer%d" % l, _mint, x, v, params, cfg, l, train, seed)

    return EncoderOutput(tokens=x, nodes=v, graph_attention=graph_attention)

