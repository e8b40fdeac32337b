"""Cross-modal encoder: manual forward oracle, permutation equivariance,
dummy-graph backoff, fusion ablation contract, and cross-modal gradients."""

import numpy as np
import pytest

from dragonforge import numerics as nm
from dragonforge.encoder import (BIDIRECTIONAL, CONCAT_AT_END, EncoderConfig,
                                 encode, init_params)
from dragonforge.kg_store import R_EL
from dragonforge.retrieval import INT, LocalKG, TextSegment, V_INT, dummy_local_kg


def tiny_cfg(**kw):
    defaults = dict(n_unimodal=1, n_fusion=2, d_text=8, d_node=8, heads_text=2,
                    heads_gnn=2, d_mint_hidden=12, dropout=0.1, max_seq_len=16,
                    max_nodes=8)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def make_segment(ids):
    return TextSegment([INT] + list(ids))


def chain_local(n_entities=3):
    # v_int -- e0, e1 linked; edge e0 -> e1 -> e2
    return LocalKG(nodes=[V_INT, 0, 1, 2],
                   edges=[(0, R_EL, 1), (0, R_EL, 2), (1, 2, 2), (2, 2, 3)])


VOCAB, ENTS, RELS = 12, 5, 3


def test_init_determinism_and_stats():
    cfg = tiny_cfg()
    p1 = init_params(cfg, 7, VOCAB, ENTS, RELS)
    p2 = init_params(cfg, 7, VOCAB, ENTS, RELS)
    assert p1.keys() == p2.keys()
    for k in p1:
        assert p1[k].values.tobytes() == p2[k].values.tobytes(), k
    big = init_params(EncoderConfig(n_unimodal=1, n_fusion=1, d_text=64, d_node=32,
                                    heads_text=2, heads_gnn=2, d_mint_hidden=64,
                                    max_seq_len=8, max_nodes=4),
                      0, 200, 100, 4)
    w = big["lm.tok_emb"].values
    assert w.size >= 10_000
    assert abs(w.mean()) < 0.002
    assert p1["lm.emb_ln.g"].values.min() == 1.0
    assert p1["lm.layer0.attn.bq"].values.max() == 0.0


def test_param_names_unique_and_finite():
    cfg = tiny_cfg()
    params = init_params(cfg, 3, VOCAB, ENTS, RELS)
    assert len(params) == len(set(params))
    for k, p in params.items():
        assert np.isfinite(p.values).all(), k
        assert p.name == k


def test_output_shapes_and_attention_normalization():
    cfg = tiny_cfg()
    params = init_params(cfg, 1, VOCAB, ENTS, RELS)
    seg = make_segment([5, 6, 7])
    local = chain_local()
    out = encode(seg, local, params, cfg)
    assert out.tokens.shape == (4, cfg.d_text)
    assert out.nodes.shape == (4, cfg.d_node)
    assert len(out.graph_attention) == cfg.n_fusion
    # attention over each node's in-neighborhood sums to 1 per head; message
    # 2e runs head->tail along edge e, message 2e+1 tail->head
    dst = np.array([node for h, _, t in local.edges for node in (t, h)])
    for alpha in out.graph_attention:
        assert alpha.shape == (2 * len(local.edges), cfg.heads_gnn)
        assert (alpha > 0).all()
        for node in set(dst):
            np.testing.assert_allclose(alpha[dst == node].sum(axis=0), 1.0, atol=1e-5)


def test_oversize_inputs_raise_bounds_errors():
    cfg = tiny_cfg()
    params = init_params(cfg, 1, VOCAB, ENTS, RELS)
    with pytest.raises(IndexError):
        encode(make_segment(range(5, 5 + 20)), dummy_local_kg(), params, cfg)
    wide = LocalKG(nodes=[V_INT] + list(range(0, 5)) * 2, edges=[])
    with pytest.raises(IndexError):
        encode(make_segment([5]), wide, params, cfg)


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_error_names_the_layer():
    cfg = tiny_cfg(dropout=0.0)
    params = init_params(cfg, 1, VOCAB, ENTS, RELS)
    params["lm.layer0.ffn.w1"].values[:] = 1e25
    params["lm.layer0.ffn.w2"].values[:] = 1e25
    with pytest.raises(nm.NumericError, match="lm.layer0"):
        encode(make_segment([5, 6]), dummy_local_kg(), params, cfg)


# ---------------------------------------------------------------------------
# dummy-graph backoff and fusion ablation
# ---------------------------------------------------------------------------

def text_only_with_zero_exchange(seg, params, cfg):
    """Oracle: plain transformer stack where the exchange perceptron always
    receives a zero node vector."""
    from dragonforge.encoder import _mint, _transformer_layer, make_batch
    L = seg.length
    batch = make_batch([(seg, dummy_local_kg())], cfg, None)
    x = nm.add(nm.gather_rows(params["lm.tok_emb"], seg.token_ids),
               nm.gather_rows(params["lm.pos_emb"], list(range(L))))
    x = nm.layer_norm(x, params["lm.emb_ln.g"], params["lm.emb_ln.b"])
    for i in range(cfg.n_unimodal):
        x = _transformer_layer(x, params, cfg, i, batch)
    for l in range(cfg.n_fusion):
        x = _transformer_layer(x, params, cfg, cfg.n_unimodal + l, batch)
        v = nm.constant(np.zeros((2, cfg.d_node)))
        x, _ = _mint(x, v, params, cfg, l, batch)
    return x


def test_dummy_graph_equals_text_only_with_zero_node_vector():
    cfg = tiny_cfg()
    params = init_params(cfg, 5, VOCAB, ENTS, RELS)
    seg = make_segment([5, 6, 7, 8])
    out = encode(seg, dummy_local_kg(), params, cfg)
    oracle = text_only_with_zero_exchange(seg, params, cfg)
    np.testing.assert_array_equal(out.tokens.values, oracle.values)
    # the dummy node row stays exactly zero (zero-initialized, frozen)
    np.testing.assert_array_equal(out.nodes.values[1], 0.0)


def text_only_stack(seg, params, cfg, mode, seed):
    from dragonforge.encoder import _maybe_dropout, _transformer_layer, make_batch
    L = seg.length
    batch = make_batch([(seg, dummy_local_kg())], cfg, [seed] if mode == "train" else None)
    x = nm.add(nm.gather_rows(params["lm.tok_emb"], seg.token_ids),
               nm.gather_rows(params["lm.pos_emb"], list(range(L))))
    x = nm.layer_norm(x, params["lm.emb_ln.g"], params["lm.emb_ln.b"])
    x = _maybe_dropout(x, cfg, batch.token_keep, 0)
    for i in range(cfg.n_unimodal + cfg.n_fusion):
        x = _transformer_layer(x, params, cfg, i, batch)
    return x


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_concat_at_end_token_outputs_bit_identical_to_text_only(mode):
    cfg = tiny_cfg(fusion=CONCAT_AT_END)
    params = init_params(cfg, 9, VOCAB, ENTS, RELS)
    seg = make_segment([5, 6, 7])
    out = encode(seg, chain_local(), params, cfg, seed=123 if mode == "train" else None)
    oracle = text_only_stack(seg, params, cfg, mode, seed=123)
    assert out.tokens.values.tobytes() == oracle.values.tobytes()


def test_bidirectional_differs_from_text_only():
    cfg = tiny_cfg(fusion=BIDIRECTIONAL)
    params = init_params(cfg, 9, VOCAB, ENTS, RELS)
    seg = make_segment([5, 6, 7])
    out = encode(seg, chain_local(), params, cfg)
    oracle = text_only_stack(seg, params, cfg, "eval", 0)
    assert not np.array_equal(out.tokens.values, oracle.values)


# ---------------------------------------------------------------------------
# permutation equivariance
# ---------------------------------------------------------------------------

def permute_local(local, perm):
    """perm maps old non-interaction position (1-based offset) to new."""
    j = local.n_nodes - 1
    new_nodes = [V_INT] + [local.nodes[1 + perm.index(i)] for i in range(j)]
    remap = {0: 0}
    for old_pos in range(1, j + 1):
        remap[old_pos] = 1 + perm[old_pos - 1]
    new_edges = [(remap[h], r, remap[t]) for h, r, t in local.edges]
    return LocalKG(nodes=new_nodes, edges=new_edges)


def test_node_permutation_equivariance():
    cfg = tiny_cfg(dropout=0.0)
    rng = np.random.default_rng(21)
    for trial in range(10):
        params = init_params(cfg, trial, VOCAB, ENTS, RELS)
        seg = make_segment(rng.integers(5, VOCAB, size=4).tolist())
        local = chain_local()
        j = local.n_nodes - 1
        perm = rng.permutation(j).tolist()
        out1 = encode(seg, local, params, cfg)
        out2 = encode(seg, permute_local(local, perm), params, cfg)
        assert np.abs(out1.tokens.values - out2.tokens.values).max() < 1e-5
        for old_pos in range(1, j + 1):
            np.testing.assert_allclose(out2.nodes.values[1 + perm[old_pos - 1]],
                                       out1.nodes.values[old_pos], atol=1e-5)
        np.testing.assert_allclose(out2.nodes.values[0], out1.nodes.values[0], atol=1e-5)


# ---------------------------------------------------------------------------
# cross-modal gradient flow
# ---------------------------------------------------------------------------

def test_text_loss_reaches_node_embeddings_and_vice_versa():
    cfg = tiny_cfg(dropout=0.0)
    params = init_params(cfg, 2, VOCAB, ENTS, RELS)
    seg = make_segment([5, 6, 7])
    local = chain_local()

    with nm.ComputationTape() as tape:
        out = encode(seg, local, params, cfg)
        # text-side loss over non-interaction token rows only
        token_loss = nm.reduce_sum(nm.mul(nm.gather_rows(out.tokens, [1, 2, 3]),
                                          nm.gather_rows(out.tokens, [1, 2, 3])))
        tape.backward(token_loss)
    grad = params["node_emb.table"].grad
    assert grad is not None and np.abs(grad[[0, 1, 2]]).max() > 0

    for p in params.values():
        p.grad = None
    with nm.ComputationTape() as tape:
        out = encode(seg, local, params, cfg)
        node_loss = nm.reduce_sum(nm.mul(nm.gather_rows(out.nodes, [1, 2, 3]),
                                         nm.gather_rows(out.nodes, [1, 2, 3])))
        tape.backward(node_loss)
    grad = params["lm.tok_emb"].grad
    assert grad is not None and np.abs(grad).max() > 0


def test_sampled_finite_difference_full_encoder():
    cfg = EncoderConfig(n_unimodal=1, n_fusion=2, d_text=8, d_node=8, heads_text=2,
                        heads_gnn=2, d_mint_hidden=8, dropout=0.0, max_seq_len=8,
                        max_nodes=4)
    seg = make_segment([5, 6, 7])
    local = chain_local()
    with nm.float64_mode():
        params = init_params(cfg, 4, VOCAB, ENTS, RELS)
    names = sorted(params)
    mix_t = np.random.default_rng(31).normal(size=(4, cfg.d_text))
    mix_n = np.random.default_rng(32).normal(size=(4, cfg.d_node))

    def fn(tensors):
        p = dict(zip(names, tensors))
        out = encode(seg, local, p, cfg)
        return nm.add(nm.reduce_sum(nm.mul(out.tokens, nm.constant(mix_t))),
                      nm.reduce_sum(nm.mul(out.nodes, nm.constant(mix_n))))

    err = nm.check_gradients(fn, [params[n].values for n in names], max_coords=3,
                             rng=np.random.default_rng(33))
    assert err < 1e-4, err


# ---------------------------------------------------------------------------
# manual forward oracle (single token + single node, one fusion layer)
# ---------------------------------------------------------------------------

def np_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def np_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def np_softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def test_manual_forward_oracle_single_token_single_node():
    cfg = EncoderConfig(n_unimodal=1, n_fusion=1, d_text=4, d_node=4, heads_text=2,
                        heads_gnn=2, d_mint_hidden=6, dropout=0.0,
                        max_seq_len=4, max_nodes=2)
    with nm.float64_mode():
        params = init_params(cfg, 11, VOCAB, ENTS, RELS)
        seg = make_segment([5])                      # [INT, w1]
        local = LocalKG(nodes=[V_INT, 2], edges=[(0, R_EL, 1)])
        out = encode(seg, local, params, cfg)

    P = {k: p.values for k, p in params.items()}

    # (a) token/positional embedding + unimodal layer
    x = P["lm.tok_emb"][[INT, 5]] + P["lm.pos_emb"][[0, 1]]
    x = np_layer_norm(x, P["lm.emb_ln.g"], P["lm.emb_ln.b"])

    def transformer(x, i):
        pre = "lm.layer%d." % i
        q = x @ P[pre + "attn.wq"] + P[pre + "attn.bq"]
        k = x @ P[pre + "attn.wk"] + P[pre + "attn.bk"]
        v = x @ P[pre + "attn.wv"] + P[pre + "attn.bv"]
        dh = cfg.d_text // cfg.heads_text
        heads = []
        for h in range(cfg.heads_text):
            sl = slice(h * dh, (h + 1) * dh)
            logits = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            heads.append(np_softmax(logits, axis=-1) @ v[:, sl])
        attn = np.concatenate(heads, axis=1) @ P[pre + "attn.wo"] + P[pre + "attn.bo"]
        x = np_layer_norm(x + attn, P[pre + "ln1.g"], P[pre + "ln1.b"])
        f = np_gelu(x @ P[pre + "ffn.w1"] + P[pre + "ffn.b1"]) @ P[pre + "ffn.w2"] + P[pre + "ffn.b2"]
        return np_layer_norm(x + f, P[pre + "ln2.g"], P[pre + "ln2.b"])

    x = transformer(x, 0)

    # (b) node embedding lookup
    v = np.vstack([P["node_emb.v_int"], P["node_emb.table"][[2]]])

    # (c) fusion layer: transformer, GNN, exchange
    x = transformer(x, 1)

    # GNN: two directed messages for the single interaction edge
    src, dst, rd = [0, 1], [1, 0], [2 * R_EL, 2 * R_EL + 1]
    msg = np.concatenate([v[src], P["gnn.rel_emb"][rd]], axis=1) @ P["gnn.layer0.w_msg"] + P["gnn.layer0.b_msg"]
    q = v @ P["gnn.layer0.wq"] + P["gnn.layer0.bq"]
    k = msg @ P["gnn.layer0.wk"] + P["gnn.layer0.bk"]
    val = msg @ P["gnn.layer0.wv"] + P["gnn.layer0.bv"]
    dh = cfg.d_node // cfg.heads_gnn
    heads = []
    for h in range(cfg.heads_gnn):
        sl = slice(h * dh, (h + 1) * dh)
        logits = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        masked = np.where(np.array(dst)[None, :] == np.arange(2)[:, None], logits, -1e9)
        alpha = np_softmax(masked, axis=-1)
        alpha = alpha * (np.array(dst)[None, :] == np.arange(2)[:, None])
        heads.append(alpha @ val[:, sl])
    agg = np.concatenate(heads, axis=1) @ P["gnn.layer0.wo"] + P["gnn.layer0.bo"]
    v = np_layer_norm(v + np_gelu(agg), P["gnn.layer0.ln.g"], P["gnn.layer0.ln.b"])

    # exchange: two-layer perceptron over [H_int; V_int], residual update
    z = np.concatenate([x[:1], v[:1]], axis=1)
    hid = np_gelu(z @ P["mint.layer0.w1"] + P["mint.layer0.b1"])
    upd = hid @ P["mint.layer0.w2"] + P["mint.layer0.b2"]
    x = np.vstack([x[0] + upd[0, :cfg.d_text], x[1:]])
    v = np.vstack([v[0] + upd[0, cfg.d_text:], v[1:]])

    assert np.abs(out.tokens.values - x).max() < 1e-5
    assert np.abs(out.nodes.values - v).max() < 1e-5
