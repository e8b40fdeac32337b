"""Batched encoder: each example's rows from encode_batch match encode() of
that example alone, gradients pass a finite-difference check, and the
encoder oracles hold on the batched stage functions."""

import numpy as np
import pytest

from dragonforge import numerics as nm
from dragonforge.encoder import (BIDIRECTIONAL, CONCAT_AT_END, EncoderConfig, _maybe_dropout,
                                 _mint, _transformer_layer, encode, encode_batch, init_params,
                                 make_batch)
from dragonforge.kg_store import R_EL
from dragonforge.retrieval import INT, LocalKG, TextSegment, V_INT, dummy_local_kg

VOCAB, ENTS, RELS = 12, 9, 3
SEEDS = [11, 12, 13, 14, 15]


def tiny_cfg(**kw):
    defaults = dict(n_unimodal=1, n_fusion=2, d_text=8, d_node=8, heads_text=2,
                    heads_gnn=2, d_mint_hidden=12, dropout=0.1, max_seq_len=16,
                    max_nodes=5)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def make_segment(ids):
    return TextSegment([INT] + list(ids), [(-1, -1)] * (len(ids) + 1))


def chain_local():
    return LocalKG(nodes=[V_INT, 0, 1, 2],
                   edges=[(0, R_EL, 1), (0, R_EL, 2), (1, 2, 2), (2, 2, 3)],
                   linked={0, 1})


def full_local():
    # max_nodes entities
    return LocalKG(nodes=[V_INT, 3, 4, 5, 6, 7],
                   edges=[(0, R_EL, 1), (1, 0, 2), (2, 1, 3), (3, 0, 4), (4, 1, 5), (5, 2, 1)],
                   linked={3})


def silent_local():
    # entity 8 (local node 2) has no edge, so it receives no message
    return LocalKG(nodes=[V_INT, 2, 8], edges=[(0, R_EL, 1)], linked={2})


def mixed_batch():
    """Different lengths, dummy graphs, a full graph and a node without messages."""
    return [(make_segment([5, 6, 7]), chain_local()),
            (make_segment([8]), dummy_local_kg()),
            (make_segment([5, 6, 7, 8, 9, 10, 11]), full_local()),
            (make_segment([9, 10]), silent_local()),
            (make_segment([6, 6, 6]), dummy_local_kg())]


def equal_length_batch():
    """No padding at all: sequences must still not attend across examples."""
    return [(make_segment([5, 6, 7]), chain_local()),
            (make_segment([9, 10, 11]), full_local()),
            (make_segment([7, 7, 8]), dummy_local_kg())]


BATCHES = {"mixed": mixed_batch, "equal_length": equal_length_batch}


def example_rows(out, b, seg, local):
    r, o = b * out.max_len, out.node_offsets[b]
    return out.tokens.values[r:r + seg.length], out.nodes.values[o:o + local.n_nodes]


def assert_rows_match_single(examples, params, cfg, mode, atol):
    seeds = SEEDS[:len(examples)]
    out = encode_batch(examples, params, cfg, mode, seeds)
    msg = 0
    for b, (seg, local) in enumerate(examples):
        single = encode(seg, local, params, cfg, mode, seeds[b])
        tokens, nodes = example_rows(out, b, seg, local)
        np.testing.assert_allclose(tokens, single.tokens.values, rtol=0, atol=atol)
        np.testing.assert_allclose(nodes, single.nodes.values, rtol=0, atol=atol)
        n_msg = 0 if local.is_dummy else 2 * len(local.edges)
        for batched, alone in zip(out.graph_attention, single.graph_attention):
            np.testing.assert_allclose(batched[msg:msg + n_msg], alone, rtol=0, atol=atol)
        msg += n_msg
    assert all(a.shape == (msg, cfg.heads_gnn) for a in out.graph_attention)


@pytest.mark.parametrize("fusion", [BIDIRECTIONAL, CONCAT_AT_END])
@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_batch_rows_match_single_example_float32(batch, mode, fusion):
    cfg = tiny_cfg(fusion=fusion)
    params = init_params(cfg, 3, VOCAB, ENTS, RELS)
    assert_rows_match_single(BATCHES[batch](), params, cfg, mode, atol=1e-5)


@pytest.mark.parametrize("fusion", [BIDIRECTIONAL, CONCAT_AT_END])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_batch_rows_match_single_example_float64(mode, fusion):
    cfg = tiny_cfg(fusion=fusion)
    with nm.float64_mode():
        params = init_params(cfg, 4, VOCAB, ENTS, RELS)
        for batch in BATCHES.values():
            assert_rows_match_single(batch(), params, cfg, mode, atol=1e-10)


def test_train_mode_dropout_differs_from_eval():
    cfg = tiny_cfg()
    params = init_params(cfg, 3, VOCAB, ENTS, RELS)
    examples = mixed_batch()
    train = encode_batch(examples, params, cfg, "train", SEEDS)
    evaluated = encode_batch(examples, params, cfg, "eval")
    assert not np.array_equal(train.tokens.values, evaluated.tokens.values)


def test_single_example_output_layout():
    cfg = tiny_cfg()
    params = init_params(cfg, 3, VOCAB, ENTS, RELS)
    seg, local = mixed_batch()[2]
    out = encode(seg, local, params, cfg, "eval")
    assert out.batch_size == 1 and out.max_len == seg.length
    assert out.tokens.shape == (seg.length, cfg.d_text)
    assert out.nodes.shape == (local.n_nodes, cfg.d_node)
    np.testing.assert_array_equal(out.h_int.values, out.tokens.values[:1])
    np.testing.assert_array_equal(out.v_int.values, out.nodes.values[:1])


def test_oversize_example_anywhere_in_batch_raises():
    cfg = tiny_cfg()
    params = init_params(cfg, 1, VOCAB, ENTS, RELS)
    long_seg = make_segment([5] * 20)
    with pytest.raises(IndexError, match="max_seq_len"):
        encode_batch(mixed_batch() + [(long_seg, dummy_local_kg())], params, cfg, "eval")
    wide = LocalKG(nodes=[V_INT] + list(range(0, 6)), edges=[], linked=set())
    with pytest.raises(IndexError, match="limit 5"):
        encode_batch([mixed_batch()[0], (make_segment([5]), wide)], params, cfg, "eval")


def test_check_gradients_on_mixed_batch():
    cfg = tiny_cfg(n_unimodal=1, n_fusion=2, d_mint_hidden=8, dropout=0.2)
    examples = mixed_batch()
    with nm.float64_mode():
        params = init_params(cfg, 4, VOCAB, ENTS, RELS)
    names = sorted(params)
    probe = encode_batch(examples, params, cfg, "eval")
    rng = np.random.default_rng(41)
    mix_t = rng.normal(size=probe.tokens.shape)
    mix_n = rng.normal(size=probe.nodes.shape)
    for b, (seg, _) in enumerate(examples):   # padding rows carry no loss
        mix_t[b * probe.max_len + seg.length:(b + 1) * probe.max_len] = 0.0

    def fn(tensors):
        out = encode_batch(examples, dict(zip(names, tensors)), cfg, "train", SEEDS)
        return nm.add(nm.reduce_sum(nm.mul(out.tokens, nm.constant(mix_t))),
                      nm.reduce_sum(nm.mul(out.nodes, nm.constant(mix_n))))

    err = nm.check_gradients(fn, [params[n].values for n in names], max_coords=3,
                             rng=np.random.default_rng(43))
    assert err < 1e-4, err


# ---------------------------------------------------------------------------
# oracles on the batched stage functions
# ---------------------------------------------------------------------------

def embed(examples, batch, params, cfg):
    """Token + position embedding of the padded batch, as encode_batch does."""
    ids = np.zeros(len(examples) * batch.max_len, dtype=np.int64)
    for b, (seg, _) in enumerate(examples):
        ids[b * batch.max_len:b * batch.max_len + seg.length] = seg.token_ids
    x = nm.add(nm.gather_rows(params["lm.tok_emb"], ids),
               nm.gather_rows(params["lm.pos_emb"], np.tile(np.arange(batch.max_len), len(examples))))
    x = nm.layer_norm(x, params["lm.emb_ln.g"], params["lm.emb_ln.b"])
    return _maybe_dropout(x, cfg, batch, "emb", batch.token_blocks)


def test_dummy_graphs_equal_text_only_with_zero_node_vectors():
    cfg = tiny_cfg()
    params = init_params(cfg, 5, VOCAB, ENTS, RELS)
    examples = [(make_segment(ids), dummy_local_kg()) for ids in ([5, 6, 7, 8], [9], [10, 11])]
    out = encode_batch(examples, params, cfg, "eval")

    batch = make_batch(examples, cfg, False, [0] * len(examples))
    x = embed(examples, batch, params, cfg)
    for i in range(cfg.n_unimodal):
        x = _transformer_layer(x, params, cfg, i, batch)
    for l in range(cfg.n_fusion):
        x = _transformer_layer(x, params, cfg, cfg.n_unimodal + l, batch)
        x, _ = _mint(x, nm.constant(np.zeros((2 * len(examples), cfg.d_node))), params, cfg, l, batch)
    assert out.tokens.values.tobytes() == x.values.tobytes()
    np.testing.assert_array_equal(out.nodes.values, 0.0)


@pytest.mark.parametrize("fusion", [BIDIRECTIONAL, CONCAT_AT_END])
def test_dummy_graph_rows_stay_zero_in_mixed_batch(fusion):
    cfg = tiny_cfg(fusion=fusion)
    params = init_params(cfg, 6, VOCAB, ENTS, RELS)
    examples = mixed_batch()
    out = encode_batch(examples, params, cfg, "train", SEEDS)
    for b, (seg, local) in enumerate(examples):
        _, nodes = example_rows(out, b, seg, local)
        assert np.all(nodes == 0.0) == local.is_dummy


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_concat_at_end_tokens_bit_identical_to_text_only(mode):
    cfg = tiny_cfg(fusion=CONCAT_AT_END)
    params = init_params(cfg, 9, VOCAB, ENTS, RELS)
    examples = mixed_batch()
    out = encode_batch(examples, params, cfg, mode, SEEDS)

    text_only = [(seg, dummy_local_kg()) for seg, _ in examples]
    batch = make_batch(text_only, cfg, mode == "train", SEEDS)
    x = embed(text_only, batch, params, cfg)
    for i in range(cfg.n_unimodal + cfg.n_fusion):
        x = _transformer_layer(x, params, cfg, i, batch)
    assert out.tokens.values.tobytes() == x.values.tobytes()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("stage,weights", [("lm.layer0", ("ffn.w1", "ffn.w2")),
                                           ("gnn.layer1", ("wv", "wo")),
                                           ("mint.layer0", ("w1", "w2"))])
def test_numeric_error_names_the_layer(stage, weights):
    cfg = tiny_cfg(dropout=0.0)
    params = init_params(cfg, 1, VOCAB, ENTS, RELS)
    for w in weights:
        params[stage + "." + w].values[:] = 1e25
    with pytest.raises(nm.NumericError, match=stage.replace(".", r"\.") + ":"):
        encode_batch(mixed_batch(), params, cfg, "eval")
