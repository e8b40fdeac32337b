"""Batched encoder: each example's rows from encode_batch match encode() of
that example alone, gradients pass a finite-difference check, and the
encoder oracles hold on the batched stage functions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dragonforge import numerics as nm
from dragonforge.encoder import (BIDIRECTIONAL, CONCAT_AT_END, Batch, EncoderConfig, Reads,
                                 _gnn_layer, _maybe_dropout, _mint, _transformer_layer, encode,
                                 encode_batch, init_params, make_batch)
from dragonforge.kg_store import R_EL
from dragonforge.retrieval import INT, LocalKG, TextSegment, V_INT, dummy_local_kg

VOCAB, ENTS, RELS = 12, 9, 3
SEEDS = [11, 12, 13, 14, 15]


def seeds_of(mode, seeds=SEEDS):
    """encode_batch's seeds in `mode`: training takes them, evaluation none."""
    return seeds if mode == "train" else None


def tiny_cfg(**kw):
    defaults = dict(n_unimodal=1, n_fusion=2, d_text=8, d_node=8, heads_text=2,
                    heads_gnn=2, d_mint_hidden=12, dropout=0.1, max_seq_len=16,
                    max_nodes=5)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def make_segment(ids):
    return TextSegment([INT] + list(ids))


def chain_local():
    return LocalKG(nodes=[V_INT, 0, 1, 2],
                   edges=[(0, R_EL, 1), (0, R_EL, 2), (1, 2, 2), (2, 2, 3)])


def full_local():
    # max_nodes entities
    return LocalKG(nodes=[V_INT, 3, 4, 5, 6, 7],
                   edges=[(0, R_EL, 1), (1, 0, 2), (2, 1, 3), (3, 0, 4), (4, 1, 5), (5, 2, 1)])


def silent_local():
    # entity 8 (local node 2) has no edge, so it receives no message
    return LocalKG(nodes=[V_INT, 2, 8], edges=[(0, R_EL, 1)])


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
    r, o = b * out.width, out.node_offsets[b]
    return out.tokens.values[r:r + seg.length], out.nodes.values[o:o + local.n_nodes]


def assert_rows_match_single(examples, params, cfg, mode, atol):
    seeds = SEEDS[:len(examples)]
    out = encode_batch(examples, params, cfg, seeds_of(mode, seeds))
    msg = 0
    for b, (seg, local) in enumerate(examples):
        single = encode(seg, local, params, cfg, seeds_of(mode, seeds[b]))
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
    train = encode_batch(examples, params, cfg, SEEDS)
    evaluated = encode_batch(examples, params, cfg)
    assert not np.array_equal(train.tokens.values, evaluated.tokens.values)


def test_token_and_hidden_masks_do_not_depend_on_the_graph():
    cfg = tiny_cfg()
    examples = mixed_batch()
    with_graphs = make_batch(examples, cfg, SEEDS)
    text_only = make_batch([(seg, dummy_local_kg()) for seg, _ in examples], cfg, SEEDS)
    assert with_graphs.token_keep.tobytes() == text_only.token_keep.tobytes()
    assert with_graphs.mint_keep.tobytes() == text_only.mint_keep.tobytes()
    assert not with_graphs.node_keep.all() and text_only.node_keep.all()


def test_drawn_masks_zero_the_dropout_fraction():
    cfg = tiny_cfg(d_text=64, d_node=32, d_mint_hidden=64, dropout=0.3)
    batch = make_batch(mixed_batch(), cfg, SEEDS)
    tokens = batch.token_keep[:, ~batch.key_pad.reshape(-1)]
    real_nodes = np.repeat(batch.graph, np.diff(batch.node_offsets))
    drawn = np.concatenate([tokens.ravel(), batch.mint_keep.ravel(),
                            batch.node_keep[:, real_nodes].ravel()])
    assert abs(1.0 - drawn.mean() - cfg.dropout) < 0.02
    # padding rows and dummy graphs' rows are never dropped
    assert batch.token_keep[:, batch.key_pad.reshape(-1)].all()
    assert batch.node_keep[:, ~real_nodes].all()
    assert make_batch(mixed_batch(), cfg, None).token_keep is None


def test_single_example_output_layout():
    cfg = tiny_cfg()
    params = init_params(cfg, 3, VOCAB, ENTS, RELS)
    seg, local = mixed_batch()[2]
    out = encode(seg, local, params, cfg)
    assert out.batch_size == 1 and out.width == seg.length
    assert out.tokens.shape == (seg.length, cfg.d_text)
    assert out.nodes.shape == (local.n_nodes, cfg.d_node)
    np.testing.assert_array_equal(out.h_int.values, out.tokens.values[:1])
    np.testing.assert_array_equal(out.v_int.values, out.nodes.values[:1])


def test_oversize_example_anywhere_in_batch_raises():
    cfg = tiny_cfg()
    params = init_params(cfg, 1, VOCAB, ENTS, RELS)
    long_seg = make_segment([5] * 20)
    with pytest.raises(IndexError, match="max_seq_len"):
        encode_batch(mixed_batch() + [(long_seg, dummy_local_kg())], params, cfg)
    wide = LocalKG(nodes=[V_INT] + list(range(0, 6)), edges=[])
    with pytest.raises(IndexError, match="limit 5"):
        encode_batch([mixed_batch()[0], (make_segment([5]), wide)], params, cfg)


def per_example_make_batch(examples, cfg, train, seeds):
    """Reference for make_batch: each example's edges laid out on their own,
    then concatenated."""
    lengths = [seg.length for seg, _ in examples]
    max_len = max(lengths)
    pad = np.arange(max_len)[None, :] >= np.array(lengths)[:, None]
    node_offsets = np.cumsum([0] + [local.n_nodes for _, local in examples])
    graph = np.array([not local.is_dummy for _, local in examples])
    src, dst, reldir = [], [], []
    for (_, local), offset in zip(examples, node_offsets):
        if local.is_dummy or not local.edges:
            continue
        h, r, t = (np.array(local.edges, dtype=np.int64) + [offset, 0, offset]).T
        src.append(np.stack([h, t], axis=1).reshape(-1))
        dst.append(np.stack([t, h], axis=1).reshape(-1))
        reldir.append(np.stack([2 * r, 2 * r + 1], axis=1).reshape(-1))

    def cat(parts):
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    token_keep = mint_keep = node_keep = None
    if train and (p := cfg.dropout) > 0.0:
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
                 src=cat(src), dst=cat(dst), reldir=cat(reldir),
                 token_keep=token_keep, mint_keep=mint_keep, node_keep=node_keep)


def random_local(n_nodes):
    """A real local KG of n_nodes entities (plus the interaction node) with
    up to 8 edges, possibly none, among them."""
    pair = st.integers(0, n_nodes)
    return st.lists(st.tuples(pair, st.integers(0, RELS - 1), pair), max_size=8).map(
        lambda edges: LocalKG(nodes=[V_INT] + list(range(n_nodes)), edges=edges))


EXAMPLES = st.tuples(st.lists(st.integers(5, VOCAB - 1), max_size=15).map(make_segment),
                     st.one_of(st.builds(dummy_local_kg), st.integers(1, 5).flatmap(random_local)))


@settings(max_examples=150, deadline=None)
@given(examples=st.lists(EXAMPLES, min_size=1, max_size=6), train=st.booleans(),
       seed=st.integers(0, 2 ** 32))
@example(examples=[(make_segment([5, 6]), chain_local())], train=True, seed=0)        # one example
@example(examples=[(make_segment([5]), dummy_local_kg()), (make_segment([]), dummy_local_kg())],
         train=True, seed=1)                                                         # all dummy
@example(examples=[(make_segment([5]), LocalKG([V_INT, 1, 2], [], set())),
                   (make_segment([]), LocalKG([V_INT, 3], [], set()))], train=True, seed=2)  # no edges
@example(examples=mixed_batch(), train=True, seed=3)
def test_make_batch_lays_out_every_array_as_the_per_example_loop(examples, train, seed):
    cfg = tiny_cfg()
    seeds = [seed + b for b in range(len(examples))]
    got = make_batch(examples, cfg, seeds if train else None)
    want = per_example_make_batch(examples, cfg, train, seeds)
    for field in dataclasses.fields(Batch):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "max_len" or b is None:
            assert a == b, field.name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name


def test_check_gradients_on_mixed_batch():
    cfg = tiny_cfg(n_unimodal=1, n_fusion=2, d_mint_hidden=8, dropout=0.2)
    examples = mixed_batch()
    with nm.float64_mode():
        params = init_params(cfg, 4, VOCAB, ENTS, RELS)
    names = sorted(params)
    probe = encode_batch(examples, params, cfg)
    rng = np.random.default_rng(41)
    mix_t = rng.normal(size=probe.tokens.shape)
    mix_n = rng.normal(size=probe.nodes.shape)
    for b, (seg, _) in enumerate(examples):   # padding rows carry no loss
        mix_t[b * probe.width + seg.length:(b + 1) * probe.width] = 0.0

    def fn(tensors):
        out = encode_batch(examples, dict(zip(names, tensors)), cfg, SEEDS)
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
    return _maybe_dropout(x, cfg, batch.token_keep, 0)


def test_dummy_graphs_equal_text_only_with_zero_node_vectors():
    cfg = tiny_cfg()
    params = init_params(cfg, 5, VOCAB, ENTS, RELS)
    examples = [(make_segment(ids), dummy_local_kg()) for ids in ([5, 6, 7, 8], [9], [10, 11])]
    out = encode_batch(examples, params, cfg)

    batch = make_batch(examples, cfg, None)
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
    out = encode_batch(examples, params, cfg, SEEDS)
    for b, (seg, local) in enumerate(examples):
        _, nodes = example_rows(out, b, seg, local)
        assert np.all(nodes == 0.0) == local.is_dummy


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_concat_at_end_tokens_bit_identical_to_text_only(mode):
    cfg = tiny_cfg(fusion=CONCAT_AT_END)
    params = init_params(cfg, 9, VOCAB, ENTS, RELS)
    examples = mixed_batch()
    out = encode_batch(examples, params, cfg, seeds_of(mode))

    text_only = [(seg, dummy_local_kg()) for seg, _ in examples]
    batch = make_batch(text_only, cfg, seeds_of(mode))
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
        encode_batch(mixed_batch(), params, cfg)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("mode,weights,value,op", [
    ("eval", ("attn.wq", "attn.wk"), 1e30, "attention"),
    ("eval", ("attn.wv", "attn.wo"), 1e30, "linear"),
    ("eval", ("ln1.g",), 3e38, "layer_norm"),
    ("train", ("attn.bo",), 3.2e38, "dropout"),
    ("train", ("ln1.b", "ffn.b2"), 2e38, "add"),
    ("eval", ("ffn.w1", "ffn.w2"), 1e30, "linear"),
    ("train", ("ffn.b2",), 3.2e38, "dropout"),
    ("train", ("ln2.g",), 3e38, "layer_norm"),
])
def test_numeric_error_names_the_op_inside_the_transformer_layer(mode, weights, value, op):
    # each message reads as it did when every sublayer step was its own taped op
    cfg = tiny_cfg()
    params = init_params(cfg, 1, VOCAB, ENTS, RELS)
    for w in weights:
        params["lm.layer0." + w].values[:] = value
    with pytest.raises(nm.NumericError) as err:
        encode_batch(mixed_batch(), params, cfg, seeds_of(mode))
    assert str(err.value) == "lm.layer0: non-finite values produced by op '%s'" % op


def test_transformer_layer_records_one_tape_op_per_sublayer():
    cfg = tiny_cfg()
    params = init_params(cfg, 2, VOCAB, ENTS, RELS)
    examples = mixed_batch()
    batch = make_batch(examples, cfg, SEEDS)
    assert batch.token_keep is not None
    with nm.ComputationTape() as tape:
        x = embed(examples, batch, params, cfg)
        before = len(tape.records)
        _transformer_layer(x, params, cfg, 0, batch)
    assert len(tape.records) - before == 2


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("mode,values,stage,op", [
    ("eval", {"gnn.rel_emb": np.inf}, "gnn.layer0", "gather_rows"),
    ("eval", {"gnn.layer0.wv": 1e30, "gnn.layer0.wo": 1e30}, "gnn.layer0", "linear"),
    # q * k overflows, or only the per-head sums of it
    ("eval", {"gnn.layer0.bq": 1e20, "gnn.layer0.bk": 1e20}, "gnn.layer0", "mul"),
    ("eval", {"gnn.layer0.bq": 1.5e19, "gnn.layer0.bk": 1.5e19}, "gnn.layer0", "matmul"),
    ("train", {"gnn.layer0.bo": 3.2e38}, "gnn.layer0", "dropout"),
    ("eval", {"node_emb.table": 3e38, "gnn.layer0.w_msg": 0.0, "gnn.layer0.wq": 0.0,
              "gnn.layer0.wo": 0.0, "gnn.layer0.bo": 3e38}, "gnn.layer0", "add"),
    ("eval", {"gnn.layer0.ln.g": 3e38}, "gnn.layer0", "layer_norm"),
    ("eval", {"mint.layer0.w1": 3e38, "mint.layer0.b1": 3e38}, "mint.layer0", "linear"),
    ("eval", {"mint.layer0.w1": 1e30, "mint.layer0.w2": 1e30}, "mint.layer0", "linear"),
    ("train", {"mint.layer0.b1": 3.2e38}, "mint.layer0", "dropout"),
])
def test_numeric_error_names_the_op_inside_the_gnn_layer_and_mint(mode, values, stage, op):
    # each message reads as it did when every step was its own taped op; the
    # segment softmax and gelu never raise on finite input, since a softmax
    # lies in [0, 1] and |gelu(x)| <= |x|
    cfg = tiny_cfg()
    params = init_params(cfg, 1, VOCAB, ENTS, RELS)
    for name, value in values.items():
        params[name].values[:] = value
    with pytest.raises(nm.NumericError) as err:
        encode_batch(mixed_batch(), params, cfg, seeds_of(mode))
    assert str(err.value) == "%s: non-finite values produced by op '%s'" % (stage, op)


def test_gnn_layer_and_mint_record_a_fixed_number_of_tape_ops():
    cfg = tiny_cfg()
    params = init_params(cfg, 2, VOCAB, ENTS, RELS)
    examples = mixed_batch()
    batch = make_batch(examples, cfg, SEEDS)
    assert batch.node_keep is not None and not batch.graph.all()
    v = nm.Tensor(np.random.default_rng(0).normal(size=(batch.node_offsets[-1], cfg.d_node)), requires_grad=True)
    with nm.ComputationTape() as tape:
        x = embed(examples, batch, params, cfg)
        before = len(tape.records)
        v, _ = _gnn_layer(v, params, cfg, 0, batch)
        assert len(tape.records) - before == 1
        before = len(tape.records)
        _mint(x, v, params, cfg, 0, batch)
    # the perceptron, the split into its two outputs, and for each of x and
    # v a scatter and a residual add; v's rows first drop the dummy graphs
    assert len(tape.records) - before == 1 + 2 + 2 + 3


# ---------------------------------------------------------------------------
# reads: the last fusion layer computes only what its caller reads
# ---------------------------------------------------------------------------

# mixed_batch's lengths are 4, 2, 8, 3 and 4; the last example reads no token
MASKED = [[3, 1], [1], [2, 5, 7], [2], []]
READERS = {
    "pretrain_masked": Reads(MASKED, nodes=False, interaction=False),
    "pretrain_masked_and_nodes": Reads(MASKED, interaction=False),
    "pool": Reads([()] * 5),
    "eval_lp_nodes": Reads([()] * 5, interaction=False),
}


def read_rows(reads, examples, max_len):
    """Per example, the full pass's token rows that `reads` reads, in the
    order of its token rows, and the node rows it reads as final."""
    tokens, nodes, offset = [], [], 0
    first = 0 if reads.interaction else 1
    for b, (ps, (_, local)) in enumerate(zip(reads.positions, examples)):
        tokens.append([b * max_len + p for p in [0] * reads.interaction + list(ps)])
        if reads.nodes or reads.interaction:
            nodes += range(offset + first, offset + local.n_nodes)
        offset += local.n_nodes
    return tokens, np.array(nodes, dtype=np.int64)


def encode_and_backward(examples, params, cfg, seeds, reads, token_rows, node_rows, weights):
    """encode_batch's read states and every parameter's gradient (None when
    it gets none) of a fixed random mix of those states."""
    for p in params.values():
        p.grad = None
    with nm.ComputationTape() as tape:
        out = encode_batch(examples, params, cfg, seeds, reads)
        terms = []
        if len(token_rows):
            terms.append(nm.reduce_sum(nm.mul(nm.gather_rows(out.tokens, token_rows),
                                              nm.constant(weights[0]))))
        if len(node_rows):
            terms.append(nm.reduce_sum(nm.mul(nm.gather_rows(out.nodes, node_rows),
                                              nm.constant(weights[1]))))
        tape.backward(nm.add(*terms) if len(terms) == 2 else terms[0])
    tokens = out.tokens.values[token_rows] if len(token_rows) else None
    nodes = out.nodes.values[node_rows] if len(node_rows) else None
    return out, tokens, nodes, {n: p.grad for n, p in params.items()}


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_pruned_encode_matches_the_full_encode_on_what_it_reads(reader, mode):
    cfg = tiny_cfg()
    params = init_params(cfg, 7, VOCAB, ENTS, RELS)
    examples, reads = mixed_batch(), READERS[reader]
    full_rows, node_rows = read_rows(reads, examples, max(seg.length for seg, _ in examples))
    width = max(len(rows) for rows in full_rows)
    pruned_rows = np.array([b * width + j for b, rows in enumerate(full_rows) for j in range(len(rows))],
                           dtype=np.int64)
    rng = np.random.default_rng(17)
    weights = rng.normal(size=(len(pruned_rows), cfg.d_text)), rng.normal(size=(len(node_rows), cfg.d_node))

    out, tokens, nodes, grads = encode_and_backward(examples, params, cfg, seeds_of(mode), reads,
                                                    pruned_rows, node_rows, weights)
    _, want_tokens, want_nodes, want_grads = encode_and_backward(
        examples, params, cfg, seeds_of(mode), Reads(), np.concatenate(full_rows).astype(np.int64),
        node_rows, weights)

    assert out.width == width and (out.tokens is None) == (width == 0)
    assert (out.nodes is None) == (not reads.nodes and not reads.interaction)
    if tokens is not None:
        np.testing.assert_allclose(tokens, want_tokens, rtol=1e-5, atol=1e-6)
    if reads.interaction:
        np.testing.assert_allclose(nodes, want_nodes, rtol=1e-5, atol=1e-6)
    elif nodes is not None:   # the entity nodes' states take no part of the pruned layers
        assert nodes.tobytes() == want_nodes.tobytes()
    for name, grad in grads.items():
        want = want_grads[name]
        if grad is None:   # a tensor that no read state depends on: exact zeros in full
            assert want is None or not want.any(), name
        else:
            np.testing.assert_allclose(grad, want, rtol=1e-4, atol=1e-7, err_msg=name)


@pytest.mark.parametrize("reads", [
    Reads(interaction=False),                        # every position, the interaction token among them
    Reads([[1]] * 4),                                # one example short
    Reads([[0], [1], [1], [1], [1]], interaction=False),   # position 0 is the interaction token
    Reads([[3], [2], [1], [1], [1]]),                # past the second example's length
])
def test_reads_that_name_no_final_state_are_refused(reads):
    cfg = tiny_cfg()
    params = init_params(cfg, 1, VOCAB, ENTS, RELS)
    with pytest.raises(ValueError, match="reads: "):
        encode_batch(mixed_batch(), params, cfg, reads=reads)
