"""Corruption ops, scoring oracles, loss hand-cases, optimizer behavior,
training-loop contracts, and checkpoint persistence."""

import os
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dragonforge import numerics as nm
from dragonforge import pretrain as pt
from dragonforge.cli import main
from dragonforge.encoder import EncoderConfig, init_params
from dragonforge.evaluation import generate_synthetic_world
from dragonforge.kg_store import RESERVED_RELATIONS, EntityVocab, R_EL, Vocab, load_kg
from dragonforge.retrieval import (INT, MASK, PAD, RESERVED_TOKENS, SEP, LocalKG, Retriever,
                                  TextSegment, V_INT, build_vocab, dummy_local_kg, segment_corpus)


def make_segment(ids):
    return TextSegment([INT] + list(ids))


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def test_masking_floor_forces_one_position():
    seg = make_segment([7, 8, 9, 10])
    out, plan = pt.apply_masking(seg, 1e-9, nm.split_rng(0, "m"))
    assert len(plan) == 1
    assert out.token_ids.count(MASK) == 1


def test_masking_rate_one_masks_everything_eligible():
    seg = make_segment([7, SEP, 8, PAD, 9])
    out, plan = pt.apply_masking(seg, 1.0, nm.split_rng(1, "m"))
    assert sorted(plan.positions) == [1, 3, 5]
    assert out.token_ids[2] == SEP and out.token_ids[4] == PAD
    assert out.token_ids[0] == INT


def test_masking_binomial_statistics():
    seg = make_segment([9] * 100_000)
    _, plan = pt.apply_masking(seg, 0.15, nm.split_rng(2, "m"))
    frac = len(plan) / 100_000
    assert abs(frac - 0.15) < 0.01


def test_masking_never_touches_reserved_positions():
    rng_master = np.random.default_rng(3)
    for trial in range(200):
        ids = [int(x) for x in rng_master.integers(5, 50, size=10)]
        ids[3] = SEP
        seg = make_segment(ids)
        _, plan = pt.apply_masking(seg, 0.5, nm.split_rng(3, "m", trial))
        assert 0 not in plan.positions
        assert 4 not in plan.positions  # the SEP slot (offset by [INT])


def test_masking_empty_segment_flagged():
    seg = TextSegment([INT, SEP, PAD])
    out, plan = pt.apply_masking(seg, 0.5, nm.split_rng(4, "m"))
    assert plan.flagged_empty and len(plan) == 0
    assert out.token_ids == seg.token_ids


def test_masking_records_originals():
    seg = make_segment([7, 8, 9])
    out, plan = pt.apply_masking(seg, 1.0, nm.split_rng(5, "m"))
    assert plan.original_ids == [7, 8, 9]
    assert all(out.token_ids[p] == MASK for p in plan.positions)


# ---------------------------------------------------------------------------
# edge holdout
# ---------------------------------------------------------------------------

def one_edge_local():
    return LocalKG(nodes=[V_INT, 10, 11, 12], edges=[(0, R_EL, 1), (1, 2, 2)])


def test_holdout_forces_single_edge():
    reduced, holdout = pt.hold_out_edges(one_edge_local(), 0.15, nm.split_rng(0, "h"))
    assert holdout.queries == [pt.LPQuery(head=1, rel=2, candidates=[2, 3], gold=2)]
    assert all(e[1] == R_EL for e in reduced.edges)


def test_holdout_binomial_statistics():
    n_edges = 100_000
    edges = [(0, R_EL, 1)] + [(1 + (i % 3), 2, 1 + ((i + 1) % 3)) for i in range(n_edges)]
    local = LocalKG(nodes=[V_INT, 10, 11, 12], edges=edges)
    _, holdout = pt.hold_out_edges(local, 0.15, nm.split_rng(1, "h"))
    assert abs(len(holdout) / n_edges - 0.15) < 0.01


def test_holdout_never_drops_interaction_edges():
    for trial in range(200):
        local = LocalKG(nodes=[V_INT, 10, 11, 12],
                        edges=[(0, R_EL, 1), (0, R_EL, 2), (1, 2, 2), (2, 2, 3), (3, 2, 1)])
        reduced, holdout = pt.hold_out_edges(local, 0.9, nm.split_rng(2, "h", trial))
        assert all(q.rel != R_EL for q in holdout.queries)
        assert sum(1 for e in reduced.edges if e[1] == R_EL) == 2


@st.composite
def local_graphs(draw):
    """A retrieved-graph shape: n entity nodes after the interaction node,
    interaction links to some of them, then KG edges that may repeat, loop
    on one node or (with fewer than three entity nodes) leave fewer than two
    candidates."""
    n = draw(st.integers(1, 7), label="entity nodes")
    node = st.integers(1, n)
    linked = draw(st.lists(node, min_size=1, max_size=n, unique=True), label="linked")
    kg_edges = draw(st.lists(st.tuples(node, st.integers(2, 5), node), max_size=12), label="edges")
    edges = [(0, R_EL, j) for j in linked] + kg_edges
    return LocalKG(nodes=[V_INT] + list(range(100, 100 + n)),
                   edges=[edges[int(i)] for i in draw(st.permutations(range(len(edges))))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(local=local_graphs(), rate=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 16))
def test_holdout_queries_rank_the_tail_among_the_other_entity_nodes(local, rate, seed):
    reduced, holdout = pt.hold_out_edges(local, rate, nm.split_rng(seed, "h"))
    droppable = [i for i, e in enumerate(local.edges) if e[1] != R_EL]
    # the hold-out draws only the edges, so the same stream names them again
    dropped = set(pt._pick(droppable, rate, nm.split_rng(seed, "h"))) if droppable else set()
    assert reduced.nodes == local.nodes
    assert reduced.edges == [e for i, e in enumerate(local.edges) if i not in dropped]
    made = [local.edges[i] for i in sorted(dropped)
            if local.edges[i][0] != local.edges[i][2] and local.n_nodes >= 4]
    assert [(q.head, q.rel, q.gold) for q in holdout.queries] == made
    assert holdout.flagged_empty == (not made)
    for q in holdout.queries:
        assert q.head not in q.candidates
        assert q.candidates.count(q.gold) == 1
        assert 0 not in q.candidates
        assert len(q.candidates) >= 2
        assert sorted(q.candidates + [q.head]) == list(range(1, local.n_nodes))


def test_holdout_edges_without_a_query_still_leave_the_graph():
    # a self-loop ranks no tail, nor does an edge of a graph with one other
    # entity node; both edges still leave the encoder's view
    local = LocalKG(nodes=[V_INT, 10, 11, 12], edges=[(0, R_EL, 1), (3, 3, 3), (1, 2, 2)])
    reduced, holdout = pt.hold_out_edges(local, 1.0, nm.split_rng(5, "h"))
    assert holdout.queries == [pt.LPQuery(head=1, rel=2, candidates=[2, 3], gold=2)]
    assert reduced.edges == [(0, R_EL, 1)]
    for local in (LocalKG(nodes=[V_INT, 10], edges=[(1, 2, 1)]),
                  LocalKG(nodes=[V_INT, 10, 11], edges=[(0, R_EL, 1), (1, 2, 2)])):
        reduced, holdout = pt.hold_out_edges(local, 1.0, nm.split_rng(7, "h"))
        assert holdout.flagged_empty and len(holdout) == 0
        assert all(e[1] == R_EL for e in reduced.edges)


def test_holdout_dummy_graph_flagged():
    _, holdout = pt.hold_out_edges(dummy_local_kg(), 0.15, nm.split_rng(4, "h"))
    assert holdout.flagged_empty


# ---------------------------------------------------------------------------
# scoring functions
# ---------------------------------------------------------------------------

def head_for(scorer, d=8, n_rel=4, seed=0):
    rng = nm.split_rng(seed, "head")
    rel = nm.Tensor(rng.normal(0, 0.5, size=(n_rel, pt.relation_table_width(scorer, d))),
                    requires_grad=True)
    return pt.LinkPredHead(scorer=scorer, margin=0.0, relations=rel)


def score(h, rel_id, t, head):
    """Score of one triplet given as plain [d] vectors."""
    return pt.triplet_scores(nm.constant(np.asarray(h)[None, :]), [rel_id],
                             nm.constant(np.asarray(t)[None, :]), head).item()


def test_distmult_all_ones_identity():
    head = head_for("distmult")
    head.relations.values[1] = 1.0
    ones = np.ones(8)
    assert score(ones, 1, ones, head) == pytest.approx(8.0, abs=1e-6)


def test_transe_translation_identity():
    head = head_for("transe")
    h = np.array([0.3, -1.2, 0.5, 2.0, -0.1, 0.7, 0.0, 1.1])
    t = h + head.relations.values[2]
    assert score(h, 2, t, head) == pytest.approx(0.0, abs=1e-6)


def test_rotate_identity_rotation():
    head = head_for("rotate")
    head.relations.values[0] = 0.0  # zero phase = identity rotation
    h = np.arange(8, dtype=float) / 3.0
    assert score(h, 0, h, head) == pytest.approx(0.0, abs=1e-6)


def np_distmult(h, r, t):
    total = 0.0
    for i in range(len(h)):
        total += h[i] * r[i] * t[i]
    return total


def np_transe(h, r, t):
    return -np.sqrt(((h + r - t) ** 2).sum())


def np_rotate(h, theta, t):
    d2 = len(h) // 2
    hc = h[:d2] + 1j * h[d2:]
    tc = t[:d2] + 1j * t[d2:]
    rc = np.exp(1j * theta)
    return -np.linalg.norm(hc * rc - tc)


@pytest.mark.parametrize("scorer,oracle", [("distmult", np_distmult),
                                           ("transe", np_transe),
                                           ("rotate", np_rotate)])
def test_scoring_against_brute_force_oracle(scorer, oracle):
    rng = np.random.default_rng(11)
    with nm.float64_mode():
        head = head_for(scorer)
        for _ in range(100):
            h = rng.normal(size=8)
            t = rng.normal(size=8)
            r_id = int(rng.integers(4))
            got = score(h, r_id, t, head)
            want = oracle(h, head.relations.values[r_id], t)
            assert abs(got - want) < 1e-5


@pytest.mark.parametrize("scorer", pt.SCORERS)
def test_scoring_gradients(scorer):
    rng = np.random.default_rng(13)
    width = pt.relation_table_width(scorer, 8)

    def fn(ts):
        h, t, rel = ts
        head = pt.LinkPredHead(scorer=scorer, margin=0.0, relations=rel)
        return nm.reduce_sum(pt.triplet_scores(h, [0, 1, 1], t, head))

    err = nm.check_gradients(fn, [rng.normal(size=(3, 8)), rng.normal(size=(3, 8)),
                                  rng.normal(size=(2, width))])
    assert err < 1e-4, (scorer, err)


def test_triplet_scores_dimension_mismatch():
    head = head_for("distmult")
    with pytest.raises(nm.ShapeError):
        pt.triplet_scores(nm.constant(np.ones((2, 8))), [0, 0],
                          nm.constant(np.ones((3, 8))), head)


@pytest.mark.parametrize("scorer", pt.SCORERS)
def test_query_scores_are_bitwise_triplet_scores_of_each_query(scorer):
    rng = np.random.default_rng(41)
    head = head_for(scorer, d=8)
    queries = [pt.LPQuery(1, 0, [2, 3], 2), pt.LPQuery(3, 2, [1, 2], 1),
               pt.LPQuery(2, 3, [1, 3, 4], 4)]
    # contextual node vectors: graphs of 4 and 5 nodes stacked, local node j of
    # the graph at offset o in row o + j; an entity table: local node j in the
    # row of its global entity id, and the interaction node (V_INT) in none
    nodes, table = rng.normal(size=(9, 8)), rng.normal(size=(20, 8))
    cases = [(nodes, [np.arange(4), np.arange(4), np.arange(4, 9)]),
             (table, [np.array([V_INT, 7, 3, 12]), np.array([V_INT, 7, 3, 12]),
                      np.array([V_INT, 0, 19, 5, 11])])]
    for vectors, rows in cases:
        flat = pt.query_scores(nm.constant(vectors), list(zip(queries, rows)), head).values
        sizes = [len(q.candidates) for q in queries]
        assert flat.shape == (sum(sizes),)
        for q, r, got in zip(queries, rows, np.split(flat, np.cumsum(sizes)[:-1])):
            n = len(q.candidates)
            want = pt.triplet_scores(nm.constant(vectors[[r[q.head]] * n]), [q.rel] * n,
                                     nm.constant(vectors[r[q.candidates]]), head).values
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def fixed_phi_loss(phi_pos, phi_neg, n, margin=0.0):
    """Scalar oracle with the stable log-sigmoid."""
    def logsig(x):
        return min(x, 0.0) - np.log1p(np.exp(-abs(x)))
    return -logsig(phi_pos + margin) + sum(logsig(p + margin) for p in phi_neg) / n


def holdout_of(*queries, n_nodes, offset=0):
    """One example's hold-out of the given (head, rel, candidates, gold)
    queries, with the rows of its n_nodes local nodes from offset on."""
    return pt.EdgeHoldout([pt.LPQuery(*q) for q in queries]), np.arange(offset, offset + n_nodes)


def test_linkpred_loss_hand_case_extreme():
    # distmult with unit relation: phi = <h, 1, t> = h . t
    head = head_for("distmult", d=2)
    head.relations.values[0] = 1.0
    node_vecs = nm.constant(np.array([[0.0, 0.0],
                                      [4.0, 2.0],      # the head
                                      [5.0, 0.0],      # gold tail: 20
                                      [-5.0, 0.0]]))   # other candidate: -20
    loss = pt.linkpred_loss([holdout_of((1, 0, [2, 3], 2), n_nodes=4)], node_vecs, head).item()
    assert loss == pytest.approx(-20.0, abs=1e-4)
    assert loss == pytest.approx(fixed_phi_loss(20.0, [-20.0], 1), abs=1e-6)


def test_linkpred_loss_symmetric_cancellation():
    head = head_for("distmult", d=2)
    head.relations.values[0] = 1.0
    node_vecs = nm.constant(np.zeros((4, 2)))
    holdout = holdout_of((2, 0, [1, 3], 3), n_nodes=4)
    assert pt.linkpred_loss([holdout], node_vecs, head).item() == pytest.approx(0.0, abs=1e-7)


def test_linkpred_loss_gradient_wrt_node_vectors():
    rng = np.random.default_rng(17)
    holdout = holdout_of((1, 0, [2, 3, 4], 2), (3, 1, [1, 2, 4], 1), n_nodes=5)

    def fn(ts):
        node_vecs, rel = ts
        head = pt.LinkPredHead(scorer="distmult", margin=0.0, relations=rel)
        return pt.linkpred_loss([holdout], node_vecs, head)

    err = nm.check_gradients(fn, [rng.normal(size=(5, 6)), rng.normal(size=(2, 6))])
    assert err < 1e-4, err


def at_offset(plan, offset):
    """plan with the rows of its positions among token rows whose position 0
    is row offset."""
    return plan, np.asarray(plan.positions) + offset


def test_mlm_loss_uniform_and_onehot():
    params = {"lm.mlm_head.w": nm.Tensor(np.zeros((4, 100)), requires_grad=True),
              "lm.mlm_head.b": nm.Tensor(np.zeros(100), requires_grad=True)}
    tokens = nm.constant(np.random.default_rng(19).normal(size=(6, 4)))
    plan = pt.MaskingPlan(positions=[1, 3], original_ids=[7, 42])
    assert pt.mlm_loss([at_offset(plan, 0)], tokens, params).item() == pytest.approx(np.log(100), abs=1e-4)
    params["lm.mlm_head.b"].values[7] = 1e4  # force the head toward token 7
    plan7 = pt.MaskingPlan(positions=[2], original_ids=[7])
    assert pt.mlm_loss([at_offset(plan7, 0)], tokens, params).item() == pytest.approx(0.0, abs=1e-6)


def test_mlm_loss_against_direct_oracle():
    with nm.float64_mode():
        rng = np.random.default_rng(23)
        w = rng.normal(size=(4, 30))
        b = rng.normal(size=30)
        hvecs = rng.normal(size=(7, 4))
        params = {"lm.mlm_head.w": nm.Tensor(w), "lm.mlm_head.b": nm.Tensor(b)}
        plan = pt.MaskingPlan(positions=[0, 4, 6], original_ids=[3, 12, 25])
        got = pt.mlm_loss([at_offset(plan, 0)], nm.Tensor(hvecs), params).item()
        losses = []
        for pos, tok in zip(plan.positions, plan.original_ids):
            logits = hvecs[pos] @ w + b
            p = np.exp(logits - logits.max())
            p /= p.sum()
            losses.append(-np.log(p[tok]))
        assert abs(got - np.mean(losses)) < 1e-6


def test_batched_losses_are_means_of_per_example_terms():
    with nm.float64_mode():
        rng = np.random.default_rng(37)
        params = {"lm.mlm_head.w": nm.Tensor(rng.normal(size=(4, 30))),
                  "lm.mlm_head.b": nm.Tensor(rng.normal(size=30))}
        tokens = rng.normal(size=(10, 4))           # two examples: rows 0-4 and 5-9
        plans = [pt.MaskingPlan([1, 3], [4, 9]), pt.MaskingPlan([2], [17])]
        singles = [pt.mlm_loss([at_offset(plan, 0)], nm.Tensor(tokens[5 * i:5 * i + 5]), params).item()
                   for i, plan in enumerate(plans)]
        batched = pt.mlm_loss([at_offset(plans[0], 0), at_offset(plans[1], 5)], nm.Tensor(tokens), params).item()
        assert batched == pytest.approx(np.mean(singles), abs=1e-12)

        head = head_for("distmult", d=6, n_rel=2)
        nodes = rng.normal(size=(9, 6))             # graphs of 4 and 5 nodes
        queries = [[(1, 0, [2, 3], 2), (3, 1, [1, 2], 1)], [(2, 1, [1, 3, 4], 4)]]
        singles = [pt.linkpred_loss([holdout_of(*queries[0], n_nodes=4)], nm.Tensor(nodes[:4]),
                                    head).item(),
                   pt.linkpred_loss([holdout_of(*queries[1], n_nodes=5)], nm.Tensor(nodes[4:]),
                                    head).item()]
        batched = pt.linkpred_loss([holdout_of(*queries[0], n_nodes=4),
                                    holdout_of(*queries[1], n_nodes=5, offset=4)],
                                   nm.Tensor(nodes), head).item()
        assert batched == pytest.approx(np.mean(singles), abs=1e-12)


# ---------------------------------------------------------------------------
# loss sign behavior and optimizer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scorer", pt.SCORERS)
def test_one_step_raises_positive_phi_lowers_negative_phi(scorer):
    rng = np.random.default_rng(29)
    nodes = nm.Tensor(rng.normal(0, 0.5, size=(5, 8)), requires_grad=True, name="other.nodes")
    rel = nm.Tensor(rng.normal(0, 0.5, size=(2, pt.relation_table_width(scorer, 8))),
                    requires_grad=True, name="other.rel")
    params = {"other.nodes": nodes, "other.rel": rel}
    head = pt.LinkPredHead(scorer=scorer, margin=0.0, relations=rel)
    holdout = holdout_of((1, 0, [2, 3], 2), n_nodes=4)

    def phis():
        pos = score(nodes.values[1], 0, nodes.values[2], head)
        neg = score(nodes.values[1], 0, nodes.values[3], head)
        return pos, neg

    before_pos, before_neg = phis()
    opt = pt.Optimizer(params, lr_lm=1e-3, lr_other=1e-3, total_steps=1, warmup_ratio=0.0)
    with nm.ComputationTape() as tape:
        tape.backward(pt.linkpred_loss([holdout], nodes, head))
    opt.step(0)
    after_pos, after_neg = phis()
    assert after_pos > before_pos
    assert after_neg < before_neg


def test_rotate_modulus_exactly_one_after_steps():
    rng = np.random.default_rng(31)
    nodes = nm.Tensor(rng.normal(size=(5, 8)), requires_grad=True, name="other.nodes")
    rel = nm.Tensor(rng.normal(size=(2, 4)), requires_grad=True, name="other.rel")
    params = {"other.nodes": nodes, "other.rel": rel}
    head = pt.LinkPredHead(scorer="rotate", margin=0.0, relations=rel)
    holdout = holdout_of((1, 0, [2, 3, 4], 2), n_nodes=5)
    opt = pt.Optimizer(params, 1e-2, 1e-2, total_steps=5, warmup_ratio=0.0)
    for step in range(5):
        with nm.ComputationTape() as tape:
            tape.backward(pt.linkpred_loss([holdout], nodes, head))
        opt.step(step)
        opt.zero_grad()
        # parameters are angles: the rotation modulus is 1 by construction,
        # with only float rounding between it and the stored value
        angles = rel.values.astype(np.float64)
        modulus = np.cos(angles) ** 2 + np.sin(angles) ** 2
        np.testing.assert_allclose(modulus, 1.0, atol=1e-12)
        assert rel.values.shape == (2, 4)  # d/2 phases, not d components


@pytest.mark.parametrize("objective, kg_mode, mlm, lp", [
    ("joint", "graph", True, True), ("joint", "verbalized", True, False),
    ("mlm_only", "graph", True, False), ("mlm_only", "verbalized", True, False),
    ("linkpred_only", "graph", False, True), ("linkpred_only", "verbalized", None, None)])
def test_which_objectives_train_which_loss(objective, kg_mode, mlm, lp):
    # a verbalized KG leaves no graph edge to hold out, so it trains no link
    # prediction, and linkpred_only over it would train nothing
    if mlm is None:
        with pytest.raises(ValueError, match="^objective: linkpred_only "):
            pt.PretrainConfig(objective=objective, kg_mode=kg_mode)
        return
    cfg = pt.PretrainConfig(objective=objective, kg_mode=kg_mode)
    assert (cfg.trains_mlm, cfg.trains_lp) == (mlm, lp)


def test_schedule_warmup_then_decay():
    params = {"other.x": nm.Tensor(np.zeros(1), requires_grad=True)}
    opt = pt.Optimizer(params, 1.0, 1.0, total_steps=100, warmup_ratio=0.1)
    lrs = [opt.schedule(s) for s in range(100)]
    assert lrs[9] == pytest.approx(1.0)
    assert all(a <= b + 1e-12 for a, b in zip(lrs[:9], lrs[1:10]))
    assert all(a >= b - 1e-12 for a, b in zip(lrs[10:], lrs[11:]))
    assert lrs[99] > 0.0


def test_gradient_clipping_scales_to_unit_norm():
    p = nm.Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 10.0)
    norm = pt.clip_gradients({"p": p}, 1.0)
    assert norm == pytest.approx(20.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)


def test_frozen_prefix_skips_updates():
    a = nm.Tensor(np.ones(2), requires_grad=True)
    b = nm.Tensor(np.ones(2), requires_grad=True)
    a.grad, b.grad = np.ones(2), np.ones(2)
    opt = pt.Optimizer({"lm.a": a, "other.b": b}, 0.1, 0.1, total_steps=1, warmup_ratio=0.0)
    opt.frozen_prefixes = ("lm.",)
    opt.step(0)
    np.testing.assert_array_equal(a.values, 1.0)
    assert not np.array_equal(b.values, np.ones(2))


def test_frozen_gradients_do_not_enter_the_clip_norm():
    # the applied gradient is 3 per coordinate, norm 3 * sqrt(2), clipped to 1;
    # a frozen parameter's gradient of 100 must change neither
    def clipped_step(with_frozen):
        params = {"other.b": nm.Tensor(np.ones(2), requires_grad=True)}
        if with_frozen:
            params["lm.a"] = nm.Tensor(np.ones(2), requires_grad=True)
        opt = pt.Optimizer(params, 0.1, 0.1, total_steps=1, warmup_ratio=0.0)
        opt.frozen_prefixes = ("lm.",)
        applied = []
        opt.step = lambda step: applied.append(params["other.b"].grad.copy())

        def forward():
            loss = nm.reduce_sum(nm.mul(params["other.b"], 3.0))
            if with_frozen:
                loss = nm.add(loss, nm.reduce_sum(nm.mul(params["lm.a"], 100.0)))
            return (loss,)

        _, norm = pt.train_step(opt, 0, 1.0, forward)
        return norm, applied[0]

    norm, grad = clipped_step(with_frozen=True)
    alone_norm, alone_grad = clipped_step(with_frozen=False)
    assert norm == alone_norm == pytest.approx(3.0 * np.sqrt(2.0))
    assert grad.tobytes() == alone_grad.tobytes()
    assert np.linalg.norm(grad) == pytest.approx(1.0)


def test_optimizer_steps_match_direct_formula():
    """Adam's bias-corrected step, with the schedule's learning rate."""
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    grads = np.random.default_rng(5).normal(size=(10, 3))
    p = nm.Tensor(np.zeros(3), requires_grad=True)
    opt = pt.Optimizer({"other.p": p}, lr, lr, total_steps=10, warmup_ratio=0.0)
    want, m, v = np.zeros(3), np.zeros(3), np.zeros(3)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat, vhat = m / (1 - b1 ** t), np.sqrt(v / (1 - b2 ** t))
        want = want - lr * opt.schedule(t - 1) * mhat / (vhat + eps)
        p.grad = g.copy()
        opt.step(t - 1)
        np.testing.assert_allclose(p.values, want, rtol=1e-5, atol=1e-8)   # float32 parameters


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def small_world():
    return generate_synthetic_world(n_entities=40, n_relations=5, n_facts=240,
                                    leak_rate=0.1, seed=2)


def small_setup(out):
    """Training segments, KG and vocabularies of the small world, read from
    the files it writes under out as the pretrain command reads them."""
    files = small_world().write_files(str(out))
    kg, entities, relations = load_kg(files["kg.tsv"], files["aliases.tsv"])
    enc_cfg = EncoderConfig(n_unimodal=1, n_fusion=2, d_text=32, d_node=16, heads_text=2,
                            heads_gnn=2, d_mint_hidden=32, dropout=0.1, max_seq_len=48,
                            max_nodes=10)
    segments = segment_corpus(files["corpus.txt"], enc_cfg.max_seq_len)
    tv = build_vocab(segments, min_freq=2)
    return segments, kg, entities, relations, tv, enc_cfg


def test_train_reduces_mlm_loss(tmp_path):
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    cfg = pt.PretrainConfig(steps=200, batch_size=4, seed=3)
    _, metrics = pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg)
    first = np.mean([m["loss_mlm"] for m in metrics[:10]])
    last = np.mean([m["loss_mlm"] for m in metrics[-10:]])
    assert last < first


def test_mlm_only_mode_reports_zero_lp_loss(tmp_path):
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    cfg = pt.PretrainConfig(steps=5, batch_size=2, objective="mlm_only", seed=4)
    _, metrics = pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg)
    assert all(m["loss_lp"] == 0.0 for m in metrics)


def test_linkpred_only_mode_reports_zero_mlm_loss(tmp_path):
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    cfg = pt.PretrainConfig(steps=5, batch_size=2, objective="linkpred_only", seed=4)
    _, metrics = pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg)
    assert all(m["loss_mlm"] == 0.0 for m in metrics)


@pytest.mark.parametrize("objective, untouched", [
    ("joint", ("mint.layer1.",)),
    ("mlm_only", ("mint.layer1.", "gnn.layer1.")),
    ("linkpred_only", ("mint.layer1.", "lm.layer2.")),
])
def test_pretraining_leaves_the_tensors_no_loss_reads_at_their_initial_values(
        tmp_path, monkeypatch, objective, untouched):
    # DRAGON's heads read masked tokens and entity nodes. The final exchange
    # feeds only the interaction token and node, the final GNN layer only the
    # nodes and that exchange, the final transformer layer only the tokens
    # and that exchange; so these tensors get no gradient and Adam no moment
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    assert enc_cfg.n_unimodal + enc_cfg.n_fusion == 3 and enc_cfg.n_fusion == 2
    optimizers = []

    class RecordingOptimizer(pt.Optimizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(pt, "Optimizer", RecordingOptimizer)
    cfg = pt.PretrainConfig(steps=6, batch_size=3, objective=objective, seed=8)
    params, _ = pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg)
    init = init_params(enc_cfg, cfg.seed, len(tv), len(entities), len(relations))
    (opt,) = optimizers
    names = [n for n in init if n.startswith(untouched)]
    assert len(names) == sum(len([n for n in init if n.startswith(p)]) for p in untouched) > 0
    for name in names:
        assert params[name].values.tobytes() == init[name].values.tobytes(), name
        assert not opt._m[name].any() and not opt._v[name].any(), name
    # the same tensors of the layer before do train
    for name in ("mint.layer0.w1", "gnn.layer0.wv", "lm.layer1.attn.wv"):
        assert params[name].values.tobytes() != init[name].values.tobytes(), name


def test_train_determinism_identical_metrics(tmp_path):
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    cfg = pt.PretrainConfig(steps=8, batch_size=2, seed=5)
    _, m1 = pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg)
    _, m2 = pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg)
    assert m1 == m2


def test_loss_additivity_every_step(tmp_path):
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    cfg = pt.PretrainConfig(steps=12, batch_size=3, seed=6)
    _, metrics = pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg)
    for m in metrics:
        assert abs(m["loss"] - (m["loss_mlm"] + m["loss_lp"])) < 1e-5


def test_divergence_aborts_and_keeps_last_checkpoint(tmp_path):
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    ckpt = str(tmp_path / "ck.drgn")
    cfg = pt.PretrainConfig(steps=30, batch_size=2, seed=7, lr_lm=1e8, lr_other=1e8,
                            checkpoint_every=1, warmup_ratio=0.0)
    with pytest.raises(pt.TrainingDiverged):
        with np.errstate(all="ignore"):
            pt.train(segments, kg, entities, relations, tv, enc_cfg,
                     cfg, checkpoint_path=ckpt)
    params, *_ = pt.load_checkpoint(ckpt)
    assert all(np.isfinite(p.values).all() for p in params.values())


@pytest.mark.parametrize("steps, every, saved_after", [
    (4, 0, [4]), (4, 2, [2, 4]), (5, 2, [2, 4, 5]), (3, 5, [3]), (2, 1, [1, 2]),
], ids=["end_only", "every_divides_steps", "every_leaves_a_tail", "every_past_steps", "every_step"])
def test_train_writes_each_checkpoint_once(tmp_path, monkeypatch, steps, every, saved_after):
    # a periodic save at the last step is the final checkpoint; it is not written again
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    done, saved = [], []   # steps taken; steps taken at each save
    train_step = pt.train_step

    def counted_step(*args):
        done.append(len(done))
        return train_step(*args)

    monkeypatch.setattr(pt, "train_step", counted_step)
    monkeypatch.setattr(pt, "save_checkpoint", lambda *args: saved.append(len(done)))
    cfg = pt.PretrainConfig(steps=steps, batch_size=2, seed=8, checkpoint_every=every)
    pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg, checkpoint_path=str(tmp_path / "ck"))
    assert saved == saved_after


def test_pretrain_step_sets_up_one_stream_per_example(tmp_path, monkeypatch):
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    names = []
    split_rng = nm.split_rng

    def counting_split_rng(seed, name, *indices):
        names.append(name)
        return split_rng(seed, name, *indices)

    monkeypatch.setattr(nm, "split_rng", counting_split_rng)
    cfg = pt.PretrainConfig(steps=2, batch_size=3, seed=9)
    pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg)
    per_step = [x for x in names if x != "retrieval" and not x.startswith("init/")]
    # before step 0 every step's batch draw; then per step one stream per
    # slot in pretrain and one in the encoder
    assert per_step == ["batch"] * cfg.steps + (["example"] * cfg.batch_size
                                                + ["dropout"] * cfg.batch_size) * cfg.steps


@pytest.mark.parametrize("kg_mode", pt.KG_MODES)
def test_train_retrieves_each_scheduled_segment_once(tmp_path, monkeypatch, kg_mode):
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    cfg = pt.PretrainConfig(steps=3, batch_size=4, seed=12, kg_mode=kg_mode)
    retrieved, prepared = [], {}
    inputs, prepare = Retriever.inputs, pt.prepare_examples

    def spy_inputs(self, texts, make_rng):
        retrieved.append(texts)
        return inputs(self, texts, make_rng)

    def spy_prepare(*args):
        prepared.update(prepare(*args))
        return prepared

    monkeypatch.setattr(Retriever, "inputs", spy_inputs)
    monkeypatch.setattr(pt, "prepare_examples", spy_prepare)
    pt.train(segments, kg, entities, relations, tv, enc_cfg, cfg)
    scheduled = {i for step in range(cfg.steps) for i in nm.split_rng(cfg.seed, "batch", step)
                 .integers(0, len(segments), size=cfg.batch_size).tolist()}
    assert len(retrieved) == len(scheduled) < len(segments)
    assert set(prepared) == scheduled
    monkeypatch.undo()
    rt = Retriever(kg, entities, relations, tv, enc_cfg.max_seq_len, enc_cfg.max_nodes, kg_mode)
    for idx, example in prepared.items():
        assert example == rt.inputs([segments[idx]], partial(nm.split_rng, cfg.seed, "retrieval", idx))


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_world(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("default_world"))
    assert main(["gen-synthetic", "--out", out, "--seed", "1"]) == 0
    return out


def first_step_gradients(world: str, out: str, kg_mode: str, monkeypatch) -> dict[str, np.ndarray]:
    """Copies of the parameter gradients of a CLI-default pretrain's first
    step, read after backward and before clipping; fails if two of them share
    memory."""
    grads = {}
    clip = pt.clip_gradients

    def capture(params, max_norm):
        held = [(name, p.grad) for name, p in params.items() if p.grad is not None]
        for i, (name, g) in enumerate(held):
            for other, h in held[i + 1:]:
                assert not np.shares_memory(g, h), (name, other)
        grads.update((name, g.copy()) for name, g in held)
        return clip(params, max_norm)

    monkeypatch.setattr(pt, "clip_gradients", capture)
    assert main(["pretrain", "--corpus", os.path.join(world, "corpus.txt"),
                 "--kg", os.path.join(world, "kg.tsv"), "--out", out, "--seed", "1",
                 "--set", "pretrain.steps=1", "--set", "pretrain.kg_mode=" + kg_mode]) == 0
    monkeypatch.setattr(pt, "clip_gradients", clip)
    return grads


@pytest.mark.parametrize("kg_mode", ["graph", "verbalized"])
def test_gradient_hand_off_equals_copying_and_shares_no_memory(default_world, tmp_path, monkeypatch,
                                                               kg_mode):
    handed = first_step_gradients(default_world, str(tmp_path / "a"), kg_mode, monkeypatch)
    accumulate = nm.Tensor.accumulate_grad
    monkeypatch.setattr(nm.Tensor, "accumulate_grad",
                        lambda self, delta, owned=False: accumulate(self, delta))
    copied = first_step_gradients(default_world, str(tmp_path / "b"), kg_mode, monkeypatch)
    assert "lm.layer0.attn.wq" in handed and ("gnn.layer0.wq" in handed) == (kg_mode == "graph")
    assert handed.keys() == copied.keys()
    for name in copied:
        assert handed[name].tobytes() == copied[name].tobytes(), name


def test_checkpoint_round_trip_bitwise(tmp_path):
    segments, kg, entities, relations, tv, enc_cfg = small_setup(tmp_path)
    cfg = pt.PretrainConfig(steps=2, batch_size=2, seed=8)
    path = str(tmp_path / "model.drgn")
    params, _ = pt.train(segments, kg, entities, relations, tv,
                         enc_cfg, cfg, checkpoint_path=path, config_text="a.b = 1\n")
    loaded, tv2, ents2, rels2, text = pt.load_checkpoint(path)
    assert text == "a.b = 1\n"
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert loaded[k].values.tobytes() == params[k].values.tobytes(), k
    assert tv2.names == tv.names
    assert ents2.names == entities.names
    assert ents2.aliases == entities.aliases
    assert rels2.names == relations.names


def test_checkpoint_magic_and_version(tmp_path):
    path = tmp_path / "bad.drgn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        pt.load_checkpoint(str(path))
    good = tmp_path / "model.drgn"
    params = {"w": nm.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)}
    pt.save_checkpoint(str(good), params, Vocab(RESERVED_TOKENS), EntityVocab(), Vocab(RESERVED_RELATIONS))
    assert good.read_bytes()[:4] == b"DRGN"


def test_checkpoint_write_failure_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.drgn"
    vocabs = (Vocab(RESERVED_TOKENS), EntityVocab(), Vocab(RESERVED_RELATIONS))
    pt.save_checkpoint(str(path), {"w": nm.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)},
                       *vocabs)
    before = path.read_bytes()

    write_blob, calls = pt._write_blob, []

    def failing_write_blob(fh, data):
        calls.append(data)
        if len(calls) == 4:   # after the config text and the first vocab table
            raise OSError("disk full")
        write_blob(fh, data)

    monkeypatch.setattr(pt, "_write_blob", failing_write_blob)
    with pytest.raises(OSError, match="disk full"):
        pt.save_checkpoint(str(path), {"w": nm.Tensor(np.ones((2, 3)), requires_grad=True)}, *vocabs)
    assert path.read_bytes() == before
    assert pt.load_checkpoint(str(path))[0]["w"].values.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.drgn"]


def tiny_checkpoint(path, tables: dict | None = None) -> None:
    """A one-tensor checkpoint over entities a, b; `tables` replaces table texts."""
    entities = EntityVocab()
    entities.add("a")
    entities.add("b")
    texts = {"tokens": Vocab(RESERVED_TOKENS).to_tsv(), "entities": entities.to_tsv(),
             "relations": Vocab(RESERVED_RELATIONS).to_tsv(), "aliases": "a\t0\nb\t1\n"}
    texts.update(tables or {})
    with open(path, "wb") as fh:
        pt._write_checkpoint(fh, {"w": nm.Tensor(np.arange(6.0).reshape(2, 3))},
                             list(texts.items()), "seed = 0\n")


def test_truncated_checkpoint_raises_checkpoint_error_naming_path(tmp_path):
    full = tmp_path / "full.drgn"
    tiny_checkpoint(full)
    data = full.read_bytes()
    assert pt.load_checkpoint(str(full))[0]["w"].values.tolist() == [[0, 1, 2], [3, 4, 5]]
    cut = tmp_path / "cut.drgn"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(pt.CheckpointError, match="^%s: " % re.escape(str(cut))):
            pt.load_checkpoint(str(cut))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    tiny_checkpoint(out / "good.drgn")
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_names_its_path(fuzz_dir, data):
    """A truncation or a single-byte XOR flip anywhere either still loads or
    raises CheckpointError, a table's ValueError or NumericError naming the file."""
    raw = bytearray((fuzz_dir / "good.drgn").read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= data.draw(st.integers(1, 255),
                                                                                label="mask")
    bad = fuzz_dir / "bad.drgn"
    bad.write_bytes(bytes(raw))
    try:
        pt.load_checkpoint(str(bad))
    except (ValueError, nm.NumericError) as e:   # CheckpointError is a ValueError
        assert str(e).startswith(str(bad)), e


@pytest.mark.parametrize("table,text,lineno", [
    ("tokens", "zzz\t0\n", 1),
    ("tokens", "[PAD]\t0\n[UNK]\t1\n", 3),
    ("relations", "[R_EL_INV]\t0\n[R_EL]\t1\n", 1),
    ("aliases", "a\t0\nzzz\t999\n", 2),
    ("aliases", "a\t0\nzzz\t-1\n", 2),
    ("aliases", "a\t0\nzzz 1\n", 2),
], ids=["tokens_missing_reserved", "tokens_end_before_reserved", "relations_reserved_out_of_order",
        "alias_id_out_of_range", "alias_id_negative", "alias_without_tab"])
def test_checkpoint_rejects_bad_table(tmp_path, table, text, lineno):
    path = tmp_path / "bad.drgn"
    tiny_checkpoint(path, {table: text})
    with pytest.raises(ValueError, match=re.escape("%s (%s table):%d: " % (path, table, lineno))):
        pt.load_checkpoint(str(path))


def test_checkpoint_rejects_non_finite(tmp_path):
    params = {"w": nm.Tensor(np.zeros(3), requires_grad=True)}
    params["w"].values[0] = np.inf
    with pytest.raises(nm.NumericError):
        pt.save_checkpoint(str(tmp_path / "x.drgn"), params, Vocab(RESERVED_TOKENS),
                           EntityVocab(), Vocab(RESERVED_RELATIONS))
