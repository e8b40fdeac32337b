"""Corruption ops, scoring oracles, loss hand-cases, optimizer behavior,
training-loop contracts, and checkpoint persistence."""

import numpy as np
import pytest

from dragonforge import numerics as nm
from dragonforge import pretrain as pt
from dragonforge.encoder import EncoderConfig
from dragonforge.evaluation import generate_synthetic_world
from dragonforge.kg_store import R_EL
from dragonforge.retrieval import INT, MASK, PAD, SEP, LocalKG, TextSegment, V_INT, dummy_local_kg


def make_segment(ids):
    return TextSegment([INT] + list(ids), [(-1, -1)] * (len(ids) + 1))


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
    seg = TextSegment([INT, SEP, PAD], [(-1, -1)] * 3)
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
    return LocalKG(nodes=[V_INT, 10, 11, 12], edges=[(0, R_EL, 1), (1, 2, 2)], linked={10})


def test_holdout_forces_single_edge():
    reduced, holdout = pt.hold_out_edges(one_edge_local(), 0.15, 2, nm.split_rng(0, "h"))
    assert holdout.positives == [(1, 2, 2)]
    assert all(e[1] == R_EL for e in reduced.edges)


def test_holdout_binomial_statistics():
    n_edges = 100_000
    edges = [(0, R_EL, 1)] + [(1 + (i % 3), 2, 1 + ((i + 1) % 3)) for i in range(n_edges)]
    local = LocalKG(nodes=[V_INT, 10, 11, 12], edges=edges, linked={10})
    _, holdout = pt.hold_out_edges(local, 0.15, 1, nm.split_rng(1, "h"))
    assert abs(len(holdout) / n_edges - 0.15) < 0.01


def test_holdout_never_drops_interaction_edges():
    for trial in range(200):
        local = LocalKG(nodes=[V_INT, 10, 11, 12],
                        edges=[(0, R_EL, 1), (0, R_EL, 2), (1, 2, 2), (2, 2, 3), (3, 2, 1)],
                        linked={10, 11})
        reduced, holdout = pt.hold_out_edges(local, 0.9, 1, nm.split_rng(2, "h", trial))
        assert all(e[1] != R_EL for e in holdout.positives)
        assert sum(1 for e in reduced.edges if e[1] == R_EL) == 2


def test_negatives_differ_in_exactly_one_endpoint():
    local = LocalKG(nodes=[V_INT, 10, 11, 12, 13],
                    edges=[(0, R_EL, 1), (1, 2, 2), (2, 3, 3), (3, 2, 4)], linked={10})
    _, holdout = pt.hold_out_edges(local, 1.0, 8, nm.split_rng(3, "h"))
    for pos, negs in zip(holdout.positives, holdout.negatives):
        for neg in negs:
            assert neg != pos
            assert neg[1] == pos[1]
            assert (neg[0] == pos[0]) != (neg[2] == pos[2])
            assert neg[0] != 0 and neg[2] != 0  # interaction node never sampled


def test_holdout_dummy_graph_flagged():
    _, holdout = pt.hold_out_edges(dummy_local_kg(), 0.15, 2, nm.split_rng(4, "h"))
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


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def fixed_phi_loss(phi_pos, phi_neg, n, margin=0.0):
    """Scalar oracle with the stable log-sigmoid."""
    def logsig(x):
        return min(x, 0.0) - np.log1p(np.exp(-abs(x)))
    return -logsig(phi_pos + margin) + sum(logsig(p + margin) for p in phi_neg) / n


def test_linkpred_loss_hand_case_extreme():
    # distmult with unit relation: phi = <h, 1, t> = h . t
    head = head_for("distmult", d=2)
    head.relations.values[0] = 1.0
    node_vecs = nm.constant(np.array([[0.0, 0.0],
                                      [4.0, 2.0], [5.0, 0.0],      # pos pair: 20
                                      [-4.0, 2.0], [5.0, 0.0]]))   # neg pair: -20
    holdout = pt.EdgeHoldout(positives=[(1, 0, 2)], negatives=[[(3, 0, 4)]])
    loss = pt.linkpred_loss([(holdout, 0)], node_vecs, head).item()
    assert loss == pytest.approx(-20.0, abs=1e-4)
    assert loss == pytest.approx(fixed_phi_loss(20.0, [-20.0], 1), abs=1e-6)


def test_linkpred_loss_symmetric_cancellation():
    head = head_for("distmult", d=2)
    head.relations.values[0] = 1.0
    node_vecs = nm.constant(np.zeros((4, 2)))
    holdout = pt.EdgeHoldout(positives=[(1, 0, 2)], negatives=[[(1, 0, 3), (2, 0, 3)]])
    assert pt.linkpred_loss([(holdout, 0)], node_vecs, head).item() == pytest.approx(0.0, abs=1e-7)


def test_linkpred_loss_gradient_wrt_node_vectors():
    rng = np.random.default_rng(17)
    holdout = pt.EdgeHoldout(positives=[(1, 0, 2), (3, 1, 1)],
                             negatives=[[(1, 0, 3), (4, 0, 2)], [(3, 1, 4), (2, 1, 1)]])

    def fn(ts):
        node_vecs, rel = ts
        head = pt.LinkPredHead(scorer="distmult", margin=0.0, relations=rel)
        return pt.linkpred_loss([(holdout, 0)], node_vecs, head)

    err = nm.check_gradients(fn, [rng.normal(size=(5, 6)), rng.normal(size=(2, 6))])
    assert err < 1e-4, err


def test_mlm_loss_uniform_and_onehot():
    params = {"lm.mlm_head.w": nm.Tensor(np.zeros((4, 100)), requires_grad=True),
              "lm.mlm_head.b": nm.Tensor(np.zeros(100), requires_grad=True)}
    tokens = nm.constant(np.random.default_rng(19).normal(size=(6, 4)))
    plan = pt.MaskingPlan(positions=[1, 3], original_ids=[7, 42])
    assert pt.mlm_loss([(plan, 0)], tokens, params).item() == pytest.approx(np.log(100), abs=1e-4)
    params["lm.mlm_head.b"].values[7] = 1e4  # force the head toward token 7
    plan7 = pt.MaskingPlan(positions=[2], original_ids=[7])
    assert pt.mlm_loss([(plan7, 0)], tokens, params).item() == pytest.approx(0.0, abs=1e-6)


def test_mlm_loss_against_direct_oracle():
    with nm.float64_mode():
        rng = np.random.default_rng(23)
        w = rng.normal(size=(4, 30))
        b = rng.normal(size=30)
        hvecs = rng.normal(size=(7, 4))
        params = {"lm.mlm_head.w": nm.Tensor(w), "lm.mlm_head.b": nm.Tensor(b)}
        plan = pt.MaskingPlan(positions=[0, 4, 6], original_ids=[3, 12, 25])
        got = pt.mlm_loss([(plan, 0)], nm.Tensor(hvecs), params).item()
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
        singles = [pt.mlm_loss([(plan, 0)], nm.Tensor(tokens[5 * i:5 * i + 5]), params).item()
                   for i, plan in enumerate(plans)]
        batched = pt.mlm_loss([(plans[0], 0), (plans[1], 5)], nm.Tensor(tokens), params).item()
        assert batched == pytest.approx(np.mean(singles), abs=1e-12)

        head = head_for("distmult", d=6, n_rel=2)
        nodes = rng.normal(size=(9, 6))             # graphs of 4 and 5 nodes
        holdouts = [pt.EdgeHoldout([(1, 0, 2), (3, 1, 1)], [[(1, 0, 3)], [(2, 1, 1)]]),
                    pt.EdgeHoldout([(2, 1, 4)], [[(1, 1, 4), (2, 1, 3), (3, 1, 4)]])]
        singles = [pt.linkpred_loss([(holdouts[0], 0)], nm.Tensor(nodes[:4]), head).item(),
                   pt.linkpred_loss([(holdouts[1], 0)], nm.Tensor(nodes[4:]), head).item()]
        batched = pt.linkpred_loss([(holdouts[0], 0), (holdouts[1], 4)], nm.Tensor(nodes), head).item()
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
    holdout = pt.EdgeHoldout(positives=[(1, 0, 2)], negatives=[[(3, 0, 4)]])

    def phis():
        pos = score(nodes.values[1], 0, nodes.values[2], head)
        neg = score(nodes.values[3], 0, nodes.values[4], head)
        return pos, neg

    before_pos, before_neg = phis()
    opt = pt.Optimizer(params, lr_lm=1e-3, lr_other=1e-3, total_steps=1, warmup_ratio=0.0)
    with nm.ComputationTape() as tape:
        tape.backward(pt.linkpred_loss([(holdout, 0)], nodes, head))
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
    holdout = pt.EdgeHoldout(positives=[(1, 0, 2)], negatives=[[(3, 0, 4)]])
    opt = pt.Optimizer(params, 1e-2, 1e-2, total_steps=5, warmup_ratio=0.0)
    for step in range(5):
        with nm.ComputationTape() as tape:
            tape.backward(pt.linkpred_loss([(holdout, 0)], nodes, head))
        opt.step(step)
        opt.zero_grad()
        # parameters are angles: the rotation modulus is 1 by construction,
        # with only float rounding between it and the stored value
        angles = rel.values.astype(np.float64)
        modulus = np.cos(angles) ** 2 + np.sin(angles) ** 2
        np.testing.assert_allclose(modulus, 1.0, atol=1e-12)
        assert rel.values.shape == (2, 4)  # d/2 phases, not d components


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


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def small_world():
    return generate_synthetic_world(n_entities=40, n_relations=3, n_facts=240,
                                    leak_rate=0.1, seed=2, structure="flat")


def small_setup():
    world = small_world()
    kg, entities, relations = world.build_kg()
    tv = world.build_token_vocab()
    enc_cfg = EncoderConfig(n_unimodal=1, n_fusion=2, d_text=32, d_node=16, heads_text=2,
                            heads_gnn=2, d_mint_hidden=32, dropout=0.1, max_seq_len=48,
                            max_nodes=10)
    return world, kg, entities, relations, tv, enc_cfg


def test_train_reduces_mlm_loss():
    world, kg, entities, relations, tv, enc_cfg = small_setup()
    cfg = pt.PretrainConfig(steps=200, batch_size=4, n_negatives=4, seed=3)
    _, metrics = pt.train(world.raw_segments("train"), kg, entities, relations, tv,
                          enc_cfg, cfg)
    first = np.mean([m["loss_mlm"] for m in metrics[:10]])
    last = np.mean([m["loss_mlm"] for m in metrics[-10:]])
    assert last < first


def test_mlm_only_mode_reports_zero_lp_loss():
    world, kg, entities, relations, tv, enc_cfg = small_setup()
    cfg = pt.PretrainConfig(steps=5, batch_size=2, objective="mlm_only", seed=4)
    _, metrics = pt.train(world.raw_segments("train"), kg, entities, relations, tv,
                          enc_cfg, cfg)
    assert all(m["loss_lp"] == 0.0 for m in metrics)


def test_linkpred_only_mode_reports_zero_mlm_loss():
    world, kg, entities, relations, tv, enc_cfg = small_setup()
    cfg = pt.PretrainConfig(steps=5, batch_size=2, objective="linkpred_only", seed=4)
    _, metrics = pt.train(world.raw_segments("train"), kg, entities, relations, tv,
                          enc_cfg, cfg)
    assert all(m["loss_mlm"] == 0.0 for m in metrics)


def test_train_determinism_identical_metrics():
    world, kg, entities, relations, tv, enc_cfg = small_setup()
    cfg = pt.PretrainConfig(steps=8, batch_size=2, n_negatives=2, seed=5)
    _, m1 = pt.train(world.raw_segments("train"), kg, entities, relations, tv, enc_cfg, cfg)
    _, m2 = pt.train(world.raw_segments("train"), kg, entities, relations, tv, enc_cfg, cfg)
    assert m1 == m2


def test_loss_additivity_every_step():
    world, kg, entities, relations, tv, enc_cfg = small_setup()
    cfg = pt.PretrainConfig(steps=12, batch_size=3, n_negatives=2, seed=6)
    _, metrics = pt.train(world.raw_segments("train"), kg, entities, relations, tv,
                          enc_cfg, cfg)
    for m in metrics:
        assert abs(m["loss"] - (m["loss_mlm"] + m["loss_lp"])) < 1e-5


def test_divergence_aborts_and_keeps_last_checkpoint(tmp_path):
    world, kg, entities, relations, tv, enc_cfg = small_setup()
    ckpt = str(tmp_path / "ck.drgn")
    cfg = pt.PretrainConfig(steps=30, batch_size=2, seed=7, lr_lm=1e8, lr_other=1e8,
                            checkpoint_every=1, warmup_ratio=0.0)
    with pytest.raises(pt.TrainingDiverged):
        with np.errstate(all="ignore"):
            pt.train(world.raw_segments("train"), kg, entities, relations, tv, enc_cfg,
                     cfg, checkpoint_path=ckpt)
    params, *_ = pt.load_checkpoint(ckpt)
    assert all(np.isfinite(p.values).all() for p in params.values())


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    world, kg, entities, relations, tv, enc_cfg = small_setup()
    cfg = pt.PretrainConfig(steps=2, batch_size=2, seed=8)
    path = str(tmp_path / "model.drgn")
    params, _ = pt.train(world.raw_segments("train"), kg, entities, relations, tv,
                         enc_cfg, cfg, checkpoint_path=path, config_text="a.b = 1\n")
    loaded, tv2, ents2, rels2, text = pt.load_checkpoint(path)
    assert text == "a.b = 1\n"
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert loaded[k].values.tobytes() == params[k].values.tobytes(), k
    assert tv2.tokens == tv.tokens
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
    from dragonforge.retrieval import TokenVocab
    from dragonforge.kg_store import EntityVocab, RelationVocab
    pt.save_checkpoint(str(good), params, TokenVocab(), EntityVocab(), RelationVocab())
    assert good.read_bytes()[:4] == b"DRGN"


def test_checkpoint_write_failure_keeps_previous_checkpoint(tmp_path, monkeypatch):
    from dragonforge.retrieval import TokenVocab
    from dragonforge.kg_store import EntityVocab, RelationVocab
    path = tmp_path / "model.drgn"
    vocabs = (TokenVocab(), EntityVocab(), RelationVocab())
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


def test_checkpoint_rejects_non_finite(tmp_path):
    from dragonforge.retrieval import TokenVocab
    from dragonforge.kg_store import EntityVocab, RelationVocab
    params = {"w": nm.Tensor(np.zeros(3), requires_grad=True)}
    params["w"].values[0] = np.inf
    with pytest.raises(nm.NumericError):
        pt.save_checkpoint(str(tmp_path / "x.drgn"), params, TokenVocab(),
                           EntityVocab(), RelationVocab())
