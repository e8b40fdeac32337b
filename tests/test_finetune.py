"""Pooling head oracles, MCQA scoring contracts, and low-resource subsampling."""

import json

import numpy as np
import pytest

from dragonforge import numerics as nm
from dragonforge import finetune as ft
from dragonforge import retrieval
from dragonforge.encoder import EncoderConfig, EncoderOutput, init_params
from dragonforge.evaluation import generate_synthetic_world
from dragonforge.kg_store import R_EL, load_kg
from dragonforge.retrieval import (INT, LocalKG, Retriever, TextSegment, V_INT, build_vocab,
                                   segment_corpus)


def fake_output(h_int, node_rows):
    tokens = nm.constant(np.vstack([h_int, np.zeros_like(h_int)]))
    nodes = nm.constant(np.vstack(node_rows))
    return EncoderOutput(tokens=tokens, nodes=nodes, graph_attention=[], max_len=2,
                         node_offsets=np.array([0, len(node_rows)]))


def pool_params(dt, dn, seed=0):
    params = {}
    cfg = EncoderConfig(n_unimodal=1, n_fusion=1, d_text=dt, d_node=dn,
                        heads_text=1, heads_gnn=1, d_mint_hidden=4,
                        max_seq_len=4, max_nodes=4)
    ft.add_pooling_head(params, cfg, seed)
    return params


def test_pool_singleton_graph_returns_node_exactly():
    params = pool_params(4, 4)
    v1 = np.array([0.3, -1.0, 2.0, 0.5])
    out = fake_output(np.ones((1, 4)), [np.zeros(4), v1])
    _, alpha = ft.pool(out, params)
    np.testing.assert_allclose(alpha, [1.0])
    # G equals the single node vector: verify through the perceptron input
    # by recomputing with the formula oracle below
    x, _ = ft.pool(out, params)
    z = np.concatenate([np.ones(4), np.zeros(4), v1])[None, :]
    hid = 0.5 * (z @ params["other.pool.mlp.w1"].values + params["other.pool.mlp.b1"].values)
    # gelu applied exactly in the op; just check shape and determinism here
    assert x.shape == (1, 1)


def test_pool_identical_nodes_uniform_attention():
    params = pool_params(4, 4)
    row = np.array([0.1, 0.2, 0.3, 0.4])
    out = fake_output(np.ones((1, 4)), [np.zeros(4)] + [row] * 5)
    _, alpha = ft.pool(out, params)
    np.testing.assert_allclose(alpha, 0.2, atol=1e-6)


def test_pool_against_formula_oracle():
    with nm.float64_mode():
        rng = np.random.default_rng(5)
        params = pool_params(6, 4, seed=3)
        h_int = rng.normal(size=(1, 6))
        nodes = rng.normal(size=(6, 4))  # v_int + 5 nodes
        out = fake_output(h_int, list(nodes))
        x, alpha = ft.pool(out, params)

        wq = params["other.pool.wq"].values
        wk = params["other.pool.wk"].values
        q = h_int @ wq
        k = nodes[1:] @ wk
        logits = (q @ k.T) / np.sqrt(4)
        e = np.exp(logits - logits.max())
        alpha_oracle = (e / e.sum()).reshape(-1)
        assert np.abs(alpha - alpha_oracle).max() < 1e-6
        g = alpha_oracle @ nodes[1:]
        z = np.concatenate([h_int[0], nodes[0], g])[None, :]
        c = np.sqrt(2 / np.pi)
        hid_in = z @ params["other.pool.mlp.w1"].values + params["other.pool.mlp.b1"].values
        hid = 0.5 * hid_in * (1 + np.tanh(c * (hid_in + 0.044715 * hid_in ** 3)))
        x_oracle = hid @ params["other.pool.mlp.w2"].values + params["other.pool.mlp.b2"].values
        assert np.abs(x.values - x_oracle).max() < 1e-6


def test_pool_attention_sums_to_one():
    params = pool_params(4, 4, seed=9)
    rng = np.random.default_rng(11)
    out = fake_output(rng.normal(size=(1, 4)), list(rng.normal(size=(7, 4))))
    _, alpha = ft.pool(out, params)
    assert abs(alpha.sum() - 1.0) < 1e-5


def test_pool_gradient_check():
    rng = np.random.default_rng(13)
    names = ["other.pool.wq", "other.pool.wk", "other.pool.mlp.w1",
             "other.pool.mlp.b1", "other.pool.mlp.w2", "other.pool.mlp.b2"]
    shapes = [(4, 3), (3, 3), (4 + 6, 4), (4,), (4, 1), (1,)]
    h_int = rng.normal(size=(1, 4))
    nodes = rng.normal(size=(5, 3))

    def fn(ts):
        params = dict(zip(names, ts))
        out = fake_output(h_int, list(nodes))
        x, _ = ft.pool(out, params)
        return nm.reduce_sum(x)

    err = nm.check_gradients(fn, [rng.normal(size=s) for s in shapes])
    assert err < 1e-4, err


def test_pool_dummy_graph_single_zero_node():
    params = pool_params(4, 4)
    out = fake_output(np.ones((1, 4)), [np.zeros(4), np.zeros(4)])
    x, alpha = ft.pool(out, params)
    np.testing.assert_allclose(alpha, [1.0])
    assert np.isfinite(x.values).all()


def test_pool_of_a_batch_matches_pool_of_each_example():
    with nm.float64_mode():
        rng = np.random.default_rng(15)
        params = pool_params(4, 3, seed=2)
        examples = [(rng.normal(size=(1, 4)), list(rng.normal(size=(n, 3)))) for n in (2, 5, 3)]
        singles = [ft.pool(fake_output(h, rows), params) for h, rows in examples]
        max_len = 3
        tokens = np.zeros((max_len * len(examples), 4))
        for b, (h, _) in enumerate(examples):
            tokens[b * max_len] = h[0]
        nodes = np.vstack([np.vstack(rows) for _, rows in examples])
        out = EncoderOutput(tokens=nm.Tensor(tokens), nodes=nm.Tensor(nodes), graph_attention=[],
                            max_len=max_len, node_offsets=np.array([0, 2, 7, 10]))
        x, alpha = ft.pool(out, params)
        np.testing.assert_allclose(x.values[:, 0], [s[0].values[0, 0] for s in singles], atol=1e-12)
        np.testing.assert_allclose(alpha, np.concatenate([s[1] for s in singles]), atol=1e-12)


# ---------------------------------------------------------------------------
# dataset handling
# ---------------------------------------------------------------------------

def test_load_mcqa_and_errors(tmp_path):
    good = tmp_path / "d.jsonl"
    good.write_text(json.dumps({"question": "q", "choices": ["a", "b"], "gold": 1}) + "\n",
                    encoding="utf-8")
    data = ft.load_mcqa(str(good))
    assert data[0].gold == 1

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"question": "q", "choices": ["a", "b"]}) + "\n", encoding="utf-8")
    with pytest.raises(ft.DataError, match=":1:"):
        ft.load_mcqa(str(bad))

    out_of_range = tmp_path / "oor.jsonl"
    out_of_range.write_text(json.dumps({"question": "q", "choices": ["a", "b"], "gold": 5}) + "\n",
                            encoding="utf-8")
    with pytest.raises(ft.DataError):
        ft.load_mcqa(str(out_of_range))

    single = tmp_path / "single.jsonl"
    single.write_text(json.dumps({"question": "q", "choices": ["a"], "gold": 0}) + "\n",
                      encoding="utf-8")
    with pytest.raises(ft.DataError):
        ft.load_mcqa(str(single))

    # no silent coercion: choices must be a list of strings, gold an integer
    for i, rec in enumerate([{"question": "q", "choices": "ptvl", "gold": 1},
                             {"question": "q", "choices": ["a", 2], "gold": 1},
                             {"question": "q", "choices": ["a", "b"], "gold": 1.0},
                             {"question": "q", "choices": ["a", "b"], "gold": 1.5},
                             {"question": "q", "choices": ["a", "b"], "gold": True},
                             {"question": 7, "choices": ["a", "b"], "gold": 1}]):
        coerced = tmp_path / ("coerced%d.jsonl" % i)
        coerced.write_text("\n" + json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(ft.DataError, match="coerced%d.jsonl:2:" % i):
            ft.load_mcqa(str(coerced))


def test_subsample_exact_count_and_seeded():
    examples = [ft.MCQAExample("q%d" % i, ["a", "b"], 0) for i in range(37)]
    picked = ft.subsample(examples, 0.1, seed=4)
    assert len(picked) == int(np.ceil(0.1 * 37))
    again = ft.subsample(examples, 0.1, seed=4)
    assert [e.question for e in picked] == [e.question for e in again]
    other = ft.subsample(examples, 0.1, seed=5)
    assert [e.question for e in picked] != [e.question for e in other]
    assert ft.subsample(examples, 1.0, seed=0) == examples


# ---------------------------------------------------------------------------
# end-to-end scoring contracts
# ---------------------------------------------------------------------------

def retriever(kg, entities, relations, tv, enc_cfg):
    return Retriever(kg, entities, relations, tv, enc_cfg.max_seq_len, enc_cfg.max_nodes)


def qa_setup(out, seed=6):
    """A small world with its KG and vocabularies read from the files it
    writes under out, and a model with a pooling head."""
    world = generate_synthetic_world(n_entities=50, n_relations=5, n_facts=320,
                                     leak_rate=0.15, seed=seed)
    files = world.write_files(str(out))
    kg, entities, relations = load_kg(files["kg.tsv"], files["aliases.tsv"])
    enc_cfg = EncoderConfig(n_unimodal=1, n_fusion=2, d_text=32, d_node=16,
                            heads_text=2, heads_gnn=2, d_mint_hidden=32, dropout=0.1,
                            max_seq_len=32, max_nodes=10)
    tv = build_vocab(segment_corpus(files["corpus.txt"], enc_cfg.max_seq_len), min_freq=2)
    params = init_params(enc_cfg, seed, len(tv), len(entities), len(relations))
    ft.add_pooling_head(params, enc_cfg, seed)
    return world, kg, entities, relations, tv, enc_cfg, params


def test_choice_order_invariance_of_argmax(tmp_path):
    world, kg, entities, relations, tv, enc_cfg, params = qa_setup(tmp_path)
    data = world.mcqa_dataset()["dev"]
    rng = np.random.default_rng(7)
    rt = retriever(kg, entities, relations, tv, enc_cfg)
    for i, ex in enumerate(data[:6]):
        inputs = ft.prepare_choice_inputs(ex, rt, 0, i)
        logits = ft.choice_logits([inputs], params, enc_cfg)
        perm = rng.permutation(len(ex.choices)).tolist()
        permuted = ft.MCQAExample(ex.question, [ex.choices[p] for p in perm],
                                  perm.index(ex.gold))
        inputs2 = ft.prepare_choice_inputs(permuted, rt, 0, i)
        logits2 = ft.choice_logits([inputs2], params, enc_cfg)
        np.testing.assert_allclose(logits2.values[0], logits.values[0][perm], atol=1e-5)


def test_mixed_choice_counts_in_one_batch_score_as_alone(tmp_path):
    world, kg, entities, relations, tv, enc_cfg, params = qa_setup(tmp_path)
    rt = retriever(kg, entities, relations, tv, enc_cfg)
    questions = [ft.MCQAExample("beva likes", world.entity_names[:2], 0),
                 ft.MCQAExample("beva likes", world.entity_names[2:7], 3),
                 ft.MCQAExample(world.entity_names[7] + " likes", world.entity_names[8:10], 1)]
    inputs = [ft.prepare_choice_inputs(ex, rt, 3, i) for i, ex in enumerate(questions)]
    table = ft.choice_logits(inputs, params, enc_cfg).values
    assert table.shape == (3, 5)
    for q, alone_inputs in enumerate(inputs):
        n = len(alone_inputs)
        alone = ft.choice_logits([alone_inputs], params, enc_cfg).values
        assert alone.shape == (1, n)
        np.testing.assert_allclose(table[q, :n], alone[0], rtol=0, atol=1e-6)
        assert np.argmax(table[q]) == np.argmax(alone[0])
        np.testing.assert_array_equal(table[q, n:], nm.NEG_FILL)
    # a padded cell never wins, even when every real logit is far below zero
    params["other.pool.mlp.b2"].values[:] = -1e8
    table = ft.choice_logits(inputs, params, enc_cfg).values
    assert all(np.argmax(row) < len(q) for row, q in zip(table, inputs))


def test_untrained_model_scores_near_chance(tmp_path):
    world, kg, entities, relations, tv, enc_cfg, params = qa_setup(tmp_path)
    data = world.mcqa_dataset()
    examples = data["train"] + data["dev"] + data["test"]
    report = ft.evaluate_mcqa(examples, retriever(kg, entities, relations, tv, enc_cfg), params,
                              enc_cfg, ft.FinetuneConfig())
    assert report["n"] == len(examples)
    assert abs(report["accuracy"] - 0.25) < 0.1


def test_variable_choice_counts_allowed(tmp_path):
    world, kg, entities, relations, tv, enc_cfg, params = qa_setup(tmp_path)
    a = ft.MCQAExample("beva likes", [world.entity_names[0], world.entity_names[1]], 0)
    b = ft.MCQAExample("beva likes", world.entity_names[:5], 2)
    report = ft.evaluate_mcqa([a, b], retriever(kg, entities, relations, tv, enc_cfg), params,
                              enc_cfg, ft.FinetuneConfig())
    assert report["per_choice_count"] == {"2": 1, "5": 1}


def test_finetune_reduces_loss_and_freezes_lm(tmp_path):
    world, kg, entities, relations, tv, enc_cfg, params = qa_setup(tmp_path)
    data = world.mcqa_dataset()
    lm_before = params["lm.tok_emb"].values.copy()
    node_before = params["node_emb.table"].values.copy()
    cfg = ft.FinetuneConfig(epochs=3, batch_size=4, freeze_lm_epochs=3, seed=8,
                            lr_other=3e-3)
    params2, history, _ = ft.finetune_mcqa(data["train"], data["dev"],
                                        retriever(kg, entities, relations, tv, enc_cfg),
                                        params, enc_cfg, cfg)
    assert len(history) == 3
    assert history[-1]["train_loss"] < history[0]["train_loss"]
    # LM component stayed frozen throughout; the graph side trained
    np.testing.assert_array_equal(params["lm.tok_emb"].values, lm_before)
    assert not np.array_equal(params["node_emb.table"].values, node_before)


def test_finetune_retrieves_each_question_once_over_its_epochs(tmp_path, monkeypatch):
    world, kg, entities, relations, tv, enc_cfg, params = qa_setup(tmp_path)
    data = world.mcqa_dataset()
    train, dev = data["train"][:5], data["dev"][:3]
    retrieved = []
    prepare = ft.prepare_choice_inputs

    def spy_prepare(ex, rt, seed, example_idx):
        retrieved.append((ex.question, example_idx))
        return prepare(ex, rt, seed, example_idx)

    monkeypatch.setattr(ft, "prepare_choice_inputs", spy_prepare)
    cfg = ft.FinetuneConfig(epochs=2, batch_size=2, seed=8)
    ft.finetune_mcqa(train, dev, retriever(kg, entities, relations, tv, enc_cfg), params,
                     enc_cfg, cfg)
    assert len(retrieved) == len(train) + len(dev)
    assert len(set(retrieved)) == len(retrieved)


def test_evaluate_mcqa_memo_reuses_inputs_and_keeps_the_report(tmp_path):
    world, kg, entities, relations, tv, enc_cfg, params = qa_setup(tmp_path)
    dev = world.mcqa_dataset()["dev"][:5]
    rt = retriever(kg, entities, relations, tv, enc_cfg)
    cfg = ft.FinetuneConfig(batch_size=2, seed=4)
    memo = {}
    report = ft.evaluate_mcqa(dev, rt, params, enc_cfg, cfg, memo)
    assert memo == {i: ft.prepare_choice_inputs(ex, rt, cfg.seed, i) for i, ex in enumerate(dev)}
    kept = dict(memo)
    assert ft.evaluate_mcqa(dev, rt, params, enc_cfg, cfg, memo) == report
    assert ft.evaluate_mcqa(dev, rt, params, enc_cfg, cfg) == report
    assert all(memo[i] is kept[i] for i in kept)


def test_finetune_step_sets_up_one_stream_per_question_and_choice(tmp_path, monkeypatch):
    world, kg, entities, relations, tv, enc_cfg, params = qa_setup(tmp_path)
    train = world.mcqa_dataset()["train"][:3]
    train[1] = ft.MCQAExample(train[1].question, train[1].choices[:2], 0)
    names = []
    split_rng = nm.split_rng

    def counting_split_rng(seed, name, *indices):
        names.append(name)
        return split_rng(seed, name, *indices)

    factory_calls = []   # per retrieval, how often it built its stream
    retrieve = retrieval.retrieve_local_kg

    def spy_retrieve(v_el, g, max_nodes, make_rng):
        calls = [0]

        def counted():
            calls[0] += 1
            return make_rng()

        local = retrieve(v_el, g, max_nodes, counted)
        factory_calls.append(calls[0])
        return local

    monkeypatch.setattr(nm, "split_rng", counting_split_rng)
    monkeypatch.setattr(retrieval, "retrieve_local_kg", spy_retrieve)
    cfg = ft.FinetuneConfig(epochs=1, batch_size=3, seed=8)
    # 3 nodes: some choices' retrievals sample, the others keep every node
    ft.finetune_mcqa(train, [], Retriever(kg, entities, relations, tv, enc_cfg.max_seq_len, 3),
                     params, enc_cfg, cfg)
    n_choices = sum(len(ex.choices) for ex in train)
    n_sampling = sum(factory_calls)
    assert len(factory_calls) == n_choices and max(factory_calls) == 1
    assert 0 < n_sampling < n_choices
    # the training subset's draw; then one step: the epoch's order, per
    # question one seed stream for all its choices and one retrieval stream
    # per choice whose retrieval samples, then one dropout stream per choice
    assert sorted(names) == sorted(["ft_subsample", "ft_order"] + ["ft_retrieval"] * n_sampling
                                   + ["ft_step"] * len(train) + ["dropout"] * n_choices)

