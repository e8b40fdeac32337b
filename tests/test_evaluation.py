"""Ranking metrics, synthetic-world properties, filtered-ranking oracle and
attention export."""

import itertools
import json
from functools import partial

import numpy as np
import pytest

from dragonforge import evaluation as ev
from dragonforge import numerics as nm
from dragonforge import pretrain as pt
from dragonforge.cli import DEFAULTS
from dragonforge.encoder import EncoderConfig, init_params
from dragonforge.finetune import add_pooling_head
from dragonforge.kg_store import DIR_OUT, load_kg
from dragonforge.retrieval import (Retriever, build_alias_index, build_vocab, link_entities,
                                   retrieve_local_kg, segment_corpus)

def test_average_rank_tie_breaking():
    assert ev.average_rank(np.array([3.0, 2.0, 1.0]), 0) == 1.0
    assert ev.average_rank(np.array([3.0, 2.0, 1.0]), 2) == 3.0
    assert ev.average_rank(np.array([1.0, 1.0, 1.0]), 1) == 2.0
    assert ev.average_rank(np.array([2.0, 1.0, 1.0]), 2) == 2.5


def test_report_monotonicity_enforced():
    ranks = [1.0, 2.0, 4.0, 11.0, 3.0]
    report = ev.ranks_to_report(ranks, [12] * 5, skipped=0)
    assert report.hits1 <= report.hits3 <= report.hits10 <= 1.0
    assert report.hits1 == pytest.approx(1 / 5)
    assert report.hits3 == pytest.approx(3 / 5)
    assert report.hits10 == pytest.approx(4 / 5)
    assert report.mean_rank == pytest.approx(np.mean(ranks))


def test_perfect_scorer_yields_unit_metrics():
    ranks = [1.0] * 20
    report = ev.ranks_to_report(ranks, [4] * 20, skipped=0)
    assert report.hits1 == 1.0 and report.mrr == 1.0


def test_chance_floor_matches_every_permutation_of_small_candidate_sets():
    # a uniformly random order of n candidates: each of the n! orders of n
    # distinct scores is equally likely, and average_rank (the evaluation's
    # tie-breaking rule) places the gold
    counts = [2, 3, 4, 5, 6, 6, 2]
    rr, hit3 = [], []
    for n in counts:
        ranks = [ev.average_rank(np.array(order, dtype=np.float64), 0)
                 for order in itertools.permutations(range(n))]
        rr.append(np.mean([1.0 / r for r in ranks]))
        hit3.append(np.mean([r <= 3.0 for r in ranks]))
    # the floor depends on the candidate counts, not on the ranks reached
    report = ev.ranks_to_report([1.0, 3.0, 2.5, 5.0, 6.0, 1.0, 2.0], counts, 0)
    assert report.chance_mrr == pytest.approx(np.mean(rr), rel=1e-12)
    assert report.chance_hits3 == pytest.approx(np.mean(hit3), rel=1e-12)
    empty = ev.ranks_to_report([], [], 3)
    assert (empty.chance_mrr, empty.chance_hits3) == (0.0, 0.0)


def test_random_scorer_mrr_matches_harmonic_expectation():
    k = 10
    h_k = sum(1.0 / i for i in range(1, k + 1))
    rng = np.random.default_rng(3)
    ranks = []
    for _ in range(4000):
        scores = rng.normal(size=k)
        ranks.append(ev.average_rank(scores, int(rng.integers(k))))
    rr = 1.0 / np.array(ranks)
    expected = h_k / k
    ci = 4 * rr.std() / np.sqrt(len(rr))
    assert abs(rr.mean() - expected) < ci


# ---------------------------------------------------------------------------
# synthetic world properties
# ---------------------------------------------------------------------------

def test_leak_zero_puts_every_fact_in_both_modalities():
    world = ev.generate_synthetic_world(n_entities=40, n_relations=5, n_facts=200,
                                        leak_rate=0.0, seed=1)
    assert world.text_only == [] and world.kg_only == []
    assert len(world.overlap) == 200


def test_world_too_small_for_its_facts_fails_naming_n_facts():
    """Drawing distinct facts from too few entities used to loop forever."""
    with pytest.raises(ValueError, match="^n_facts: 60 distinct facts do not fit"):
        ev.generate_synthetic_world(n_entities=3, n_relations=5, n_facts=60, leak_rate=0.0)


@pytest.mark.parametrize("n_facts", [7, 0, 151])
def test_facts_that_are_not_whole_stories_fail_naming_n_facts(n_facts):
    with pytest.raises(ValueError, match="^n_facts: must be a positive multiple of 5, got %d$"
                                         % n_facts):
        ev.generate_synthetic_world(n_entities=30, n_relations=5, n_facts=n_facts)


@pytest.mark.parametrize("n_relations", [5, 8])
def test_leak_rate_that_withholds_every_derived_fact_of_a_relation_fails(n_relations):
    """At leak_rate 0.2 every derived fact is text-only, so the derived
    relations would be missing from the KG and eval-lp could rank none."""
    with pytest.raises(ValueError, match="^leak_rate: 0.2 withholds every '[a-z]+' fact from the KG$"):
        ev.generate_synthetic_world(n_entities=30, n_relations=n_relations, n_facts=150,
                                    leak_rate=0.2, seed=11)


def test_n_entities_is_bounded_by_the_distinct_names():
    """Every two- and three-syllable name is distinct and none is reserved, so
    N_ENTITY_NAMES names exist; more made the name draw loop forever."""
    syllables = [c + v for c in ev._CONSONANTS for v in ev._VOWELS]
    names = {"".join(p) for k in (2, 3) for p in itertools.product(syllables, repeat=k)}
    assert len(names) == ev.N_ENTITY_NAMES == 347_900
    assert not names & (set(ev.RELATION_POOL) | {"."})
    rng = np.random.default_rng(0)
    assert {ev._entity_name(rng) for _ in range(2000)} <= names
    with pytest.raises(ValueError, match=r"^n_entities: must be in \[3, 347900\], got 347901$"):
        ev.generate_synthetic_world(n_entities=ev.N_ENTITY_NAMES + 1)


def test_template_round_trip():
    world = ev.generate_synthetic_world(n_entities=30, n_relations=5, n_facts=100,
                                        leak_rate=0.1, seed=2)
    for doc in world.train_docs[:10]:
        for sentence in doc.split("\n"):
            head, rel, tail, dot = sentence.split(" ")
            fact = (head, rel, tail)
            assert dot == "."
            assert ev.render_sentence(*fact) == sentence
            assert fact in set(world.facts)


def test_alignment_map_is_total_and_correct():
    world = ev.generate_synthetic_world(n_entities=40, n_relations=5, n_facts=300,
                                        leak_rate=0.1, seed=3)
    for idx in world.overlap + world.text_only:
        text = world.aligned_text(idx)
        assert ev.render_sentence(*world.facts[idx]) in text
    for idx in world.kg_only:
        assert idx not in world.doc_of_fact
        sentence = ev.render_sentence(*world.facts[idx])
        assert all(sentence not in d for d in world.train_docs + world.eval_docs)


def test_splits_disjoint_and_cover():
    world = ev.generate_synthetic_world(n_entities=50, n_relations=5, n_facts=400,
                                        leak_rate=0.15, seed=4)
    a, b, c = set(world.overlap), set(world.text_only), set(world.kg_only)
    assert not (a & b) and not (a & c) and not (b & c)
    assert a | b | c == set(range(400))
    kg_facts = {world.facts[i] for i in world.kg_fact_indices()}
    for i in world.text_only:
        assert world.facts[i] not in kg_facts  # test triplets absent from the KG


@pytest.mark.parametrize("n_entities, n_facts, seed", [(3, 10, 0), (30, 150, 1), (100, 20, 3),
                                                     (500, 5000, 2)])
def test_both_entities_of_every_text_only_fact_are_in_the_kg(tmp_path, n_entities, n_facts, seed):
    """Entity linking resolves each link-prediction test triplet: text-only
    facts are derived facts, and their base facts are never withheld."""
    world = ev.generate_synthetic_world(n_entities=n_entities, n_relations=5, n_facts=n_facts,
                                        leak_rate=0.1, seed=seed)
    files = world.write_files(str(tmp_path))
    with open(files["kg.tsv"], encoding="utf-8") as fh:
        in_kg = {name for line in fh for name in line.rstrip("\n").split("\t")[::2]}
    assert len(world.text_only) == n_facts // 10   # half the derived facts
    for i in world.text_only:
        head, _, tail = world.facts[i]
        assert head in in_kg and tail in in_kg


def test_every_entity_reachable_by_linking(tmp_path):
    world = ev.generate_synthetic_world(n_entities=80, n_relations=5, n_facts=500,
                                        leak_rate=0.1, seed=6)
    files = world.write_files(str(tmp_path))
    _, entities, _ = load_kg(files["kg.tsv"], files["aliases.tsv"])
    assert len(entities) == 80


def test_mcqa_gold_is_kg_derivable_and_choices_unique(tmp_path):
    world = ev.generate_synthetic_world(n_entities=60, n_relations=5, n_facts=500,
                                        leak_rate=0.1, seed=7)
    files = world.write_files(str(tmp_path))
    kg, entities, relations = load_kg(files["kg.tsv"], files["aliases.tsv"])
    facts = set(world.facts)
    for ex in world.mcqa_dataset()["train"][:20]:
        h_name, r_name = ex.question.split()
        gold_name = ex.choices[ex.gold]
        assert ((relations.ids[r_name], entities.ids[gold_name], DIR_OUT)
                in kg.neighbors(entities.ids[h_name]))
        assert len(set(ex.choices)) == len(ex.choices)
        # no distractor answers the question, in either modality
        assert [c for c in ex.choices if (h_name, r_name, c) in facts] == [gold_name]


# ---------------------------------------------------------------------------
# link-prediction evaluation
# ---------------------------------------------------------------------------

class StubScorer:
    """Deterministic pseudo-random scores keyed by the global (head, rel,
    candidate) entity ids."""

    def __init__(self, gold_boost=None):
        self.gold_boost = gold_boost or set()

    def score(self, batch):
        scores = []
        for _, local, q in batch:
            h = local.nodes[q.head]
            scores += [1e6 if (h, q.rel, local.nodes[c]) in self.gold_boost
                       else float(nm.split_rng(0, "stub", h, q.rel, local.nodes[c]).random())
                       for c in q.candidates]
        return np.array(scores)


def retriever(kg, entities, relations, tv, enc_cfg):
    return Retriever(kg, entities, relations, tv, enc_cfg.max_seq_len, enc_cfg.max_nodes)


def lp_fixture(out):
    """A small world with its KG and vocabularies read from the files it
    writes under out, and a small encoder configuration."""
    # at leak_rate 0.2 every derived fact would be text-only, leaving the
    # derived relation out of the KG and every query unrankable
    world = ev.generate_synthetic_world(n_entities=50, n_relations=5, n_facts=350,
                                        leak_rate=0.1, seed=8)
    files = world.write_files(str(out))
    kg, entities, relations = load_kg(files["kg.tsv"], files["aliases.tsv"])
    enc_cfg = EncoderConfig(n_unimodal=1, n_fusion=1, d_text=16, d_node=8,
                            heads_text=2, heads_gnn=2, d_mint_hidden=16,
                            max_seq_len=48, max_nodes=12)
    tv = build_vocab(segment_corpus(files["corpus.txt"], enc_cfg.max_seq_len), min_freq=2)
    return world, kg, entities, relations, tv, enc_cfg


def test_gold_boosted_scorer_gets_perfect_metrics(tmp_path):
    world, kg, entities, relations, tv, enc_cfg = lp_fixture(tmp_path)
    queries = world.lp_queries()[:30]
    boost = {(entities.ids[q["head"]], relations.ids[q["rel"]],
              entities.ids[q["tail"]]) for q in queries}
    report = ev.eval_link_prediction(StubScorer(boost), queries, retriever(kg, entities, relations,
                                                                           tv, enc_cfg))
    assert report.n_queries > 0
    assert report.hits1 == 1.0 and report.mrr == 1.0


def test_filtered_ranking_matches_exhaustive_scan_oracle(tmp_path):
    world, kg, entities, relations, tv, enc_cfg = lp_fixture(tmp_path)
    queries = world.lp_queries()[:25]
    # the known-true triples: the KG file's and the queries', by name
    with open(str(tmp_path / "kg.tsv"), encoding="utf-8") as fh:
        known = [tuple(line.rstrip("\n").split("\t")) for line in fh]
    known += [(q["head"], q["rel"], q["tail"]) for q in queries]
    scorer = StubScorer()
    filtered = ev.eval_link_prediction(scorer, queries, retriever(kg, entities, relations, tv, enc_cfg))
    # independent oracle: replay retrieval, scan the known-true list to filter
    ranks, counts = [], []
    for qi, q in enumerate(queries):
        h, t = entities.ids[q["head"]], entities.ids[q["tail"]]
        r = relations.ids[q["rel"]]
        seg, v_el = link_entities(q["text"], build_alias_index(entities), tv)
        local = retrieve_local_kg(v_el, kg, enc_cfg.max_nodes, partial(nm.split_rng, 0, "lp_retrieval", qi))
        if local.is_dummy or h not in local.entity_ids() or t not in local.entity_ids():
            continue
        cands = []
        for c in local.entity_ids():
            if c == h:
                continue
            is_true_other = any(f == (q["head"], q["rel"], entities.names[c]) for f in known) and c != t
            if not is_true_other:
                cands.append(c)
        if t not in cands or len(cands) < 2:
            continue
        query = pt.LPQuery(local.local_index(h), r, [local.local_index(c) for c in cands],
                           local.local_index(t))
        scores = scorer.score([(seg, local, query)])
        ranks.append(ev.average_rank(scores, cands.index(t)))
        counts.append(len(cands))
    oracle = ev.ranks_to_report(ranks, counts, filtered.skipped)
    assert filtered.n_queries == oracle.n_queries
    assert filtered.mrr == pytest.approx(oracle.mrr)
    assert filtered.hits3 == pytest.approx(oracle.hits3)
    assert filtered.chance_mrr == pytest.approx(oracle.chance_mrr)


class RuleScorer:
    """Chains-world oracle: a candidate scores 1 when the query's retrieved
    graph reaches it from the head by the derived relation's base1 edge, then
    its base2 edge; every other candidate scores 0. Relation family i of the
    world is RELATION_POOL[3i:3i + 3] = (base1, base2, derived)."""

    def __init__(self, relations):
        self.relations = relations

    def score(self, batch):
        out = []
        for _, local, q in batch:
            family = ev.RELATION_POOL.index(self.relations.names[q.rel]) // 3 * 3
            base1, base2 = (self.relations.ids[ev.RELATION_POOL[family + k]] for k in (0, 1))
            mids = {t for h, r, t in local.edges if h == q.head and r == base1}
            reached = {t for h, r, t in local.edges if h in mids and r == base2}
            out += [float(c in reached) for c in q.candidates]
        return np.array(out)


def test_chains_world_link_prediction_is_solvable_from_the_retrieved_graph(tmp_path):
    # the CLI-default world at seed 1: the rule path to each test tail is in
    # the model's input, so a rule scorer ranks the gold first; a generator
    # change that breaks the paths fails here instead of flattening LP numbers
    files = ev.generate_synthetic_world(seed=1).write_files(str(tmp_path))
    kg, entities, relations = load_kg(files["kg.tsv"])
    tv = build_vocab(segment_corpus(files["corpus.txt"], EncoderConfig().max_seq_len),
                     min_freq=DEFAULTS["vocab.min_freq"])
    queries = [json.loads(line) for line in open(files["lp_test.jsonl"], encoding="utf-8")]
    report = ev.eval_link_prediction(RuleScorer(relations), queries,
                                     retriever(kg, entities, relations, tv, EncoderConfig()),
                                     seed=1, batch_size=8)
    assert report.n_queries >= 0.9 * len(queries)
    assert report.mrr >= 0.9


def test_contextual_scorer_runs_and_reports(tmp_path):
    world, kg, entities, relations, tv, enc_cfg = lp_fixture(tmp_path)
    scorer = contextual_scorer(enc_cfg, tv, entities, relations)
    report = ev.eval_link_prediction(scorer, world.lp_queries()[:15],
                                     retriever(kg, entities, relations, tv, enc_cfg))
    assert report.n_queries + report.skipped == 15
    assert report.hits1 <= report.hits3 <= report.hits10


def contextual_scorer(enc_cfg, tv, entities, relations, seed=0):
    params = init_params(enc_cfg, seed, len(tv), len(entities), len(relations))
    p_cfg = pt.PretrainConfig(scorer="distmult")
    pt.add_pretrain_heads(params, enc_cfg, p_cfg, len(tv), len(relations), seed)
    return ev.ContextualScorer(params, enc_cfg, pt.linkpred_head(params, p_cfg))


def test_contextual_scorer_batch_matches_each_query_alone(tmp_path):
    world, kg, entities, relations, tv, enc_cfg = lp_fixture(tmp_path)
    scorer = contextual_scorer(enc_cfg, tv, entities, relations)
    ret = retriever(kg, entities, relations, tv, enc_cfg)
    texts = [q["text"] for q in world.lp_queries()]
    names = world.entity_names
    # joined query texts (long, full graphs) and bare entity-name pairs (short,
    # smaller graphs): mixed text lengths and graph sizes
    inputs = [texts[:1], [" ".join(names[:2])], texts[1:4], [" ".join(names[5:7])],
              texts[4:6], [" ".join(names[10:13])]]
    batch = []
    for i, group in enumerate(inputs):
        seg, local = ret.inputs(group, partial(nm.split_rng, 1, "mixed", i))
        batch.append((seg, local, pt.LPQuery(1, i % len(relations), list(range(2, local.n_nodes)), 2)))
    assert len({seg.length for seg, _, _ in batch}) > 1
    assert len({local.n_nodes for _, local, _ in batch}) > 1
    assert max(len(local.entity_ids()) for _, local, _ in batch) == enc_cfg.max_nodes
    sizes = [len(q.candidates) for _, _, q in batch]
    flat = scorer.score(batch)
    assert flat.shape == (sum(sizes),)
    for item, scores in zip(batch, np.split(flat, np.cumsum(sizes)[:-1])):
        alone = scorer.score([item])
        np.testing.assert_allclose(scores, alone, rtol=0, atol=1e-6)
        assert list(np.argsort(-scores, kind="stable")) == list(np.argsort(-alone, kind="stable"))


def test_batched_link_prediction_report_equals_per_query_report(tmp_path):
    world, kg, entities, relations, tv, enc_cfg = lp_fixture(tmp_path)
    scorer = contextual_scorer(enc_cfg, tv, entities, relations, seed=2)
    unknown = {"head": "nobody", "rel": "likes", "tail": "nobody", "text": "nobody"}
    queries = world.lp_queries()[:21]
    queries = [x for i, q in enumerate(queries) for x in ([q, unknown] if i % 5 == 2 else [q])]
    sizes = []

    class Recording:
        def score(self, batch):
            sizes.append(len(batch))
            return scorer.score(batch)

    ret = retriever(kg, entities, relations, tv, enc_cfg)
    per_query = ev.eval_link_prediction(scorer, queries, ret, batch_size=1)
    batched = ev.eval_link_prediction(Recording(), queries, ret, batch_size=8)
    assert batched == per_query
    assert per_query.skipped >= 4 and per_query.n_queries % 8   # skips, then a partial batch
    assert sizes == [8] * (per_query.n_queries // 8) + [per_query.n_queries % 8]


# ---------------------------------------------------------------------------
# attention export
# ---------------------------------------------------------------------------

def test_dump_attention_parses_and_round_trips(tmp_path):
    world, kg, entities, relations, tv, enc_cfg = lp_fixture(tmp_path)
    params = init_params(enc_cfg, 3, len(tv), len(entities), len(relations))
    add_pooling_head(params, enc_cfg, 3)
    raw = segment_corpus(str(tmp_path / "corpus.txt"), enc_cfg.max_seq_len)[0]
    seg, v_el = link_entities(raw, build_alias_index(entities), tv)
    local = retrieve_local_kg(v_el, kg, enc_cfg.max_nodes, partial(nm.split_rng, 4, "t"))
    lines = ev.dump_attention(params, enc_cfg, seg, local)
    assert len(lines) == enc_cfg.n_fusion + 1
    edge_set = set(local.edges)
    for line in lines[:-1]:
        rec = json.loads(line)
        assert set(rec) == {"layer", "edges"}
        for entry in rec["edges"]:
            assert (entry["head"], entry["rel"], entry["tail"]) in edge_set
            assert len(entry["weight"]) == enc_cfg.heads_gnn
    pooling = json.loads(lines[-1])
    assert abs(sum(pooling["pooling"]) - 1.0) < 1e-5


def test_dump_attention_single_node_pooling(tmp_path):
    world, kg, entities, relations, tv, enc_cfg = lp_fixture(tmp_path)
    params = init_params(enc_cfg, 5, len(tv), len(entities), len(relations))
    add_pooling_head(params, enc_cfg, 5)
    name = world.entity_names[0]
    seg, v_el = link_entities("%s alone" % name, build_alias_index(entities), tv)
    local = retrieve_local_kg(v_el, kg, enc_cfg.max_nodes, partial(nm.split_rng, 6, "t"))
    assert len(local.entity_ids()) == 1
    lines = ev.dump_attention(params, enc_cfg, seg, local)
    pooling = json.loads(lines[-1])
    assert pooling["pooling"] == [1.0]
