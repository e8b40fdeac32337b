"""Entity linking, local-KG retrieval with bridge expansion, verbalization,
and corpus segmentation, each checked against an independent oracle."""

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dragonforge import numerics as nm
from dragonforge import retrieval as rt
from dragonforge.kg_store import (DIR_OUT, RESERVED_RELATIONS, EntityVocab, KnowledgeGraph, R_EL,
                                  Vocab, load_kg)


def make_vocab(words):
    tv = Vocab(rt.RESERVED_TOKENS)
    for w in sorted(words):
        tv.add(w)
    return tv


def make_entities(names_with_aliases):
    ev = EntityVocab()
    for name in names_with_aliases:
        ev.add(name)
    return ev


# ---------------------------------------------------------------------------
# linking
# ---------------------------------------------------------------------------

def test_longest_match_suppresses_substring():
    ev = make_entities(["round_brush", "art_supply", "brush"])
    tv = make_vocab(["round", "brush", "is", "an", "art", "supply"])
    seg, linked = rt.link_entities("round brush is an art supply", rt.build_alias_index(ev), tv)
    assert linked == {ev.ids["round_brush"], ev.ids["art_supply"]}
    assert seg.token_ids[0] == rt.INT
    assert len(seg.token_ids) == 7


def test_empty_string_links_nothing():
    ev = make_entities(["thing"])
    tv = make_vocab(["thing"])
    seg, linked = rt.link_entities("", rt.build_alias_index(ev), tv)
    assert linked == set()
    assert seg.token_ids == [rt.INT]


def test_no_dictionary_hits():
    ev = make_entities(["zebra"])
    tv = make_vocab(["hello", "world"])
    _, linked = rt.link_entities("hello world", rt.build_alias_index(ev), tv)
    assert linked == set()


def oracle_leftmost_longest(words, aliases):
    """Independent matcher: enumerate every alias occurrence, then resolve
    overlaps leftmost-longest."""
    occurrences = []
    for surface, eid in aliases.items():
        toks = tuple(rt.tokenize(surface))
        for start in range(len(words) - len(toks) + 1):
            if tuple(words[start:start + len(toks)]) == toks:
                occurrences.append((start, -len(toks), eid))
    occurrences.sort()
    linked, blocked_until = set(), 0
    for start, neg_len, eid in occurrences:
        if start >= blocked_until:
            linked.add(eid)
            blocked_until = start - neg_len
    return linked


def test_linking_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    base_words = ["alpha", "beta", "gamma", "delta", "omega", "pi"]
    ev = EntityVocab()
    for name in ["alpha", "alpha_beta", "beta_gamma", "gamma", "delta_omega_pi", "omega"]:
        ev.add(name)
    tv = make_vocab(base_words)
    for _ in range(200):
        words = [base_words[i] for i in rng.integers(0, len(base_words), size=rng.integers(1, 12))]
        text = " ".join(words)
        _, linked = rt.link_entities(text, rt.build_alias_index(ev), tv)
        assert linked == oracle_leftmost_longest(words, ev.aliases), text


# ---------------------------------------------------------------------------
# local-KG retrieval
# ---------------------------------------------------------------------------

def star_path_graph():
    ev = make_entities(["a", "b", "c"])
    g = KnowledgeGraph(3, 3, [(0, 2, 1),    # a - b
                              (1, 2, 2)])   # b - c
    return g, ev


def interaction_targets(local):
    """Global ids of the entities the interaction node links to."""
    return {local.nodes[t] for _, r, t in local.edges if r == R_EL}


def test_bridge_on_two_hop_path():
    g, ev = star_path_graph()
    local = rt.retrieve_local_kg({0, 2}, g, max_nodes=8, make_rng=partial(nm.split_rng, 0, "t"))
    assert set(local.entity_ids()) == {0, 1, 2}
    assert interaction_targets(local) == {0, 2}


def test_dummy_fallback_on_empty_link_set():
    g, _ = star_path_graph()
    local = rt.retrieve_local_kg(set(), g, max_nodes=8, make_rng=partial(nm.split_rng, 0, "t"))
    assert local.is_dummy
    assert local.nodes == [rt.V_INT, rt.DUMMY_NODE]
    assert local.edges == []


def test_interaction_edges_target_linked_nodes_only():
    g, _ = star_path_graph()
    local = rt.retrieve_local_kg({0, 2}, g, max_nodes=8, make_rng=partial(nm.split_rng, 0, "t"))
    int_edges = [e for e in local.edges if e[1] == R_EL]
    targets = {local.nodes[t] for _, _, t in int_edges}
    assert targets == {0, 2}
    assert all(h == 0 for h, _, _ in int_edges)


def random_graph(rng, n_nodes=50, n_edges=120, n_rels=3):
    edges = {}
    while len(edges) < n_edges:
        h, t = rng.integers(0, n_nodes, size=2)
        if h == t:
            continue
        edges[int(h), int(rng.integers(2, n_rels + 2)), int(t)] = None
    return KnowledgeGraph(n_nodes, n_rels + 2, list(edges))


def bfs_bridge_oracle(g, v_el):
    """All nodes on a length-<=2 undirected path between distinct linked nodes."""
    linked = sorted(v_el)
    nodes = set(linked)
    for i, a in enumerate(linked):
        na = g.undirected_neighbor_set(a)
        for c in linked[i + 1:]:
            nc = g.undirected_neighbor_set(c)
            nodes |= na & nc
    return nodes


def test_retrieval_node_set_matches_bfs_oracle():
    rng = np.random.default_rng(7)
    for trial in range(100):
        g = random_graph(rng)
        v_el = set(int(v) for v in rng.choice(50, size=3, replace=False))
        local = rt.retrieve_local_kg(v_el, g, max_nodes=50, make_rng=partial(nm.split_rng, 1, "t", trial))
        assert set(local.entity_ids()) == bfs_bridge_oracle(g, v_el), trial


def test_retrieval_edges_are_all_global_edges_within_node_set():
    rng = np.random.default_rng(8)
    g = random_graph(rng)
    v_el = {0, 1, 2}
    local = rt.retrieve_local_kg(v_el, g, max_nodes=50, make_rng=partial(nm.split_rng, 2, "t"))
    kept = set(local.entity_ids())
    expected = {(h, r, t) for h, r, t in g.triplets if h in kept and t in kept}
    got = {(local.nodes[h], r, local.nodes[t]) for h, r, t in local.edges if r != R_EL}
    assert got == expected


def test_pruning_respects_max_nodes_and_keeps_linked():
    rng = np.random.default_rng(9)
    g = random_graph(rng, n_nodes=40, n_edges=300)
    v_el = {0, 1, 2, 3}
    local = rt.retrieve_local_kg(v_el, g, max_nodes=6, make_rng=partial(nm.split_rng, 3, "t"))
    assert local.n_nodes <= 7
    assert v_el <= set(local.entity_ids())


def test_pruning_samples_within_linked_when_oversized():
    g = KnowledgeGraph(10, 2, [])
    v_el = set(range(10))
    local = rt.retrieve_local_kg(v_el, g, max_nodes=4, make_rng=partial(nm.split_rng, 4, "t"))
    assert local.n_nodes == 5
    assert set(local.entity_ids()) <= v_el
    assert interaction_targets(local) == set(local.entity_ids())


def test_pruning_determinism():
    rng = np.random.default_rng(10)
    g = random_graph(rng, n_nodes=40, n_edges=300)
    a = rt.retrieve_local_kg({0, 1, 2, 3}, g, max_nodes=6, make_rng=partial(nm.split_rng, 5, "t"))
    b = rt.retrieve_local_kg({0, 1, 2, 3}, g, max_nodes=6, make_rng=partial(nm.split_rng, 5, "t"))
    assert a.nodes == b.nodes and a.edges == b.edges and interaction_targets(a) == interaction_targets(b)


BRIDGED = [(0, 2, 5), (5, 2, 1), (0, 2, 6), (6, 3, 1), (7, 2, 0), (1, 4, 7)]   # 0 and 1 share 5, 6, 7


@settings(max_examples=200, deadline=None)
@given(edges=st.lists(st.tuples(st.integers(0, 11), st.integers(2, 4), st.integers(0, 11)), max_size=40),
       v_el=st.sets(st.integers(0, 11), max_size=8), max_nodes=st.integers(1, 10),
       seed=st.integers(0, 2 ** 32 - 1))
@example(edges=[], v_el={0, 1, 2, 3}, max_nodes=2, seed=0)     # linked entities over max_nodes
@example(edges=BRIDGED, v_el={0, 1}, max_nodes=3, seed=0)      # bridges over the remaining budget
@example(edges=BRIDGED, v_el={0, 1}, max_nodes=2, seed=0)      # no budget: every bridge dropped, no draw
@example(edges=BRIDGED, v_el={0, 1}, max_nodes=8, seed=0)      # nothing pruned
def test_retrieval_builds_its_stream_once_and_only_when_it_samples(edges, v_el, max_nodes, seed):
    g = KnowledgeGraph(12, 5, [(h, r, t) for h, r, t in edges if h != t])
    budget = max_nodes - len(v_el)
    samples = bool(v_el) and (budget < 0 or 0 < budget < len(bfs_bridge_oracle(g, v_el) - v_el))
    eager = nm.split_rng(seed, "t")
    calls = [0]

    def make_rng():
        calls[0] += 1
        return eager

    local = rt.retrieve_local_kg(v_el, g, max_nodes, make_rng)
    assert calls[0] == samples
    # a stream built before the call and the factory callers pass give the
    # same local KG
    assert local == rt.retrieve_local_kg(v_el, g, max_nodes, partial(nm.split_rng, seed, "t"))
    check_local_kg(local, g, max_nodes, v_el)


# ---------------------------------------------------------------------------
# verbalization
# ---------------------------------------------------------------------------

def verbal_fixture():
    ev = make_entities(["round_brush", "hair", "comb"])
    rv = Vocab(RESERVED_RELATIONS)
    rv.add("at_location")
    rv.add("similar_to")
    g = KnowledgeGraph(3, len(rv), [(0, rv.ids["at_location"], 1), (0, rv.ids["similar_to"], 2),
                                    (2, rv.ids["at_location"], 1)])
    tv = make_vocab(["round", "brush", "at", "location", "hair", "similar", "to", "comb"])
    return g, ev, rv, tv


def test_verbalize_single_edge_template():
    g, ev, rv, tv = verbal_fixture()
    local = rt.LocalKG(nodes=[rt.V_INT, 0, 1], edges=[(0, R_EL, 1), (1, rv.ids["at_location"], 2)])
    suffix = rt.verbalize_kg(local, ev, rv, tv)
    words = [tv.names[t] for t in suffix]
    assert words == ["round", "brush", "at", "location", "hair"]


def test_verbalize_dummy_is_empty():
    g, ev, rv, tv = verbal_fixture()
    assert rt.verbalize_kg(rt.dummy_local_kg(), ev, rv, tv) == []


def test_verbalize_three_edges_sep_joined_in_edge_order():
    g, ev, rv, tv = verbal_fixture()
    local = rt.retrieve_local_kg({0, 1, 2}, g, max_nodes=8, make_rng=partial(nm.split_rng, 6, "t"))
    suffix = rt.verbalize_kg(local, ev, rv, tv)
    seps = [i for i, t in enumerate(suffix) if t == rt.SEP]
    assert len(seps) == 2
    # string-assembly oracle: independently render each edge then join
    chunks = []
    for h, r, t in [e for e in local.edges if e[1] != R_EL]:
        words = " ".join([ev.names[local.nodes[h]], rv.names[r], ev.names[local.nodes[t]]])
        chunks.append([tv.ids.get(w, rt.UNK) for w in rt.tokenize(words.replace("_", " "))])
    expected = []
    for i, chunk in enumerate(chunks):
        if i:
            expected.append(rt.SEP)
        expected.extend(chunk)
    assert suffix == expected


def test_verbalize_suffix_is_pinned_for_a_fixed_local_kg():
    # names in mixed case with underscores; "old" is out of vocabulary
    ev = make_entities(["Round_Brush", "hair", "Old_comb"])
    rv = Vocab(RESERVED_RELATIONS)
    rv.add("At_Location")
    rv.add("similar_to")
    tv = Vocab(rt.RESERVED_TOKENS)
    for w in ["round", "brush", "at", "location", "hair", "similar", "to", "comb"]:
        tv.add(w)
    local = rt.LocalKG(nodes=[rt.V_INT, 0, 1, 2],
                       edges=[(0, R_EL, 1), (1, 2, 2), (1, 3, 3), (3, 2, 2)])
    assert rt.verbalize_kg(local, ev, rv, tv) == [5, 6, 7, 8, 9, rt.SEP, 5, 6, 10, 11, rt.UNK, 12,
                                                  rt.SEP, rt.UNK, 12, 7, 8, 9]


def test_verbalize_budget_truncates_whole_sentences():
    g, ev, rv, tv = verbal_fixture()
    local = rt.retrieve_local_kg({0, 1, 2}, g, max_nodes=8, make_rng=partial(nm.split_rng, 7, "t"))
    full = rt.verbalize_kg(local, ev, rv, tv)
    first = rt.verbalize_kg(local, ev, rv, tv, budget=len(full) - 1)
    assert rt.SEP not in first or len(first) < len(full)
    assert full[:len(first)] == first


# ---------------------------------------------------------------------------
# corpus segmentation
# ---------------------------------------------------------------------------

def test_single_short_document(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("one two three four five six seven eight nine ten\n", encoding="utf-8")
    segments = rt.segment_corpus(str(p), max_seq_len=512)
    assert len(segments) == 1
    assert len(rt.tokenize(segments[0])) + 1 == 11


def test_long_document_splits(tmp_path):
    words = " ".join("w%d" % i for i in range(600))
    p = tmp_path / "c.txt"
    p.write_text(words + "\n", encoding="utf-8")
    segments = rt.segment_corpus(str(p), max_seq_len=512)
    assert len(segments) >= 2
    assert all(len(rt.tokenize(s)) + 1 <= 512 for s in segments)


def test_segments_never_cross_documents(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("doc one line\n\ndoc two line\n", encoding="utf-8")
    segments = rt.segment_corpus(str(p), max_seq_len=512)
    assert len(segments) == 2


def test_concatenation_reproduces_document_stream(tmp_path):
    rng = np.random.default_rng(11)
    docs = []
    for _ in range(20):
        n_sents = int(rng.integers(1, 9))
        doc = "\n".join(" ".join("t%d" % rng.integers(50) for _ in range(rng.integers(2, 15)))
                        for _ in range(n_sents))
        docs.append(doc)
    p = tmp_path / "c.txt"
    p.write_text("\n\n".join(docs) + "\n", encoding="utf-8")
    segments = rt.segment_corpus(str(p), max_seq_len=16)
    seg_tokens = [t for s in segments for t in rt.tokenize(s)]
    doc_tokens = [t for d in docs for t in rt.tokenize(d.replace("\n", " "))]
    assert seg_tokens == doc_tokens


def token_spans(text):
    """(token, start, end) spans of the lowercased text, one per token."""
    return [(m.group(0), m.start(), m.end()) for m in rt._TOKEN_RE.finditer(text.lower())]


def span_build_vocab(corpus_file, min_freq):
    # reference: the token counts read from token_spans
    counts = {}
    with open(corpus_file, encoding="utf-8") as fh:
        for text in fh:
            for tok, _, _ in token_spans(text):
                counts[tok] = counts.get(tok, 0) + 1
    vocab = Vocab(rt.RESERVED_TOKENS)
    for tok in sorted(counts):
        if counts[tok] >= min_freq:
            vocab.add(tok)
    return vocab


def span_segment_corpus(corpus_file, max_seq_len):
    # reference: segment_corpus with every sentence measured by len(token_spans(...)),
    # hard-split pieces cut from the lowercased text the spans index
    budget = max_seq_len - 1
    segments = []
    with open(corpus_file, encoding="utf-8") as fh:
        text = fh.read()
    for doc in text.split("\n\n"):
        cur, cur_len = [], 0
        for sent in (s for s in doc.split("\n") if s.strip()):
            toks = token_spans(sent)
            if len(toks) > budget:
                if cur:
                    segments.append(" ".join(cur))
                    cur, cur_len = [], 0
                for lo in range(0, len(toks), budget):
                    chunk = toks[lo:lo + budget]
                    segments.append(sent.lower()[chunk[0][1]:chunk[-1][2]])
                continue
            if cur_len + len(toks) > budget:
                segments.append(" ".join(cur))
                cur, cur_len = [], 0
            cur.append(sent)
            cur_len += len(toks)
        if cur:
            segments.append(" ".join(cur))
    return segments


WORDS = ["the", "Cat", "SAT", "on", "mat", "don't", "a_b", "42", "x9", "Über", "straße", "İstanbul",
         "ﬁne", "naïve", "東京", "e\u0301", ",", ".", "!?", "(", ")", "-", "'"]
LINE = st.one_of(
    st.just(""),                                                         # blank: ends a document
    st.sampled_from([" ", "\t", "  \t "]),                               # whitespace only
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join),
    st.lists(st.sampled_from(WORDS), min_size=12, max_size=30).map(" ".join),   # over-long
    st.text(min_size=1, max_size=20))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(LINE, max_size=25), max_seq_len=st.integers(2, 12), min_freq=st.integers(1, 3))
@example(lines=["The CAT SAT on the mat.", "", "", " \t ", "Über naïve STRASSE", "",
                "İstanbul and 東京, e\u0301 ﬁne " * 4, "the Cat"], max_seq_len=5, min_freq=2)
def test_token_counts_without_spans_equal_span_counts(tmp_path, lines, max_seq_len, min_freq):
    p = tmp_path / "c.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert rt.build_vocab(str(p), min_freq).to_tsv() == span_build_vocab(str(p), min_freq).to_tsv()
    assert rt.segment_corpus(str(p), max_seq_len) == span_segment_corpus(str(p), max_seq_len)


def test_hard_split_pieces_hold_at_most_the_budget_and_every_token(tmp_path):
    # 'İ'.lower() is two characters, so lowercasing shifts every later span
    line = "İİİİİİ alpha beta gamma delta epsilon zeta eta theta"
    p = tmp_path / "c.txt"
    p.write_text(line + "\n", encoding="utf-8")
    pieces = rt.segment_corpus(str(p), max_seq_len=5)
    assert all(len(rt.tokenize(piece)) <= 4 for piece in pieces)
    assert [t for piece in pieces for t in rt.tokenize(piece)] == rt.tokenize(line)
    assert pieces[-2:] == ["alpha beta gamma delta", "epsilon zeta eta theta"]


def check_local_kg(local: rt.LocalKG, g: KnowledgeGraph, max_nodes: int, v_el: set[int]) -> None:
    assert local.nodes[0] == rt.V_INT
    assert len(local.nodes) <= max_nodes + 1
    assert len(set(local.nodes)) == len(local.nodes), "duplicate nodes"
    if local.is_dummy:
        assert local.nodes == [rt.V_INT, rt.DUMMY_NODE] and not local.edges
        return
    # one interaction edge per kept linked entity, and none to other nodes
    assert sorted(local.nodes[t] for _, r, t in local.edges if r == R_EL) == \
        sorted(set(local.entity_ids()) & v_el)
    for h, r, t in local.edges:
        if r == R_EL:
            assert h == 0 and local.nodes[t] in v_el, "interaction edges must target linked nodes"
        else:
            assert h != 0 and t != 0
            assert (r, local.nodes[t], DIR_OUT) in g.neighbors(local.nodes[h]), \
                "edge not in global KG"


def test_local_kg_invariants_over_random_corpus_segments(tmp_path):
    from dragonforge.evaluation import generate_synthetic_world
    files = generate_synthetic_world(n_entities=120, n_relations=6, n_facts=1400, leak_rate=0.15,
                                     seed=5).write_files(str(tmp_path))
    g, entities, relations = load_kg(files["kg.tsv"], files["aliases.tsv"])
    tv = rt.build_vocab(files["corpus.txt"], min_freq=2)
    segments = rt.segment_corpus(files["corpus.txt"], max_seq_len=32)
    assert len(segments) >= 200
    checked = 0
    for idx, raw in enumerate(segments):
        seg, v_el = rt.link_entities(raw, rt.build_alias_index(entities), tv)
        local = rt.retrieve_local_kg(v_el, g, max_nodes=12, make_rng=partial(nm.split_rng, 6, "t", idx))
        check_local_kg(local, g, 12, v_el)
        assert local.is_dummy == (len(v_el) == 0)
        checked += 1
    assert checked == len(segments)


def test_vocab_reserved_ids_distinct_and_never_tokenized():
    tv = Vocab(rt.RESERVED_TOKENS)
    assert len({rt.PAD, rt.UNK, rt.INT, rt.MASK, rt.SEP}) == 5
    assert [tv.ids[name] for name in rt.RESERVED_TOKENS] == [rt.PAD, rt.UNK, rt.INT, rt.MASK, rt.SEP]
    toks = rt.tokenize("[MASK] [INT] [SEP]")
    assert "[MASK]" not in toks and "[mask]" not in toks


def test_vocab_tsv_round_trip():
    tv = make_vocab(["alpha", "beta"])
    tv2 = Vocab.from_tsv(tv.to_tsv(), "vocab.tsv", rt.RESERVED_TOKENS)
    assert tv2.names == tv.names and tv2.ids == tv.ids


@pytest.mark.parametrize("bad_line,lineno", [("alpha\t7", 6), ("alpha 5", 6), ("[PAD]\t5", 6)],
                         ids=["non_dense_id", "no_tab", "repeated_name"])
def test_vocab_tsv_rejects_malformed_line(bad_line, lineno):
    text = Vocab(rt.RESERVED_TOKENS).to_tsv() + bad_line + "\n"
    with pytest.raises(ValueError, match=r"vocab\.tsv:%d:" % lineno):
        Vocab.from_tsv(text, "vocab.tsv", rt.RESERVED_TOKENS)


def test_min_freq_threshold(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("common common rare\n", encoding="utf-8")
    tv = rt.build_vocab(str(p), min_freq=2)
    assert "common" in tv.ids
    assert "rare" not in tv.ids
    seg, _ = rt.link_entities("common rare", rt.build_alias_index(EntityVocab()), tv)
    assert seg.token_ids == [rt.INT, tv.ids["common"], rt.UNK]
