"""Entity linking, local-KG retrieval with bridge expansion, verbalization,
and corpus segmentation, each checked against an independent oracle."""

import sys
import unicodedata
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dragonforge import numerics as nm
from dragonforge import pretrain as pt
from dragonforge import retrieval as rt
from dragonforge.kg_store import (DIR_OUT, RESERVED_RELATIONS, EntityVocab, KnowledgeGraph, R_EL,
                                  Vocab, load_kg, read_text)

ROOM = 100   # a verbalization budget above any fixture's suffix length


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


@pytest.mark.parametrize("mark", ["\u200b", "\u00ad"], ids=["zero_width_space", "soft_hyphen"])
def test_a_format_character_inside_a_word_is_dropped(mark):
    assert rt.tokenize("Alpha%sbeta gamma" % mark) == ["alphabeta", "gamma"]
    assert rt.tokenize(mark * 3) == [] and rt.tokenize(" %s\t" % mark) == []


def test_every_format_character_is_unprintable():
    # tokenize skips its format-character pass for printable text
    assert not [c for c in map(chr, range(sys.maxunicode + 1))
                if unicodedata.category(c) == "Cf" and c.isprintable()]


@pytest.mark.parametrize("mark", ["\u200b", "\u00ad"], ids=["zero_width_space", "soft_hyphen"])
def test_a_surface_or_text_with_a_format_character_still_links(mark):
    ev = make_entities(["san_francisco", "oakland"])
    ev.aliases["fris%sco" % mark] = ev.ids["san_francisco"]
    tv = make_vocab(["san", "francisco", "frisco", "or", "oakland"])
    index = rt.build_alias_index(ev)
    for text in ("frisco", "Fris%sco" % mark, "San Fran%scisco" % mark):
        seg, linked = rt.link_entities(text + " or oak%sland" % mark, index, tv)
        assert linked == {ev.ids["san_francisco"], ev.ids["oakland"]}, text
        assert rt.UNK not in seg.token_ids, text


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
        assert linked == oracle_leftmost_longest(words, reference_alias_table(ev.names, [])), text


def reference_alias_table(names, alias_rows):
    """surface -> entity id, built as the entity vocabulary once stored it:
    each name's lowercased, underscore-free surface set in id order unless
    an earlier name has it, then each (surface, name) row of the alias file
    in order, a later row overriding."""
    table = {}
    for i, name in enumerate(names):
        table.setdefault(name.lower().replace("_", " "), i)
    for surface, name in alias_rows:
        table[surface.lower()] = names.index(name)
    return table


def reference_alias_index(table):
    """first token -> [(token tuple, entity id)] of a whole surface table,
    longest first, as the alias index was built from a stored table."""
    index = {}
    for surface in sorted(table):
        toks = tuple(rt.tokenize(surface))
        if toks:
            index.setdefault(toks[0], []).append((toks, table[surface]))
    for bucket in index.values():
        bucket.sort(key=lambda p: (-len(p[0]), p[0]))
    return index


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(names=st.lists(st.sampled_from(["A_b", "a b", "a_B", "ab", "B", "b", "c_d_e", "C d", "x"]),
                      min_size=1, max_size=7, unique=True),
       rows=st.lists(st.tuples(st.sampled_from(["a b", "A B", "ab", "x y", "c d e", "B", "zz"]),
                               st.integers(0, 6)), max_size=6))
def test_alias_index_matches_the_stored_table_rule(tmp_path, names, rows):
    # default surfaces collide ("A_b", "a b" and "a_B" share "a b") and alias
    # rows override defaults and each other
    rows = [(surface, names[i % len(names)]) for surface, i in rows]
    kg, aliases = tmp_path / "kg.tsv", tmp_path / "aliases.tsv"
    kg.write_text("".join("%s\tr\t%s\n" % (name, name) for name in names), encoding="utf-8")
    aliases.write_text("".join("%s\t%s\n" % row for row in rows), encoding="utf-8")
    g, entities, relations = load_kg(str(kg), str(aliases))
    assert entities.names == names
    expected = reference_alias_index(reference_alias_table(names, rows))
    assert rt.build_alias_index(entities) == expected
    # a checkpoint stores the explicit aliases only, and one written when the
    # default aliases were stored too holds the whole table: both link alike
    tv = Vocab(rt.RESERVED_TOKENS)
    for table in (entities.aliases, reference_alias_table(names, rows)):
        entities.aliases = table
        path = str(tmp_path / "c.drgn")
        pt.save_checkpoint(path, {}, tv, entities, relations)
        _, _, loaded, _, _ = pt.load_checkpoint(path)
        assert loaded.aliases == table
        assert rt.build_alias_index(loaded) == expected


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
    suffix = rt.verbalize_kg(local, ev, rv, tv, ROOM, {})
    words = [tv.names[t] for t in suffix]
    assert words == ["round", "brush", "at", "location", "hair"]


def test_verbalize_dummy_is_empty():
    g, ev, rv, tv = verbal_fixture()
    assert rt.verbalize_kg(rt.dummy_local_kg(), ev, rv, tv, ROOM, {}) == []


def test_verbalize_three_edges_sep_joined_in_edge_order():
    g, ev, rv, tv = verbal_fixture()
    local = rt.retrieve_local_kg({0, 1, 2}, g, max_nodes=8, make_rng=partial(nm.split_rng, 6, "t"))
    suffix = rt.verbalize_kg(local, ev, rv, tv, ROOM, {})
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
    assert rt.verbalize_kg(local, ev, rv, tv, ROOM, {}) == [5, 6, 7, 8, 9, rt.SEP, 5, 6, 10, 11, rt.UNK, 12,
                                                  rt.SEP, rt.UNK, 12, 7, 8, 9]


def test_verbalize_budget_truncates_whole_sentences():
    g, ev, rv, tv = verbal_fixture()
    local = rt.retrieve_local_kg({0, 1, 2}, g, max_nodes=8, make_rng=partial(nm.split_rng, 7, "t"))
    full = rt.verbalize_kg(local, ev, rv, tv, ROOM, {})
    first = rt.verbalize_kg(local, ev, rv, tv, len(full) - 1, {})
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


def test_corpus_with_a_byte_order_mark_reads_as_without(tmp_path):
    # the mark would otherwise be a one-character token opening the first segment
    read = []
    for bom in (b"", b"\xef\xbb\xbf"):
        p = tmp_path / "c.txt"
        p.write_bytes(bom + b"alpha beta .\nbeta gamma .\n\nalpha delta .\n")
        segments = rt.segment_corpus(str(p), max_seq_len=512)
        read.append((rt.build_vocab(segments, min_freq=1).names, segments))
    assert read[1] == read[0]
    assert read[0][1][0].startswith("alpha")


def test_long_document_splits(tmp_path):
    words = " ".join("w%d" % i for i in range(600))
    p = tmp_path / "c.txt"
    p.write_text(words + "\n", encoding="utf-8")
    segments = rt.segment_corpus(str(p), max_seq_len=512)
    assert len(segments) >= 2
    assert all(len(rt.tokenize(s)) + 1 <= 512 for s in segments)


def test_segments_never_cross_documents(tmp_path):
    p = tmp_path / "c.txt"
    for text, expected in [
            ("doc one line\n\ndoc two line\n", ["doc one line", "doc two line"]),
            # a line of whitespace only is blank too
            ("alpha beta .\n \ngamma delta .\n", ["alpha beta .", "gamma delta ."]),
            ("alpha\n\t \nbeta\n\ngamma\n", ["alpha", "beta", "gamma"]),
            # and so is a line of format characters only
            ("alpha\n\u200b\u00ad\nbeta\n", ["alpha", "beta"])]:
        p.write_text(text, encoding="utf-8")
        assert rt.segment_corpus(str(p), max_seq_len=512) == expected, text


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


def test_segments_are_token_text(tmp_path):
    # each segment is its tokens joined by single spaces: lowercased, with
    # punctuation split off and runs of whitespace collapsed
    p = tmp_path / "c.txt"
    p.write_text("The  CAT sat.\n\tOn the mat!\n", encoding="utf-8")
    assert rt.segment_corpus(str(p), max_seq_len=512) == ["the cat sat . on the mat !"]
    assert rt.segment_corpus(str(p), max_seq_len=5) == ["the cat sat .", "on the mat !"]


WORDS = ["the", "Cat", "SAT", "on", "mat", "don't", "a_b", "42", "x9", "Über", "straße", "İstanbul",
         "ﬁne", "naïve", "東京", "e\u0301", "ΟΔΟΣ", "ΑΣ.", "Σ", ",", ".", "!?", "(", ")", "-", "'",
         "zero\u200bwidth", "soft\u00adhyphen", "\u200d", "\ufeff"]
LINE = st.one_of(
    st.just(""),                                                         # blank: ends a document
    st.sampled_from([" ", "\t", "  \t ", "\u200b", " \u00ad\u200d "]),     # whitespace or format only
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join),
    st.lists(st.sampled_from(WORDS), min_size=12, max_size=30).map(" ".join),   # over-long
    st.text(min_size=1, max_size=20))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(LINE, max_size=25), min_freq=st.integers(1, 3))
@example(lines=["The CAT SAT on the mat.", "", "", " \t ", "Über naïve STRASSE", "\u200b",
                "İstanbul and 東京, e\u0301 ﬁne ΟΔΟΣ " * 4, "the Cat"], min_freq=2)
def test_segments_split_the_corpus_tokens_at_documents_and_budget(tmp_path, lines, min_freq):
    p = tmp_path / "c.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = read_text(str(p))
    corpus_tokens = rt.tokenize(text)
    doc_of = []   # the document of each corpus token, counting lines with no tokens
    doc = 0
    for line in text.split("\n"):
        toks = rt.tokenize(line)
        doc += not toks
        doc_of += [doc] * len(toks)
    counts = Counter(corpus_tokens)
    vocab = [*rt.RESERVED_TOKENS, *sorted(t for t in counts if counts[t] >= min_freq)]
    for max_seq_len in (2, 3, 7, 64):
        segments = rt.segment_corpus(str(p), max_seq_len)
        pieces = [s.split(" ") for s in segments]
        assert [t for piece in pieces for t in piece] == corpus_tokens
        pos = 0
        for s, piece in zip(segments, pieces):
            assert rt.tokenize(s) == piece and 1 <= len(piece) <= max_seq_len - 1, s
            assert len(set(doc_of[pos:pos + len(piece)])) == 1, s   # no segment crosses a blank line
            pos += len(piece)
        assert rt.build_vocab(segments, min_freq).names == vocab


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
    segments = rt.segment_corpus(files["corpus.txt"], max_seq_len=32)
    tv = rt.build_vocab(segments, min_freq=2)
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


RESERVED_TSV = Vocab(rt.RESERVED_TOKENS).to_tsv()


@pytest.mark.parametrize("text,lineno,got", [
    (RESERVED_TSV + "alpha\t7\n", 6, r"expected a new name<TAB>5, got 'alpha\t7'"),
    (RESERVED_TSV + "alpha 5\n", 6, "expected name<TAB>id, got 'alpha 5'"),
    (RESERVED_TSV + "[PAD]\t5\n", 6, r"expected a new name<TAB>5, got '[PAD]\t5'"),
    (RESERVED_TSV + "alpha\t05\n", 6, r"expected name<TAB>id, got 'alpha\t05'"),
    (RESERVED_TSV + "beta\t6\nalpha\t5\n", 6, r"expected a new name<TAB>5, got 'beta\t6'"),
    (RESERVED_TSV.replace("[MASK]\t3\n", ""), 4, r"expected [MASK]<TAB>3, got '[SEP]\t4'"),
    (RESERVED_TSV.replace("[INT]", ""), 3, r"expected name<TAB>id, got '\t2'"),
    ("[PAD]\t0\n[UNK]\t1\n\n", 4, "expected [INT]<TAB>2, got the end of the table"),
], ids=["non_dense_id", "no_tab", "repeated_name", "leading_zero_id", "out_of_order_id",
        "missing_reserved_name", "empty_name", "trailing_blank_line"])
def test_vocab_tsv_rejects_malformed_line(text, lineno, got):
    # the table is checked whole, its format before its ids and names; the
    # line locator names the line
    with pytest.raises(ValueError) as e:
        Vocab.from_tsv(text, "vocab.tsv", rt.RESERVED_TOKENS)
    assert str(e.value) == "vocab.tsv:%d: %s" % (lineno, got)


def test_min_freq_threshold(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("common common rare\n", encoding="utf-8")
    tv = rt.build_vocab(rt.segment_corpus(str(p), max_seq_len=8), min_freq=2)
    assert "common" in tv.ids
    assert "rare" not in tv.ids
    seg, _ = rt.link_entities("common rare", rt.build_alias_index(EntityVocab()), tv)
    assert seg.token_ids == [rt.INT, tv.ids["common"], rt.UNK]
