"""Knowledge-graph store: loading, dedup, adjacency, membership, round-trip."""

import numpy as np
import pytest

from dragonforge import kg_store as ks


def write_kg(tmp_path, lines, name="kg.tsv"):
    p = tmp_path / name
    p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(p)


def random_kg_lines(rng, n_entities=40, n_relations=3, n_lines=200):
    ents = ["e%d" % i for i in range(n_entities)]
    rels = ["r%d" % i for i in range(n_relations)]
    lines = []
    for _ in range(n_lines):
        h, t = rng.choice(n_entities, size=2, replace=False)
        lines.append("%s\t%s\t%s" % (ents[h], rels[rng.integers(n_relations)], ents[t]))
    return lines


def test_load_dedupes(tmp_path):
    path = write_kg(tmp_path, ["a\tlikes\tb", "b\tlikes\tc", "a\tlikes\tb"])
    g, entities, relations = ks.load_kg(path)
    assert len(g.triplets) == 2


def test_adjacency_lists_both_directions(tmp_path):
    path = write_kg(tmp_path, ["a\tlikes\tb", "b\tlikes\tc"])
    g, entities, relations = ks.load_kg(path)
    b = entities.ids["b"]
    nbrs = g.neighbors(b)
    rid = relations.ids["likes"]
    assert (rid, entities.ids["c"], ks.DIR_OUT) in nbrs
    assert (rid, entities.ids["a"], ks.DIR_IN) in nbrs
    assert len(nbrs) == 2


def test_malformed_line_reports_lineno(tmp_path):
    path = write_kg(tmp_path, ["a\tlikes\tb", "broken line"])
    with pytest.raises(ks.KGParseError, match=":2:"):
        ks.load_kg(path)


def test_empty_file_raises(tmp_path):
    path = write_kg(tmp_path, [])
    with pytest.raises(ks.EmptyGraphError):
        ks.load_kg(path)


def test_contains_trivial_cases(tmp_path):
    path = write_kg(tmp_path, ["a\tlikes\tb"])
    g, entities, relations = ks.load_kg(path)
    a, b, rid = entities.ids["a"], entities.ids["b"], relations.ids["likes"]
    assert g.contains((a, rid, b))
    assert not g.contains((b, rid, a))


def test_contains_bounds_error(tmp_path):
    path = write_kg(tmp_path, ["a\tlikes\tb"])
    g, _, _ = ks.load_kg(path)
    with pytest.raises(IndexError):
        g.contains((99, 0, 0))
    with pytest.raises(IndexError):
        g.neighbors(99)


def test_membership_and_neighbors_against_linear_scan(tmp_path):
    rng = np.random.default_rng(0)
    lines = random_kg_lines(rng, n_lines=1000)
    path = write_kg(tmp_path, lines)
    g, entities, relations = ks.load_kg(path)
    triplet_list = g.triplets

    for _ in range(100):
        if rng.random() < 0.5 and triplet_list:
            probe = triplet_list[rng.integers(len(triplet_list))]
        else:
            probe = (int(rng.integers(g.n_entities)), int(rng.integers(g.n_relations)),
                     int(rng.integers(g.n_entities)))
        expected = any(t == probe for t in triplet_list)
        assert g.contains(probe) == expected

    for _ in range(20):
        v = int(rng.integers(g.n_entities))
        expected = sorted(
            [(r, t, ks.DIR_OUT) for h, r, t in triplet_list if h == v]
            + [(r, h, ks.DIR_IN) for h, r, t in triplet_list if t == v])
        assert g.neighbors(v) == expected


def test_isolated_node_and_star_graph(tmp_path):
    path = write_kg(tmp_path, ["hub\tr\ts1", "hub\tr\ts2", "hub\tr\ts3", "hub\tr\ts4",
                               "lone_a\tr\tlone_b"])
    g, entities, _ = ks.load_kg(path)
    assert len(g.neighbors(entities.ids["hub"])) == 4
    # s1 has exactly one incident edge
    assert len(g.neighbors(entities.ids["s1"])) == 1


def test_neighbor_queries_see_later_edges_and_hand_out_copies():
    g = ks.KnowledgeGraph(n_entities=4, n_relations=2)
    g.add(0, 1, 1)
    assert g.neighbors(0) == [(1, 1, ks.DIR_OUT)]
    assert g.undirected_neighbor_set(1) == {0}
    g.neighbors(0).append((9, 9, 9))
    g.undirected_neighbor_set(1).add(9)
    assert g.neighbors(0) == [(1, 1, ks.DIR_OUT)]
    assert g.undirected_neighbor_set(1) == {0}
    g.add(2, 0, 0)
    g.add(1, 0, 3)
    assert g.neighbors(0) == [(0, 2, ks.DIR_IN), (1, 1, ks.DIR_OUT)]
    assert g.undirected_neighbor_set(1) == {0, 3}
    assert type(g.neighbors(3)) is list and type(g.undirected_neighbor_set(3)) is set
    assert g.neighbors(3) == [(0, 1, ks.DIR_IN)]


def test_adjacency_entry_count_is_twice_triplets(tmp_path):
    rng = np.random.default_rng(1)
    path = write_kg(tmp_path, random_kg_lines(rng, n_lines=300))
    g, _, _ = ks.load_kg(path)
    assert sum(len(g.neighbors(v)) for v in range(g.n_entities)) == 2 * len(g.triplets)


def test_save_reload_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    path = write_kg(tmp_path, random_kg_lines(rng, n_lines=150))
    g, entities, relations = ks.load_kg(path)
    out = write_kg(tmp_path, ["%s\t%s\t%s" % (entities.names[h], relations.names[r], entities.names[t])
                              for h, r, t in g.triplets], name="resaved.tsv")
    g2, entities2, relations2 = ks.load_kg(out)
    orig = {(entities.names[h], relations.names[r], entities.names[t]) for h, r, t in g.triplets}
    redo = {(entities2.names[h], relations2.names[r], entities2.names[t]) for h, r, t in g2.triplets}
    assert orig == redo


def test_reserved_interaction_relation():
    rv = ks.Vocab(ks.RESERVED_RELATIONS)
    assert rv.ids[ks.R_EL_NAME] == ks.R_EL
    assert rv.ids[ks.R_EL_INV_NAME] == ks.R_EL_INV
    assert rv.names.count(ks.R_EL_NAME) == 1


def test_entity_vocab_roundtrip_and_default_alias():
    ev = ks.EntityVocab()
    eid = ev.add("Round_Brush")
    assert ev.ids[ev.names[eid]] == eid
    assert ev.aliases["round brush"] == eid


def test_alias_file_merges(tmp_path):
    kg_path = write_kg(tmp_path, ["round_brush\tat_location\thair"])
    alias_path = tmp_path / "alias.tsv"
    alias_path.write_text("brushes\tround_brush\n", encoding="utf-8")
    _, entities, _ = ks.load_kg(kg_path, alias_file=str(alias_path))
    assert entities.aliases["brushes"] == entities.ids["round_brush"]


def test_alias_file_unknown_entity(tmp_path):
    kg_path = write_kg(tmp_path, ["a\tr\tb"])
    alias_path = tmp_path / "alias.tsv"
    alias_path.write_text("thing\tnot_an_entity\n", encoding="utf-8")
    with pytest.raises(ks.KGParseError, match="not_an_entity"):
        ks.load_kg(kg_path, alias_file=str(alias_path))
