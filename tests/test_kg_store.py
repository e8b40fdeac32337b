"""Knowledge-graph store: loading, dedup, adjacency, membership, round-trip,
and the name-table codec."""

import gc
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonforge import kg_store as ks
from dragonforge import pretrain as pt
from dragonforge.retrieval import RESERVED_TOKENS, build_alias_index


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


@pytest.mark.parametrize("lines, lineno, got", [
    (["a\tlikes\tb", "", "b\tc"], 3, "'b\\tc'"),
    (["a\tlikes\tb", "b\tlikes\tc\td"], 2, "'b\\tlikes\\tc\\td'"),
    (["a\tlikes\tb", "b\t\tc"], 2, "'b\\t\\tc'"),
    (["a\tlikes\tb", "b\tlikes\tc\t"], 2, "'b\\tlikes\\tc\\t'"),
    (["a\tlikes\tb", "b\tc", "", "c\tlikes\td\te"], 2, "'b\\tc'"),
    (["a\tb", "c\tlikes\td\te"], 1, "'a\\tb'"),
    (["a\t[R_EL_INV]\tb", "b\tc"], 2, "'b\\tc'"),
], ids=["two_fields", "four_fields", "empty_middle_field", "trailing_tab", "first_of_two_bad_lines",
        "two_and_four_fields", "before_a_reserved_relation"])
def test_malformed_line_message_names_the_first_bad_line(tmp_path, lines, lineno, got):
    path = write_kg(tmp_path, lines)
    with pytest.raises(ks.KGParseError) as e:
        ks.load_kg(path)
    assert str(e.value) == "%s:%d: expected head<TAB>relation<TAB>tail, got %s" % (path, lineno, got)


@pytest.mark.parametrize("name", ks.RESERVED_RELATIONS)
def test_reserved_relation_name_in_kg_file_raises(tmp_path, name):
    path = write_kg(tmp_path, ["a\tlikes\tb", "", "b\t%s\tc" % name, "c\t%s\ta" % name])
    with pytest.raises(ks.KGParseError) as e:
        ks.load_kg(path)
    assert str(e.value) == "%s:3: relation %r is reserved for the interaction link" % (path, name)


def test_empty_file_raises(tmp_path):
    path = write_kg(tmp_path, [])
    with pytest.raises(ks.EmptyGraphError):
        ks.load_kg(path)


def test_blank_lines_only_file_raises(tmp_path):
    path = write_kg(tmp_path, ["", "", ""])
    with pytest.raises(ks.EmptyGraphError):
        ks.load_kg(path)


def test_contains_trivial_cases(tmp_path):
    path = write_kg(tmp_path, ["a\tlikes\tb"])
    g, entities, relations = ks.load_kg(path)
    a, b, rid = entities.ids["a"], entities.ids["b"], relations.ids["likes"]
    assert (rid, b, ks.DIR_OUT) in g.neighbors(a)
    assert (rid, a, ks.DIR_OUT) not in g.neighbors(b)


def test_contains_bounds_error(tmp_path):
    path = write_kg(tmp_path, ["a\tlikes\tb"])
    g, _, _ = ks.load_kg(path)
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
        assert ((probe[1], probe[2], ks.DIR_OUT) in g.neighbors(probe[0])) == expected

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


def test_neighbor_queries_hand_out_copies():
    g = ks.KnowledgeGraph(n_entities=4, n_relations=2, triplets=[(0, 1, 1), (2, 0, 0), (1, 0, 3)])
    assert g.neighbors(0) == [(0, 2, ks.DIR_IN), (1, 1, ks.DIR_OUT)]
    assert g.undirected_neighbor_set(1) == {0, 3}
    g.neighbors(0).append((9, 9, 9))
    g.undirected_neighbor_set(1).add(9)
    assert g.neighbors(0) == [(0, 2, ks.DIR_IN), (1, 1, ks.DIR_OUT)]
    assert g.undirected_neighbor_set(1) == {0, 3}
    assert type(g.neighbors(3)) is list and type(g.undirected_neighbor_set(3)) is set
    assert g.neighbors(3) == [(0, 1, ks.DIR_IN)]


@pytest.mark.parametrize("triplets, message", [
    ([(0, 1, 1), (3, 1, 4), (0, 2, 9)], "entity id 3 out of range [0, 3)"),
    ([(0, 1, 1), (0, 2, 4)], "entity id 4 out of range [0, 3)"),
    ([(0, 1, 1), (1, 2, 0)], "relation id 2 out of range [0, 2)"),
    ([(0, -1, 1)], "relation id -1 out of range [0, 2)"),
], ids=["head_of_the_first_bad_triplet", "tail", "relation", "negative"])
def test_constructor_names_the_first_id_out_of_range(triplets, message):
    with pytest.raises(IndexError) as e:
        ks.KnowledgeGraph(n_entities=3, n_relations=2, triplets=triplets)
    assert str(e.value) == message


def reference_graph(rows):
    """Vocabularies, triplets and adjacency of `rows`, built edge by edge."""
    ent_names, ent_ids = [], {}
    rel_names = list(ks.RESERVED_RELATIONS)
    rel_ids = {name: i for i, name in enumerate(rel_names)}
    triplets, adj = [], {}
    for h, r, t in rows:
        for name in (h, t):
            if name not in ent_ids:
                ent_ids[name] = len(ent_names)
                ent_names.append(name)
        if r not in rel_ids:
            rel_ids[r] = len(rel_names)
            rel_names.append(r)
        triplet = (ent_ids[h], rel_ids[r], ent_ids[t])
        if triplet not in triplets:
            triplets.append(triplet)
            adj.setdefault(triplet[0], []).append((triplet[1], triplet[2], ks.DIR_OUT))
            adj.setdefault(triplet[2], []).append((triplet[1], triplet[0], ks.DIR_IN))
    return ent_names, ent_ids, rel_names, rel_ids, triplets, adj


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(
    st.just(None),
    st.tuples(st.sampled_from(["a", "b", "Round_Brush", "round brush", "c d"]),
              st.sampled_from(["likes", "is_a", "r 3"]),
              st.sampled_from(["a", "b", "Round_Brush", "e"]))), min_size=1, max_size=40))
def test_load_kg_matches_an_edge_by_edge_reference(lines):
    rows = [row for row in lines if row is not None]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kg.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join("" if row is None else "\t".join(row) + "\n" for row in lines))
        if not rows:
            with pytest.raises(ks.EmptyGraphError):
                ks.load_kg(path)
            return
        g, entities, relations = ks.load_kg(path)
    ent_names, ent_ids, rel_names, rel_ids, triplets, adj = reference_graph(rows)
    # without an alias file there are no explicit aliases; the default ones
    # are derived where the alias index is built
    assert (entities.names, entities.ids, entities.aliases) == (ent_names, ent_ids, {})
    assert (relations.names, relations.ids) == (rel_names, rel_ids)
    assert g.triplets == triplets
    assert (g.n_entities, g.n_relations) == (len(ent_names), len(rel_names))
    for v in range(g.n_entities):
        assert g.neighbors(v) == sorted(adj.get(v, []))
        assert g.undirected_neighbor_set(v) == {nb for _, nb, _ in adj.get(v, [])}
        out_edges = g.neighbors(v)
        for r in range(g.n_relations):
            for t in range(g.n_entities):
                assert ((r, t, ks.DIR_OUT) in out_edges) == ((v, r, t) in triplets)


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
    # the vocab holds only explicit aliases; the alias index derives the
    # name's default surface
    assert ev.aliases == {}
    assert build_alias_index(ev) == {"round": [(("round", "brush"), eid)]}


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


def line_reader_table(text, source, n_ids=None):
    # reference: the name table read line by line, (lineno, name, id) per line.
    # Every line's format is checked first: a line without exactly two
    # non-empty fields is named before any line's id or name
    layout = "name<TAB>id" + ("" if n_ids is None else " below %d" % n_ids)
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split("\t")
        if line and (len(parts) != 2 or "" in parts):
            raise ValueError("%s:%d: expected %s, got %r" % (source, lineno, layout, line))
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        name, _, nid = line.partition("\t")
        i = int(nid) if nid.isdecimal() else -1
        if i < 0 or str(i) != nid or (n_ids is not None and i >= n_ids):
            raise ValueError("%s:%d: expected name<TAB>id%s, got %r"
                             % (source, lineno, "" if n_ids is None else " below %d" % n_ids, line))
        yield lineno, name, i


def line_reader_vocab(text, source, reserved):
    # reference: Vocab.from_tsv checked line by line, raising at the first bad line
    names = []
    for lineno, name, nid in line_reader_table(text, source):
        n = len(names)
        new = name == reserved[n] if n < len(reserved) else name not in names + list(reserved)
        if nid != n or not new:
            raise ValueError("%s:%d: expected %s<TAB>%d, got %r"
                             % (source, lineno, reserved[n] if n < len(reserved) else "a new name",
                                n, "%s\t%d" % (name, nid)))
        names.append(name)
    if len(names) < len(reserved):
        raise ValueError("%s:%d: expected %s<TAB>%d, got the end of the table"
                         % (source, text.count("\n") + 1, reserved[len(names)], len(names)))
    return names


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as e:
        return "error", str(e)


NAME = st.sampled_from(["[A]", "[B]", "x", "y", "z", "", " ", "x y", "é"])
ID = st.sampled_from(["0", "1", "2", "3", "4", "5", "05", "-1", "+1", "", " 1", "١", "1_0", "99"])
TABLE_LINE = st.one_of(st.just(""),
                       st.tuples(NAME, st.integers(0, 5)).map(lambda p: "%s\t%d" % p),   # maybe dense
                       st.tuples(NAME, ID).map("\t".join),
                       st.tuples(NAME, ID, ID).map("\t".join),                           # two tabs
                       NAME)                                                             # no tab


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(TABLE_LINE, max_size=8), end=st.sampled_from(["", "\n", "\n\n"]),
       reserved=st.sampled_from([(), ("[A]",), ("[A]", "[B]")]))
def test_bulk_vocab_table_reads_as_the_line_reader(lines, end, reserved):
    text = "\n".join(lines) + end
    expected = outcome(line_reader_vocab, text, "t.tsv", reserved)
    got = outcome(ks.Vocab.from_tsv, text, "t.tsv", reserved)
    assert (got[0], got[1].names if got[0] == "ok" else got[1]) == expected


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(TABLE_LINE, max_size=8), end=st.sampled_from(["", "\n", "\n\n"]),
       n_ids=st.sampled_from([None, 0, 3, 6]))
def test_bulk_name_table_reads_as_the_line_reader(lines, end, n_ids):
    text = "\n".join(lines) + end
    expected = outcome(lambda *args: list(line_reader_table(*args)), text, "t.tsv", n_ids)
    if expected[0] == "ok":
        expected = ("ok", [(name, i) for _, name, i in expected[1]])
    assert outcome(ks.read_name_table, text, "t.tsv", n_ids) == expected


def test_dense_tables_take_the_bulk_path(tmp_path, monkeypatch):
    # the line locator runs only for input that fails: valid KG and alias
    # files and all four checkpoint tables never reach it
    monkeypatch.setattr(ks, "line_number", None)
    kg = write_kg(tmp_path, ["a\tr\tb", "", "b\tr\tc"])
    aliases = write_kg(tmp_path, ["Bee\tb", "", "sea\tc"], name="aliases.tsv")
    g, entities, relations = ks.load_kg(kg, aliases)
    assert entities.aliases == {"bee": 1, "sea": 2}
    tokens = ks.Vocab(RESERVED_TOKENS + ("x", "y"))
    path = str(tmp_path / "c.drgn")
    pt.save_checkpoint(path, {}, tokens, entities, relations)
    _, tokens2, entities2, relations2, _ = pt.load_checkpoint(path)
    assert [v.names for v in (tokens2, entities2, relations2)] == [
        tokens.names, entities.names, relations.names]
    assert entities2.aliases == entities.aliases
    text = ks.Vocab(("[A]", "x", "y")).to_tsv() + "\n"
    assert ks.Vocab.from_tsv(text, "t.tsv", ("[A]",)).names == ["[A]", "x", "y"]
    assert ks.read_name_table(text, "t.tsv", 3) == [("[A]", 0), ("x", 1), ("y", 2)]


@pytest.mark.parametrize("lines, message", [
    (["a\tnot_an_entity", "broken"], "2: expected surface<TAB>entity_name, got 'broken'"),
    (["a\tnot_an_entity", "b\t\ta"], "2: expected surface<TAB>entity_name, got 'b\\t\\ta'"),
    (["", "x\ta", "y\tnope", "z\tnever"], "3: unknown entity 'nope'"),
    (["x\ta", "\tb"], "2: expected surface<TAB>entity_name, got '\\tb'"),
], ids=["malformed_after_unknown_entity", "empty_field_after_unknown_entity", "first_unknown_entity",
        "empty_surface"])
def test_alias_file_names_a_format_error_before_a_content_error(tmp_path, lines, message):
    kg = write_kg(tmp_path, ["a\tr\tb"])
    aliases = write_kg(tmp_path, lines, name="aliases.tsv")
    with pytest.raises(ks.KGParseError) as e:
        ks.load_kg(kg, aliases)
    assert str(e.value) == "%s:%s" % (aliases, message)


def test_alias_file_later_line_overrides_an_earlier_one(tmp_path):
    # surfaces are lowercased, so "Brush" and "brush" are one alias
    kg = write_kg(tmp_path, ["a\tr\tb"])
    aliases = write_kg(tmp_path, ["Brush\ta", "This\tb", "brush\tb", "this\ta"], name="aliases.tsv")
    _, entities, _ = ks.load_kg(kg, aliases)
    assert entities.aliases == {"brush": entities.ids["b"], "this": entities.ids["a"]}


@pytest.mark.parametrize("text, reserved, n_ids, message", [
    ("[A]\t0\n\t1\n", ("[A]",), None, "2: expected name<TAB>id, got '\\t1'"),
    ("\t0\n", ("[A]",), None, "1: expected name<TAB>id, got '\\t0'"),
    ("x\t0\n\t1\n", None, 2, "2: expected name<TAB>id below 2, got '\\t1'"),
    ("x\t7\ny\n", ("[A]",), None, "2: expected name<TAB>id, got 'y'"),
    ("x\t7\ny\n", None, 2, "2: expected name<TAB>id below 2, got 'y'"),
    ("x\t05\ny\t1\t2\n", None, None, "2: expected name<TAB>id, got 'y\\t1\\t2'"),
], ids=["empty_name", "empty_reserved_name", "empty_alias_name", "tab_count_after_bad_id",
        "tab_count_after_out_of_range_id", "tab_count_after_leading_zero"])
def test_name_table_names_a_format_error_before_a_content_error(text, reserved, n_ids, message):
    # the program never writes an empty name, so a table holding one is refused
    with pytest.raises(ks.KGParseError) as e:
        if reserved is None:
            ks.read_name_table(text, "t.tsv", n_ids)
        else:
            ks.Vocab.from_tsv(text, "t.tsv", reserved)
    assert str(e.value) == "t.tsv:" + message


@pytest.mark.parametrize("data, lineno", [
    (b"a\tr\tb\nb\tr\tc\n\xff\tr\td\n", 3),
    (b"a\tr\tb\r\nb\tr\tc\r\n\xff\tr\td\r\n", 3),
    (b"a\tr\tb\rb\tr\tc\r\xff\tr\td\r", 3),
    (b"a\tr\tb\r\rb\tr\tc\n\r\n\xff", 5),
    (b"a\tr\tb\rb\tr\xffc\r", 2),
    (b"\xef\xbb\xbfa\tr\tb\nb\tr\tc\n\xff\tr\td\n", 3),
    (b"\xef\xbb\xbfa\tr\tb\rb\tr\tc\r\xff\tr\td\r", 3),
    (b"\xef\xbb\xbf\xff\tr\td\n", 1),
], ids=["lf", "crlf", "cr", "mixed", "mid_line", "bom_lf", "bom_cr", "bom_then_bad_byte"])
def test_bad_byte_is_named_on_its_universal_newline_line(tmp_path, data, lineno):
    # "\r\n", "\r" and "\n" each end a line, as open() reads them
    path = tmp_path / "kg.tsv"
    path.write_bytes(data)
    with pytest.raises(ks.KGParseError) as e:
        ks.load_kg(str(path))
    assert str(e.value) == "%s:%d: not valid UTF-8" % (path, lineno)


def test_kg_and_alias_files_with_a_byte_order_mark_read_as_without(tmp_path):
    # a leading byte-order mark is not part of the first entity or surface
    loaded = []
    for bom in (b"", b"\xef\xbb\xbf"):
        (tmp_path / "kg.tsv").write_bytes(bom + b"a\tr\tb\r\nb\tr\tc\n")
        (tmp_path / "aliases.tsv").write_bytes(bom + b"Ay\ta\n")
        g, entities, relations = ks.load_kg(str(tmp_path / "kg.tsv"), str(tmp_path / "aliases.tsv"))
        loaded.append((g.triplets, entities.names, entities.aliases, relations.names))
    assert loaded[1] == loaded[0]
    assert loaded[0][1:3] == (["a", "b", "c"], {"ay": 0})


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("lines, error", [
    (["a\tr\tb"], None),
    (["a\tr\tb", "a\tr"], ks.KGParseError),
    ([], ks.EmptyGraphError),
], ids=["returns", "parse_error", "empty_graph"])
def test_load_kg_restores_the_collector_state(tmp_path, lines, error, enabled):
    # the graph is built with the cyclic collector paused, and its state is
    # given back however load_kg ends
    path = write_kg(tmp_path, lines)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if error is None:
            ks.load_kg(path)
        else:
            with pytest.raises(error):
                ks.load_kg(path)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()
