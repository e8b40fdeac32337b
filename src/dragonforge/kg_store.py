"""Global knowledge-graph store: vocabularies, triplet set, adjacency index.

Every tab-separated input is read by `read_tsv`: a KG file of
`head<TAB>relation<TAB>tail` lines, an alias file of
`surface<TAB>entity_name` lines, and a checkpoint's tokens, entities,
relations and aliases tables of `name<TAB>id` lines. It splits every
non-blank line into fields in one bulk pass and refuses a line without
exactly its layout's non-empty fields. The checks on what the fields hold
run on the split columns afterwards, so a format error is named before a
content error; `line_number` finds the line of either, and runs only for
input that fails.

Edges are stored directed as written; inverse traversal is an index
property. The relation vocabulary reserves an interaction-link relation and
its inverse, which no KG file may name, ahead of file-defined relations, so
local graphs can wire the interaction node.

Tokens, entities and relations are each a `Vocab`. `name_table` writes a
`name<TAB>id` table; `Vocab.from_tsv` reads a tokens, entities or relations
table back and `read_name_table` the aliases table.
"""

from __future__ import annotations

import gc
from functools import cached_property


class KGParseError(ValueError):
    """A malformed line of a TSV input (a KG or alias file, or a checkpoint
    table), or an input file that is not UTF-8; the message names the
    source and line."""


class EmptyGraphError(ValueError):
    """Triplet file contained no triplets."""


# Reserved relation ids
R_EL = 0
R_EL_INV = 1
R_EL_NAME = "[R_EL]"
R_EL_INV_NAME = "[R_EL_INV]"
RESERVED_RELATIONS = (R_EL_NAME, R_EL_INV_NAME)

# Edge direction tags used by adjacency entries and GNN messages
DIR_OUT = 0  # the queried node is the head
DIR_IN = 1   # the queried node is the tail


def name_table(pairs) -> str:
    """`name<TAB>id` lines of (name, id) pairs."""
    return "".join("%s\t%d\n" % pair for pair in pairs)


def line_number(text: str, k: int) -> int:
    """The line number of text's k-th non-blank line, counting from 0, or
    that of its last line when it has no k-th."""
    lines = text.split("\n")
    nonblank = [lineno for lineno, line in enumerate(lines, start=1) if line]
    return nonblank[k] if k < len(nonblank) else len(lines)


def read_tsv(text: str, source: str, layout: str) -> list[str]:
    """The fields of text's non-blank lines in order, as many per line as
    `layout` names (e.g. "surface<TAB>entity_name"), split in bulk. Only if
    some line lacks exactly that many non-empty fields is that line looked
    for; the first raises KGParseError naming it."""
    n = layout.count("<TAB>") + 1
    lines = list(filter(None, text.split("\n")))
    if not lines:
        return []
    # a line's fields, a "\n" piece, the next line's fields, ...
    fields = "\t\n\t".join(lines).split("\t")
    if len(fields) == (n + 1) * len(lines) - 1 and fields[n::n + 1] == ["\n"] * (len(lines) - 1):
        del fields[n::n + 1]
        if "" not in fields:
            return fields
    k = next(k for k, line in enumerate(lines) if len(parts := line.split("\t")) != n or "" in parts)
    raise KGParseError("%s:%d: expected %s, got %r" % (source, line_number(text, k), layout, lines[k]))


def _is_id(nid: str, n_ids: int | None) -> bool:
    """Whether nid is a plain decimal, with no sign or leading zero, below n_ids (if given)."""
    return nid.isdecimal() and str(int(nid)) == nid and (n_ids is None or int(nid) < n_ids)


def read_name_table(text: str, source: str, n_ids: int | None = None) -> list[tuple[str, int]]:
    """(name, id) per non-blank line of a name table, read by read_tsv; an
    id that is not a plain decimal below n_ids (if given) raises
    KGParseError naming its line."""
    layout = "name<TAB>id" if n_ids is None else "name<TAB>id below %d" % n_ids
    fields = read_tsv(text, source, layout)
    names, nids = fields[0::2], fields[1::2]
    if all(map(str.isdecimal, nids)):
        ids = list(map(int, nids))
        if list(map(str, ids)) == nids and (n_ids is None or max(ids, default=-1) < n_ids):
            return list(zip(names, ids))
    k = next(k for k, nid in enumerate(nids) if not _is_id(nid, n_ids))
    raise KGParseError("%s:%d: expected %s, got %r"
                       % (source, line_number(text, k), layout, "%s\t%s" % (names[k], nids[k])))


class Vocab:
    """Names under dense ids 0, 1, 2, ...; the first ids hold `names`' distinct values."""

    def __init__(self, names: tuple[str, ...] | list[str] = ()):
        self.names: list[str] = list(dict.fromkeys(names))
        self.ids: dict[str, int] = dict(zip(self.names, range(len(self.names))))

    def add(self, name: str) -> int:
        """The id of `name`, which a new name gets as the next dense id."""
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def __len__(self) -> int:
        return len(self.names)

    def to_tsv(self) -> str:
        return name_table((name, i) for i, name in enumerate(self.names))

    @classmethod
    def from_tsv(cls, text: str, source: str, reserved: tuple[str, ...] = ()) -> "Vocab":
        """Read a to_tsv table back with read_tsv. The table is checked whole;
        only if its ids are not 0, 1, 2, ... in line order, a name repeats or
        the reserved names are not first in order is the first such line
        looked for, and KGParseError names it."""
        fields = read_tsv(text, source, "name<TAB>id")
        names, nids = fields[0::2], fields[1::2]
        vocab = cls(names)
        if (nids == list(map(str, range(len(nids)))) and names[:len(reserved)] == list(reserved)
                and len(vocab) == len(names)):   # no name repeated
            return vocab
        vocab = cls(reserved)
        for k, (name, nid) in enumerate(zip(names, nids)):
            # add() returns a reserved or repeated name's earlier id
            if nid != str(k) or vocab.add(name) != k:
                expected = ("%s<TAB>%d" % (reserved[k] if k < len(reserved) else "a new name", k)
                            if _is_id(nid, None) else "name<TAB>id")
                raise KGParseError("%s:%d: expected %s, got %r"
                                   % (source, line_number(text, k), expected, "%s\t%s" % (name, nid)))
        # every line is in place, so the table ends before its reserved names do
        raise KGParseError("%s:%d: expected %s<TAB>%d, got the end of the table"
                           % (source, line_number(text, len(names)), reserved[len(names)], len(names)))


def default_surface(name: str) -> str:
    return name.lower().replace("_", " ")


class EntityVocab(Vocab):
    """Entity names plus their explicit aliases, surface form -> id. Each
    name's default_surface is an alias too, which retrieval.build_alias_index
    derives and the explicit aliases override."""

    @cached_property
    def aliases(self) -> dict[str, int]:
        return {}


class KnowledgeGraph:
    """Triplets deduplicated in first-occurrence order, with a bidirectional adjacency index."""

    def __init__(self, n_entities: int, n_relations: int, triplets: list[tuple[int, int, int]]):
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.triplets = list(dict.fromkeys(triplets))
        # entity id -> list of (rel, neighbor, direction)
        self._adj = adj = {v: [] for v in range(n_entities)}
        for h, r, t in self.triplets:
            if not (0 <= h < n_entities and 0 <= t < n_entities and 0 <= r < n_relations):
                self._check_entity(h)
                self._check_entity(t)
                self._check_relation(r)
            adj[h].append((r, t, DIR_OUT))
            adj[t].append((r, h, DIR_IN))
        # entity id -> (sorted adjacency, distinct neighbors), built on first
        # query; tuples, which take a fraction of a set's memory and which no
        # caller can change
        self._index: dict[int, tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]] = {}

    def _check_entity(self, eid: int) -> None:
        if not 0 <= eid < self.n_entities:
            raise IndexError("entity id %d out of range [0, %d)" % (eid, self.n_entities))

    def _check_relation(self, rid: int) -> None:
        if not 0 <= rid < self.n_relations:
            raise IndexError("relation id %d out of range [0, %d)" % (rid, self.n_relations))

    def _indexed(self, v: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        self._check_entity(v)
        if v not in self._index:
            adj = self._adj[v]
            self._index[v] = (tuple(sorted(adj)), tuple({nb for _, nb, _ in adj}))
        return self._index[v]

    def neighbors(self, v: int) -> list[tuple[int, int, int]]:
        """Incident edges of v, both directions, sorted by (rel, neighbor, direction)."""
        return list(self._indexed(v)[0])

    def undirected_neighbor_set(self, v: int) -> set[int]:
        """Entities that share an edge with v, either way."""
        return set(self._indexed(v)[1])


def read_text(path: str) -> str:
    """The file as open() reads it in text mode: UTF-8 less a leading
    byte-order mark, with universal newlines. Bytes that are not UTF-8 raise
    KGParseError naming their line, counting "\r\n", "\r" and "\n" each as
    one line end. Every file the library reads but a checkpoint is read here."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as e:   # read() decodes the whole file at once: e.object is its bytes
        data, end = e.object, e.start
        line_ends = data.count(b"\n", 0, end) + data.count(b"\r", 0, end) - data.count(b"\r\n", 0, end)
        raise KGParseError("%s:%d: not valid UTF-8" % (path, line_ends + 1)) from None


def load_kg(triplet_file: str, alias_file: str | None = None
            ) -> tuple[KnowledgeGraph, EntityVocab, Vocab]:
    """Load a triplet TSV, then merge an optional `surface<TAB>entity_name`
    alias TSV into the vocab's explicit aliases, each surface lowercased and
    a later line overriding an earlier one.

    Entity and relation ids follow first appearance in file order, after
    the reserved interaction-link relations. Triplets are kept directed as
    written; the GNN reads every edge in both directions itself. Each file
    is read by read_tsv. KGParseError names the line of a byte that is not
    UTF-8, else the first malformed line, else the first reserved relation
    name in the KG file or unknown entity name in the alias file.

    The cyclic garbage collector is paused while the graph is built, and
    its earlier state restored. The build makes three tuples per triplet,
    none in a cycle; one young-generation pass over them at the end costs
    less than the collections they would set off on the way (20 for the
    CLI-default 4,500-line KG), and keeps that cost here rather than in
    whatever allocates next.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_kg(triplet_file, alias_file)
    finally:
        if enabled:
            gc.enable()
            gc.collect(0)


def _load_kg(triplet_file: str, alias_file: str | None) -> tuple[KnowledgeGraph, EntityVocab, Vocab]:
    text = read_text(triplet_file)
    fields = read_tsv(text, triplet_file, "head<TAB>relation<TAB>tail")
    if not fields:
        raise EmptyGraphError("%s: no triplets" % triplet_file)
    rels = fields[1::3]
    if R_EL_NAME in rels or R_EL_INV_NAME in rels:
        k = next(k for k, rel in enumerate(rels) if rel in RESERVED_RELATIONS)
        raise KGParseError("%s:%d: relation %r is reserved for the interaction link"
                           % (triplet_file, line_number(text, k), rels[k]))
    relations = Vocab(RESERVED_RELATIONS + tuple(rels))
    heads, tails = fields[0::3], fields[2::3]
    del fields[1::3]   # heads and tails interleaved, in file order
    entities = EntityVocab(fields)
    entity_id, relation_id = entities.ids.__getitem__, relations.ids.__getitem__
    g = KnowledgeGraph(len(entities), len(relations),
                       list(zip(map(entity_id, heads), map(relation_id, rels), map(entity_id, tails))))
    if alias_file is not None:
        text = read_text(alias_file)
        fields = read_tsv(text, alias_file, "surface<TAB>entity_name")
        names = fields[1::2]
        try:
            ids = list(map(entity_id, names))
        except KeyError:
            k = next(k for k, name in enumerate(names) if name not in entities.ids)
            raise KGParseError("%s:%d: unknown entity %r"
                               % (alias_file, line_number(text, k), names[k])) from None
        entities.aliases.update(zip(map(str.lower, fields[0::2]), ids))
    return g, entities, relations
