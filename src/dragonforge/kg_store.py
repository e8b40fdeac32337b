"""Global knowledge-graph store: vocabularies, triplet set, adjacency index.

Triplet files are TSV lines `head<TAB>relation<TAB>tail`, split into fields
in bulk and built into a graph in one pass. Edges are stored directed as
written; inverse traversal is an index property. The relation vocabulary
reserves an interaction-link relation and its inverse, which no KG file may
name, ahead of file-defined relations, so local graphs can wire the
interaction node.

Tokens, entities and relations are each a `Vocab`; `name_table` and
`read_name_table` are the one `name<TAB>id` codec of a checkpoint's tokens,
entities, relations and aliases tables.
"""

from __future__ import annotations

import gc
from functools import cached_property


class KGParseError(ValueError):
    """Malformed triplet/alias file, or an input file that is not UTF-8;
    the message names the file and line."""


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


def _tab_fields(lines: list[str], n_fields: int) -> list[str] | None:
    """The tab-separated fields of `lines` in order, split in bulk; None for
    no lines, or unless every line has exactly n_fields of them."""
    # a line's fields, a "\n" piece, the next line's fields, ...
    fields = "\t\n\t".join(lines).split("\t")
    step = n_fields + 1
    if len(fields) != step * len(lines) - 1 or fields[n_fields::step] != ["\n"] * (len(lines) - 1):
        return None
    del fields[n_fields::step]
    return fields


def _table_lines(text: str, source: str, n_ids: int | None):
    """Yield (line number, name, id) per non-blank line; a line without a tab or
    a plain decimal id below n_ids (if given) raises ValueError naming it."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        name, _, nid = line.partition("\t")
        i = int(nid) if nid.isdecimal() else -1
        if i < 0 or str(i) != nid or (n_ids is not None and i >= n_ids):
            raise ValueError("%s:%d: expected name<TAB>id%s, got %r"
                             % (source, lineno, "" if n_ids is None else " below %d" % n_ids, line))
        yield lineno, name, i


def _table_fields(text: str) -> tuple[list[str], list[str]] | None:
    """(names, id strings) of a name table's non-blank lines, split in bulk,
    or None unless every non-blank line has exactly one tab."""
    fields = _tab_fields(list(filter(None, text.split("\n"))), 2)
    return None if fields is None else (fields[0::2], fields[1::2])


def read_name_table(text: str, source: str, n_ids: int | None = None) -> list[tuple[str, int]]:
    """(name, id) per non-blank line; a line without a tab or a plain decimal
    id below n_ids (if given) raises ValueError naming it. The table is
    checked whole; only a table that fails is read line by line, which names
    the bad line."""
    table = _table_fields(text)
    if table is not None:
        names, nids = table
        try:
            ids = list(map(int, nids))
        except ValueError:   # e.g. an empty id
            ids = []
        if (ids and list(map(str, ids)) == nids and min(ids) >= 0
                and (n_ids is None or max(ids) < n_ids)):
            return list(zip(names, ids))
    return [(name, i) for _, name, i in _table_lines(text, source, n_ids)]


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
        """Read a to_tsv table back; ids out of line order, a repeated name or
        reserved names not first in order raise ValueError naming the line.
        The table is checked whole; only a table that fails is read line by
        line, which names the bad line."""
        table = _table_fields(text)
        if table is not None:
            names, nids = table
            if nids == list(map(str, range(len(nids)))) and names[:len(reserved)] == list(reserved):
                vocab = cls(names)
                if len(vocab) == len(names):   # no name repeated
                    return vocab
        vocab = cls(reserved)
        n = 0
        for lineno, name, nid in _table_lines(text, source, None):
            # add() returns a reserved or repeated name's earlier id
            if nid != n or vocab.add(name) != n:
                raise ValueError("%s:%d: expected %s<TAB>%d, got %r"
                                 % (source, lineno, reserved[n] if n < len(reserved) else "a new name",
                                    n, "%s\t%d" % (name, nid)))
            n += 1
        if n < len(reserved):
            raise ValueError("%s:%d: expected %s<TAB>%d, got the end of the table"
                             % (source, text.count("\n") + 1, reserved[n], n))
        return vocab


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
    """The file as open() reads it in text mode: UTF-8, with universal
    newlines. Bytes that are not UTF-8 raise KGParseError naming their line.
    Every file the library reads but a checkpoint is read here."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:   # read() decodes the whole file at once: e.object is its bytes
        raise KGParseError("%s:%d: not valid UTF-8" % (path, e.object.count(b"\n", 0, e.start) + 1)) from None


def _read_tsv_rows(path: str, layout: str):
    """Yield (line number, fields) for every non-blank line of a TSV file.

    `layout` names the fields, e.g. "surface<TAB>entity_name"; a line without
    exactly that many non-empty fields raises KGParseError naming the line.
    """
    n_fields = layout.count("<TAB>") + 1
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != n_fields or not all(parts):
            raise KGParseError("%s:%d: expected %s, got %r" % (path, lineno, layout, line))
        yield lineno, parts


def load_kg(triplet_file: str, alias_file: str | None = None
            ) -> tuple[KnowledgeGraph, EntityVocab, Vocab]:
    """Load a triplet TSV, then merge an optional alias TSV.

    Entity and relation ids follow first appearance in file order, after
    the reserved interaction-link relations. Triplets are kept directed as
    written; the GNN reads every edge in both directions itself. KGParseError
    names the line of a byte that is not UTF-8, else the first malformed
    line, else the first reserved relation name.

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
    layout = "head<TAB>relation<TAB>tail"
    lines = list(filter(None, read_text(triplet_file).split("\n")))
    if not lines:
        raise EmptyGraphError("%s: no triplets" % triplet_file)
    fields = _tab_fields(lines, 3)
    if fields is None or "" in fields:   # the line-by-line reader names the first bad line
        fields = [f for _, parts in _read_tsv_rows(triplet_file, layout) for f in parts]
    rels = fields[1::3]
    if R_EL_NAME in rels or R_EL_INV_NAME in rels:
        for lineno, (_, rel, _) in _read_tsv_rows(triplet_file, layout):
            if rel in RESERVED_RELATIONS:
                raise KGParseError("%s:%d: relation %r is reserved for the interaction link"
                                   % (triplet_file, lineno, rel))
    relations = Vocab(RESERVED_RELATIONS + tuple(rels))
    heads, tails = fields[0::3], fields[2::3]
    del fields[1::3]   # heads and tails interleaved, in file order
    entities = EntityVocab(fields)
    entity_id, relation_id = entities.ids.__getitem__, relations.ids.__getitem__
    g = KnowledgeGraph(len(entities), len(relations),
                       list(zip(map(entity_id, heads), map(relation_id, rels), map(entity_id, tails))))
    if alias_file is not None:
        load_aliases(alias_file, entities)
    return g, entities, relations


def load_aliases(alias_file: str, entities: EntityVocab) -> None:
    """Merge a `surface<TAB>entity_name` TSV into the vocab's explicit
    aliases, a later line overriding an earlier one."""
    for lineno, (surface, name) in _read_tsv_rows(alias_file, "surface<TAB>entity_name"):
        if name not in entities.ids:
            raise KGParseError("%s:%d: unknown entity %r" % (alias_file, lineno, name))
        entities.aliases[surface.lower()] = entities.ids[name]
