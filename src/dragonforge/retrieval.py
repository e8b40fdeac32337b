"""Text-side input preparation: tokenization, entity linking, local-KG retrieval.

`segment_corpus` tokenizes a pretraining corpus once, into segments of token
text that `build_vocab` counts. `Retriever.inputs` is the one path from raw
text to encoder inputs, for pretraining, finetuning, evaluation and attention
dumps alike. Texts become (TextSegment, LocalKG): dictionary longest-match
linking produces the linked entity set, 2-hop bridge expansion plus pruning
produces the node set, and the interaction node is wired to surviving linked
entities. Segments with no linked entities fall back to a dummy single-node
graph. In verbalized mode the local KG is rendered into the token sequence
behind a dummy graph.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .kg_store import EntityVocab, KnowledgeGraph, R_EL, Vocab, default_surface, read_text

# Reserved token ids; bracketed uppercase forms cannot be produced by the
# lowercasing tokenizer, so corpus tokens never collide with them.
PAD, UNK, INT, MASK, SEP = 0, 1, 2, 3, 4
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[INT]", "[MASK]", "[SEP]")

# Sentinel node ids inside LocalKG node lists
V_INT = -1
DUMMY_NODE = -2

_TOKEN_RE = re.compile(r"[a-z0-9_']+|[^a-z0-9_'\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace+punctuation split, after dropping format characters
    (category Cf: a zero-width space, a soft hyphen), which would split a word."""
    if not (text.isascii() or text.isprintable()):   # a format character is neither ASCII nor printable
        text = "".join(ch for ch in text if unicodedata.category(ch) != "Cf")
    return _TOKEN_RE.findall(text.lower())


def build_vocab(segments: list[str], min_freq: int = 2) -> Vocab:
    """Vocabulary of segment_corpus's segments; tokens below min_freq map to [UNK].

    A segment is its tokens joined by single spaces and every corpus token
    lies in exactly one segment, so splitting the segments on spaces counts
    the corpus's tokens. A str (a corpus path) is refused with a TypeError:
    it would count as its characters."""
    if isinstance(segments, str):
        raise TypeError("build_vocab takes segment_corpus's segments, not a path: %r" % segments)
    counts = Counter(tok for segment in segments for tok in segment.split(" "))
    return Vocab(RESERVED_TOKENS + tuple(tok for tok in sorted(counts) if counts[tok] >= min_freq))


@dataclass
class TextSegment:
    """Token-id sequence whose position 0 is the interaction token [INT]."""
    token_ids: list[int]

    def __post_init__(self):
        assert self.token_ids[0] == INT, "segment must start with the interaction token"

    @property
    def length(self) -> int:
        return len(self.token_ids)


@dataclass
class LocalKG:
    """Retrieved subgraph; nodes[0] is the interaction-node sentinel.

    Edges are (local_head, rel, local_tail) index triples. Interaction-node
    edges use the reserved interaction-link relation and point at linked
    entities only, one edge per kept linked entity.
    """
    nodes: list[int]
    edges: list[tuple[int, int, int]]
    is_dummy: bool = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def entity_ids(self) -> list[int]:
        return self.nodes[1:]

    def local_index(self, entity_id: int) -> int:
        return self.nodes.index(entity_id)


def build_alias_index(entities: EntityVocab) -> dict[str, list[tuple[tuple[str, ...], int]]]:
    """first token -> [(token tuple, entity id)], longest aliases first.

    The aliases are each name's default_surface, set in id order so that the
    first of several names with one default surface keeps it, overridden by
    the explicit aliases."""
    aliases: dict[str, int] = {}
    for i, name in enumerate(entities.names):
        aliases.setdefault(default_surface(name), i)
    aliases.update(entities.aliases)
    index: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    for surface, eid in sorted(aliases.items()):
        toks = tuple(tokenize(surface))
        if not toks:
            continue
        index.setdefault(toks[0], []).append((toks, eid))
    for bucket in index.values():
        bucket.sort(key=lambda p: (-len(p[0]), p[0]))
    return index


def link_entities(text: str, alias_index: dict, token_vocab: Vocab) -> tuple[TextSegment, set[int]]:
    """Greedy leftmost-longest match of build_alias_index's aliases over lowercased tokens."""
    words = tokenize(text)
    linked: set[int] = set()
    i = 0
    while i < len(words):
        matched = 0
        for cand, eid in alias_index.get(words[i], ()):
            if len(cand) <= len(words) - i and tuple(words[i:i + len(cand)]) == cand:
                linked.add(eid)
                matched = len(cand)
                break
        i += matched if matched else 1
    return TextSegment([INT] + [token_vocab.ids.get(w, UNK) for w in words]), linked


def dummy_local_kg() -> LocalKG:
    return LocalKG(nodes=[V_INT, DUMMY_NODE], edges=[], is_dummy=True)


def retrieve_local_kg(v_el: set[int], g: KnowledgeGraph, max_nodes: int,
                      make_rng: Callable[[], np.random.Generator]) -> LocalKG:
    """Linked entities plus 2-hop bridge nodes, pruned to max_nodes.

    Bridges are nodes on an (undirected) length-2 path between two distinct
    linked entities; direct 1-hop pairs contribute no bridge. Linked entities
    are always retained ahead of bridge sampling.

    make_rng is a zero-argument stream factory, called at most once and only
    when pruning samples: more linked entities than max_nodes, or more
    bridges than a nonzero remaining budget. Building a seeded stream costs
    more than most retrievals, and most retrievals prune nothing.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if not v_el:
        return dummy_local_kg()

    linked = sorted(v_el)
    neigh = {e: g.undirected_neighbor_set(e) for e in linked}
    bridges: set[int] = set()
    for i, a in enumerate(linked):
        for b in linked[i + 1:]:
            bridges |= neigh[a] & neigh[b]
    bridges -= v_el

    if len(linked) > max_nodes:
        keep_linked = sorted(make_rng().choice(linked, size=max_nodes, replace=False).tolist())
        keep_bridges: list[int] = []
    else:
        keep_linked = linked
        budget = max_nodes - len(linked)
        pool = sorted(bridges)
        if len(pool) <= budget:
            keep_bridges = pool
        elif budget:
            keep_bridges = sorted(make_rng().choice(pool, size=budget, replace=False).tolist())
        else:
            keep_bridges = []

    kept = keep_linked + keep_bridges
    kept_set = set(kept)
    nodes = [V_INT] + kept
    index = {e: i + 1 for i, e in enumerate(kept)}

    edges = [(0, R_EL, index[e]) for e in keep_linked]
    seen: set[tuple[int, int, int]] = set()
    for v in kept:
        for rel, nb, direction in g.neighbors(v):
            if nb not in kept_set:
                continue
            h, t = (v, nb) if direction == 0 else (nb, v)
            key = (index[h], rel, index[t])
            if key not in seen:
                seen.add(key)
                edges.append(key)
    return LocalKG(nodes=nodes, edges=edges)


def verbalize_kg(local: LocalKG, entities: EntityVocab, relations: Vocab,
                 token_vocab: Vocab, budget: int, name_ids: dict[str, list[int]]) -> list[int]:
    """Render each non-interaction edge as `head rel tail` tokens, [SEP]-joined.

    Whole sentences are kept while the suffix holds at most `budget` tokens.
    Returns a token-id suffix without the leading [INT]. `name_ids` memoises
    each entity or relation name's token ids under token_vocab, so that a
    caller that keeps it tokenizes each name once.
    """
    out: list[int] = []
    for h, r, t in local.edges:
        if r == R_EL:
            continue
        sent = []
        for name in (entities.names[local.nodes[h]], relations.names[r], entities.names[local.nodes[t]]):
            if name not in name_ids:
                name_ids[name] = [token_vocab.ids.get(tok, UNK) for tok in tokenize(default_surface(name))]
            sent += name_ids[name]
        addition = ([SEP] if out else []) + sent
        if len(out) + len(addition) > budget:
            break
        out.extend(addition)
    return out


class Retriever:
    """Raw text -> (TextSegment, LocalKG) encoder inputs, over one alias index.
    kg_mode "verbalized" folds the local KG into the tokens behind a dummy graph."""

    def __init__(self, kg: KnowledgeGraph, entities: EntityVocab, relations: Vocab,
                 token_vocab: Vocab, max_seq_len: int, max_nodes: int, kg_mode: str = "graph"):
        self.kg, self.entities, self.relations, self.token_vocab = kg, entities, relations, token_vocab
        self.max_seq_len, self.max_nodes, self.kg_mode = max_seq_len, max_nodes, kg_mode
        self.alias_index = build_alias_index(entities)
        self.name_ids: dict[str, list[int]] = {}   # verbalize_kg's memo of name token ids

    def inputs(self, texts: list[str], make_rng: Callable[[], np.random.Generator]
               ) -> tuple[TextSegment, LocalKG]:
        """Link each text, join their token ids with [SEP] and cut them to
        max_seq_len, then retrieve the local KG of all linked entities.
        Verbalized mode appends [SEP] and the whole KG sentences that fit in
        max_seq_len, then replaces the graph with a dummy.

        make_rng is the retrieval's zero-argument stream factory, e.g.
        partial(split_rng, seed, name, index): retrieve_local_kg calls it at
        most once, and only when pruning samples."""
        ids, v_el = [INT], set()
        for i, text in enumerate(texts):
            seg, linked = link_entities(text, self.alias_index, self.token_vocab)
            ids += ([SEP] if i else []) + seg.token_ids[1:]
            v_el |= linked
        seg = TextSegment(ids[:self.max_seq_len])
        local = retrieve_local_kg(v_el, self.kg, self.max_nodes, make_rng)
        if self.kg_mode == "verbalized":
            suffix = verbalize_kg(local, self.entities, self.relations, self.token_vocab,
                                  budget=max(0, self.max_seq_len - seg.length - 1),
                                  name_ids=self.name_ids)
            if suffix:
                seg = TextSegment(seg.token_ids + [SEP] + suffix)
            local = dummy_local_kg()
        return seg, local


def segment_corpus(corpus_file: str, max_seq_len: int) -> list[str]:
    """Greedy packing of consecutive sentences into segments of token text.

    Sentences are lines, each tokenized once, and a line with no tokens ends
    a document. A segment is its tokens joined by single spaces, so
    tokenize(segment) == segment.split(" "). Segments hold at most
    max_seq_len - 1 tokens (one slot reserved for [INT]) and never cross
    document boundaries; an over-long sentence is cut into pieces of that
    many tokens.
    """
    budget = max_seq_len - 1
    segments: list[str] = []
    cur: list[str] = []
    for line in read_text(corpus_file).split("\n") + [""]:   # the end of the file ends the last document
        toks = tokenize(line)
        # a blank line, an over-long sentence or a full segment ends the segment
        if not toks or len(cur) + len(toks) > budget:
            if cur:
                segments.append(" ".join(cur))
            cur = []
        if len(toks) > budget:
            segments += (" ".join(toks[lo:lo + budget]) for lo in range(0, len(toks), budget))
        else:
            cur += toks
    return segments
