"""Metrics, synthetic-data generation, link-prediction ranking and attention
export. The ablation's cells live in the CLI, which runs each one as the
pretrain, finetune and eval-lp commands.

The synthetic world renders two-hop chain stories to text, one sentence per
fact, with complementary withholding: a slice of derived facts appears only
in the corpus (link-prediction test queries whose rule path is in the KG)
and a slice of distractor facts only in the KG (question-answering gold that
needs graph structure).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import numerics as nm
from .encoder import EncoderConfig, check_fields, encode, encode_batch
from .finetune import MCQAExample, pool
from .kg_store import KnowledgeGraph
from .numerics import Tensor
from .pretrain import (LinkPredHead, LPQuery, Optimizer, query_scores, tail_query, train_step,
                       triplet_scores)
from .retrieval import LocalKG, Retriever, TextSegment


@dataclass
class RankingReport:
    hits1: float
    hits3: float
    hits10: float
    mrr: float
    mean_rank: float
    n_queries: int
    filtered: bool
    skipped: int
    chance_mrr: float     # expected MRR and Hit@3 of a uniformly random order
    chance_hits3: float   # of each ranked query's candidates

    def __post_init__(self):
        assert self.hits1 <= self.hits3 + 1e-12 and self.hits3 <= self.hits10 + 1e-12
        assert self.hits10 <= 1.0 + 1e-12
        if self.n_queries:
            assert 0.0 < self.mrr <= 1.0 + 1e-12


def ranks_to_report(ranks: list[float], n_candidates: list[int], filtered: bool,
                    skipped: int) -> RankingReport:
    """Metrics of the gold ranks; n_candidates[i] is query i's candidate count.

    The chance floor comes from the counts alone: a uniformly random order of
    n candidates puts the gold at each rank with probability 1/n, so its
    expected reciprocal rank is H_n / n and its Hit@3 is min(3, n) / n.
    """
    if not ranks:
        return RankingReport(0.0, 0.0, 0.0, 0.0, 0.0, 0, filtered, skipped, 0.0, 0.0)
    arr = np.array(ranks, dtype=np.float64)
    n = np.array(n_candidates, dtype=np.int64)
    harmonic = np.cumsum(1.0 / np.arange(1, n.max() + 1))   # harmonic[k - 1] = H_k
    return RankingReport(
        hits1=float((arr <= 1.0).mean()), hits3=float((arr <= 3.0).mean()),
        hits10=float((arr <= 10.0).mean()), mrr=float((1.0 / arr).mean()),
        mean_rank=float(arr.mean()), n_queries=len(ranks),
        filtered=filtered, skipped=skipped,
        chance_mrr=float((harmonic[n - 1] / n).mean()),
        chance_hits3=float((np.minimum(3, n) / n).mean()))


def average_rank(scores: np.ndarray, gold_index: int) -> float:
    """1-based rank of the gold candidate with average tie-breaking."""
    gold = scores[gold_index]
    higher = int((scores > gold).sum())
    ties = int((scores == gold).sum()) - 1
    return higher + ties / 2.0 + 1.0


# ---------------------------------------------------------------------------
# Synthetic world
# ---------------------------------------------------------------------------

RELATION_POOL = ["likes", "fears", "eats", "guards", "teaches", "follows",
                 "praises", "visits", "avoids", "helps", "trusts", "mocks",
                 "serves", "joins", "leads", "greets"]

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _entity_name(rng: np.random.Generator) -> str:
    syllables = int(rng.integers(2, 4))
    return "".join(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
                   + _VOWELS[int(rng.integers(len(_VOWELS)))]
                   for _ in range(syllables))


def render_sentence(head: str, rel: str, tail: str) -> str:
    return "%s %s %s ." % (head, rel, tail)


@dataclass
class SyntheticWorld:
    """A generated world: named facts, their split between corpus and KG, and
    the corpus documents; seed and n_entities drive mcqa_dataset's draws."""
    n_entities: int
    seed: int
    entity_names: list[str]
    facts: list[tuple[str, str, str]]          # (head, rel, tail) names
    overlap: list[int]                         # fact indices in both modalities
    text_only: list[int]                       # in corpus, withheld from KG
    kg_only: list[int]                         # in KG, withheld from corpus
    train_docs: list[str]                      # newline-joined sentences
    eval_docs: list[str]
    doc_of_fact: dict[int, tuple[str, int]]    # fact idx -> ("train"|"eval", doc idx)

    def kg_fact_indices(self) -> list[int]:
        return sorted(self.overlap + self.kg_only)

    def aligned_text(self, fact_idx: int) -> str:
        split, di = self.doc_of_fact[fact_idx]
        docs = self.train_docs if split == "train" else self.eval_docs
        return docs[di].replace("\n", " ")

    def lp_queries(self) -> list[dict]:
        """Test triplets (absent from the KG) with their aligned text."""
        return [{"head": self.facts[i][0], "rel": self.facts[i][1],
                 "tail": self.facts[i][2], "text": self.aligned_text(i)}
                for i in self.text_only]

    def mcqa_dataset(self) -> dict[str, list[MCQAExample]]:
        """Questions `head rel ?` from KG-withheld-from-text facts.

        Distractors are tails the head reaches through a different relation,
        topped up with entities unconnected to the head when it has too few.
        Train/dev/test splits are disjoint by fact.
        """
        n_choices, splits = 4, (0.6, 0.15)   # splits: train and dev shares
        rng = nm.split_rng(self.seed, "mcqa/adversarial")
        fact_set = set(self.facts)
        by_head: dict[str, list[tuple[str, str]]] = {}
        connected: dict[str, set[str]] = {}
        for h, r, t in self.facts:
            by_head.setdefault(h, []).append((r, t))
            connected.setdefault(h, set()).add(t)
            connected.setdefault(t, set()).add(h)

        examples = []
        for i in self.kg_only:
            h, r, t = self.facts[i]
            pool = sorted({t2 for r2, t2 in by_head[h] if r2 != r
                           and t2 != t and (h, r, t2) not in fact_set})
            take = min(len(pool), n_choices - 1)
            chosen: list[str] = []
            if take:
                chosen = [pool[int(j)] for j in rng.choice(len(pool), size=take, replace=False)]
            for _ in range(1000):   # top up with entities unconnected to the head
                if len(chosen) == n_choices - 1:
                    break
                cand = self.entity_names[int(rng.integers(self.n_entities))]
                if cand != h and cand not in chosen and cand not in connected[h]:
                    chosen.append(cand)
            if len(chosen) < n_choices - 1:
                continue
            choices = [(chosen + [t])[int(j)] for j in rng.permutation(n_choices)]
            examples.append(MCQAExample("%s %s" % (h, r), choices, choices.index(t)))

        n = len(examples)
        n_train = int(round(splits[0] * n))
        n_dev = int(round(splits[1] * n))
        return {"train": examples[:n_train],
                "dev": examples[n_train:n_train + n_dev],
                "test": examples[n_train + n_dev:]}

    def write_files(self, out_dir: str) -> dict[str, str]:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}

        def put(name: str, content: str) -> None:
            p = os.path.join(out_dir, name)
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(content)
            paths[name] = p

        kg_facts = [self.facts[i] for i in self.kg_fact_indices()]
        in_kg = {name for h, _, t in kg_facts for name in (h, t)}
        put("corpus.txt", "\n\n".join(self.train_docs) + "\n")
        put("corpus_eval.txt", "\n\n".join(self.eval_docs) + "\n")
        put("kg.tsv", "".join("%s\t%s\t%s\n" % f for f in kg_facts))
        put("aliases.tsv", "".join("%s\t%s\n" % (n, n) for n in self.entity_names if n in in_kg))
        put("lp_test.jsonl", "".join(json.dumps(q) + "\n" for q in self.lp_queries()))
        data = self.mcqa_dataset()
        for split in ("train", "dev", "test"):
            put("mcqa_%s.jsonl" % split,
                "".join(json.dumps({"question": e.question, "choices": e.choices,
                                    "gold": e.gold}) + "\n" for e in data[split]))
        return paths


def generate_synthetic_world(n_entities: int = 500, n_relations: int = 8,
                             n_facts: int = 5000, leak_rate: float = 0.1,
                             seed: int = 0, sentences_per_doc: int = 4,
                             eval_doc_fraction: float = 0.1) -> SyntheticWorld:
    """Two-hop chain stories rendered to text, one sentence per fact.

    Relations come in (base1, base2, derived) families where (x base1 m) and
    (m base2 f) imply the fact (x derived f); the relations after the last
    family are distractor relations. A story is those three facts plus two
    distractor facts of its head x, and unattached distractor facts top the
    world up to n_facts. Each story is one document, so a document's graph
    carries its rule path. The withheld facts are n_leak derived facts (text
    only: link-prediction test triplets whose base path stays in the KG)
    and n_leak distractor facts (KG only: question-answering gold).
    """
    settings = SimpleNamespace(**locals())   # ValueErrors name the setting
    # a chain story draws three distinct entities, a relation family (two base
    # relations and a derived one) and two distractor relations
    check_fields(settings, lambda v: v >= 3, ">= 3", "n_entities")
    check_fields(settings, lambda v: 5 <= v <= len(RELATION_POOL),
                 "in [5, %d]" % len(RELATION_POOL), "n_relations")
    check_fields(settings, lambda v: v >= 1, ">= 1", "n_facts", "sentences_per_doc")
    check_fields(settings, lambda v: 0.0 <= v <= 0.5, "in [0, 0.5]", "leak_rate")
    check_fields(settings, lambda v: 0.0 <= v < 1.0, "in [0, 1)", "eval_doc_fraction")
    n_leak = int(round(leak_rate * n_facts))
    if n_leak > n_facts // 5:   # one derived fact per five-fact chain story
        raise ValueError("leak_rate: %.3f needs %d derived facts, world has %d"
                         % (leak_rate, n_leak, n_facts // 5))
    rng = nm.split_rng(seed, "world")
    draws = 0

    def count_draw() -> None:   # too many facts for the world's entities never finish
        nonlocal draws
        draws += 1
        if draws > 20 * n_facts + 1000:
            raise ValueError("n_facts: %d distinct facts do not fit %d entities and %d relations"
                             % (n_facts, n_entities, n_relations))

    relation_names = RELATION_POOL[:n_relations]
    reserved = set(relation_names) | {"."}
    names: list[str] = []
    seen = set(reserved)
    while len(names) < n_entities:
        cand = _entity_name(rng)
        if cand not in seen:
            seen.add(cand)
            names.append(cand)

    facts: list[tuple[str, str, str]] = []
    fact_set: set[tuple[str, str, str]] = set()
    derived: list[int] = []
    noise: list[int] = []
    stories: list[list[int]] = []   # fact indices that share a document

    def add_fact(h: str, r: str, t: str) -> int | None:
        f = (h, r, t)
        if f in fact_set:
            return None
        fact_set.add(f)
        facts.append(f)
        return len(facts) - 1

    n_families = (n_relations - 2) // 3
    families = [relation_names[3 * i:3 * i + 3] for i in range(n_families)]
    noise_rels = relation_names[3 * n_families:]
    n_chains = n_facts // 5
    c = 0
    while c < n_chains:
        count_draw()
        base1, base2, comp = families[c % n_families]
        x, m, f = (names[int(i)] for i in rng.choice(n_entities, size=3, replace=False))
        g1, g2 = (names[int(i)] for i in rng.choice(n_entities, size=2, replace=False))
        if g1 == x or g2 == x:
            continue
        trial = [(x, base1, m), (m, base2, f), (x, comp, f),
                 (x, noise_rels[c % len(noise_rels)], g1),
                 (x, noise_rels[(c + 1) % len(noise_rels)], g2)]
        if any(t in fact_set for t in trial):
            continue
        ids = [add_fact(*t) for t in trial]
        derived.append(ids[2])
        noise.extend([ids[3], ids[4]])
        stories.append(ids)
        c += 1
    while len(facts) < n_facts:  # top up with unattached distractor facts
        count_draw()
        h = int(rng.integers(n_entities))
        t = int(rng.integers(n_entities))
        if h == t:
            continue
        idx = add_fact(names[h], noise_rels[int(rng.integers(len(noise_rels)))], names[t])
        if idx is not None:
            noise.append(idx)

    # base facts stay in both modalities, so every entity of a text-only
    # (derived) fact is in the KG and entity linking resolves it
    derived_perm = [derived[int(i)] for i in rng.permutation(len(derived))]
    text_only = derived_perm[:n_leak]
    noise_perm = [noise[int(i)] for i in rng.permutation(len(noise))]
    kg_only = noise_perm[:n_leak]
    overlap = sorted(set(range(n_facts)) - set(text_only) - set(kg_only))

    corpus_set = set(overlap) | set(text_only)
    docs = [[i for i in story if i in corpus_set] for story in stories]
    leftovers = sorted(corpus_set.difference(*stories))
    leftovers = [leftovers[int(i)] for i in rng.permutation(len(leftovers))]
    docs.extend(leftovers[i:i + sentences_per_doc]
                for i in range(0, len(leftovers), sentences_per_doc))
    docs = [docs[int(i)] for i in rng.permutation(len(docs))]
    docs = [[d[int(i)] for i in rng.permutation(len(d))] for d in docs]

    n_eval = int(round(eval_doc_fraction * len(docs)))
    if n_eval == len(docs):
        raise ValueError("eval_doc_fraction: %s leaves none of %d documents for training"
                         % (eval_doc_fraction, len(docs)))
    doc_split = ["eval"] * n_eval + ["train"] * (len(docs) - n_eval)
    doc_split = [doc_split[int(i)] for i in rng.permutation(len(doc_split))]

    train_docs, eval_docs = [], []
    doc_of_fact: dict[int, tuple[str, int]] = {}
    for fact_ids, split in zip(docs, doc_split):
        text = "\n".join(render_sentence(*facts[i]) for i in fact_ids)
        target = train_docs if split == "train" else eval_docs
        for i in fact_ids:
            doc_of_fact[i] = (split, len(target))
        target.append(text)

    return SyntheticWorld(
        n_entities=n_entities, seed=seed, entity_names=names, facts=facts,
        overlap=overlap, text_only=sorted(text_only), kg_only=sorted(kg_only),
        train_docs=train_docs, eval_docs=eval_docs, doc_of_fact=doc_of_fact)


# ---------------------------------------------------------------------------
# Link-prediction evaluation
# ---------------------------------------------------------------------------


class ContextualScorer:
    """Scores candidates with contextualized node vectors (KG + text mode).

    `score` encodes a whole batch of (segment, local graph, query) items in
    one `encode_batch` call (eval mode, no dropout); item b's local node j is
    row node_offsets[b] + j of the batch's node vectors."""

    def __init__(self, params: dict[str, Tensor], enc_cfg: EncoderConfig, head: LinkPredHead):
        self.params = params
        self.enc_cfg = enc_cfg
        self.head = head

    def score(self, batch: list[tuple[TextSegment, LocalKG, LPQuery]]) -> np.ndarray:
        """Flat scores of every candidate of every query, in batch order."""
        out = encode_batch([(seg, local) for seg, local, _ in batch], self.params, self.enc_cfg,
                           mode="eval")
        return query_scores(out.nodes, [(q, np.arange(*out.node_offsets[b:b + 2]))
                                        for b, (_, _, q) in enumerate(batch)], self.head).values


class EntityTableScorer:
    """Scores candidates with a plain entity table, row = global entity id
    (the KG-only baseline of train_distmult_baseline)."""

    def __init__(self, entities: Tensor, head: LinkPredHead):
        self.entities = entities
        self.head = head

    def score(self, batch: list[tuple[TextSegment, LocalKG, LPQuery]]) -> np.ndarray:
        """Flat scores of every candidate of every query, in batch order."""
        return query_scores(self.entities, [(q, np.asarray(local.nodes)) for _, local, q in batch],
                            self.head).values


def eval_link_prediction(scorer, queries: list[dict], retriever: Retriever,
                         known_true: set[tuple[str, str, str]], seed: int = 0,
                         filtered: bool = True, batch_size: int = 1) -> RankingReport:
    """Rank the gold tail against local-graph candidates for each query.

    Each query is the tail_query of its triple over the retrieved graph (so
    the retriever runs in graph mode): candidates are the graph's entity
    nodes but the head; filtering drops candidates that form other
    known-true triplets. Queries whose head or tail fall outside the
    retrieved graph, or that tail_query refuses, are skipped and counted.

    Query qi is retrieved with its own stream factory partial(split_rng, seed,
    "lp_retrieval", qi), so skips and candidates do not depend on batching.
    Scorable queries go to `scorer.score` batch_size at a time, after the
    batch's last retrieval, plus a final partial batch.
    """
    entities, relations = retriever.entities, retriever.relations
    ranks: list[float] = []
    n_candidates: list[int] = []
    pending: list[tuple[TextSegment, LocalKG, LPQuery]] = []
    skipped = 0

    def flush() -> None:
        sizes = [len(q.candidates) for _, _, q in pending]
        for (_, _, q), scores in zip(pending, np.split(scorer.score(pending), np.cumsum(sizes)[:-1])):
            ranks.append(average_rank(scores, q.candidates.index(q.gold)))
            n_candidates.append(len(scores))
        pending.clear()

    for qi, q in enumerate(queries):
        h_name, r_name, t_name = q["head"], q["rel"], q["tail"]
        if h_name not in entities.ids or t_name not in entities.ids or r_name not in relations.ids:
            skipped += 1
            continue
        h, t, r = entities.ids[h_name], entities.ids[t_name], relations.ids[r_name]
        seg, local = retriever.inputs([q["text"]], partial(nm.split_rng, seed, "lp_retrieval", qi))
        node_set = set(local.entity_ids())
        if local.is_dummy or h not in node_set or t not in node_set:
            skipped += 1
            continue
        drop = {j for j, c in enumerate(local.nodes) if j and c != t
                and (h_name, r_name, entities.names[c]) in known_true} if filtered else ()
        query = tail_query(local, local.local_index(h), r, local.local_index(t), drop)
        if query is None:
            skipped += 1
            continue
        pending.append((seg, local, query))
        if len(pending) == batch_size:
            flush()
    if pending:
        flush()
    return ranks_to_report(ranks, n_candidates, filtered, skipped)


def train_distmult_baseline(kg: KnowledgeGraph, d: int, steps: int,
                            seed: int = 0) -> tuple[Tensor, LinkPredHead]:
    """Plain DistMult entity embeddings and head trained on the KG triplets
    alone (margin 0)."""
    batch_size, lr, n_corrupt = 128, 1e-2, 8   # corrupted copies per positive
    rng = nm.split_rng(seed, "distmult_baseline")
    init = nm.split_rng(seed, "distmult_baseline_init")
    ent = Tensor(init.normal(0, 0.2, size=(kg.n_entities, d)), requires_grad=True, name="other.ent")
    rel = Tensor(init.normal(0, 0.2, size=(kg.n_relations, d)), requires_grad=True, name="other.rel")
    params = {"other.ent": ent, "other.rel": rel}
    opt = Optimizer(params, lr_lm=lr, lr_other=lr, total_steps=steps, warmup_ratio=0.05)
    triplets = np.array(kg.triplets, dtype=np.int64)
    head = LinkPredHead(scorer="distmult", margin=0.0, relations=rel)

    def batch_loss(pos: np.ndarray, neg: np.ndarray) -> tuple[Tensor]:
        pos_s = triplet_scores(nm.gather_rows(ent, pos[:, 0]), pos[:, 1],
                               nm.gather_rows(ent, pos[:, 2]), head)
        neg_s = triplet_scores(nm.gather_rows(ent, neg[:, 0]), neg[:, 1],
                               nm.gather_rows(ent, neg[:, 2]), head)
        loss = nm.add(nm.neg(nm.reduce_mean(nm.log_sigmoid(pos_s))),
                      nm.reduce_mean(nm.log_sigmoid(neg_s)))
        return (loss,)

    for step in range(steps):
        idx = rng.integers(0, len(triplets), size=batch_size)
        pos = triplets[idx]
        neg_h = pos.repeat(n_corrupt, axis=0)
        corrupt_tail = rng.random(len(neg_h)) < 0.5
        repl = rng.integers(0, kg.n_entities, size=len(neg_h))
        neg = neg_h.copy()
        neg[corrupt_tail, 2] = repl[corrupt_tail]
        neg[~corrupt_tail, 0] = repl[~corrupt_tail]
        train_step(opt, step, 1.0, partial(batch_loss, pos, neg))
    return ent, head


# ---------------------------------------------------------------------------
# Attention export
# ---------------------------------------------------------------------------

def dump_attention(params: dict[str, Tensor], enc_cfg: EncoderConfig, seg, local) -> list[str]:
    """JSON lines: one per fusion layer, then a pooling line when the
    parameters carry a QA pooling head.

    Each layer lists every edge in both directions, dir 0 (head->tail) then
    dir 1 (tail->head), with the per-head attention its message received.
    """
    out = encode(seg, local, params, enc_cfg, mode="eval")
    lines = []
    for layer, alpha in enumerate(out.graph_attention):
        edges = []
        for e, (h, r, t) in enumerate(local.edges):
            for direction in (0, 1):
                edges.append({"head": h, "rel": r, "tail": t, "dir": direction,
                              "weight": [float(a) for a in alpha[2 * e + direction]]})
        lines.append(json.dumps({"layer": layer, "edges": edges}))
    if "other.pool.wq" in params:
        _, alpha = pool(out, params)
        lines.append(json.dumps({"pooling": [float(a) for a in alpha]}))
    return lines
