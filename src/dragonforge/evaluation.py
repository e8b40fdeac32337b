"""Metrics, synthetic-data generation, and the ablation harness.

The synthetic world renders random relational facts to text through
per-relation templates, with complementary withholding: a slice of facts
appears only in the corpus (link-prediction test queries that need text) and
a slice only in the KG (question-answering gold that needs graph structure).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import numerics as nm
from .encoder import BIDIRECTIONAL, CONCAT_AT_END, EncoderConfig, encode
from .finetune import FinetuneConfig, MCQAExample, evaluate_mcqa, finetune_mcqa, pool
from .kg_store import EntityVocab, KnowledgeGraph, RelationVocab
from .numerics import Tensor
from .pretrain import (LinkPredHead, PretrainConfig, Optimizer, apply_masking,
                       linkpred_head, mlm_loss, prepare_examples, train, train_step,
                       triplet_scores)
from .retrieval import (TokenVocab, build_alias_index, build_vocab_from_texts, link_entities,
                        retrieve_local_kg, tokenize)


@dataclass
class RankingReport:
    hits1: float
    hits3: float
    hits10: float
    mrr: float
    mean_rank: float
    n_queries: int
    filtered: bool
    skipped: int = 0

    def __post_init__(self):
        assert self.hits1 <= self.hits3 + 1e-12 and self.hits3 <= self.hits10 + 1e-12
        assert self.hits10 <= 1.0 + 1e-12
        if self.n_queries:
            assert 0.0 < self.mrr <= 1.0 + 1e-12


def ranks_to_report(ranks: list[float], filtered: bool, skipped: int) -> RankingReport:
    if not ranks:
        return RankingReport(0.0, 0.0, 0.0, 1e-9, 0.0, 0, filtered, skipped)
    arr = np.array(ranks, dtype=np.float64)
    return RankingReport(
        hits1=float((arr <= 1.0).mean()), hits3=float((arr <= 3.0).mean()),
        hits10=float((arr <= 10.0).mean()), mrr=float((1.0 / arr).mean()),
        mean_rank=float(arr.mean()), n_queries=len(ranks),
        filtered=filtered, skipped=skipped)


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


def parse_sentence(sentence: str) -> tuple[str, str, str]:
    toks = [t for t, _, _ in tokenize(sentence)]
    if len(toks) != 4 or toks[3] != ".":
        raise ValueError("not a template sentence: %r" % sentence)
    return toks[0], toks[1], toks[2]


@dataclass
class SyntheticWorld:
    n_entities: int
    n_relations: int
    leak_rate: float
    seed: int
    entity_names: list[str]
    relation_names: list[str]
    facts: list[tuple[str, str, str]]          # (head, rel, tail) names
    overlap: list[int]                         # fact indices in both modalities
    text_only: list[int]                       # in corpus, withheld from KG
    kg_only: list[int]                         # in KG, withheld from corpus
    train_docs: list[str]                      # newline-joined sentences
    eval_docs: list[str]
    doc_of_fact: dict[int, tuple[str, int]]    # fact idx -> ("train"|"eval", doc idx)
    structure: str = "chains"
    derived: list[int] = field(default_factory=list)   # composition-rule facts

    def kg_fact_indices(self) -> list[int]:
        return sorted(self.overlap + self.kg_only)

    def corpus_fact_indices(self) -> list[int]:
        return sorted(self.overlap + self.text_only)

    def aligned_text(self, fact_idx: int) -> str:
        split, di = self.doc_of_fact[fact_idx]
        docs = self.train_docs if split == "train" else self.eval_docs
        return docs[di].replace("\n", " ")

    def build_kg(self) -> tuple[KnowledgeGraph, EntityVocab, RelationVocab]:
        """Vocabulary ids follow first appearance in KG fact order, matching
        what loading the written TSV would produce."""
        entities = EntityVocab()
        relations = RelationVocab()
        kg_facts = [self.facts[i] for i in self.kg_fact_indices()]
        for h, r, t in kg_facts:
            entities.add(h)
            relations.add(r)
            entities.add(t)
        g = KnowledgeGraph(len(entities), len(relations))
        for h, r, t in kg_facts:
            g.add(entities.lookup(h), relations.ids[r], entities.lookup(t))
        return g, entities, relations

    def build_token_vocab(self, min_freq: int = 2) -> TokenVocab:
        return build_vocab_from_texts(self.train_docs, min_freq=min_freq)

    def raw_segments(self, split: str = "train") -> list[str]:
        docs = self.train_docs if split == "train" else self.eval_docs
        return [d.replace("\n", " ") for d in docs]

    def lp_queries(self, limit: int | None = None) -> list[dict]:
        """Test triplets (absent from the KG) with their aligned text."""
        idxs = self.text_only if limit is None else self.text_only[:limit]
        return [{"head": self.facts[i][0], "rel": self.facts[i][1],
                 "tail": self.facts[i][2], "text": self.aligned_text(i)}
                for i in idxs]

    def known_true_names(self) -> set[tuple[str, str, str]]:
        return set(self.facts)

    def mcqa_dataset(self, n_choices: int = 4, distractors: str = "adversarial",
                     splits: tuple[float, float] = (0.6, 0.15)) -> dict[str, list[MCQAExample]]:
        """Questions `head rel ?` from KG-withheld-from-text facts.

        adversarial distractors are tails connected to the head through a
        different relation; random distractors are entities unconnected to
        the head. Train/dev/test splits are disjoint by fact.
        """
        if distractors not in ("adversarial", "random"):
            raise ValueError("unknown distractor mode %r" % distractors)
        rng = nm.split_rng(self.seed, "mcqa/" + distractors)
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
            chosen: list[str] = []
            if distractors == "adversarial":
                pool = sorted({t2 for r2, t2 in by_head.get(h, []) if r2 != r
                               and t2 != t and (h, r, t2) not in fact_set})
                take = min(len(pool), n_choices - 1)
                if take:
                    chosen = [pool[int(j)] for j in rng.choice(len(pool), size=take, replace=False)]
            tries = 0
            while len(chosen) < n_choices - 1 and tries < 1000:
                tries += 1
                cand = self.entity_names[int(rng.integers(self.n_entities))]
                if cand == t or cand in chosen or cand == h:
                    continue
                if cand in connected.get(h, set()) or (h, r, cand) in fact_set:
                    continue
                chosen.append(cand)
            if len(chosen) < n_choices - 1:
                continue
            choices = chosen + [t]
            order = rng.permutation(n_choices)
            choices = [choices[int(j)] for j in order]
            gold = choices.index(t)
            examples.append(MCQAExample(question="%s %s" % (h, r), choices=choices, gold=gold))

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

        put("corpus.txt", "\n\n".join(self.train_docs) + "\n")
        put("corpus_eval.txt", "\n\n".join(self.eval_docs) + "\n")
        put("kg.tsv", "".join("%s\t%s\t%s\n" % self.facts[i] for i in self.kg_fact_indices()))
        put("aliases.tsv", "".join("%s\t%s\n" % (n, n) for n in self.entity_names))
        put("lp_test.jsonl", "".join(json.dumps(q) + "\n" for q in self.lp_queries()))
        for mode, stem in (("adversarial", "mcqa"), ("random", "mcqa_easy")):
            data = self.mcqa_dataset(distractors=mode)
            for split in ("train", "dev", "test"):
                put("%s_%s.jsonl" % (stem, split),
                    "".join(json.dumps({"question": e.question, "choices": e.choices,
                                        "gold": e.gold}) + "\n" for e in data[split]))
        return paths


def generate_synthetic_world(n_entities: int = 500, n_relations: int = 8,
                             n_facts: int = 5000, leak_rate: float = 0.15,
                             seed: int = 0, sentences_per_doc: int = 4,
                             eval_doc_fraction: float = 0.1,
                             structure: str = "chains") -> SyntheticWorld:
    """Random relational facts rendered to text through per-relation templates.

    structure="chains" builds two-hop composition rules: relations come in
    (base1, base2, derived) triples where (x base1 m) and (m base2 f) imply
    the fact (x derived f), plus per-head distractor edges; documents center
    on one head entity so graphs carry the rule paths. structure="flat"
    draws independent uniform facts and packs documents randomly. Test
    triplets (withheld from the KG, present in text) come from derived facts
    in chains mode, so their base paths stay visible to the encoder.
    """
    if min(n_entities, n_relations, n_facts) <= 0:
        raise ValueError("world sizes must be positive")
    if n_relations > len(RELATION_POOL):
        raise ValueError("at most %d relations supported" % len(RELATION_POOL))
    if structure not in ("chains", "flat"):
        raise ValueError("unknown structure %r" % structure)
    if structure == "chains" and n_relations < 5:
        raise ValueError("chains structure needs at least 5 relations")
    rng = nm.split_rng(seed, "world")

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
    # groups of fact indices that must share a document (chain stories)
    stories: list[list[int]] = []

    def add_fact(h: str, r: str, t: str) -> int | None:
        f = (h, r, t)
        if f in fact_set:
            return None
        fact_set.add(f)
        facts.append(f)
        return len(facts) - 1

    if structure == "chains":
        n_families = (n_relations - 2) // 3
        families = [relation_names[3 * i:3 * i + 3] for i in range(n_families)]
        noise_rels = relation_names[3 * n_families:]
        # each chain story: 2 base facts, 1 derived fact, 2 head-distractor facts
        n_chains = n_facts // 5
        c = 0
        while c < n_chains:
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
            h = int(rng.integers(n_entities))
            t = int(rng.integers(n_entities))
            if h == t:
                continue
            idx = add_fact(names[h], noise_rels[int(rng.integers(len(noise_rels)))], names[t])
            if idx is not None:
                noise.append(idx)
    else:
        while len(facts) < n_facts:
            h = int(rng.integers(n_entities))
            t = int(rng.integers(n_entities))
            if h == t:
                continue
            r = relation_names[int(rng.integers(n_relations))]
            add_fact(names[h], r, names[t])

    n_leak = int(round(leak_rate * n_facts))
    if structure == "chains":
        if n_leak > len(derived):
            raise ValueError("leak_rate %.3f needs %d derived facts, world has %d"
                             % (leak_rate, n_leak, len(derived)))
        derived_perm = [derived[int(i)] for i in rng.permutation(len(derived))]
        text_only = derived_perm[:n_leak]
        noise_perm = [noise[int(i)] for i in rng.permutation(len(noise))]
        kg_only = noise_perm[:n_leak]
        rest = set(range(n_facts)) - set(text_only) - set(kg_only)
        overlap = sorted(rest)
    else:
        order = rng.permutation(n_facts)
        text_only = [int(i) for i in order[:n_leak]]
        kg_only = [int(i) for i in order[n_leak:2 * n_leak]]
        overlap = [int(i) for i in order[2 * n_leak:]]

    # every entity must appear in the KG so entity linking can resolve it;
    # pull a text-only fact back into the overlap when one does not
    def kg_entities() -> set[str]:
        out = set()
        for i in overlap + kg_only:
            out.add(facts[i][0])
            out.add(facts[i][2])
        return out

    covered = kg_entities()
    for name in names:
        if name in covered:
            continue
        for j, i in enumerate(text_only):
            if facts[i][0] == name or facts[i][2] == name:
                overlap.append(text_only.pop(j))
                covered = kg_entities()
                break

    corpus_set = set(overlap) | set(text_only)
    docs: list[list[int]] = []
    if structure == "chains":
        placed: set[int] = set()
        for story in stories:
            doc = [i for i in story if i in corpus_set]
            if doc:
                docs.append(doc)
                placed.update(doc)
        leftovers = sorted(corpus_set - placed)
        leftovers = [leftovers[int(i)] for i in rng.permutation(len(leftovers))]
        docs.extend(leftovers[i:i + sentences_per_doc]
                    for i in range(0, len(leftovers), sentences_per_doc))
        docs = [docs[int(i)] for i in rng.permutation(len(docs))]
        docs = [[d[int(i)] for i in rng.permutation(len(d))] for d in docs]
    else:
        corpus_facts = sorted(corpus_set)
        corpus_order = [corpus_facts[int(i)] for i in rng.permutation(len(corpus_facts))]
        docs = [corpus_order[i:i + sentences_per_doc]
                for i in range(0, len(corpus_order), sentences_per_doc)]

    n_eval = int(round(eval_doc_fraction * len(docs)))
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
        n_entities=n_entities, n_relations=n_relations, leak_rate=leak_rate, seed=seed,
        entity_names=names, relation_names=relation_names, facts=facts,
        overlap=sorted(overlap), text_only=sorted(text_only), kg_only=sorted(kg_only),
        train_docs=train_docs, eval_docs=eval_docs, doc_of_fact=doc_of_fact,
        structure=structure, derived=sorted(derived))


# ---------------------------------------------------------------------------
# Link-prediction evaluation
# ---------------------------------------------------------------------------


class ContextualScorer:
    """Scores candidates with contextualized node vectors (KG + text mode)."""

    def __init__(self, params: dict[str, Tensor], enc_cfg: EncoderConfig, head: LinkPredHead):
        self.params = params
        self.enc_cfg = enc_cfg
        self.head = head

    def score(self, seg, local, head_global: int, rel: int, candidates: list[int]) -> np.ndarray:
        out = encode(seg, local, self.params, self.enc_cfg, mode="eval")
        h_local = local.local_index(head_global)
        cand_locals = [local.local_index(c) for c in candidates]
        h = nm.gather_rows(out.nodes, [h_local] * len(cand_locals))
        t = nm.gather_rows(out.nodes, cand_locals)
        return triplet_scores(h, [rel] * len(cand_locals), t, self.head).values.copy()


class NonContextualScorer:
    """DistMult over plain embedding tables (KG-only baseline)."""

    def __init__(self, entity_emb: np.ndarray, rel_emb: np.ndarray):
        self.entity_emb = entity_emb
        self.rel_emb = rel_emb

    def score(self, seg, local, head_global: int, rel: int, candidates: list[int]) -> np.ndarray:
        h = self.entity_emb[head_global]
        r = self.rel_emb[rel]
        return (h * r * self.entity_emb[np.array(candidates)]).sum(axis=1)


def eval_link_prediction(scorer, queries: list[dict], kg: KnowledgeGraph,
                         entities: EntityVocab, token_vocab: TokenVocab,
                         relations: RelationVocab, enc_cfg: EncoderConfig,
                         known_true: set[tuple[str, str, str]], seed: int = 0,
                         filtered: bool = True) -> RankingReport:
    """Rank the gold tail against local-graph candidates for each query.

    Candidates are the query's local-KG nodes minus the interaction node and
    the query head; filtering drops candidates that form other known-true
    triplets. Queries whose head or tail fall outside the retrieved graph are
    skipped and counted.
    """
    alias_index = build_alias_index(entities)
    ranks: list[float] = []
    skipped = 0
    for qi, q in enumerate(queries):
        h_name, r_name, t_name = q["head"], q["rel"], q["tail"]
        if h_name not in entities.ids or t_name not in entities.ids or r_name not in relations.ids:
            skipped += 1
            continue
        h, t, r = entities.lookup(h_name), entities.lookup(t_name), relations.ids[r_name]
        seg, v_el = link_entities(q["text"], entities, token_vocab, alias_index)
        local = retrieve_local_kg(v_el, kg, enc_cfg.max_nodes, nm.split_rng(seed, "lp_retrieval", qi))
        node_set = set(local.entity_ids())
        if local.is_dummy or h not in node_set or t not in node_set:
            skipped += 1
            continue
        candidates = [c for c in local.entity_ids() if c != h]
        if filtered:
            candidates = [c for c in candidates
                          if c == t or (h_name, r_name, entities.name(c)) not in known_true]
        if t not in candidates or len(candidates) < 2:
            skipped += 1
            continue
        scores = scorer.score(seg, local, h, r, candidates)
        ranks.append(average_rank(np.asarray(scores), candidates.index(t)))
    return ranks_to_report(ranks, filtered, skipped)


def train_distmult_baseline(kg: KnowledgeGraph, d: int = 32, steps: int = 600,
                            batch_size: int = 128, lr: float = 1e-2,
                            n_negatives: int = 8, margin: float = 0.0,
                            seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Plain DistMult embeddings trained on the KG triplets alone."""
    rng = nm.split_rng(seed, "distmult_baseline")
    init = nm.split_rng(seed, "distmult_baseline_init")
    ent = Tensor(init.normal(0, 0.2, size=(kg.n_entities, d)), requires_grad=True, name="other.ent")
    rel = Tensor(init.normal(0, 0.2, size=(kg.n_relations, d)), requires_grad=True, name="other.rel")
    params = {"other.ent": ent, "other.rel": rel}
    opt = Optimizer(params, lr_lm=lr, lr_other=lr, total_steps=steps, warmup_ratio=0.05)
    triplets = np.array(kg.triplets, dtype=np.int64)
    head = LinkPredHead(scorer="distmult", margin=margin, relations=rel)

    def batch_loss(pos: np.ndarray, neg: np.ndarray) -> tuple[Tensor]:
        pos_s = triplet_scores(nm.gather_rows(ent, pos[:, 0]), pos[:, 1],
                               nm.gather_rows(ent, pos[:, 2]), head)
        neg_s = triplet_scores(nm.gather_rows(ent, neg[:, 0]), neg[:, 1],
                               nm.gather_rows(ent, neg[:, 2]), head)
        loss = nm.add(
            nm.neg(nm.reduce_mean(nm.log_sigmoid(nm.add_scalar(pos_s, margin)))),
            nm.reduce_mean(nm.log_sigmoid(nm.add_scalar(neg_s, margin))))
        return (loss,)

    for step in range(steps):
        idx = rng.integers(0, len(triplets), size=batch_size)
        pos = triplets[idx]
        neg_h = pos.repeat(n_negatives, axis=0)
        corrupt_tail = rng.random(len(neg_h)) < 0.5
        repl = rng.integers(0, kg.n_entities, size=len(neg_h))
        neg = neg_h.copy()
        neg[corrupt_tail, 2] = repl[corrupt_tail]
        neg[~corrupt_tail, 0] = repl[~corrupt_tail]
        train_step(opt, step, 1.0, partial(batch_loss, pos, neg))
    return ent.values.copy(), rel.values.copy()


def eval_mlm_loss(raw_segments: list[str], kg: KnowledgeGraph, entities: EntityVocab,
                  relations: RelationVocab, token_vocab: TokenVocab,
                  params: dict[str, Tensor], enc_cfg: EncoderConfig,
                  mask_rate: float = 0.15, seed: int = 0,
                  kg_mode: str = "graph") -> float:
    """Mean masked-token loss over held-out segments, deterministic masking."""
    examples = prepare_examples(raw_segments, kg, entities, relations, token_vocab,
                                enc_cfg, seed, kg_mode)
    losses = []
    for i, (seg, local) in enumerate(examples):
        seg_m, plan = apply_masking(seg, mask_rate, nm.split_rng(seed, "eval_mask", i))
        if plan.flagged_empty:
            continue
        out = encode(seg_m, local, params, enc_cfg, mode="eval")
        losses.append(mlm_loss([(plan, 0)], out.tokens, params).item())
    return float(np.mean(losses)) if losses else 0.0


# ---------------------------------------------------------------------------
# Ablation harness and attention export
# ---------------------------------------------------------------------------

ABLATION_COLUMNS = ["objective", "scorer", "fusion", "kg_structure", "seed",
                    "mcqa_accuracy", "lp_mrr", "status"]


def run_ablation_cell(world: SyntheticWorld, enc_cfg: EncoderConfig,
                      pre_cfg: PretrainConfig, ft_cfg: FinetuneConfig,
                      objective: str, scorer: str, fusion: str, kg_structure: str,
                      seed: int, lp_query_limit: int | None = None,
                      mcqa_data: dict | None = None) -> dict:
    kg, entities, relations = world.build_kg()
    token_vocab = world.build_token_vocab()
    e_cfg = replace(enc_cfg, fusion=fusion)
    p_cfg = replace(pre_cfg, objective=objective, scorer=scorer, seed=seed,
                    kg_mode="graph" if kg_structure == "graph" else "verbalized")
    params, _ = train(world.raw_segments("train"), kg, entities, relations,
                      token_vocab, e_cfg, p_cfg)
    if mcqa_data is None:
        mcqa_data = world.mcqa_dataset(distractors="adversarial")
    f_cfg = replace(ft_cfg, seed=seed)
    params, _ = finetune_mcqa(mcqa_data["train"], mcqa_data["dev"], kg, entities,
                              token_vocab, params, e_cfg, f_cfg)
    acc = evaluate_mcqa(mcqa_data["test"], kg, entities, token_vocab, params, e_cfg)["accuracy"]
    if kg_structure == "graph":
        # contextualized scoring needs graph inputs; sentence-mode models
        # trained against dummy graphs have no in-regime link scores
        scorer_obj = ContextualScorer(params, e_cfg, linkpred_head(params, p_cfg))
        lp = eval_link_prediction(scorer_obj, world.lp_queries(lp_query_limit), kg, entities,
                                  token_vocab, relations, e_cfg, world.known_true_names(),
                                  seed=seed)
        lp_mrr = round(lp.mrr, 4) if lp.n_queries else ""
        status = "ok" if lp.n_queries else "no-lp-queries"
    else:
        lp_mrr, status = "", "ok"
    return {"objective": objective, "scorer": scorer, "fusion": fusion,
            "kg_structure": kg_structure, "seed": seed,
            "mcqa_accuracy": round(acc, 4), "lp_mrr": lp_mrr, "status": status}


def run_ablation_suite(world: SyntheticWorld, enc_cfg: EncoderConfig,
                       pre_cfg: PretrainConfig, ft_cfg: FinetuneConfig,
                       objectives=("joint", "mlm_only", "linkpred_only"),
                       scorers=("distmult", "transe", "rotate"),
                       fusions=(BIDIRECTIONAL, CONCAT_AT_END),
                       kg_structures=("graph", "sentences"),
                       seeds=(0,), lp_query_limit: int | None = None) -> list[dict]:
    """Train and evaluate every grid cell; failures are recorded, not raised."""
    mcqa_data = world.mcqa_dataset(distractors="adversarial")
    rows = []
    for objective in objectives:
        for scorer in scorers:
            for fusion in fusions:
                for kg_structure in kg_structures:
                    for seed in seeds:
                        try:
                            rows.append(run_ablation_cell(
                                world, enc_cfg, pre_cfg, ft_cfg, objective, scorer,
                                fusion, kg_structure, seed, lp_query_limit, mcqa_data))
                        except Exception as e:  # cell failure must not stop the suite
                            rows.append({"objective": objective, "scorer": scorer,
                                         "fusion": fusion, "kg_structure": kg_structure,
                                         "seed": seed, "mcqa_accuracy": "", "lp_mrr": "",
                                         "status": "error: %s" % e})
    return rows


def ablation_tsv(rows: list[dict]) -> str:
    lines = ["\t".join(ABLATION_COLUMNS)]
    for row in rows:
        lines.append("\t".join(str(row[c]) for c in ABLATION_COLUMNS))
    return "\n".join(lines) + "\n"


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
