"""Plausible-interpretation relabeling.

Groups formatted questions into patterns, computes the plausible set SR(q)
for each question (alias-candidate subjects crossed with pattern relations,
kept when the KB holds the fact, then unioned with the gold pair), flags
ambiguity, and derives the corrected negative-sampling pools that exclude
every plausible relation of the subject.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .artifacts import read_sealed, save_text, seal
from .autodiff import Rng
from .dataset import ENT, FormattedQuestion, QuestionRecord, span_to_formatted
from .kb import AliasTable, KnowledgeBase


class PatternIndex:
    """Formatted-question text -> set of relation texts seen with it."""

    def __init__(self):
        self.map: dict[str, set[str]] = {}

    def add(self, pattern: str, relation: str) -> None:
        self.map.setdefault(pattern, set()).add(relation)

    def relations_for(self, pattern: str) -> set[str]:
        return set(self.map.get(pattern, ()))

    def __len__(self):
        return len(self.map)


@dataclass
class PlausibleSet:
    pairs: set[tuple[str, str]]
    candidate_entities: set[str]


@dataclass
class LabeledExample:
    record: QuestionRecord
    formatted: FormattedQuestion
    candidates: set[str]
    positives: set[tuple[str, str]] = field(default_factory=set)

    @property
    def gold(self) -> tuple[str, str]:
        return (self.record.subject, self.record.relation)

    @property
    def ambiguous(self) -> bool:
        return len(self.positives) >= 2


def build_pattern_index(records, formatted) -> PatternIndex:
    """Aggregate gold relations by formatted-question equality.

    ``formatted`` runs parallel to ``records``; entries without an alias
    match (None) contribute nothing.
    """
    index = PatternIndex()
    for rec, fq in zip(records, formatted):
        if fq is not None:
            index.add(fq.text, rec.relation)
    return index


def plausible_set(record: QuestionRecord, fq: FormattedQuestion,
                  kb: KnowledgeBase, aliases: AliasTable,
                  index: PatternIndex) -> PlausibleSet:
    """SR(q) per the pattern definition, always containing the gold pair."""
    cands = aliases.entities_for_alias(fq.mention_text)
    rels = index.relations_for(fq.text)
    pairs = set()
    for s in cands:
        si = kb.entity_id(s)
        if si < 0:
            continue
        for r in rels:
            ri = kb.relation_id(r)
            if ri >= 0 and kb.has_fact(si, ri):
                pairs.add((s, r))
    pairs.add((record.subject, record.relation))
    return PlausibleSet(pairs=pairs, candidate_entities=cands)


def is_ambiguous(ps) -> bool:
    """True when the question admits at least two plausible interpretations."""
    pairs = ps.pairs if isinstance(ps, PlausibleSet) else ps.positives
    return len(pairs) >= 2


def relabel_dataset(records, formatted, kb: KnowledgeBase, aliases: AliasTable,
                    index: PatternIndex) -> tuple[list[LabeledExample], int]:
    """Relabel every formatable record; returns (examples, skipped_count).

    ``formatted`` runs parallel to ``records``, as in ``build_pattern_index``.
    """
    examples = []
    skipped = 0
    for rec, fq in zip(records, formatted):
        if fq is None:
            skipped += 1
            continue
        ps = plausible_set(rec, fq, kb, aliases, index)
        examples.append(LabeledExample(
            record=rec, formatted=fq,
            candidates=ps.candidate_entities, positives=ps.pairs,
        ))
    return examples, skipped


def ambiguity_rate(examples) -> float:
    """Fraction of formatable records with two or more plausible pairs."""
    if not examples:
        return 0.0
    return sum(1 for ex in examples if ex.ambiguous) / len(examples)


def alias_entity_rows(examples) -> list[tuple[str, str]]:
    """One (alias, entity) row per candidate, for every distinct mention."""
    rows = []
    seen = set()
    for ex in examples:
        alias = ex.formatted.mention_text
        if alias in seen:
            continue
        seen.add(alias)
        for ent in sorted(ex.candidates):
            rows.append((alias, ent))
    return rows


def pattern_fanout_rows(examples) -> list[tuple[str, str, int]]:
    """(pattern, relation, question_count) rows, high-count relations first."""
    counts: dict[str, dict[str, int]] = {}
    for ex in examples:
        pat = ex.formatted.text
        rel = ex.record.relation
        counts.setdefault(pat, {})
        counts[pat][rel] = counts[pat].get(rel, 0) + 1
    rows = []
    for pat in sorted(counts):
        by_rel = counts[pat]
        for rel in sorted(by_rel, key=lambda r: (-by_rel[r], r)):
            rows.append((pat, rel, by_rel[rel]))
    return rows


def write_report(examples, alias_path, pattern_path) -> None:
    save_text(alias_path, "alias\tentity\n" + "".join(
        f"{alias}\t{ent}\n" for alias, ent in alias_entity_rows(examples)))
    save_text(pattern_path, "pattern\trelation\tquestions\n" + "".join(
        f"{pat}\t{rel}\t{n}\n" for pat, rel, n in pattern_fanout_rows(examples)))


def negative_pool(example: LabeledExample, s: str, kb: KnowledgeBase) -> list[int]:
    """The relation ids of R(s) minus every relation plausible for s, canonical order."""
    plausible = {kb.relation_id(r) for (e, r) in example.positives if e == s}
    return [ri for ri in kb.subgraph_relations(kb.entity_id(s)).tolist() if ri not in plausible]


def sample_negatives(pool: list, k: int, rng: Rng) -> list:
    """min(k, |pool|) distinct draws without replacement, seed-deterministic."""
    if k <= 0 or not pool:
        return []
    n = min(k, len(pool))
    idx = rng.choice(len(pool), size=n, replace=False)
    return [pool[int(i)] for i in idx]


def export_jsonl(examples, path) -> None:
    """One JSON object per example; lists sorted for stable bytes."""
    seal(path, "".join(json.dumps({
        "question": ex.record.text,
        "formatted": ex.formatted.text,
        "mention": ex.formatted.mention_text,
        "candidates": sorted(ex.candidates),
        "positives": [list(p) for p in sorted(ex.positives)],
        "gold": list(ex.gold),
        "ambiguous": ex.ambiguous,
    }, ensure_ascii=False) + "\n" for ex in examples))


def load_jsonl(path, split: str = "train") -> list[LabeledExample]:
    """Rebuild LabeledExamples from an export; spans recomputed from <e>.

    The export's seal stands for the shape of every line.
    """
    examples = []
    for line in read_sealed(path, "relabel").decode("utf-8").split("\n")[:-1]:
        obj = json.loads(line)
        gold_s, gold_r = obj["gold"]
        q_tokens = obj["question"].split()
        start = obj["formatted"].split().index(ENT)
        rec = QuestionRecord(tokens=q_tokens, subject=gold_s,
                             relation=gold_r, object="", split=split)
        fq = span_to_formatted(q_tokens, (start, start + len(obj["mention"].split())))
        examples.append(LabeledExample(
            record=rec, formatted=fq,
            candidates=set(obj["candidates"]),
            positives={tuple(p) for p in obj["positives"]},
        ))
    return examples
