"""Seeded synthetic KB/QA world for the benchmark.

Kept inside the benchmark's own directory, so that refactors of the test
fixtures cannot shift the benchmark's inputs.  The seed picks names,
relations, objects and question wording; the *shape* of the world (how many
subjects share a name, how many relations each subject has, how long the
questions are) comes from fixed histograms, so that different seeds give
inputs of the same cost and the run-to-run spread measures the program, not
the draw.

Structure:

* relations are grouped into types of ``type_size`` relations; every
  collision group of subjects draws one type and each member takes 3..14 of
  its relations, so candidates of one mention share relations (that is
  what makes questions ambiguous, as in the paper);
* subjects in one collision group share one two-word name, so a mention
  resolves to 1..12 candidates (group sizes from ``GROUP_SIZES``);
* each relation has a phrase; about a third of the phrases are shared by
  two relations of one type, so one question pattern can mean two
  relations;
* a question is ``<prefix> <phrase> of <name> <suffix>``.

Where the shape comes from.  Only ranges are given: a mention resolves to 1
to about 12 candidate subjects with a mean near 5, and a subject has 3 to 14
relations.  The paper gives no histogram for either, so the shares in
``GROUP_SIZES``, the uniform ``REL_COUNTS`` and the "every third relation
shares its phrase" rule are invented to fit those ranges; they are not
measured on FB2M or SimpleQuestions.

The generated questions are far more ambiguous than the paper's data:
``shape()`` reports an ambiguity rate near 0.85, against the 33.9% of
SimpleQuestions questions the paper finds ambiguous
(``PAPER_AMBIGUITY_RATE``).  The gap comes from giving every collision group
one relation type, so that subjects sharing a name usually share the asked
relation; in FB2M, subjects that share a name are often of different types.
Scoring cost does not depend on it (``score_pairs`` scores every pair of
every candidate either way); the number of plausible pairs per question,
and so relabelling and the training items per question, does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPREFIX = "www.freebase.com/m/"
RPREFIX = "www.freebase.com/"

# group size -> share of collision groups (percent); mean 5.24 candidates
GROUP_SIZES = {1: 10, 2: 10, 3: 10, 4: 12, 5: 14, 6: 12, 7: 10, 8: 8,
               9: 6, 10: 4, 11: 2, 12: 2}
REL_COUNTS = tuple(range(3, 15))          # |R(s)|, equally often 3..14
PAPER_AMBIGUITY_RATE = 0.339              # ambiguous share of SimpleQuestions
PREFIXES = (("what", "is", "the"), ("which", "is", "the"), ("name", "the"),
            ("who", "is", "the"), ("tell", "me", "the"), ("what",))
SUFFIXES = ((), (), ("please",), ("today",), ("in", "the", "records"))


@dataclass
class Scale:
    n_relations: int
    n_subjects: int
    type_size: int
    name_words: int
    phrase_words: int


PAPER = Scale(n_relations=6701, n_subjects=20_000, type_size=20,
              name_words=2600, phrase_words=2400)
DESK = Scale(n_relations=400, n_subjects=3000, type_size=20,
             name_words=900, phrase_words=600)
TINY = Scale(n_relations=40, n_subjects=120, type_size=10,
             name_words=60, phrase_words=40)


@dataclass
class Question:
    subject: str
    relation: str
    obj: str
    tokens: list[str]
    mention: str          # the subject's name, as it appears in the tokens

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class World:
    relations: list[str]
    triples: list[tuple[str, str, str]]
    names: dict[str, str]                 # subject -> its (shared) name
    groups: list[list[str]]               # collision groups of subjects
    phrases: dict[str, tuple[str, ...]]   # relation -> phrase tokens
    vocabulary: list[str]                 # every word a question can use
    rel_of: dict[str, list[str]] = field(init=False)       # R(s), sorted
    by_name: dict[str, list[str]] = field(init=False)      # name -> subjects

    def __post_init__(self):
        rel_of: dict[str, set[str]] = {}
        for s, r, _ in self.triples:
            rel_of.setdefault(s, set()).add(r)
        self.rel_of = {s: sorted(rs) for s, rs in rel_of.items()}
        self.by_name = {}
        for s, n in self.names.items():
            self.by_name.setdefault(n, []).append(s)

    def candidates(self, name: str) -> list[str]:
        """Subjects sharing ``name``, from the generator's own records."""
        return self.by_name.get(name, [])

    def pairs(self, name: str) -> set[tuple[str, str]]:
        """{(s, r) : s shares the name, r in R(s)}, from the triples."""
        return {(s, r) for s in self.candidates(name) for r in self.rel_of.get(s, ())}

    # -- raw files, in the formats the CLI ingests -----------------------------

    def triple_lines(self) -> list[str]:
        return [f"{EPREFIX}{s}\t{RPREFIX}{r}\t{EPREFIX}{o}\n" for s, r, o in self.triples]

    def alias_lines(self) -> list[str]:
        return [f"{EPREFIX}{s}\t{n}\n" for s, n in self.names.items()]


def question_lines(questions: list[Question]) -> list[str]:
    return [f"{EPREFIX}{q.subject}\t{RPREFIX}{q.relation}\t{EPREFIX}{q.obj}\t{q.text}\n"
            for q in questions]


def size_pattern() -> list[int]:
    """One block of 100 group sizes in ``GROUP_SIZES`` proportions, with the
    sizes interleaved so that any prefix holds every size."""
    keyed = sorted((j / pct, size) for size, pct in GROUP_SIZES.items() for j in range(pct))
    return [size for _, size in keyed]


def _group_sizes(n_subjects: int) -> list[int]:
    """Collision-group sizes in fixed proportions, summing to n_subjects."""
    pattern = size_pattern()
    sizes, total, i = [], 0, 0
    while total < n_subjects:
        size = min(pattern[i % len(pattern)], n_subjects - total)
        sizes.append(size)
        total += size
        i += 1
    return sizes


def generate(seed: int, scale: Scale) -> World:
    rng = np.random.default_rng([seed, 1])
    n_types = -(-scale.n_relations // scale.type_size)
    relations = [f"d{t % 17:02d}/t{t:04d}/p{k:02d}"
                 for t in range(n_types) for k in range(scale.type_size)]
    relations = relations[: scale.n_relations]
    by_type = [relations[t * scale.type_size:(t + 1) * scale.type_size]
               for t in range(n_types)]
    if len(by_type) > 1 and len(by_type[-1]) < scale.type_size:   # fold a short tail
        by_type[-2:] = [by_type[-2] + by_type[-1]]

    name_words = [f"n{i:04d}" for i in range(scale.name_words)]
    phrase_words = [f"w{i:04d}" for i in range(scale.phrase_words)]

    # phrases: 1..3 words; every third relation reuses its predecessor's phrase
    phrases: dict[str, tuple[str, ...]] = {}
    for t_rels in by_type:
        for k, r in enumerate(t_rels):
            if k % 3 == 2:
                phrases[r] = phrases[t_rels[k - 1]]
            else:
                n = 1 + (k % 3) + (k % 2)
                phrases[r] = tuple(phrase_words[int(i)]
                                   for i in rng.integers(0, len(phrase_words), n))

    sizes = _group_sizes(scale.n_subjects)
    sizes = [sizes[int(i)] for i in rng.permutation(len(sizes))]
    n_subj = scale.n_subjects
    n_objects = max(n_subj // 2, 1)
    # |R(s)| cycles through REL_COUNTS in a seeded order: same multiset every seed
    rel_counts = np.array(REL_COUNTS)[rng.permutation(np.arange(n_subj) % len(REL_COUNTS))]
    width = max(len(t) for t in by_type)
    rel_order = np.argsort(rng.random((n_subj, width)), axis=1)
    objects = rng.integers(n_objects, size=(n_subj, width))
    group_type = rng.integers(len(by_type), size=len(sizes))
    used_names: set[str] = set()
    names: dict[str, str] = {}
    groups: list[list[str]] = []
    triples: list[tuple[str, str, str]] = []
    sid = 0
    for size, t in zip(sizes, group_type):
        while True:
            a, b = rng.integers(0, len(name_words), 2)
            name = f"{name_words[int(a)]} {name_words[int(b)]}"
            if a != b and name not in used_names:
                used_names.add(name)
                break
        t_rels = by_type[int(t)]
        group = []
        for _ in range(size):
            s = f"s{sid:06d}"
            group.append(s)
            names[s] = name
            k = min(int(rel_counts[sid]), len(t_rels))
            picks = sorted(int(j) for j in rel_order[sid][rel_order[sid] < len(t_rels)][:k])
            triples.extend((s, t_rels[j], f"o{int(objects[sid, j]):06d}") for j in picks)
            sid += 1
        groups.append(group)
    # every relation occurs in the KB: unused ones go to one unnamed anchor
    # subject per type, which no question asks about
    used = {r for _, r, _ in triples}
    for t, t_rels in enumerate(by_type):
        for r in t_rels:
            if r not in used:
                triples.append((f"x{t:04d}", r, f"o{int(rng.integers(n_objects)):06d}"))

    vocabulary = sorted({w for p in PREFIXES + SUFFIXES for w in p} | {"of"}
                        | set(name_words) | set(phrase_words))
    return World(relations=relations, triples=triples, names=names, groups=groups,
                 phrases=phrases, vocabulary=vocabulary)


def make_questions(world: World, seed: int, count: int, stream: int) -> list[Question]:
    """``count`` questions, one per collision group visited.

    Groups are visited in a seeded order, but every block of ``len(pattern)``
    questions holds the same multiset of candidate counts (the
    ``GROUP_SIZES`` pattern), so the cost mix is seed-invariant.
    """
    rng = np.random.default_rng([seed, 2, stream])
    pattern = size_pattern()
    by_size: dict[int, list[list[str]]] = {}
    for g in world.groups:
        by_size.setdefault(len(g), []).append(g)
    triple_of = {}
    for s, r, o in world.triples:
        triple_of.setdefault(s, []).append((r, o))
    out = []
    while len(out) < count:
        for i in rng.permutation(len(pattern)):
            if len(out) == count:
                break
            size = min(by_size, key=lambda k: abs(k - pattern[int(i)]))
            pool = by_size[size]
            group = pool[int(rng.integers(len(pool)))]
            s = group[int(rng.integers(len(group)))]
            r, o = triple_of[s][int(rng.integers(len(triple_of[s])))]
            prefix = PREFIXES[len(out) % len(PREFIXES)]
            suffix = SUFFIXES[len(out) % len(SUFFIXES)]
            tokens = [*prefix, *world.phrases[r], "of", *world.names[s].split(), *suffix]
            out.append(Question(subject=s, relation=r, obj=o, tokens=tokens,
                                mention=world.names[s]))
    return out


def write_corpus(world: World, splits: dict[str, list[Question]], data: Path) -> dict:
    """Write triples, aliases and question splits; returns the file paths."""
    data.mkdir(parents=True, exist_ok=True)
    paths = {"triples": data / "triples.txt", "aliases": data / "aliases.txt"}
    paths["triples"].write_text("".join(world.triple_lines()))
    paths["aliases"].write_text("".join(world.alias_lines()))
    for split, qs in splits.items():
        paths[split] = data / f"{split}.txt"
        paths[split].write_text("".join(question_lines(qs)))
    return paths


def _hist(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def shape(world: World, questions: list[Question]) -> dict:
    """Input-shape record: sizes, histograms and the ambiguity rate.

    A question counts as ambiguous when more than one candidate pair shares
    its pattern's relations, i.e. another candidate subject also has the
    gold relation or a relation with the same phrase.
    """
    ambiguous = 0
    for q in questions:
        same_phrase = {r for r in world.phrases if world.phrases[r] == world.phrases[q.relation]}
        hits = {(s, r) for s in world.candidates(q.mention)
                for r in world.rel_of[s] if r in same_phrase}
        ambiguous += len(hits) >= 2
    cands = [len(world.candidates(q.mention)) for q in questions]
    return {
        "triples": len(world.triples),
        "relations": len(world.relations),
        "subjects": len(world.names),
        "vocabulary": len(world.vocabulary),
        "questions": len(questions),
        "candidate_count_hist": _hist(cands),
        "candidate_count_mean": float(np.mean(cands)) if cands else 0.0,
        "subgraph_size_hist": _hist(len(world.rel_of[s]) for s in world.names),
        "question_length_hist": _hist(len(q.tokens) for q in questions),
        "ambiguity_rate": ambiguous / len(questions) if questions else 0.0,
        "ambiguity_rate_paper": PAPER_AMBIGUITY_RATE,
    }
