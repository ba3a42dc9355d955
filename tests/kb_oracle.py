"""The dict lookups that ``KnowledgeBase`` and ``AliasTable`` used before
they bisected sorted arrays, kept as the oracle those bisections are tested
against: a dict per name table, the distinct pair keys s * NR + r of the
triples, and an alias -> entities dict.  Beside them, ``ingest_first_seen``
is ``ingest_triples`` as it was before an entity id was its name's rank."""

import numpy as np

from ksaqa.kb import (distinct_sorted, normalize_text, read_tsv, strip_id_prefix,
                      triple_keys)


class Interner:
    """Injective text <-> contiguous index map, insertion ordered."""

    def __init__(self):
        self.texts = []
        self.index = {}

    def intern(self, text):
        idx = self.index.get(text)
        if idx is None:
            idx = len(self.texts)
            self.index[text] = idx
            self.texts.append(text)
        return idx

    def __len__(self):
        return len(self.texts)


class KbOracle:
    """Name -> id dicts and the sorted distinct pair keys of a KB."""

    def __init__(self, entities, relations, triple_keys):
        self.entities, self.relations = list(entities), list(relations)
        self.triple_keys = np.asarray(triple_keys, dtype=np.int64)
        self.entity_index = {t: i for i, t in enumerate(entities)}
        self.relation_index = {t: i for i, t in enumerate(relations)}
        self.ne, self.nr = max(len(entities), 1), max(len(relations), 1)
        self.pair_keys = np.unique(self.triple_keys // self.ne)

    def entity_id(self, text):
        return self.entity_index.get(text, -1)

    def relation_id(self, text):
        return self.relation_index.get(text, -1)

    def subgraph_relations(self, e):
        if not 0 <= e < self.ne:
            return []
        lo = np.searchsorted(self.pair_keys, e * self.nr)
        hi = np.searchsorted(self.pair_keys, (e + 1) * self.nr)
        return (self.pair_keys[lo:hi] - e * self.nr).tolist()

    def has_fact(self, e, r):
        return 0 <= e < self.ne and 0 <= r < self.nr and bool(
            np.isin(e * self.nr + r, self.pair_keys))

    def objects(self, e, r):
        """Every t of (e, r, t), ascending by id."""
        h, rest = np.divmod(self.triple_keys, self.nr * self.ne)
        rel, t = np.divmod(rest, self.ne)
        return sorted(t[(h == e) & (rel == r)].tolist())

    def name_triples(self):
        """{(subject, relation, object)} of every triple, as names."""
        pair, t = np.divmod(self.triple_keys, self.ne)
        h, r = np.divmod(pair, self.nr)
        return {(self.entities[a], self.relations[b], self.entities[c])
                for a, b, c in zip(h.tolist(), r.tolist(), t.tolist())}

    def negative_pool(self, positives, s):
        """R(s) minus every relation plausible for s, as names in canonical order."""
        plausible = {r for (e, r) in positives if e == s}
        return [self.relations[r] for r in self.subgraph_relations(self.entity_id(s))
                if self.relations[r] not in plausible]


def ingest_first_seen(source):
    """The KbOracle of ``ingest_triples`` before ids were name ranks: entity
    ids in first-seen order, relation ids remapped to name order."""
    ents = Interner()
    rels = Interner()
    # raw id field -> interned index: each distinct raw text is stripped once
    ent_of = {}
    rel_of = {}

    def ent(raw):
        idx = ent_of.get(raw)
        if idx is None:
            idx = ent_of[raw] = ents.intern(strip_id_prefix(raw))
        return idx

    ss, rs, ts = [], [], []
    for subj, rel, objs in read_tsv(source, 3, lambda f: None if (
            f[0].strip() and f[1].strip() and f[2].strip()) else "empty field"):
        s = ent(subj)
        r = rel_of.get(rel)
        if r is None:
            r = rel_of[rel] = rels.intern(strip_id_prefix(rel))
        for obj in objs.split():
            ss.append(s)
            rs.append(r)
            ts.append(ent(obj))

    # remap relation indices to lexicographic text order (canonical order)
    order = sorted(range(len(rels)), key=lambda i: rels.texts[i])
    remap = np.empty(max(len(rels), 1), dtype=np.int64)
    for new, old in enumerate(order):
        remap[old] = new
    relations = [rels.texts[i] for i in order]

    ne = max(len(ents), 1)
    nr = max(len(relations), 1)
    if ss:
        s_arr = np.asarray(ss, dtype=np.int64)
        r_arr = remap[np.asarray(rs, dtype=np.int64)]
        t_arr = np.asarray(ts, dtype=np.int64)
        keys = distinct_sorted(np.sort(triple_keys(s_arr, r_arr, t_arr, ne, nr)))
    else:
        keys = np.empty(0, dtype=np.int64)
    return KbOracle(ents.texts, relations, keys)


def alias_rows(table):
    """The (entity, alias) rows of an AliasTable, in its row order."""
    return [tuple(row.split("\t")) for row in table.rows.decode("utf-8").split("\n")[:-1]]


class AliasOracle:
    """alias -> entities (in row order) and entity -> aliases (first seen first)."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.map = {}
        for entity, alias in self.rows:
            self.map.setdefault(alias, []).append(entity)

    def entities_for_alias(self, text):
        key = normalize_text(text) if isinstance(text, str) else " ".join(text)
        return set(self.map.get(key, ()))

    def aliases_of(self, entity):
        return [alias for e, alias in self.rows if e == entity]

    def __len__(self):
        return len(self.map)
