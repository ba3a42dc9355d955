"""The dict lookups that ``KnowledgeBase`` and ``AliasTable`` used before
they bisected sorted arrays, kept as the oracle those bisections are tested
against: a dict per name table, the distinct pair keys s * NR + r of the
triples, and an alias -> entities dict."""

import numpy as np

from ksaqa.kb import normalize_text


class KbOracle:
    """Name -> id dicts and the sorted distinct pair keys of a KB."""

    def __init__(self, entities, relations, triple_keys):
        self.entity_index = {t: i for i, t in enumerate(entities)}
        self.relation_index = {t: i for i, t in enumerate(relations)}
        self.ne, self.nr = max(len(entities), 1), max(len(relations), 1)
        self.pair_keys = np.unique(np.asarray(triple_keys, dtype=np.int64) // self.ne)

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
