"""Knowledge-base ingestion and one-hop indexing.

Triples are stored as sorted int64 keys so membership and range queries are
searchsorted scans.  Key layouts (NE entities, NR relations interned):

    pair key    s * NR + r
    triple key  (s * NR + r) * NE + t

which fits int64 comfortably at Freebase-2M scale (~3.1e16 < 2**63).
Relation indices are remapped after ingest so index order equals ascending
lexicographic order of the relation text; subgraph lists are then sorted in
canonical order for free.
"""

from __future__ import annotations

import re
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .errors import CheckpointError, IngestError

_PUNCT_RE = re.compile(r"([^\w\s])")


def tokenize(text: str) -> list[str]:
    """Lowercase, split punctuation into standalone tokens, collapse spaces."""
    return _PUNCT_RE.sub(r" \1 ", text.lower()).split()


def normalize_text(text: str) -> str:
    return " ".join(tokenize(text))


def strip_id_prefix(raw: str) -> str:
    """Unify URL-style and bare machine ids ("www.freebase.com/m/x" -> "x")."""
    s = raw.strip()
    if s.startswith("/"):
        s = s[1:]
    if s.startswith("www.freebase.com/"):
        s = s[len("www.freebase.com/"):]
    if s.startswith("m/"):
        s = s[2:]
    return s


class Interner:
    """Injective text <-> contiguous index map, insertion ordered."""

    def __init__(self):
        self.texts: list[str] = []
        self.index: dict[str, int] = {}

    def intern(self, text: str) -> int:
        idx = self.index.get(text)
        if idx is None:
            idx = len(self.texts)
            self.index[text] = idx
            self.texts.append(text)
        return idx

    def get(self, text: str) -> int:
        return self.index.get(text, -1)

    def __len__(self):
        return len(self.texts)


def _iter_lines(source):
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


class KnowledgeBase:
    """Immutable triple store with one-hop relation, fact, and object indexes."""

    def __init__(self, entities: list[str], relations: list[str],
                 triple_keys: np.ndarray):
        self.entities = entities
        self.relations = relations
        self.entity_index = {t: i for i, t in enumerate(entities)}
        self.relation_index = {t: i for i, t in enumerate(relations)}
        self._nr = max(len(relations), 1)
        self._ne = max(len(entities), 1)
        self.triple_keys = triple_keys   # sorted unique int64
        self.pair_keys = np.unique(triple_keys // self._ne) if triple_keys.size else \
            np.empty(0, dtype=np.int64)

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    @property
    def relation_count(self) -> int:
        return len(self.relations)

    @property
    def triple_count(self) -> int:
        return int(self.triple_keys.size)

    def entity_id(self, text: str) -> int:
        return self.entity_index.get(text, -1)

    def relation_id(self, text: str) -> int:
        return self.relation_index.get(text, -1)

    def subgraph_relations(self, e: int) -> np.ndarray:
        """R(e): unique relations leaving e, ascending (canonical order)."""
        if not 0 <= e < self._ne:
            return np.empty(0, dtype=np.int64)
        lo = np.searchsorted(self.pair_keys, e * self._nr, side="left")
        hi = np.searchsorted(self.pair_keys, (e + 1) * self._nr, side="left")
        return (self.pair_keys[lo:hi] - e * self._nr).astype(np.int64)

    def has_fact(self, e: int, r: int) -> bool:
        if not (0 <= e < self._ne and 0 <= r < self._nr):
            return False
        key = np.int64(e) * self._nr + r
        pos = np.searchsorted(self.pair_keys, key, side="left")
        return bool(pos < self.pair_keys.size and self.pair_keys[pos] == key)

    def objects(self, e: int, r: int) -> np.ndarray:
        """All t with (e, r, t) in the KB, ascending by entity index."""
        if not (0 <= e < self._ne and 0 <= r < self._nr):
            return np.empty(0, dtype=np.int64)
        base = (np.int64(e) * self._nr + r) * self._ne
        lo = np.searchsorted(self.triple_keys, base, side="left")
        hi = np.searchsorted(self.triple_keys, base + self._ne, side="left")
        return (self.triple_keys[lo:hi] - base).astype(np.int64)

    def decode_triple(self, key: int) -> tuple[int, int, int]:
        t = int(key % self._ne)
        pair = key // self._ne
        return int(pair // self._nr), int(pair % self._nr), t

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            entities=np.array(self.entities, dtype=str),
            relations=np.array(self.relations, dtype=str),
            triple_keys=self.triple_keys,
        )

    @classmethod
    def load(cls, path) -> "KnowledgeBase":
        try:
            with open(path, "rb") as fh, np.load(fh) as z:
                return cls(
                    entities=z["entities"].tolist(),
                    relations=z["relations"].tolist(),
                    triple_keys=z["triple_keys"].astype(np.int64),
                )
        except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, ValueError) as exc:
            raise CheckpointError(f"{path}: unreadable KB archive ({exc})") from None


def ingest_triples(source) -> KnowledgeBase:
    """Build a KnowledgeBase from subject<TAB>relation<TAB>objects lines.

    The object field may hold several space-separated ids, one triple each.
    Duplicate triples collapse.  Raises IngestError with the line number on a
    malformed line.
    """
    ents = Interner()
    rels = Interner()
    ss: list[int] = []
    rs: list[int] = []
    ts: list[int] = []
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise IngestError(line_no, f"expected 3 tab-separated fields, got {len(parts)}")
        subj, rel, objs = parts
        if not subj.strip() or not rel.strip() or not objs.strip():
            raise IngestError(line_no, "empty field")
        s = ents.intern(strip_id_prefix(subj))
        r = rels.intern(strip_id_prefix(rel))
        for obj in objs.split():
            ss.append(s)
            rs.append(r)
            ts.append(ents.intern(strip_id_prefix(obj)))

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
        keys = np.unique((s_arr * nr + r_arr) * ne + t_arr)
    else:
        keys = np.empty(0, dtype=np.int64)
    return KnowledgeBase(ents.texts, relations, keys)


class AliasTable:
    """Normalized alias text -> entity ids, plus the reverse listing."""

    def __init__(self):
        self.map: dict[str, set[str]] = {}
        self.reverse: dict[str, list[str]] = {}

    def add(self, entity: str, alias_text: str) -> None:
        key = normalize_text(alias_text)
        if not key:
            return
        self.map.setdefault(key, set()).add(entity)
        seen = self.reverse.setdefault(entity, [])
        if key not in seen:
            seen.append(key)

    def entities_for_alias(self, text) -> set[str]:
        """Exact lookup; ``text`` may be a string or a token sequence."""
        key = normalize_text(text) if isinstance(text, str) else " ".join(text)
        return set(self.map.get(key, ()))

    def aliases_of(self, entity: str) -> list[str]:
        return list(self.reverse.get(entity, ()))

    def __len__(self):
        return len(self.map)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entity in sorted(self.reverse):
                for alias in self.reverse[entity]:
                    fh.write(f"{entity}\t{alias}\n")

    @classmethod
    def load(cls, path) -> "AliasTable":
        return ingest_aliases(path)


def ingest_aliases(source) -> AliasTable:
    """Build an AliasTable from entity<TAB>alias lines."""
    table = AliasTable()
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestError(line_no, f"expected 2 tab-separated fields, got {len(parts)}")
        entity, alias = parts
        if not entity.strip():
            raise IngestError(line_no, "empty entity field")
        table.add(strip_id_prefix(entity), alias)
    return table
