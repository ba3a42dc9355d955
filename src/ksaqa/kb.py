"""Knowledge-base ingestion and one-hop indexing.

Triples are stored as sorted int64 keys so membership and range queries are
searchsorted scans.  Key layouts (NE entities, NR relations interned):

    pair key    s * NR + r
    triple key  (s * NR + r) * NE + t

which fits int64 while NE**2 * NR <= 2**63 (Freebase-2M: ~3.1e16); ingest
refuses a larger KB.
Relation indices are remapped after ingest so index order equals ascending
lexicographic order of the relation text; subgraph lists are then sorted in
canonical order for free.
"""

from __future__ import annotations

import bisect
import io
import re
from pathlib import Path

import numpy as np

from .artifacts import read_sealed, save_npz, seal
from .errors import IngestError

_PUNCT_RE = re.compile(r"([^\w\s])")


def tokenize(text: str) -> list[str]:
    """Lowercase, split punctuation into standalone tokens, collapse spaces."""
    return _PUNCT_RE.sub(r" \1 ", text.lower()).split()


def normalize_text(text: str) -> str:
    return " ".join(tokenize(text))


_ID_PREFIXES = ("/", "www.freebase.com/", "m/")


def strip_id_prefix(raw: str) -> str:
    """Unify URL-style and bare machine ids ("www.freebase.com/m/x" -> "x").

    Prefixes come off until none is left, so a stripped id strips to itself.
    """
    s = raw.strip()
    while s.startswith(_ID_PREFIXES):
        s = s.removeprefix("/").removeprefix("www.freebase.com/").removeprefix("m/").strip()
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


def read_tsv(source, fields: int, check):
    """The fields of each non-blank line of a tab-separated source.

    ``source`` is a UTF-8 file path or an iterable of str lines.  Only "\n"
    ends a line and one "\r" before it is dropped (a CRLF ending); a lone
    "\r" is field text, as it is in a str line.  A line that
    is not UTF-8, does not hold ``fields`` fields, or for which
    ``check(fields)`` returns a message (not None) raises IngestError with
    its 1-based number, and with the path when ``source`` is one.
    """
    if isinstance(source, (str, Path)):
        # bytes that are not UTF-8 become lone surrogates, refused on their own
        # line; only "\n" ends a line, so a lone "\r" stays inside its field
        with open(source, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            try:
                yield from read_tsv(fh, fields, check)
            except IngestError as exc:
                raise IngestError(exc.line_no, exc.message, source) from None
        return
    for line_no, raw in enumerate(source, start=1):
        if not raw.isascii():
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise IngestError(line_no, f"not UTF-8 at column {exc.start + 1}") from None
        line = raw.rstrip("\n")
        if line.endswith("\r"):      # a CRLF line ending
            line = line[:-1]
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != fields:
            raise IngestError(line_no, f"expected {fields} tab-separated fields, got {len(parts)}")
        fault = check(parts)
        if fault is not None:
            raise IngestError(line_no, fault)
        yield parts


_KEY_LIMIT = 2 ** 63     # the largest key, NE**2 * NR - 1, must fit int64


def triple_keys(s, r, t, ne: int, nr: int):
    """Triple keys (s * NR + r) * NE + t as int64, for NE entities and NR relations.

    Refuses, before touching the indices, a KB whose keys would overflow.
    """
    if ne * ne * nr > _KEY_LIMIT:
        raise IngestError(None, f"{ne} entities and {nr} relations overflow the int64 "
                                f"triple key (entities**2 * relations > 2**63)")
    return (np.asarray(s, dtype=np.int64) * nr + r) * ne + t


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array: the first of each run.

    With ``np.sort`` before it, this is ``np.unique``, whose hash path on
    numpy 2.4 took about 115 ms for 170k int64 keys where these two took
    3 ms (one core of a 2-vCPU Xeon).
    """
    return keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys


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
        # the pair keys of sorted triple keys come sorted too
        self.pair_keys = distinct_sorted(triple_keys // self._ne)

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
        base = triple_keys(e, r, 0, self._ne, self._nr)
        lo = np.searchsorted(self.triple_keys, base, side="left")
        hi = np.searchsorted(self.triple_keys, base + self._ne, side="left")
        return (self.triple_keys[lo:hi] - base).astype(np.int64)

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(h, r, t) index arrays of every triple, in key order."""
        pair, t = np.divmod(self.triple_keys, self._ne)
        h, r = np.divmod(pair, self._nr)
        return h, r, t

    def contains(self, h, r, t) -> np.ndarray:
        """Elementwise membership of the triples (h[i], r[i], t[i]) in the KB."""
        key = triple_keys(h, r, t, self._ne, self._nr)
        if self.triple_keys.size == 0:
            return np.zeros(np.shape(key), dtype=bool)
        pos = np.minimum(np.searchsorted(self.triple_keys, key), self.triple_keys.size - 1)
        return self.triple_keys[pos] == key

    def save(self, path) -> None:
        """Write ``kb.npz``: the entity then the relation names as one UTF-8
        blob, each name ended by "\n" (no id field holds one), the entity
        count and the triple keys, uncompressed."""
        names = "".join(f"{name}\n" for name in (*self.entities, *self.relations))
        save_npz(path, names=np.frombuffer(names.encode("utf-8"), dtype=np.uint8),
                  entity_count=np.int64(len(self.entities)), triple_keys=self.triple_keys)

    @classmethod
    def load(cls, path) -> "KnowledgeBase":
        """Read back the archive :meth:`save` wrote; its seal stands for the checks."""
        with np.load(io.BytesIO(read_sealed(path, "ingest-kb"))) as z:
            names = z["names"].tobytes().decode("utf-8").split("\n")[:-1]
            ne = int(z["entity_count"])
            return cls(entities=names[:ne], relations=names[ne:], triple_keys=z["triple_keys"])


def ingest_triples(source) -> KnowledgeBase:
    """Build a KnowledgeBase from subject<TAB>relation<TAB>objects lines.

    The object field may hold several space-separated ids, one triple each.
    Duplicate triples collapse.  Raises IngestError with the line number on a
    malformed line.
    """
    ents = Interner()
    rels = Interner()
    # raw id field -> interned index: each distinct raw text is stripped once
    ent_of: dict[str, int] = {}
    rel_of: dict[str, int] = {}

    def ent(raw: str) -> int:
        idx = ent_of.get(raw)
        if idx is None:
            idx = ent_of[raw] = ents.intern(strip_id_prefix(raw))
        return idx

    ss: list[int] = []
    rs: list[int] = []
    ts: list[int] = []
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
    return KnowledgeBase(ents.texts, relations, keys)


class AliasTable:
    """Normalized alias text -> entity ids, plus the reverse listing.

    The rows are two columns in save order: ``entities`` sorted (a stable
    sort, so each entity's aliases keep their first-seen order) and
    ``aliases`` beside it.  ``map`` takes each alias to the entities it
    names, in entity order.
    """

    def __init__(self, entities: list[str], aliases: list[str]):
        self.entities = entities
        self.aliases = aliases
        self.map: dict[str, list[str]] = {}
        for entity, alias in zip(entities, aliases):
            self.map.setdefault(alias, []).append(entity)

    def entities_for_alias(self, text) -> set[str]:
        """Exact lookup; ``text`` may be a string or a token sequence."""
        key = normalize_text(text) if isinstance(text, str) else " ".join(text)
        return set(self.map.get(key, ()))

    def aliases_of(self, entity: str) -> list[str]:
        lo = bisect.bisect_left(self.entities, entity)
        return self.aliases[lo:bisect.bisect_right(self.entities, entity, lo)]

    def __len__(self):
        return len(self.map)

    def save(self, path) -> None:
        seal(path, "".join(f"{entity}\t{alias}\n"
                           for entity, alias in zip(self.entities, self.aliases)))

    @classmethod
    def load(cls, path) -> "AliasTable":
        """Read back the file :meth:`save` wrote; its seal stands for the checks."""
        cells = read_sealed(path, "ingest-kb").decode("utf-8").replace("\t", "\n").split("\n")
        return cls(cells[0:-1:2], cells[1::2])


def ingest_aliases(source) -> AliasTable:
    """Build an AliasTable from entity<TAB>alias lines.

    Each row is the stripped entity id and the normalized alias; an alias
    that normalizes to nothing and a repeated row are dropped.
    """
    rows: dict[tuple[str, str], None] = {}     # first-seen order
    for entity, alias in read_tsv(
            source, 2, lambda f: None if f[0].strip() else "empty entity field"):
        key = normalize_text(alias)
        if key:
            rows.setdefault((strip_id_prefix(entity), key))
    ordered = sorted(rows, key=lambda row: row[0])
    return AliasTable([entity for entity, _ in ordered], [alias for _, alias in ordered])
