"""Knowledge-base ingestion and one-hop indexing.

Triples are stored as sorted int64 keys so membership and range queries are
searchsorted scans.  Key layouts (NE entities, NR relations interned):

    pair key    s * NR + r
    triple key  (s * NR + r) * NE + t

which fits int64 while NE**2 * NR <= 2**63 (Freebase-2M: ~3.1e16); ingest
refuses a larger KB.  A subject's triples, and a pair's, are one run of
keys: R(s) is the distinct pair keys (triple key // NE) of s's run.
An entity or relation id is its name's rank: ingest sorts both name lists,
so subgraph lists come out in canonical (name) order, and so do a pair's
objects.

Names and aliases are looked up by bisection over sorted data that ingest
writes once (the names, the alias index), never through a dict, so a load
builds nothing per entity or per alias row.
"""

from __future__ import annotations

import bisect
import functools
import re
from pathlib import Path

import numpy as np

from .artifacts import npz_views, read_sealed, save_npz, seal, sealed_digest
from .errors import CheckpointError, IngestError

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
    if not keys.size:
        return keys
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class KnowledgeBase:
    """Immutable triple store with one-hop relation, fact and object lookups.

    The names are one UTF-8 blob, the entity then the relation names, each
    list ascending and each name ended by "\n" (no id field holds one).  An
    id is the name's rank in its list, so :meth:`entity_id` and
    :meth:`relation_id` bisect the blob.  No Python object per name is made
    until :attr:`entities` or :attr:`relations` is read.
    """

    def __init__(self, entities: list[str], relations: list[str],
                 triple_keys: np.ndarray):
        """The KB of these names, each list in ascending order (an id is the
        name's rank), and its sorted unique triple keys."""
        names = "".join(f"{name}\n" for name in (*entities, *relations)).encode("utf-8")
        self._adopt(np.frombuffer(names, dtype=np.uint8), len(entities), triple_keys)

    def _adopt(self, names: np.ndarray, entity_count: int, triple_keys: np.ndarray) -> None:
        self.names = names
        self.entity_count = entity_count
        self.triple_keys = triple_keys   # sorted unique int64
        # name i is the bytes between the "\n" at _ends[i] and the one at _ends[i + 1]
        self._ends = memoryview(np.concatenate(([-1], np.flatnonzero(names == 10))))
        self._blob = memoryview(names)
        self._ne = max(entity_count, 1)
        self._nr = max(self.relation_count, 1)

    @property
    def relation_count(self) -> int:
        return len(self._ends) - 1 - self.entity_count

    @property
    def triple_count(self) -> int:
        return int(self.triple_keys.size)

    def _name(self, i: int) -> bytes:
        return self._blob[self._ends[i] + 1:self._ends[i + 1]].tobytes()

    def _names(self, lo: int, hi: int) -> list[str]:
        if lo == hi:
            return []
        return self._blob[self._ends[lo] + 1:self._ends[hi]].tobytes().decode("utf-8").split("\n")

    @functools.cached_property
    def entities(self) -> list[str]:
        """Every entity name in id order, built on first use."""
        return self._names(0, self.entity_count)

    @functools.cached_property
    def relations(self) -> list[str]:
        """Every relation name in id (ascending) order, built on first use."""
        return self._names(self.entity_count, len(self._ends) - 1)

    def entity_name(self, e: int) -> str:
        return self._name(e).decode("utf-8")

    def _find(self, names: range, text: str) -> int:
        """The rank of ``text`` among the names at ``names``, a range of
        ascending names, or -1."""
        key = text.encode("utf-8", "surrogatepass")
        pos = bisect.bisect_left(names, key, key=self._name)
        return pos if pos < len(names) and self._name(names[pos]) == key else -1

    def entity_id(self, text: str) -> int:
        return self._find(range(self.entity_count), text)

    def relation_id(self, text: str) -> int:
        return self._find(range(self.entity_count, len(self._ends) - 1), text)

    def _span(self, first: int, width: int) -> np.ndarray:
        """The triple keys in [first, first + width); at the key limit that
        end passes int64, and the span runs to the end of the array."""
        lo = np.searchsorted(self.triple_keys, first)
        end = first + width
        hi = self.triple_keys.size if end >= _KEY_LIMIT else np.searchsorted(self.triple_keys, end)
        return self.triple_keys[lo:hi]

    def subgraph_relations(self, e: int) -> np.ndarray:
        """R(e): unique relations leaving e, ascending (canonical order)."""
        if not 0 <= e < self._ne:
            return np.empty(0, dtype=np.int64)
        pair = int(e) * self._nr
        return distinct_sorted(self._span(pair * self._ne, self._nr * self._ne) // self._ne) - pair

    def has_fact(self, e: int, r: int) -> bool:
        if not (0 <= e < self._ne and 0 <= r < self._nr):
            return False
        return self._span((int(e) * self._nr + int(r)) * self._ne, self._ne).size > 0

    def objects(self, e: int, r: int) -> np.ndarray:
        """All t with (e, r, t) in the KB, ascending (in name order)."""
        if not (0 <= e < self._ne and 0 <= r < self._nr):
            return np.empty(0, dtype=np.int64)
        base = (int(e) * self._nr + int(r)) * self._ne
        return self._span(base, self._ne) - base

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
        """Write ``kb.npz``: the names blob (``sorted_names``), the entity
        count and the triple keys, uncompressed."""
        save_npz(path, sorted_names=self.names, entity_count=np.int64(self.entity_count),
                 triple_keys=self.triple_keys)

    @classmethod
    def load(cls, path) -> "KnowledgeBase":
        """The KB :meth:`save` wrote, its arrays read in place; its seal
        stands for the checks."""
        arrays = npz_views(read_sealed(path, "ingest-kb"))
        if "sorted_names" not in arrays:     # written while entity ids were first-seen
            raise CheckpointError(f"{path} was written by an older ingest-kb; rerun ingest-kb")
        kb = cls.__new__(cls)
        kb._adopt(arrays["sorted_names"], int(arrays["entity_count"]), arrays["triple_keys"])
        return kb


def ingest_triples(source) -> KnowledgeBase:
    """Build a KnowledgeBase from subject<TAB>relation<TAB>objects lines.

    The object field may hold several space-separated ids, one triple each.
    Duplicate triples collapse.  Ids are the names' ranks.  Raises
    IngestError with the line number on a malformed line.
    """
    ents: dict[str, int] = {}    # stripped name -> first-seen number
    rels: dict[str, int] = {}
    # raw id field -> first-seen number: each distinct raw text is stripped once
    ent_of: dict[str, int] = {}
    rel_of: dict[str, int] = {}

    def intern(raw: str, of: dict[str, int], numbers: dict[str, int]) -> int:
        n = of.get(raw)
        if n is None:
            n = of[raw] = numbers.setdefault(strip_id_prefix(raw), len(numbers))
        return n

    ss: list[int] = []
    rs: list[int] = []
    ts: list[int] = []
    for subj, rel, objs in read_tsv(source, 3, lambda f: None if (
            f[0].strip() and f[1].strip() and f[2].strip()) else "empty field"):
        s = intern(subj, ent_of, ents)
        r = intern(rel, rel_of, rels)
        for obj in objs.split():
            ss.append(s)
            rs.append(r)
            ts.append(intern(obj, ent_of, ents))

    entities, ent_rank = _ranked(ents)
    relations, rel_rank = _ranked(rels)
    keys = triple_keys(ent_rank[ss], rel_rank[rs], ent_rank[ts],
                       max(len(entities), 1), max(len(relations), 1))
    return KnowledgeBase(entities, relations, distinct_sorted(np.sort(keys)))


def _ranked(numbers: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The names of ``numbers`` (name -> first-seen number) ascending, and
    the rank of each first-seen number's name."""
    names = sorted(numbers)
    rank = np.empty(len(names), dtype=np.int64)
    rank[np.array([numbers[name] for name in names], dtype=np.int64)] = np.arange(len(names))
    return names, rank


class AliasTable:
    """Normalized alias text -> entity ids, plus the reverse listing.

    ``rows`` are the bytes of ``aliases.tsv``, one "entity\talias\n" row
    each (neither field holds a tab), sorted by entity with a stable sort,
    so each entity's aliases keep their first-seen order.  ``by_alias``
    lists the row numbers in alias order.  Both lookups bisect the rows.
    """

    def __init__(self, entities: list[str], aliases: list[str]):
        """The table of these rows, ``entities`` ascending."""
        rows = "".join(f"{entity}\t{alias}\n" for entity, alias in zip(entities, aliases))
        by_alias = sorted(range(len(aliases)), key=aliases.__getitem__)
        self._adopt(rows.encode("utf-8"), np.array(by_alias, dtype=np.int64), len(set(aliases)))

    def _adopt(self, rows: bytes, by_alias: np.ndarray, alias_count: int) -> None:
        self.rows = rows
        self.by_alias = by_alias
        self._alias_count = alias_count
        # row k's entity lies between _cuts[2k] and its tab at _cuts[2k + 1],
        # its alias between that tab and the "\n" at _cuts[2k + 2]
        blob = np.frombuffer(rows, dtype=np.uint8)
        self._cuts = memoryview(np.concatenate(([-1], np.flatnonzero((blob == 9) | (blob == 10)))))
        self._by = memoryview(by_alias)

    def _entity(self, k: int) -> bytes:
        return self.rows[self._cuts[2 * k] + 1:self._cuts[2 * k + 1]]

    def _alias(self, k: int) -> bytes:
        return self.rows[self._cuts[2 * k + 1] + 1:self._cuts[2 * k + 2]]

    def entities_for_alias(self, text) -> set[str]:
        """Exact lookup; ``text`` may be a string or a token sequence."""
        key = normalize_text(text) if isinstance(text, str) else " ".join(text)
        key = key.encode("utf-8", "surrogatepass")
        by = self._by
        i = bisect.bisect_left(by, key, key=self._alias)
        found = set()
        while i < len(by) and self._alias(by[i]) == key:
            found.add(self._entity(by[i]).decode("utf-8"))
            i += 1
        return found

    def aliases_of(self, entity: str) -> list[str]:
        key = entity.encode("utf-8", "surrogatepass")
        rows = range(len(self._by))
        k = bisect.bisect_left(rows, key, key=self._entity)
        found = []
        while k < len(rows) and self._entity(k) == key:
            found.append(self._alias(k).decode("utf-8"))
            k += 1
        return found

    def __len__(self):
        """The number of distinct aliases."""
        return self._alias_count

    def save(self, path) -> None:
        """Seal the rows at ``path`` and, beside it, the index ``<stem>.idx.npz``:
        ``by_alias``, the distinct alias count and the rows' SHA-256."""
        digest = seal(path, self.rows)
        save_npz(Path(path).with_suffix(".idx.npz"), by_alias=self.by_alias,
                 alias_count=np.int64(self._alias_count), tsv_sha256=np.array(digest))

    @classmethod
    def load(cls, path) -> "AliasTable":
        """The table :meth:`save` wrote; the two seals stand for the checks,
        and an index of other rows is a CheckpointError."""
        rows = read_sealed(path, "ingest-kb")
        index = Path(path).with_suffix(".idx.npz")
        arrays = npz_views(read_sealed(index, "ingest-kb"))
        if str(arrays["tsv_sha256"]) != sealed_digest(path):
            raise CheckpointError(f"{index} does not index {path}; rerun ingest-kb")
        table = cls.__new__(cls)
        table._adopt(rows, arrays["by_alias"], int(arrays["alias_count"]))
        return table


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
