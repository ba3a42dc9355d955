"""SimpleQuestions-format parsing, question formatting, and vocabularies.

A formatted question replaces the subject's alias span with the placeholder
token ``<e>``.  Reserved tokens are plain ASCII and are injected after
tokenization, so punctuation splitting can never mangle them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, IngestError
from .kb import AliasTable, _iter_lines, strip_id_prefix, tokenize

PAD = "<pad>"
UNK = "<unk>"
ENT = "<e>"
START = "<_start>"
RESERVED = (PAD, UNK, ENT, START)


@dataclass
class QuestionRecord:
    tokens: list[str]
    subject: str
    relation: str
    object: str
    split: str = "train"

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class FormattedQuestion:
    """Question with the matched alias span collapsed to one ``<e>`` token."""

    tokens: list[str]
    mention_span: tuple[int, int]   # [start, end) over the original tokens
    mention_text: str

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def restore(self) -> list[str]:
        """Splice the mention back in place of ``<e>``."""
        pos = self.tokens.index(ENT)
        return self.tokens[:pos] + self.mention_text.split() + self.tokens[pos + 1:]


def parse_simplequestions(source, split: str = "train") -> list[QuestionRecord]:
    """Parse subject<TAB>relation<TAB>object<TAB>question lines."""
    records = []
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise IngestError(line_no, f"expected 4 tab-separated fields, got {len(parts)}")
        subj, rel, obj, question = parts
        tokens = tokenize(question)
        if not tokens:
            raise IngestError(line_no, "empty question")
        records.append(QuestionRecord(
            tokens=tokens,
            subject=strip_id_prefix(subj),
            relation=strip_id_prefix(rel),
            object=strip_id_prefix(obj),
            split=split,
        ))
    return records


def format_question(record: QuestionRecord, aliases: AliasTable) -> FormattedQuestion | None:
    """Replace the longest (ties: leftmost) matching subject alias with <e>.

    Returns None when no alias of the subject occurs as a contiguous token
    subsequence of the question.
    """
    q = record.tokens
    best = None   # (length, start)
    for alias in aliases.aliases_of(record.subject):
        a = alias.split()
        n = len(a)
        if n == 0 or n > len(q):
            continue
        for start in range(len(q) - n + 1):
            if q[start:start + n] == a:
                cand = (n, start)
                if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
                break   # leftmost occurrence of this alias is enough
    if best is None:
        return None
    n, start = best
    return FormattedQuestion(
        tokens=q[:start] + [ENT] + q[start + n:],
        mention_span=(start, start + n),
        mention_text=" ".join(q[start:start + n]),
    )


class Vocabulary:
    """Token -> contiguous index with reserved slots and <unk> fallback."""

    def __init__(self, tokens: list[str]):
        head = tuple(tokens[: len(RESERVED)])
        if head != RESERVED:
            raise ValueError(f"the first tokens must be {RESERVED}, got {head}")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self.index.get(token, self.index[UNK])

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.lookup(t) for t in tokens], dtype=np.int64)

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        try:
            return cls(Path(path).read_text(encoding="utf-8").splitlines())
        except ValueError as exc:      # also UnicodeDecodeError
            raise CheckpointError(f"{path}: not a vocabulary file ({exc})") from None


def build_vocabulary(token_streams, min_count: int = 1) -> Vocabulary:
    """Count tokens across streams; keep those seen >= min_count times.

    Kept tokens follow the reserved block in first-seen order.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: dict[str, int] = {}
    order: list[str] = []
    for stream in token_streams:
        for tok in stream:
            if tok in RESERVED:
                continue
            if tok not in counts:
                counts[tok] = 0
                order.append(tok)
            counts[tok] += 1
    kept = [t for t in order if counts[t] >= min_count]
    return Vocabulary(list(RESERVED) + kept)


def write_formatted_tsv(path, records, formatted) -> None:
    """Dump question<TAB>formatted<TAB>subject<TAB>relation rows.

    Rows without an alias match carry an empty formatted column.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for rec, fq in zip(records, formatted):
            fh.write(f"{rec.text}\t{fq.text if fq else ''}\t{rec.subject}\t{rec.relation}\n")
