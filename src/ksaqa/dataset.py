"""SimpleQuestions-format parsing, question formatting, and vocabularies.

A formatted question replaces the subject's alias span with the placeholder
token ``<e>``.  Reserved tokens are plain ASCII and are injected after
tokenization, so punctuation splitting can never mangle them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import read_sealed, save_text, seal
from .kb import AliasTable, read_tsv, strip_id_prefix, tokenize

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
    # a question tokenizes to nothing exactly when it is blank
    for subj, rel, obj, question in read_tsv(
            source, 4, lambda f: None if f[3].strip() else "empty question"):
        records.append(QuestionRecord(
            tokens=tokenize(question),
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
    spans = []
    for alias in aliases.aliases_of(record.subject):
        span = find_span(q, alias.split())
        if span is not None:
            spans.append(span)
    if not spans:
        return None
    # longest, then leftmost
    return span_to_formatted(q, min(spans, key=lambda sp: (sp[0] - sp[1], sp[0])))


def find_span(tokens: list[str], part: list[str]) -> tuple[int, int] | None:
    """[start, end) of the leftmost occurrence of ``part`` in ``tokens``.

    None when ``part`` does not occur or is empty.
    """
    n = len(part)
    if n == 0:
        return None
    for start in range(len(tokens) - n + 1):
        if tokens[start:start + n] == part:
            return start, start + n
    return None


def span_to_formatted(tokens: list[str], span: tuple[int, int]) -> FormattedQuestion:
    """``tokens`` with the [start, end) span collapsed to ``<e>``."""
    lo, hi = span
    return FormattedQuestion(
        tokens=tokens[:lo] + [ENT] + tokens[hi:],
        mention_span=span,
        mention_text=" ".join(tokens[lo:hi]),
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
        seal(path, "\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read back the file :meth:`save` wrote; no token holds a line break."""
        return cls(read_sealed(path, "relabel").decode("utf-8").split("\n")[:-1])


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
    save_text(path, "".join(
        f"{rec.text}\t{fq.text if fq else ''}\t{rec.subject}\t{rec.relation}\n"
        for rec, fq in zip(records, formatted)))
