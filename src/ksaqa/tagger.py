"""BiGRU-CRF subject-span tagger.

Tags are 0/1 per token, 1 inside the subject mention.  Training maximizes
the CRF conditional log likelihood; decoding is Viterbi with ties broken
toward label 0.  Mention extraction takes the longest run of 1s (leftmost on
ties); an all-zero decode is a detection failure the caller must handle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Parameter, Rng, Tape, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import ENT, FormattedQuestion, Vocabulary
from .errors import ConfigError, require_positive
from .kernels import crf as crf_k
from .optim import Adam


@dataclass
class TaggerConfig:
    key_prefix = "tagger_"

    d_word: int = 500
    hidden: int = 300
    lr: float = 0.001
    epochs: int = 20
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        require_positive(self, "d_word", "hidden", "lr", "epochs")


class TaggerModel:
    """Word embeddings, one BiGRU layer, emission affine, CRF scores."""

    K = 2   # tag alphabet {0, 1}

    def __init__(self, vocab: Vocabulary, config: TaggerConfig):
        self.vocab = vocab
        self.config = config
        rng = Rng(config.seed)
        d, h = config.d_word, config.hidden
        self.word_emb = Parameter("tagger.word_emb", ad.init_embedding(rng, (len(vocab), d)))
        self.fwd = nn.gru_params("tagger.fwd", d, h, rng)
        self.bwd = nn.gru_params("tagger.bwd", d, h, rng)
        self.emit = nn.linear_params("tagger.emit", 2 * h, self.K, rng)
        self.trans = Parameter("tagger.crf.trans", np.zeros((self.K, self.K)))
        self.start = Parameter("tagger.crf.start", np.zeros(self.K))
        self.stop = Parameter("tagger.crf.stop", np.zeros(self.K))

    def parameters(self) -> list[Parameter]:
        return nn.collect_params([self.word_emb, self.fwd, self.bwd, self.emit,
                                  self.trans, self.start, self.stop])

    def emissions(self, tokens: list[str]) -> Tensor:
        ids = self.vocab.encode(tokens)
        x = ad.embedding_lookup(self.word_emb, ids)
        hs, _ = nn.bigru(self.fwd, self.bwd, x)
        return nn.linear(self.emit, hs)

    def log_likelihood(self, tokens: list[str], tags) -> Tensor:
        emis = self.emissions(tokens)
        return ad.crf_log_likelihood(emis, self.trans, self.start, self.stop, tags)

    def decode(self, tokens: list[str]) -> np.ndarray:
        emis = self.emissions(tokens)
        return crf_k.crf_viterbi(emis.data, self.trans.data, self.start.data, self.stop.data)

    def save(self, path) -> None:
        save_checkpoint(path, self.parameters(), asdict(self.config),
                        vocabulary=self.vocab.tokens)

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "TaggerModel":
        return load_checkpoint(path, lambda c: cls(vocab, TaggerConfig(**c)),
                               vocabulary=vocab.tokens)


@dataclass
class SpanPrediction:
    tags: np.ndarray
    span: tuple[int, int] | None     # [start, end) or None on failure
    mention_text: str
    formatted_tokens: list[str] | None

    @property
    def failed(self) -> bool:
        return self.span is None


def longest_run(tags: np.ndarray) -> tuple[int, int] | None:
    """Longest contiguous run of 1s, leftmost on ties; None if no 1s."""
    best = None
    start = None
    for i, v in enumerate(list(tags) + [0]):
        if v == 1 and start is None:
            start = i
        elif v != 1 and start is not None:
            if best is None or i - start > best[1] - best[0]:
                best = (start, i)
            start = None
    return best


def predict_span(model: TaggerModel, tokens: list[str]) -> SpanPrediction:
    tags = model.decode(tokens)
    span = longest_run(tags)
    if span is None:
        return SpanPrediction(tags=tags, span=None, mention_text="", formatted_tokens=None)
    lo, hi = span
    return SpanPrediction(
        tags=tags, span=span,
        mention_text=" ".join(tokens[lo:hi]),
        formatted_tokens=tokens[:lo] + [ENT] + tokens[hi:],
    )


def span_to_formatted(tokens: list[str], span: tuple[int, int]) -> FormattedQuestion:
    lo, hi = span
    return FormattedQuestion(
        tokens=tokens[:lo] + [ENT] + tokens[hi:],
        mention_span=span,
        mention_text=" ".join(tokens[lo:hi]),
    )


def tags_for_span(n: int, span: tuple[int, int]) -> np.ndarray:
    tags = np.zeros(n, dtype=np.int64)
    tags[span[0]:span[1]] = 1
    return tags


def span_accuracy(model: TaggerModel, pairs) -> float:
    """Exact-match rate of the extracted span against gold spans."""
    if not pairs:
        return 0.0
    hits = 0
    for tokens, tags in pairs:
        pred = longest_run(model.decode(tokens))
        gold = longest_run(np.asarray(tags))
        hits += int(pred == gold)
    return hits / len(pairs)


def train_tagger(train_pairs, config: TaggerConfig, vocab: Vocabulary,
                 valid_pairs=None, log=None) -> tuple[TaggerModel, list[dict]]:
    """Adam on negative CRF log likelihood, one question per step.

    ``train_pairs`` is a list of (tokens, tags).  With a validation set,
    the best-span-accuracy parameters are kept and training stops early
    after ``patience`` epochs without improvement.
    """
    if not train_pairs:
        raise ConfigError("tagger training set is empty")
    model = TaggerModel(vocab, config)
    params = model.parameters()
    opt = Adam(params, lr=config.lr)
    rng = Rng(config.seed + 1)
    best_acc = -1.0
    best_state = None
    stale = 0
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_pairs))
        total = 0.0
        for i in order:
            tokens, tags = train_pairs[int(i)]
            with Tape():
                loss = ad.scale(model.log_likelihood(tokens, tags), -1.0)
                opt.zero_grad()
                ad.backward(loss)
            opt.step()
            total += float(loss.data)
        entry = {"epoch": epoch + 1, "train_loss": total}
        if valid_pairs:
            acc = span_accuracy(model, valid_pairs)
            entry["valid_span_accuracy"] = acc
            if acc > best_acc:
                best_acc = acc
                best_state = nn.snapshot(params)
                stale = 0
            else:
                stale += 1
        history.append(entry)
        if log:
            log(f"tagger epoch {entry['epoch']}/{config.epochs} loss {total:.4f}"
                + (f" valid_acc {entry['valid_span_accuracy']:.4f}" if valid_pairs else ""))
        if valid_pairs and stale >= config.patience:
            break
    if best_state is not None:
        nn.restore(params, best_state)
    return model, history
