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
from .dataset import FormattedQuestion, Vocabulary, span_to_formatted
from .errors import ConfigError, require_positive
from .kernels import crf as crf_k
from .optim import Adam


# sentences per BiGRU pass and batched Viterbi in TaggerModel.decode_all
DECODE_BATCH = 256


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

    def __init__(self, vocab: Vocabulary, config: TaggerConfig, params=None):
        """``params``: an :class:`nn.Saved` checkpoint, or by default an
        :class:`nn.Fresh` draw seeded by ``config.seed``."""
        self.vocab = vocab
        self.config = config
        if params is None:
            params = nn.Fresh(Rng(config.seed))
        d, h = config.d_word, config.hidden
        self.word_emb = params.embedding("tagger.word_emb", (len(vocab), d))
        self.fwd = nn.gru_params("tagger.fwd", d, h, params)
        self.bwd = nn.gru_params("tagger.bwd", d, h, params)
        self.emit = nn.linear_params("tagger.emit", 2 * h, self.K, params)
        self.trans = params.zeros("tagger.crf.trans", (self.K, self.K))
        self.start = params.zeros("tagger.crf.start", (self.K,))
        self.stop = params.zeros("tagger.crf.stop", (self.K,))

    def parameters(self) -> list[Parameter]:
        return nn.collect_params([self.word_emb, self.fwd, self.bwd, self.emit,
                                  self.trans, self.start, self.stop])

    def log_likelihood(self, tokens: list[str], tags) -> Tensor:
        emis, _ = self.batch_emissions([tokens])
        return ad.crf_log_likelihood(emis, self.trans, self.start, self.stop, tags)

    def decode(self, tokens: list[str]) -> np.ndarray:
        return self.decode_all([tokens])[0]

    def batch_emissions(self, sentences: list[list[str]]) -> tuple[Tensor, np.ndarray]:
        """(emissions [M·B, K] with token t of sentence b in row t·B + b,
        lengths [B]) of B sentences right-padded to the longest, M, from one
        length-masked BiGRU pass.  Training takes them with B = 1, on the tape."""
        ids, active = nn.padded([self.vocab.encode(tokens) for tokens in sentences])
        hs = nn.bigru(self.fwd, self.bwd, ad.embedding_lookup(self.word_emb, ids), active)
        return nn.linear(self.emit, ad.reshape(hs, (-1, hs.data.shape[-1]))), active.sum(axis=0)

    def decode_all(self, sentences: list[list[str]]) -> list[np.ndarray]:
        """Viterbi tags of each sentence, ``DECODE_BATCH`` sentences at a time
        through :meth:`batch_emissions` and one batched Viterbi."""
        tags: list[np.ndarray] = []
        for lo in range(0, len(sentences), DECODE_BATCH):
            emis, lengths = self.batch_emissions(sentences[lo:lo + DECODE_BATCH])
            per_sentence = emis.data.reshape(-1, len(lengths), self.K).transpose(1, 0, 2)
            paths = crf_k.crf_viterbi(per_sentence, self.trans.data,
                                      self.start.data, self.stop.data, lengths)
            tags.extend(path[:n] for path, n in zip(paths, lengths))
        return tags

    def save(self, path) -> None:
        save_checkpoint(path, self.parameters(), asdict(self.config),
                        vocabulary=self.vocab.tokens)

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "TaggerModel":
        return load_checkpoint(path, lambda c, saved: cls(vocab, TaggerConfig(**c), saved),
                               vocabulary=vocab.tokens)


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


def predict_span(model: TaggerModel, tokens: list[str]) -> FormattedQuestion | None:
    """The question formatted at the decoded mention; None on a detection failure."""
    return predict_spans(model, [tokens])[0]


def predict_spans(model: TaggerModel, sentences: list[list[str]]
                  ) -> list[FormattedQuestion | None]:
    """:func:`predict_span` of each sentence, decoded as one batch."""
    spans = map(longest_run, model.decode_all(sentences))
    return [None if span is None else span_to_formatted(tokens, span)
            for tokens, span in zip(sentences, spans)]


def tags_for_span(n: int, span: tuple[int, int]) -> np.ndarray:
    tags = np.zeros(n, dtype=np.int64)
    tags[span[0]:span[1]] = 1
    return tags


def span_accuracy(model: TaggerModel, pairs) -> float:
    """Exact-match rate of the extracted span against gold spans."""
    if not pairs:
        return 0.0
    decoded = model.decode_all([tokens for tokens, _ in pairs])
    hits = sum(longest_run(pred) == longest_run(np.asarray(tags))
               for pred, (_, tags) in zip(decoded, pairs))
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
    opt = Adam(model.parameters(), lr=config.lr)
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
            opt.zero_grad()
            with Tape():
                total += ad.backward(ad.scale(model.log_likelihood(tokens, tags), -1.0),
                                     where=f"tagger epoch {epoch + 1}, step {opt.step_count + 1}")
            opt.step()
        entry = {"epoch": epoch + 1, "train_loss": total}
        if valid_pairs:
            acc = span_accuracy(model, valid_pairs)
            entry["valid_span_accuracy"] = acc
            if acc > best_acc:
                best_acc = acc
                best_state = opt.keep(into=best_state)
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
        opt.data[...] = best_state
    return model, history
