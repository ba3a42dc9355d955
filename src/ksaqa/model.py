"""The KSA-BiGRU relation predictor and its two ablation variants.

Encoder: a GRU over the subject's one-hop relation list (u_KS) plus a
two-layer bidirectional GRU over the formatted question.  The full variant
attends over question states conditioned on u_KS and projects concat(p, u_KS)
to the decoder width; KS-BiGRU projects concat(u_Q, u_KS); BiGRU projects
u_Q alone and never reads the subgraph.  Decoder: one GRU-cell step from the
encoder output with the <_start> embedding as input, then an affine map to
one sigmoid score per relation.

Loss: summed binary cross entropy over plausible positives and, per
positive, a fresh sample of negatives drawn from the subject's non-plausible
relations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Parameter, Rng, Tape, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import Vocabulary
from .errors import ConfigError, ShapeError, require_positive
from .evaluation import prf1
from .kb import KnowledgeBase
from .optim import Adam
from .relabel import LabeledExample, negative_pool, sample_negatives

VARIANTS = ("BiGRU", "KS-BiGRU", "KSA-BiGRU")


@dataclass
class ModelConfig:
    key_prefix = ""          # pipeline keys are the field names

    d_word: int = 500
    d_rel: int = 300
    d_hidden: int = 300
    attention_hidden: int = 650
    dropout: float = 0.1
    lam: float = 0.5
    negatives_per_positive: int = 5
    variant: str = "KSA-BiGRU"
    lr: float = 0.001
    epochs: int = 45
    batch_size: int = 64
    seed: int = 0
    shuffle_augment: bool = False
    negatives_from_empty_candidates: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        require_positive(self, "d_word", "d_rel", "d_hidden", "attention_hidden",
                         "negatives_per_positive", "lr", "epochs", "batch_size")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 < self.lam < 1.0:
            raise ConfigError(f"lambda must lie in (0, 1), got {self.lam}")


@dataclass
class InterpretationScore:
    pair: tuple[str, str]
    probability: float


class KsaModel:
    """Relation predictor over a fixed vocabulary and relation inventory."""

    def __init__(self, vocab: Vocabulary, relations: list[str], config: ModelConfig):
        self.vocab = vocab
        self.relations = list(relations)
        self.rel_index = {r: i for i, r in enumerate(self.relations)}
        self.config = config
        rng = Rng(config.seed)
        v, nr = len(vocab), len(self.relations)
        dw, dr, h, c = config.d_word, config.d_rel, config.d_hidden, config.attention_hidden

        self.word_emb = Parameter("ksa.word_emb", ad.init_embedding(rng, (v, dw)))
        # final row is the <_start> decoder input
        self.rel_emb = Parameter("ksa.rel_emb", ad.init_embedding(rng, (nr + 1, dr)))
        # the question encoder is fixed at the paper's two BiGRU layers
        self.q0f = nn.gru_params("ksa.q0f", dw, h, rng)
        self.q0b = nn.gru_params("ksa.q0b", dw, h, rng)
        self.q1f = nn.gru_params("ksa.q1f", 2 * h, h, rng)
        self.q1b = nn.gru_params("ksa.q1b", 2 * h, h, rng)
        self.subgraph = None
        self.attention = None
        if config.variant != "BiGRU":
            self.subgraph = nn.gru_params("ksa.subgraph", dr, h, rng)
        if config.variant == "KSA-BiGRU":
            self.attention = {
                "w": Parameter("ksa.att.w", ad.init_weight(rng, 3 * h, c, (3 * h, c))),
                "v": Parameter("ksa.att.v", ad.init_weight(rng, c, 1, (c,))),
                "b": Parameter("ksa.att.b", np.zeros(c)),
            }
        proj_in = 2 * h if config.variant == "BiGRU" else 3 * h
        self.proj = nn.linear_params("ksa.proj", proj_in, h, rng)
        self.decoder = nn.gru_params("ksa.decoder", dr, h, rng)
        self.out = nn.linear_params("ksa.out", h, nr, rng)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[Parameter]:
        tree = [self.word_emb, self.rel_emb, self.q0f, self.q0b, self.q1f, self.q1b]
        if self.subgraph is not None:
            tree.append(self.subgraph)
        if self.attention is not None:
            tree.append(self.attention)
        tree.extend([self.proj, self.decoder, self.out])
        return nn.collect_params(tree)

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    # -- encoder ------------------------------------------------------------

    def encode_subgraph(self, rel_rows, train: bool = False, rng: Rng | None = None) -> Tensor:
        """u_KS: final GRU state over the relation sequence, zero init state.

        ``rel_rows`` are relation-table row indices in canonical order;
        training may shuffle them when the augmentation flag is set.
        """
        h = self.config.d_hidden
        rows = np.asarray(rel_rows, dtype=np.int64)
        if rows.size == 0 or self.subgraph is None:
            return Tensor(np.zeros(h))
        if rows.min() < 0 or rows.max() >= len(self.relations):
            raise ShapeError(f"relation row out of range 0..{len(self.relations) - 1}")
        if train and self.config.shuffle_augment and rows.size > 1:
            rows = rows[rng.permutation(rows.size)]
        x = ad.embedding_lookup(self.rel_emb, rows)
        states = nn.run_gru(self.subgraph, x)
        return states[rows.size - 1]

    def encode_question(self, tokens: list[str], train: bool = False,
                        rng: Rng | None = None) -> tuple[Tensor, Tensor]:
        """(h_1..h_m as [m, 2H], u_Q as [2H]) from the top BiGRU layer."""
        if not tokens:
            raise ShapeError("cannot encode an empty question")
        ids = self.vocab.encode(tokens)
        x = ad.embedding_lookup(self.word_emb, ids)
        hs0, _ = nn.bigru(self.q0f, self.q0b, x)
        hs0 = ad.dropout(hs0, self.config.dropout, train, rng)
        return nn.bigru(self.q1f, self.q1b, hs0)

    def attend(self, hs: Tensor, u_ks: Tensor) -> tuple[Tensor, Tensor]:
        """(p, alpha): additive attention over question states given u_KS."""
        if self.attention is None:
            raise ConfigError(f"variant {self.config.variant} has no attention layer")
        m = hs.data.shape[0]
        hu = ad.concat([hs, ad.tile_rows(u_ks, m)], axis=1)
        scores = ad.matmul(ad.tanh(ad.add(ad.matmul(hu, self.attention["w"]),
                                          self.attention["b"])),
                           self.attention["v"])
        alpha = ad.softmax(scores)
        p = ad.matmul(alpha, hs)
        return p, alpha

    def encoder_output(self, tokens: list[str], rel_rows, train: bool = False,
                       rng: Rng | None = None) -> tuple[Tensor, Tensor | None]:
        """Variant-dispatched encoder; returns (state [H], alpha or None)."""
        hs, u_q = self.encode_question(tokens, train, rng)
        variant = self.config.variant
        if variant == "BiGRU":
            return nn.linear(self.proj, u_q), None
        u_ks = self.encode_subgraph(rel_rows, train, rng)
        if variant == "KS-BiGRU":
            return nn.linear(self.proj, ad.concat([u_q, u_ks], axis=0)), None
        p, alpha = self.attend(hs, u_ks)
        return nn.linear(self.proj, ad.concat([p, u_ks], axis=0)), alpha

    # -- decoder ------------------------------------------------------------

    def decode_logits(self, encoder_out: Tensor) -> Tensor:
        """One GRU-cell step from the encoder state, then the output affine."""
        start = self.rel_emb[len(self.relations)]
        x = ad.tile_rows(start, 1)
        states = ad.gru_sequence(x, encoder_out,
                                 self.decoder["wx"], self.decoder["wh"], self.decoder["b"])
        return nn.linear(self.out, states[0])

    def decode_scores(self, encoder_out: Tensor) -> Tensor:
        """Per-relation probabilities, sigmoid of the decoder logits."""
        return ad.sigmoid(self.decode_logits(encoder_out))

    # -- inference ----------------------------------------------------------

    def score_pairs(self, fq_tokens: list[str], candidates, kb: KnowledgeBase
                    ) -> list[InterpretationScore]:
        """Probabilities for every (s, r) with s a candidate and r in R(s).

        Sorted by descending probability, then (entity, relation) text.
        """
        results = []
        for s in sorted(set(candidates)):
            si = kb.entity_id(s)
            if si < 0:
                continue
            rel_ids = kb.subgraph_relations(si)
            if rel_ids.size == 0:
                continue
            rows = np.array([self.rel_index[kb.relations[ri]] for ri in rel_ids],
                            dtype=np.int64)
            enc, _ = self.encoder_output(fq_tokens, rows)
            probs = self.decode_scores(enc).data
            for row, ri in zip(rows, rel_ids):
                results.append(InterpretationScore(
                    pair=(s, kb.relations[ri]), probability=float(probs[row])))
        results.sort(key=lambda r: (-r.probability, r.pair))
        return results

    def predict(self, fq_tokens: list[str], candidates, kb: KnowledgeBase,
                lam: float | None = None) -> set[tuple[str, str]]:
        """All pairs scoring strictly above the threshold."""
        threshold = self.config.lam if lam is None else lam
        return {s.pair for s in self.score_pairs(fq_tokens, candidates, kb)
                if s.probability > threshold}

    def top1(self, fq_tokens: list[str], candidates, kb: KnowledgeBase
             ) -> tuple[str, str] | None:
        scores = self.score_pairs(fq_tokens, candidates, kb)
        return scores[0].pair if scores else None

    # -- loss ---------------------------------------------------------------

    def loss(self, batch) -> Tensor:
        """Eq.-style summed BCE over a batch of scored interpretation items.

        Each item is (tokens, rel_rows_of_subject, scored_rows, labels):
        one encoder/decoder pass per (question, subject), with the loss read
        at the scored relation rows.
        """
        terms = []
        for tokens, rel_rows, scored_rows, labels in batch:
            enc, _ = self.encoder_output(tokens, rel_rows, train=True, rng=self._train_rng)
            logits = self.decode_logits(enc)
            picked = logits[np.asarray(scored_rows, dtype=np.int64)]
            terms.append(ad.bce_with_logits_sum(picked, labels))
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        return total

    _train_rng: Rng | None = None

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        save_checkpoint(path, self.parameters(), asdict(self.config),
                        vocabulary=self.vocab.tokens, relations=self.relations)

    @classmethod
    def load(cls, path, vocab: Vocabulary, relations: list[str]) -> "KsaModel":
        return load_checkpoint(path, lambda c: cls(vocab, relations, ModelConfig(**c)),
                               vocabulary=vocab.tokens, relations=list(relations))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _subject_rel_rows(model: KsaModel, kb: KnowledgeBase, subject: str) -> np.ndarray:
    si = kb.entity_id(subject)
    if si < 0:
        return np.empty(0, dtype=np.int64)
    return np.array([model.rel_index[kb.relations[ri]] for ri in kb.subgraph_relations(si)],
                    dtype=np.int64)


def build_training_items(model: KsaModel, examples: list[LabeledExample],
                         kb: KnowledgeBase, rng: Rng) -> list[tuple]:
    """Positive/negative scored rows per (question, subject), fresh negatives.

    Every plausible (s, r+) contributes a positive label, and draws
    ``negatives_per_positive`` relations from R(s) minus the plausible set.
    Candidate subjects without any positive contribute pure-negative items
    only when the config flag asks for them.
    """
    cfg = model.config
    k = cfg.negatives_per_positive
    items = []
    for ex in examples:
        by_subject: dict[str, list[str]] = {}
        for s, r in sorted(ex.positives):
            by_subject.setdefault(s, []).append(r)
        for s, pos_rels in by_subject.items():
            rel_rows = _subject_rel_rows(model, kb, s)
            pool = negative_pool(ex, s, kb)
            scored: list[int] = []
            labels: list[float] = []
            for r in pos_rels:
                if r not in model.rel_index:
                    continue
                scored.append(model.rel_index[r])
                labels.append(1.0)
                for neg in sample_negatives(pool, k, rng):
                    scored.append(model.rel_index[neg])
                    labels.append(0.0)
            if scored:
                items.append((ex.formatted.tokens, rel_rows,
                              np.array(scored, dtype=np.int64),
                              np.array(labels)))
        if cfg.negatives_from_empty_candidates:
            for s in sorted(ex.candidates - {p[0] for p in ex.positives}):
                rel_rows = _subject_rel_rows(model, kb, s)
                pool = negative_pool(ex, s, kb)
                negs = sample_negatives(pool, k, rng)
                if negs:
                    items.append((ex.formatted.tokens, rel_rows,
                                  np.array([model.rel_index[r] for r in negs], dtype=np.int64),
                                  np.zeros(len(negs))))
    return items


def valid_macro_f1(model: KsaModel, examples: list[LabeledExample],
                   kb: KnowledgeBase, lam: float | None = None) -> float:
    """Gold-span macro F1 of thresholded predictions against SR(q)."""
    if not examples:
        return 0.0
    total = 0.0
    for ex in examples:
        pred = model.predict(ex.formatted.tokens, ex.candidates, kb, lam)
        total += prf1(pred, ex.positives)[2]
    return total / len(examples)


def train_model(model: KsaModel, train_examples: list[LabeledExample],
                kb: KnowledgeBase, valid_examples: list[LabeledExample] | None = None,
                log=None, target_f1: float | None = None) -> list[dict]:
    """Minibatch Adam on the summed BCE loss; keeps the best-validation state.

    With ``target_f1`` set, training stops early once the validation macro
    F1 reaches the target (the best state is still restored at the end).
    """
    if not train_examples:
        raise ConfigError("model training set is empty")
    cfg = model.config
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    rng = Rng(cfg.seed + 1)
    best_f1 = -1.0
    best_state = None
    history = []
    for epoch in range(cfg.epochs):
        items = build_training_items(model, train_examples, kb, rng)
        order = rng.permutation(len(items))
        model._train_rng = rng
        total = 0.0
        for lo in range(0, len(items), cfg.batch_size):
            batch = [items[int(i)] for i in order[lo : lo + cfg.batch_size]]
            with Tape():
                loss = model.loss(batch)
                opt.zero_grad()
                ad.backward(loss)
            opt.step()
            total += float(loss.data)
        model._train_rng = None
        entry = {"epoch": epoch + 1, "train_loss": total}
        if valid_examples:
            f1 = valid_macro_f1(model, valid_examples, kb)
            entry["valid_macro_f1"] = f1
            if f1 > best_f1:
                best_f1 = f1
                best_state = nn.snapshot(params)
        history.append(entry)
        if log:
            log(f"epoch {entry['epoch']}/{cfg.epochs} loss {total:.4f}"
                + (f" valid_f1 {entry['valid_macro_f1']:.4f}" if valid_examples else ""))
        if (target_f1 is not None and valid_examples
                and entry["valid_macro_f1"] >= target_f1):
            break
    if best_state is not None:
        nn.restore(params, best_state)
    return history
