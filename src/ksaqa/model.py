"""The KSA-BiGRU relation predictor and its two ablation variants.

Encoder: a GRU over the subject's one-hop relation list (u_KS) plus a
two-layer bidirectional GRU over the formatted question.  The full variant
attends over question states conditioned on u_KS and projects concat(p, u_KS)
to the decoder width; KS-BiGRU projects concat(u_Q, u_KS); BiGRU projects
u_Q alone and never reads the subgraph.  Decoder: one GRU-cell step from the
encoder output with the <_start> embedding as input, then an affine map to
one sigmoid score per relation.  One batched encoder serves scoring (one
question, its candidate subjects) and training (B questions, one subject
each): the questions and the subjects' relation lists each run as one
length-masked, padded batch, and only the logits of the relation rows that
are read are computed.  From ``PARALLEL_WIDTH`` on, an inference pass (no
tape open) runs the subgraph GRU on a worker thread beside the question
BiGRU; a training pass records on one thread, the caller's.

Loss: summed binary cross entropy over plausible positives and, per
positive, a fresh sample of negatives drawn from the subject's non-plausible
relations.  Training runs through the tagger's epoch loop, :func:`optim.train_epochs`.
"""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Parameter, Rng, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import Vocabulary
from .errors import ConfigError, ShapeError, require_positive, require_rate
from .evaluation import evaluate
from .kb import KnowledgeBase
from .optim import Adam, train_epochs
from .relabel import LabeledExample, negative_pool, sample_negatives

VARIANTS = ("BiGRU", "KS-BiGRU", "KSA-BiGRU")

# (s, r) pairs scored per encoder and decoder pass by score_questions; the
# decoder's [subjects, pairs] product grows with its square (desk eval: 60
# questions, 2786 pairs, peak RSS +13 MB at 4096 and +4.5 MB at 1024)
PAIR_BUDGET = 1024

# d_hidden from which encoder_output runs the subgraph GRU on _BRANCH, beside the
# question BiGRU on the caller's thread, when the process may run on two or more
# CPUs and no tape is open.  Both branches are BLAS calls that release the GIL,
# but on narrow arrays the threads mostly trade the GIL (median encoder_output
# time, offloaded / inline, benchmarks/bench_branches.py on a 2-vCPU host: 1.21x
# at 32, 1.08x at 128, 1.00x at 160, 0.92x at 192, 0.86x at 256, 0.80x at 300; an
# earlier run put the break-even at 192, so the offload starts above it)
PARALLEL_WIDTH = 256

# the one worker thread of every model; it starts on the first offload
_BRANCH = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ksaqa-subgraph")


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

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        require_positive(self, "d_word", "d_rel", "d_hidden", "attention_hidden",
                         "negatives_per_positive", "epochs", "batch_size")
        require_rate(self)
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

    def __init__(self, vocab: Vocabulary, relations: list[str], config: ModelConfig,
                 params=None):
        """``relations`` is the KB's relation list, so a KB relation id is
        the model's row for it.  ``params`` is where the parameters come
        from: an :class:`nn.Saved` checkpoint, or by default an
        :class:`nn.Fresh` draw seeded by ``config.seed``."""
        self.vocab = vocab
        self.relations = list(relations)
        self.config = config
        if params is None:
            params = nn.Fresh(Rng(config.seed))
        v, nr = len(vocab), len(self.relations)
        dw, dr, h, c = config.d_word, config.d_rel, config.d_hidden, config.attention_hidden

        self.word_emb = params.embedding("ksa.word_emb", (v, dw))
        # final row is the <_start> decoder input
        self.rel_emb = params.embedding("ksa.rel_emb", (nr + 1, dr))
        # the question encoder is fixed at the paper's two BiGRU layers
        self.q0f = nn.gru_params("ksa.q0f", dw, h, params)
        self.q0b = nn.gru_params("ksa.q0b", dw, h, params)
        self.q1f = nn.gru_params("ksa.q1f", 2 * h, h, params)
        self.q1b = nn.gru_params("ksa.q1b", 2 * h, h, params)
        self.subgraph = None
        self.attention = None
        if config.variant != "BiGRU":
            self.subgraph = nn.gru_params("ksa.subgraph", dr, h, params)
        if config.variant == "KSA-BiGRU":
            self.attention = {
                "w": params.weight("ksa.att.w", 3 * h, c, (3 * h, c)),
                "v": params.weight("ksa.att.v", c, 1, (c,)),
                "b": params.zeros("ksa.att.b", (c,)),
            }
        proj_in = 2 * h if config.variant == "BiGRU" else 3 * h
        self.proj = nn.linear_params("ksa.proj", proj_in, h, params)
        self.decoder = nn.gru_params("ksa.decoder", dr, h, params)
        # decode_logits reads the output weight only by the columns it gathers
        self.out = {"w": params.weight("ksa.out.w", h, nr, (h, nr), gathered=True),
                    "b": params.zeros("ksa.out.b", (nr,))}

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

    def encode_subgraph(self, subject_rows) -> Tensor:
        """u_KS [n, H]: each subject's final GRU state over its relation
        sequence, zero init state, all n subjects in one length-masked pass.

        ``subject_rows[i]`` are relation-table row indices in the order they
        are read; an empty list gives a zero state.
        """
        if self.subgraph is None or not any(len(r) for r in subject_rows):
            return Tensor(np.zeros((len(subject_rows), self.config.d_hidden)))
        ids, active = nn.padded(subject_rows)
        if ids.min() < 0 or ids.max() >= len(self.relations):
            raise ShapeError(f"relation row out of range 0..{len(self.relations) - 1}")
        x = ad.embedding_lookup(self.rel_emb, ids)
        states = nn.run_gru(self.subgraph, x, active=active)
        return states[active.shape[0] - 1]

    def encode_question(self, questions: list[list[str]], dropout=None
                        ) -> tuple[Tensor, Tensor]:
        """(h_1..h_M as [M, B, 2H], u_Q as [B, 2H]) from the top BiGRU layer.

        The B questions run as one batch padded to the longest, M tokens:
        question b's states are h[:len_b, b], and its padded positions are
        read by nothing downstream.  ``dropout`` holds the [M, B, 2H] factors
        applied between the two layers (training), or is None.
        """
        _require_questions(questions)
        ids, active = nn.padded([self.vocab.encode(tokens) for tokens in questions])
        hs0 = nn.bigru(self.q0f, self.q0b, ad.embedding_lookup(self.word_emb, ids), active)
        if dropout is not None:
            hs0 = ad.apply_mask(hs0, dropout)
        hs = nn.bigru(self.q1f, self.q1b, hs0, active)
        h = self.config.d_hidden
        return hs, ad.concat([hs[-1, :, :h], hs[0, :, h:]], axis=-1)

    def attend(self, hs: Tensor, u_ks: Tensor, lengths, question_of=None
               ) -> tuple[Tensor, Tensor]:
        """(p [n, 2H], alpha [n, M]): additive attention of each subject state
        in ``u_ks`` [n, H] over its question's states.

        ``hs`` [M, B, 2H] are the padded states of B questions of ``lengths``
        tokens; subject i reads question ``question_of[i]`` (default: i).
        Token j scores v . tanh(h_j W_h + u_i W_u + b), where W_h and W_u are
        the first 2H and the last H rows of the weight: each product is taken
        once per token or per subject, not per pair.  Padded tokens get a
        weight of exactly 0.
        """
        if self.attention is None:
            raise ConfigError(f"variant {self.config.variant} has no attention layer")
        w = self.attention["w"]
        (m, b, two_h), n, c = hs.data.shape, u_ks.data.shape[0], w.data.shape[1]
        hs = ad.transpose(hs, (1, 0, 2))
        hw = ad.reshape(ad.matmul(ad.reshape(hs, (b * m, two_h)), w[:two_h]), (b, m, c))
        keep = nn.steps(lengths).T
        if question_of is not None:
            hs, hw, keep = hs[question_of], hw[question_of], keep[question_of]
        uw = ad.reshape(ad.matmul(u_ks, w[two_h:]), (n, 1, c))
        pre = ad.tanh(ad.add(ad.add(uw, hw), self.attention["b"]))
        scores = ad.matmul(ad.reshape(pre, (n * m, c)), self.attention["v"])
        alpha = ad.softmax(ad.reshape(scores, (n, m)), keep)
        p = ad.matmul(ad.reshape(alpha, (n, 1, m)), hs)
        return ad.reshape(p, (n, two_h)), alpha

    def encoder_output(self, questions: list[list[str]], subject_rows, rng: Rng | None = None,
                       question_of=None) -> tuple[Tensor, Tensor | None]:
        """Variant-dispatched encoder for B questions and n subjects.

        ``subject_rows[i]`` holds subject i's R(s) rows and ``question_of[i]``
        the question it is scored with (default: question i, one subject per
        question).  The questions run as one padded BiGRU batch and the
        subjects as one padded subgraph GRU batch.  Returns (state [n, H],
        alpha [n, M] or None), with alpha 0 past each question's end.

        An ``rng`` means training, one subject per question: question by
        question, it draws the dropout mask and then the subject's
        ``shuffle_augment`` permutation, the order in which one pass per
        question would draw them.  Without one the pass is inference; only
        inference takes a ``question_of``.

        From ``PARALLEL_WIDTH`` on, with no tape open, the subgraph GRU runs
        on the worker thread while the question BiGRU runs on this one (see
        :meth:`_branches`); the outputs are the same bits.
        """
        _require_questions(questions)
        if rng is not None and question_of is not None:
            raise ShapeError("a training pass (rng) takes one subject per question, "
                             "not a question_of")
        dropout, subject_rows = self._training_draws(questions, subject_rows, rng)
        lengths = [len(q) for q in questions]
        variant = self.config.variant
        if variant == "BiGRU":
            hs, u_q = self.encode_question(questions, dropout)
            return nn.linear(self.proj, u_q if question_of is None else u_q[question_of]), None
        (hs, u_q), u_ks = self._branches(questions, dropout, subject_rows)
        if question_of is not None:
            u_q = u_q[question_of]
        if variant == "KS-BiGRU":
            return nn.linear(self.proj, ad.concat([u_q, u_ks], axis=1)), None
        p, alpha = self.attend(hs, u_ks, lengths, question_of)
        return nn.linear(self.proj, ad.concat([p, u_ks], axis=1)), alpha

    def _branches(self, questions, dropout, subject_rows):
        """(:meth:`encode_question`, :meth:`encode_subgraph`) of one pass.

        Under a tape both run on this thread, so a tape has one writer.
        Otherwise a wide enough model with a second CPU runs the subgraph GRU
        on ``_BRANCH`` in a copy of this thread's context, so that its numpy
        error state holds there too, and waits for it before this returns or
        raises.  Each branch keeps one BLAS thread per call.
        """
        if self.config.d_hidden < PARALLEL_WIDTH or _cpus() < 2 or ad.recording():
            return self.encode_question(questions, dropout), self.encode_subgraph(subject_rows)
        branch = _BRANCH.submit(contextvars.copy_context().run, self.encode_subgraph,
                                subject_rows)
        try:
            question = self.encode_question(questions, dropout)
        finally:
            branch.exception()
        return question, branch.result()

    def _training_draws(self, questions, subject_rows, rng):
        """(dropout factors [M, B, 2H] or None, subject rows as read).

        Without an ``rng`` nothing is drawn.  Subject b is scored with
        question b: the question's factors are drawn as a [len_b, 2H] array,
        its padded positions keeping the factor 1, then the subject's
        permutation.
        """
        if rng is None:
            return None, subject_rows
        cfg, width = self.config, 2 * self.config.d_hidden
        dropout = (np.ones((max(map(len, questions)), len(questions), width))
                   if cfg.dropout > 0.0 else None)
        read = []
        for q, rows in enumerate(subject_rows):
            if dropout is not None:
                dropout[:len(questions[q]), q] = ad.dropout_mask(
                    (len(questions[q]), width), cfg.dropout, rng)
            rows = np.asarray(rows, dtype=np.int64)
            if cfg.shuffle_augment and self.subgraph is not None and rows.size > 1:
                rows = rows[rng.permutation(rows.size)]
            read.append(rows)
        return dropout, read

    # -- decoder ------------------------------------------------------------

    def decode_logits(self, encoder_out: Tensor, rows) -> Tensor:
        """One GRU-cell step from each encoder state, then the output affine.

        ``encoder_out`` is [n, H] and ``rows[i]`` lists the relation rows read
        from state i; only the columns of the affine that some state reads
        are computed (for every state, in one product), each logit is then
        gathered from its own state, and they come back concatenated in that
        order.
        """
        n = len(self.relations)
        states = ad.gru_sequence(self.rel_emb[n:n + 1], encoder_out, self.decoder["wx"],
                                 self.decoder["wh"], self.decoder["b"])[0]
        cols = np.concatenate(rows).astype(np.int64)
        owner = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        logits = ad.matmul(states, self.out["w"][:, cols])[owner, np.arange(cols.size)]
        return ad.add(logits, self.out["b"][cols])

    @functools.cached_property
    def rel_index(self) -> dict[str, int]:
        """Relation name -> row, built on first use."""
        return {r: i for i, r in enumerate(self.relations)}

    # -- inference ----------------------------------------------------------

    def subject_rows(self, kb: KnowledgeBase, s: str) -> np.ndarray:
        """Relation-table rows of R(s) in canonical order; empty for an unknown s."""
        return kb.subgraph_relations(kb.entity_id(s))

    def score_pairs(self, fq_tokens: list[str], candidates, kb: KnowledgeBase
                    ) -> list[InterpretationScore]:
        """Probabilities for every (s, r) with s a candidate and r in R(s).

        One encoder and decoder pass serves all the candidates.  Sorted by
        descending probability, then (entity, relation) text.
        """
        return self.score_questions([fq_tokens], [candidates], kb)[0]

    def score_questions(self, questions: list[list[str]], candidate_sets, kb: KnowledgeBase
                        ) -> list[list[InterpretationScore]]:
        """:meth:`score_pairs` of each question with its candidate set.

        Whole questions run together, one encoder and decoder pass per chunk
        of at most ``PAIR_BUDGET`` pairs (a larger question is a chunk of its
        own), which bounds the padded batches and the [subjects, pairs] logit
        product.  A question whose candidates have no relations scores [].
        """
        subjects: list[list[str]] = []
        rows: list[list[np.ndarray]] = []
        for candidates in candidate_sets:
            subjects.append([])
            rows.append([])
            for s in sorted(set(candidates)):
                r = self.subject_rows(kb, s)
                if r.size:
                    subjects[-1].append(s)
                    rows[-1].append(r)
        results: list[list[InterpretationScore]] = [[] for _ in questions]
        for chunk in _chunks([sum(r.size for r in q_rows) for q_rows in rows]):
            chunk_rows = [r for q in chunk for r in rows[q]]
            question_of = np.repeat(np.arange(len(chunk)), [len(rows[q]) for q in chunk])
            enc, _ = self.encoder_output([questions[q] for q in chunk], chunk_rows,
                                         question_of=question_of)
            probs = iter(ad.sigmoid(self.decode_logits(enc, chunk_rows)).data.tolist())
            for q in chunk:
                scores = [InterpretationScore((s, self.relations[row]), next(probs))
                          for s, r in zip(subjects[q], rows[q]) for row in r.tolist()]
                scores.sort(key=lambda x: (-x.probability, x.pair))
                results[q] = scores
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

    def loss(self, batch, rng: Rng | None = None) -> Tensor:
        """Eq.-style summed BCE over a batch of scored interpretation items.

        Each item is (tokens, rel_rows_of_subject, scored_rows, labels): the
        batch is B questions with one subject each, run as one encoder and
        decoder pass, with logits taken at the scored relation rows only and
        one BCE over all of them.  ``rng`` is the training stream (see
        :meth:`encoder_output`); without it the loss is the inference pass's.
        """
        enc, _ = self.encoder_output([item[0] for item in batch],
                                     [item[1] for item in batch], rng)
        logits = self.decode_logits(enc, [item[2] for item in batch])
        return ad.bce_with_logits_sum(logits, np.concatenate([item[3] for item in batch]))

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        save_checkpoint(path, self.parameters(), asdict(self.config),
                        vocabulary=self.vocab.tokens, relations=self.relations)

    @classmethod
    def load(cls, path, vocab: Vocabulary, relations: list[str]) -> "KsaModel":
        return load_checkpoint(
            path, lambda c, saved: cls(vocab, relations, ModelConfig(**c), saved),
            vocabulary=vocab.tokens, relations=list(relations))


def _require_questions(questions) -> None:
    if not questions or not all(questions):
        raise ShapeError("cannot encode an empty question")


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _chunks(sizes):
    """Indices of the non-empty ``sizes``, in order, cut into runs that sum to
    at most ``PAIR_BUDGET`` (a larger size is a run of its own)."""
    chunk, total = [], 0
    for i, n in enumerate(sizes):
        if not n:
            continue
        if chunk and total + n > PAIR_BUDGET:
            yield chunk
            chunk, total = [], 0
        chunk.append(i)
        total += n
    if chunk:
        yield chunk


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def build_training_items(model: KsaModel, examples: list[LabeledExample],
                         kb: KnowledgeBase, rng: Rng, unknown: list[str] | None = None
                         ) -> list[tuple]:
    """Positive/negative scored rows per (question, subject), fresh negatives.

    Every plausible (s, r+) contributes a positive label, and draws
    ``negatives_per_positive`` relations from R(s) minus the plausible set.
    When ``unknown`` is given, each positive whose fact (s, r) ``kb`` does
    not hold is appended to it as "s r"; of those, one whose relation ``kb``
    does not hold scores nothing.
    """
    k = model.config.negatives_per_positive
    items = []
    for ex in examples:
        by_subject: dict[str, list[str]] = {}
        for s, r in sorted(ex.positives):
            by_subject.setdefault(s, []).append(r)
        for s, pos_rels in by_subject.items():
            rel_rows = model.subject_rows(kb, s)
            pool = negative_pool(ex, s, kb)
            scored: list[int] = []
            labels: list[float] = []
            for r in pos_rels:
                row = kb.relation_id(r)
                if unknown is not None and not kb.has_fact(kb.entity_id(s), row):
                    unknown.append(f"{s} {r}")
                if row < 0:
                    continue
                scored.append(row)
                labels.append(1.0)
                negatives = sample_negatives(pool, k, rng)
                scored.extend(negatives)
                labels.extend([0.0] * len(negatives))
            if scored:
                items.append((ex.formatted.tokens, rel_rows,
                              np.array(scored, dtype=np.int64),
                              np.array(labels)))
    return items


def valid_macro_f1(model: KsaModel, examples: list[LabeledExample],
                   kb: KnowledgeBase, lam: float | None = None) -> float:
    """Gold-span macro F1 of thresholded predictions against SR(q)."""
    return evaluate(examples, model, kb, gold_spans=True, lam=lam).macro_f1


def train_model(model: KsaModel, train_examples: list[LabeledExample],
                kb: KnowledgeBase, valid_examples: list[LabeledExample] | None = None,
                log=None, target_f1: float | None = None) -> list[dict]:
    """Minibatch Adam on the summed BCE loss; keeps the best-validation state.
    Each epoch draws its negatives, then its permutation, then each step's
    dropout and ``shuffle_augment``.  With ``target_f1`` set, training stops
    once the validation macro F1 reaches it (the best state is restored)."""
    if not train_examples:
        raise ConfigError("model training set is empty")
    cfg = model.config
    rng = Rng(cfg.seed + 1)

    def batches(epoch):
        unknown = [] if epoch == 1 and log else None
        items = build_training_items(model, train_examples, kb, rng, unknown)
        if unknown:
            log(f"{len(unknown)} training positives name a fact kb.npz does not hold "
                f"(first: {unknown[0]}); rerun relabel if kb.npz changed")
        order = rng.permutation(len(items))
        return ([items[int(i)] for i in order[lo : lo + cfg.batch_size]]
                for lo in range(0, len(items), cfg.batch_size))

    return train_epochs(
        Adam(model.parameters(), lr=cfg.lr), cfg.epochs, batches,
        lambda batch: model.loss(batch, rng), label="",
        validate=(lambda: valid_macro_f1(model, valid_examples, kb)) if valid_examples else None,
        score_key="valid_macro_f1", score_name="valid_f1",
        stop=lambda f1, since_best: target_f1 is not None and f1 >= target_f1, log=log)
