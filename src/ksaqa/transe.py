"""TransE pretraining of relation (and entity) embeddings.

Margin-ranking objective max(0, margin + d(pos) - d(neg)) with filtered
uniform corruption: the corrupting entity is redrawn (up to 8 candidates,
pre-drawn) until the corrupted triple is absent from the KB.  All randomness
lives outside the update kernel, which only does the numeric step.  Entity
rows are renormalized to unit L2 after every update step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, Rng, check_size
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, NonFiniteError, require_positive, require_rate
from .kb import KnowledgeBase
from .kernels import transe_ops

_RETRIES = 8


@dataclass
class TransEConfig:
    key_prefix = "transe_"

    dim: int = 300
    margin: float = 1.0
    norm: str = "l2"          # "l1" or "l2"
    lr: float = 0.01
    epochs: int = 100
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        require_positive(self, "dim", "margin", "epochs", "batch_size")
        require_rate(self)
        if self.norm not in ("l1", "l2"):
            raise ConfigError(f"transe_norm must be l1 or l2, got {self.norm!r}")


@dataclass
class EmbeddingSet:
    """The two tables of one KB, rows in its entity and relation order."""

    entity: np.ndarray        # [NE, dim]
    relation: np.ndarray      # [NR, dim]
    norm: str = "l2"

    def parameters(self) -> list[Parameter]:
        """The two tables as parameters that share their memory."""
        return [Parameter("transe.entity", self.entity), Parameter("transe.relation", self.relation)]

    def save(self, path, kb: KnowledgeBase) -> None:
        save_checkpoint(path, self.parameters(),
                        {"dim": int(self.relation.shape[1]), "norm": self.norm},
                        entities=kb.entities, relations=kb.relations)

    @classmethod
    def load(cls, path, kb: KnowledgeBase) -> "EmbeddingSet":
        """The tables saved for ``kb``; a checkpoint of another KB is refused."""
        def build(c, saved):
            return cls(saved.take("transe.entity", (kb.entity_count, c["dim"])).data,
                       saved.take("transe.relation", (kb.relation_count, c["dim"])).data,
                       c["norm"])

        return load_checkpoint(path, build, entities=kb.entities, relations=kb.relations)


def mean_tail_rank(kb: KnowledgeBase, emb: EmbeddingSet) -> float:
    """Average rank of the true tail among all entities, 1-based.

    For every KB triple (h, r, t) all entities are scored as candidate
    tails by ||E[h] + R[r] - E[e]||; the gold tail's rank (ties counted
    optimistically low, as usual for link prediction) is averaged.
    """
    hs, rs, ts = kb.triples()
    if hs.size == 0:
        raise ConfigError("mean_tail_rank needs a non-empty KB")
    ranks = []
    for h, r, t in zip(hs, rs, ts):
        target = emb.entity[h] + emb.relation[r]
        diff = emb.entity - target
        if emb.norm == "l1":
            d = np.abs(diff).sum(axis=1)
        else:
            d = np.linalg.norm(diff, axis=1)
        ranks.append(1 + int(np.sum(d < d[t])))
    return float(np.mean(ranks))


def _draw_negatives(kb, h, r, t, rng):
    """Filtered corruption for one batch; returns (nh, nt, valid), ``valid``
    a bool mask of the examples that found a corruption outside the KB.

    Head- and tail-corruption each keep the untouched side equal to the
    positive, so the kernel need not tell them apart: gradients on
    overlapping rows simply accumulate.
    """
    nb = h.shape[0]
    corrupt_head = rng.random(nb) < 0.5
    cand = rng.integers(0, kb.entity_count, size=(nb, _RETRIES)).astype(np.int64)
    nh = h.copy()
    nt = t.copy()
    pending = np.ones(nb, dtype=bool)
    for j in range(_RETRIES):
        if not pending.any():
            break
        cj = cand[:, j]
        in_kb = kb.contains(np.where(corrupt_head, cj, h), r, np.where(corrupt_head, t, cj))
        ok = pending & ~in_kb
        nh[ok & corrupt_head] = cj[ok & corrupt_head]
        nt[ok & ~corrupt_head] = cj[ok & ~corrupt_head]
        pending &= ~ok
    return nh, nt, ~pending


def train_transe(kb: KnowledgeBase, config: TransEConfig,
                 log=None) -> tuple[EmbeddingSet, list[float]]:
    """SGD over margin-ranking loss; returns embeddings and per-epoch losses.
    A batch whose loss is not finite, or an epoch that leaves a table not
    finite, is a diverged step: NonFiniteError."""
    if kb.triple_count == 0:
        raise ConfigError("cannot pretrain on an empty KB")
    rng = Rng(config.seed)
    ne, nr, d = kb.entity_count, kb.relation_count, config.dim
    bound = 6.0 / np.sqrt(d)
    check_size("transe.entity", (ne, d))
    check_size("transe.relation", (nr, d))
    ent = rng.uniform(-bound, bound, (ne, d))
    rel = rng.uniform(-bound, bound, (nr, d))
    rel /= np.maximum(np.linalg.norm(rel, axis=1, keepdims=True), 1e-12)
    ent /= np.maximum(np.linalg.norm(ent, axis=1, keepdims=True), 1e-12)

    h_all, r_all, t_all = kb.triples()
    n = h_all.shape[0]
    use_l2 = 1 if config.norm == "l2" else 0
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            h, r, t = h_all[sel], r_all[sel], t_all[sel]
            nh, nt, valid = _draw_negatives(kb, h, r, t, rng)
            loss = transe_ops.transe_batch(ent, rel, h, r, t, nh, nt, valid,
                                           use_l2, config.lr, config.margin)
            if not np.isfinite(loss):
                raise NonFiniteError(f"transe epoch {epoch + 1}: batch loss is {loss}")
            total += loss
        # a batch loss is taken before its update: the last update is checked here
        for name, table in (("entity", ent), ("relation", rel)):
            if not np.isfinite(table).all():
                raise NonFiniteError(f"transe epoch {epoch + 1}: {name} table is not finite")
        history.append(total)
        if log:
            log(f"transe epoch {epoch + 1}/{config.epochs} loss {total:.4f}")
    return EmbeddingSet(entity=ent, relation=rel, norm=config.norm), history
