"""TransE pretraining of relation (and entity) embeddings.

Margin-ranking objective max(0, margin + d(pos) - d(neg)) with filtered
uniform corruption: the corrupting entity is redrawn (up to 8 candidates,
pre-drawn) until the corrupted triple is absent from the KB.  All randomness
lives outside the update kernel, so the numba and numpy lanes consume the
identical stream.  Entity rows are renormalized to unit L2 after every
update step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, Rng, init_embedding
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, require_positive
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
        require_positive(self, "dim", "margin", "lr", "epochs", "batch_size")
        if self.norm not in ("l1", "l2"):
            raise ConfigError(f"transe_norm must be l1 or l2, got {self.norm!r}")


@dataclass
class EmbeddingSet:
    entity: np.ndarray        # [NE, dim]
    relation: np.ndarray      # [NR, dim]
    entities: list[str]
    relations: list[str]
    norm: str = "l2"

    def parameters(self) -> list[Parameter]:
        """The two tables as parameters that share their memory."""
        return [Parameter("transe.entity", self.entity), Parameter("transe.relation", self.relation)]

    def save(self, path) -> None:
        save_checkpoint(path, self.parameters(), {
            "dim": int(self.relation.shape[1]), "norm": self.norm,
            "entities": self.entities, "relations": self.relations})

    @classmethod
    def load(cls, path) -> "EmbeddingSet":
        def build(c):
            return cls(np.zeros((len(c["entities"]), c["dim"])),
                       np.zeros((len(c["relations"]), c["dim"])),
                       list(c["entities"]), list(c["relations"]), c["norm"])

        return load_checkpoint(path, build)


def triple_score(h: int, r: int, t: int, emb: EmbeddingSet, norm: str | None = None) -> float:
    """||E[h] + R[r] - E[t]|| under the configured norm; lower is better."""
    v = emb.entity[h] + emb.relation[r] - emb.entity[t]
    if (norm or emb.norm) == "l1":
        return float(np.abs(v).sum())
    return float(np.linalg.norm(v))


def decode_all_triples(kb: KnowledgeBase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized decode of the KB's sorted triple keys into (h, r, t)."""
    keys = kb.triple_keys
    ne = max(kb.entity_count, 1)
    nr = max(kb.relation_count, 1)
    t = keys % ne
    pair = keys // ne
    return (pair // nr).astype(np.int64), (pair % nr).astype(np.int64), t.astype(np.int64)


def mean_tail_rank(kb: KnowledgeBase, emb: EmbeddingSet) -> float:
    """Average rank of the true tail among all entities, 1-based.

    For every KB triple (h, r, t) all entities are scored as candidate
    tails by ||E[h] + R[r] - E[e]||; the gold tail's rank (ties counted
    optimistically low, as usual for link prediction) is averaged.
    """
    hs, rs, ts = decode_all_triples(kb)
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
    """Filtered corruption for one batch; returns (nh, nt, valid).

    Head- and tail-corruption each keep the untouched side equal to the
    positive, which is how the kernel tells them apart-free: gradients on
    overlapping rows simply accumulate.
    """
    nb = h.shape[0]
    ne = max(kb.entity_count, 1)
    nr = max(kb.relation_count, 1)
    corrupt_head = rng.random(nb) < 0.5
    cand = rng.integers(0, ne, size=(nb, _RETRIES)).astype(np.int64)
    nh = h.copy()
    nt = t.copy()
    valid = np.zeros(nb, dtype=np.int64)
    pending = np.ones(nb, dtype=bool)
    for j in range(_RETRIES):
        if not pending.any():
            break
        cj = cand[:, j]
        key_head = (cj * nr + r) * ne + t
        key_tail = (h * nr + r) * ne + cj
        key = np.where(corrupt_head, key_head, key_tail)
        pos = np.searchsorted(kb.triple_keys, key)
        pos = np.minimum(pos, max(kb.triple_keys.size - 1, 0))
        present = kb.triple_keys.size > 0
        in_kb = (kb.triple_keys[pos] == key) if present else np.zeros(nb, dtype=bool)
        ok = pending & ~in_kb
        nh[ok & corrupt_head] = cj[ok & corrupt_head]
        nt[ok & ~corrupt_head] = cj[ok & ~corrupt_head]
        valid[ok] = 1
        pending &= ~ok
    return nh, nt, valid


def train_transe(kb: KnowledgeBase, config: TransEConfig,
                 log=None) -> tuple[EmbeddingSet, list[float]]:
    """SGD over margin-ranking loss; returns embeddings and per-epoch losses."""
    if kb.triple_count == 0:
        raise ConfigError("cannot pretrain on an empty KB")
    rng = Rng(config.seed)
    ne, nr, d = kb.entity_count, kb.relation_count, config.dim
    bound = 6.0 / np.sqrt(d)
    ent = rng.uniform(-bound, bound, (ne, d))
    rel = rng.uniform(-bound, bound, (nr, d))
    rel /= np.maximum(np.linalg.norm(rel, axis=1, keepdims=True), 1e-12)
    ent /= np.maximum(np.linalg.norm(ent, axis=1, keepdims=True), 1e-12)

    h_all, r_all, t_all = decode_all_triples(kb)
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
            total += transe_ops.transe_batch(
                ent, rel, h, r, t, nh, nt, valid,
                use_l2, config.lr, config.margin,
            )
        history.append(total)
        if log:
            log(f"transe epoch {epoch + 1}/{config.epochs} loss {total:.4f}")
    emb = EmbeddingSet(entity=ent, relation=rel,
                       entities=list(kb.entities), relations=list(kb.relations),
                       norm=config.norm)
    return emb, history


def export_relation_embeddings(emb: EmbeddingSet, relation_order: list[str],
                               rng: Rng) -> np.ndarray:
    """Rows reordered to ``relation_order``; unknown relations drawn fresh."""
    known = {name: i for i, name in enumerate(emb.relations)}
    d = emb.relation.shape[1]
    out = np.empty((len(relation_order), d))
    for row, name in enumerate(relation_order):
        i = known.get(name)
        out[row] = emb.relation[i] if i is not None else init_embedding(rng, d)
    return out
