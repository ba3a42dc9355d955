import numpy as np
import pytest

from ksaqa.errors import ConfigError, NonFiniteError
from ksaqa.kb import ingest_triples
from ksaqa.kernels import transe_ops
from ksaqa.transe import EmbeddingSet, TransEConfig, mean_tail_rank, train_transe

from corpus_util import EPREFIX, RPREFIX, chain_kb
from transe_oracle import triple_score


def test_config_validation():
    with pytest.raises(ConfigError):
        TransEConfig(dim=0)
    with pytest.raises(ConfigError):
        TransEConfig(norm="l3")
    with pytest.raises(ConfigError):
        TransEConfig(margin=-1.0)


def test_triple_score_oracle():
    emb = EmbeddingSet(entity=np.array([[1.0, 0.0], [0.0, 1.0]]),
                       relation=np.array([[-1.0, 1.0]]), norm="l2")
    # e_a + r - e_b = (1,0) + (-1,1) - (0,1) = (0,0)
    assert triple_score(0, 0, 1, emb) == pytest.approx(0.0)
    # e_b + r - e_a = (0,1) + (-1,1) - (1,0) = (-2,2)
    assert triple_score(1, 0, 0, emb) == pytest.approx(np.sqrt(8.0))
    assert triple_score(1, 0, 0, emb, norm="l1") == pytest.approx(4.0)


def test_training_reduces_loss_and_ranks():
    kb = chain_kb()
    cfg = TransEConfig(dim=8, margin=1.0, epochs=100, batch_size=4, lr=0.05, seed=0)
    emb, history = train_transe(kb, cfg)
    assert history[-1] < history[0]
    assert mean_tail_rank(kb, emb) <= 2.0


def test_entity_norms_stay_unit_after_every_batch():
    kb = chain_kb()
    rng = np.random.default_rng(0)
    dim = 8
    ent = rng.standard_normal((kb.entity_count, dim))
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    rel = rng.standard_normal((kb.relation_count, dim))
    rel /= np.linalg.norm(rel, axis=1, keepdims=True)
    hs, rs, ts = kb.triples()
    g = np.random.default_rng(1)
    for step in range(25):
        idx = g.integers(0, hs.size, 6)
        h, r, t = hs[idx], rs[idx], ts[idx]
        nh = h.copy()
        nt = g.integers(0, kb.entity_count, 6)
        valid = np.ones(6, dtype=np.bool_)
        transe_ops.transe_batch(ent, rel, h, r, t, nh, nt, valid, True, 0.05, 1.0)
        norms = np.linalg.norm(ent, axis=1)
        touched = np.unique(np.concatenate([h, t, nt]))
        assert np.abs(norms[touched] - 1.0).max() < 1e-9


def test_training_stops_at_the_first_batch_whose_loss_is_not_finite(monkeypatch):
    losses = []
    batch = transe_ops.transe_batch
    monkeypatch.setattr(transe_ops, "transe_batch",
                        lambda *a: losses.append(batch(*a)) or losses[-1])
    cfg = TransEConfig(dim=8, epochs=5, batch_size=4, lr=1e300, seed=0)
    with pytest.raises(NonFiniteError, match="transe epoch 1: batch loss is"), \
            np.errstate(all="ignore"):
        train_transe(chain_kb(), cfg)
    assert np.isfinite(losses[:-1]).all() and not np.isfinite(losses[-1])


def test_an_epoch_whose_last_update_leaves_a_table_not_finite_is_refused(monkeypatch):
    """A batch loss is taken before its update: at lr 1e308 the epoch's one
    batch scores a finite loss, then moves the relation table past the float range."""
    losses = []
    batch = transe_ops.transe_batch
    monkeypatch.setattr(transe_ops, "transe_batch",
                        lambda *a: losses.append(batch(*a)) or losses[-1])
    cfg = TransEConfig(dim=8, epochs=1, batch_size=100, lr=1e308, seed=0)
    with pytest.raises(NonFiniteError, match="transe epoch 1: relation table is not finite"), \
            np.errstate(all="ignore"):
        train_transe(chain_kb(), cfg)
    assert len(losses) == 1 and np.isfinite(losses[0])


def test_training_is_seed_deterministic():
    kb = chain_kb()
    cfg = TransEConfig(dim=8, epochs=5, batch_size=4, lr=0.01, seed=7)
    emb1, h1 = train_transe(kb, cfg)
    emb2, h2 = train_transe(kb, cfg)
    assert h1 == h2
    assert np.array_equal(emb1.entity, emb2.entity)
    assert np.array_equal(emb1.relation, emb2.relation)


def test_single_triple_mean_rank_is_one():
    kb = ingest_triples([f"{EPREFIX}a\t{RPREFIX}r\t{EPREFIX}b\n"])
    cfg = TransEConfig(dim=4, epochs=40, batch_size=1, lr=0.1, seed=0)
    emb, _ = train_transe(kb, cfg)
    assert mean_tail_rank(kb, emb) == 1.0


def test_embedding_save_load_round_trip(tmp_path):
    kb = chain_kb()
    cfg = TransEConfig(dim=6, epochs=2, batch_size=4, seed=0)
    emb, _ = train_transe(kb, cfg)
    emb.save(tmp_path / "transe.ckpt", kb)
    back = EmbeddingSet.load(tmp_path / "transe.ckpt", kb)
    assert back.norm == emb.norm
    assert np.allclose(back.entity, emb.entity, atol=1e-7)
    assert back.entity.shape == emb.entity.shape
    assert back.relation.shape == emb.relation.shape == (kb.relation_count, 6)


def test_train_rejects_empty_kb():
    kb = ingest_triples([])
    with pytest.raises(ConfigError):
        train_transe(kb, TransEConfig(dim=4, epochs=1))
