import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ksaqa import autodiff as ad
from ksaqa import checkpoint
from ksaqa.autodiff import Parameter
from ksaqa.checkpoint import load_arrays, load_checkpoint, save_arrays, save_checkpoint
from ksaqa.dataset import build_vocabulary
from ksaqa.errors import CheckpointError, NonFiniteError
from ksaqa.kb import ingest_triples
from ksaqa.model import VARIANTS, KsaModel, ModelConfig
from ksaqa.nn import Saved
from ksaqa.tagger import TaggerConfig, TaggerModel
from ksaqa.transe import EmbeddingSet

from ckpt_bytes import PAGE, PAGED, payload_offset, set_value
from corpus_util import EPREFIX, RPREFIX


def _sample():
    rng = np.random.default_rng(0)
    return {
        "model.word_emb": rng.standard_normal((7, 3)),
        "model.bias": rng.standard_normal(4),
        "model.scalarish": rng.standard_normal((1,)),
    }


def test_round_trip_preserves_names_shapes_and_f32_values(tmp_path):
    arrays = _sample()
    path = tmp_path / "m.ckpt"
    table = save_arrays(path, arrays)
    assert table == [[name, list(arr.shape)] for name, arr in arrays.items()]
    back = load_arrays(path, table)
    assert list(back) == list(arrays)  # insertion order kept
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape
        assert back[name].dtype == np.float32 and not back[name].flags.writeable
        assert np.array_equal(back[name], arr.astype(np.float32))


def test_second_round_trip_is_bitwise_stable(tmp_path):
    arrays = _sample()
    table = save_arrays(tmp_path / "a.ckpt", arrays)
    once = load_arrays(tmp_path / "a.ckpt", table)
    save_arrays(tmp_path / "b.ckpt", once)
    twice = load_arrays(tmp_path / "b.ckpt", table)
    for name in arrays:
        assert np.array_equal(once[name], twice[name])


def test_files_are_byte_identical_for_identical_input(tmp_path):
    arrays = _sample()
    save_arrays(tmp_path / "a.ckpt", arrays)
    save_arrays(tmp_path / "b.ckpt", arrays)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_magic_prefix_and_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    save_arrays(path, {"x": np.zeros(2), "y": np.ones((2, 3))})
    blob = path.read_bytes()
    # the .npy format 1.0 magic, then a header padded to 64 bytes, then the values
    assert blob[:8] == b"\x93NUMPY\x01\x00"
    header = len(blob) - 4 * 8
    assert header % 64 == 0
    assert b"'descr': '<f4', 'fortran_order': False, 'shape': (8,)" in blob[:header]
    assert np.frombuffer(blob, "<f4", offset=header).tolist() == [0.0] * 2 + [1.0] * 6


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAG" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="bad.ckpt: not a .npy checkpoint"):
        load_arrays(path, [])


def test_truncation_reports_offset(tmp_path):
    path = tmp_path / "t.ckpt"
    table = save_arrays(path, {"weights": np.ones((3, 3))})
    blob = path.read_bytes()
    cut = len(blob) - 5
    path.write_bytes(blob[:cut])
    with pytest.raises(CheckpointError, match=f"t.ckpt: {cut} bytes, not the {len(blob)} "):
        load_arrays(path, table)


def test_truncated_header_also_detected(tmp_path):
    path = tmp_path / "h.ckpt"
    table = save_arrays(path, {"x": np.zeros(2)})
    path.write_bytes(path.read_bytes()[:10])  # magic and header length, no header
    with pytest.raises(CheckpointError, match="h.ckpt: not a .npy checkpoint"):
        load_arrays(path, table)


def test_duplicate_name_rejected_on_load(tmp_path):
    path = tmp_path / "d.ckpt"
    save_arrays(path, {"dup": np.ones(1)})
    # sizes that add up to the vector, under one name twice
    with pytest.raises(CheckpointError, match="d.ckpt.json: the tensor table repeats 'dup'$"):
        load_arrays(path, [["dup", [1]], ["dup", [0]]])


def test_save_rejects_duplicate_names(tmp_path):
    class Sneaky(dict):
        def items(self):
            yield "same", np.ones(1)
            yield "same", np.zeros(1)

    with pytest.raises(CheckpointError, match="duplicate tensor name"):
        save_arrays(tmp_path / "s.ckpt", Sneaky())
    assert not list(tmp_path.iterdir())


# (what the table says, what the load says of it) for a vector of 6 values
BAD_TABLES = [
    ({"w": [6]}, "the tensor table is not a list of"),
    ([["w", [6], "extra"]], "the tensor table is not a list of"),
    ([[6, [6]]], "the tensor table is not a list of"),
    ([["w", 6]], "the tensor table is not a list of"),
    ([["w", [2, -3]]], "the tensor table is not a list of"),
    ([["w", [6.0]]], "the tensor table is not a list of"),
    ([["w", [True, 6]]], "the tensor table is not a list of"),
    ([["w", [5]]], "holds 6 values, its table slices 5"),
    ([["w", [2 ** 40, 2 ** 40]]], f"holds 6 values, its table slices {2 ** 80}"),
    ([["w", [6]], ["v", [0, 2 ** 62, 2 ** 62]]], "no array has the dims"),
]


@pytest.mark.parametrize("table,says", BAD_TABLES, ids=[str(t) for t, _ in BAD_TABLES])
def test_load_refuses_a_table_that_does_not_slice_the_vector(tmp_path, table, says):
    path = tmp_path / "m.ckpt"
    save_arrays(path, {"w": np.ones(6)})
    with pytest.raises(CheckpointError, match=re.escape(says)):
        load_arrays(path, table)


def test_load_refuses_a_file_that_is_not_a_float32_vector(tmp_path):
    path = tmp_path / "m.ckpt"
    for other in (np.ones(6), np.ones((2, 3), dtype="<f4"), np.ones((2, 3), "<f4", order="F"),
                  np.ones(6, dtype=">f4")):
        with open(path, "wb") as fh:
            np.save(fh, other)
        with pytest.raises(CheckpointError, match="not a float32 vector$"):
            load_arrays(path, [["w", [6]]])


class Owner:
    """The smallest checkpoint owner: a config and one parameter."""

    def __init__(self, config, x=(0.0, 0.0)):
        self.config = config
        # load_checkpoint passes the saved tensors in place of the values
        self.x = x.take("x", (2,)) if isinstance(x, Saved) else Parameter("x", np.array(x))

    def parameters(self):
        return [self.x]


def test_manifest_round_trip(tmp_path):
    man = {"variant": "KSA-BiGRU", "dims": [3, 4], "lambda": 0.5}
    save_checkpoint(tmp_path / "m.ckpt", Owner(man).parameters(), man, vocabulary=["a", "b"])
    assert json.loads((tmp_path / "m.ckpt.json").read_text())["config"] == man
    assert load_checkpoint(tmp_path / "m.ckpt", Owner, vocabulary=["a", "b"]).config == man
    with pytest.raises(CheckpointError, match="different vocabulary"):
        load_checkpoint(tmp_path / "m.ckpt", Owner, vocabulary=["a", "c"])


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e39])   # 1e39 overflows float32
def test_refused_save_keeps_the_previous_checkpoint(tmp_path, bad):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Owner({"k": 1}, [1.0, 2.0]).parameters(), {"k": 1})
    before = sorted(p.name for p in tmp_path.iterdir())
    diverged = Owner({"k": 2})
    diverged.x.data[1] = bad
    with pytest.raises(NonFiniteError, match="x"):
        save_checkpoint(path, diverged.parameters(), {"k": 2})
    assert sorted(p.name for p in tmp_path.iterdir()) == before == ["m.ckpt", "m.ckpt.json"]
    back = load_checkpoint(path, Owner)
    assert back.config == {"k": 1} and back.x.data.tolist() == [1.0, 2.0]


def test_refused_last_tensor_leaves_the_previous_checkpoint_and_no_temp_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [Parameter(name, a) for name, a in PAGED.items()], {"k": 1})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    streamed = []

    class Diverged:
        """The last tensor: notes how much of the temp file is written when it is read."""

        shape = (2,)

        def __array__(self, dtype=None, copy=None):
            streamed.append((tmp_path / "m.ckpt.tmp").stat().st_size)
            return np.array([1.0, np.nan])

    params = [Parameter(name, a + 1) for name, a in PAGED.items()]
    with pytest.raises(NonFiniteError, match="tensor last is not finite"):
        save_checkpoint(path, params + [SimpleNamespace(name="last", data=Diverged())], {"k": 2})
    # the earlier tensors were already streamed out, the multi-page one past the write buffer
    table = json.loads(before["m.ckpt.json"])["tensors"]
    wide_end = payload_offset(before["m.ckpt"], table, "wide") + 4 * PAGED["wide"].size
    assert len(streamed) == 1 and streamed[0] >= wide_end
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert sorted(before) == ["m.ckpt", "m.ckpt.json"]


NONFINITE_AT = {"the last float of a multi-page tensor": ("wide", PAGED["wide"].size - 1),
                "a tensor whose payload starts mid-page": ("wide", 0),
                "a tensor under a page": ("tail", 1)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", NONFINITE_AT)
def test_load_refuses_a_nonfinite_value_wherever_it_lies(tmp_path, monkeypatch, where, bad):
    # a check window of 1000 values: the multi-page tensor spans four windows,
    # its last float in a partial one
    monkeypatch.setattr(checkpoint, "WINDOW", 1000)
    path = tmp_path / "m.ckpt"
    table = save_arrays(path, PAGED)
    assert payload_offset(path.read_bytes(), table, "wide") % PAGE
    assert PAGED["wide"].size > PAGE // 2
    tensor, index = NONFINITE_AT[where]
    set_value(path, table, tensor, index, bad)
    with pytest.raises(CheckpointError,
                       match=f"^{re.escape(str(path))}: tensor {tensor} is not finite$"):
        load_arrays(path, table)


def _resident(path) -> int:
    """Bytes of the file at ``path`` that this process has mapped in."""
    total, inside = 0, False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
            inside = line.endswith(str(path))
        elif inside and line.startswith("Rss:"):
            total += int(line.split()[1]) * 1024
    return total


@pytest.mark.skipif(not Path("/proc/self/smaps").is_file(), reason="reads /proc/self/smaps")
def test_load_keeps_only_the_touched_pages_resident(tmp_path):
    # two payloads of 8 MB each.  A read maps in the pages around the one it
    # touches too (the kernel's fault-around, or a whole large folio of the
    # page cache, up to 2 MB), so the bounds leave that room; a load that kept
    # its pages would hold all 16 MB.
    path = tmp_path / "big.ckpt"
    shape = (2048, 1024)
    tensors = save_arrays(path, {"table": np.ones(shape), "weight": np.full(shape, 0.5)})
    saved = Saved(load_arrays(path, tensors), str(path))
    assert _resident(path) <= 4 << 20         # the check read every payload, mapped none
    table = saved.take("table", shape, widen=False)
    weight = saved.take("weight", shape)
    assert weight.data.dtype == np.float64 and (weight.data == 0.5).all()
    assert _resident(path) <= 4 << 20         # the widened copy gave its float32 pages back
    assert table.data[1000].sum() == 1024     # a gather maps in the pages around its row
    assert PAGE <= _resident(path) <= 6 << 20


# -- the owners' load path against the construct-then-restore load it replaced --

def restore(params, state: dict[str, np.ndarray]) -> None:
    """Copy ``state[name]`` into each parameter; names and shapes must match exactly."""
    names = {p.name for p in params}
    if names != state.keys():
        raise CheckpointError(f"restore: missing tensors {sorted(names - state.keys())}, "
                              f"unexpected tensors {sorted(state.keys() - names)}")
    for p in params:
        if state[p.name].shape != p.data.shape:
            raise CheckpointError(f"restore: {p.name} has shape {state[p.name].shape}, "
                                  f"expected {p.data.shape}")
    for p in params:
        p.data[...] = state[p.name]


def _restored(path, build):
    """The old load path, kept as the oracle: construct the owner from the
    manifest config (a fresh random draw), then copy the saved tensors over
    its parameters."""
    manifest = json.loads(Path(f"{path}.json").read_text())
    owner = build(manifest["config"])
    restore(owner.parameters(), load_arrays(path, manifest["tensors"]))
    return owner


def _kb(*relations):
    """A KB of four entities, a to d, and one triple under each relation."""
    return ingest_triples([f"{EPREFIX}{h}\t{RPREFIX}{r}\t{EPREFIX}{t}\n"
                           for (h, t), r in zip(["ab", "cd"], relations)])


VOCAB = build_vocabulary([["who", "wrote", "<e>", "?"]])
RELATIONS = ["r/born", "r/wrote", "r/won"]
KB = _kb("r/x", "r/y")
# each owner as (make, save, load, build): ``build(config)`` is the old
# constructor call for the oracle
OWNERS = {
    **{variant: (lambda v=variant: KsaModel(VOCAB, RELATIONS, ModelConfig(
        variant=v, d_word=7, d_rel=5, d_hidden=4, attention_hidden=3, seed=2)),
                 KsaModel.save,
                 lambda path: KsaModel.load(path, VOCAB, RELATIONS),
                 lambda c: KsaModel(VOCAB, RELATIONS, ModelConfig(**c)))
       for variant in VARIANTS},
    "tagger": (lambda: TaggerModel(VOCAB, TaggerConfig(d_word=6, hidden=4, seed=1)),
               TaggerModel.save,
               lambda path: TaggerModel.load(path, VOCAB),
               lambda c: TaggerModel(VOCAB, TaggerConfig(**c))),
    "transe": (lambda: EmbeddingSet(np.zeros((4, 3)), np.zeros((2, 3)), "l1"),
               lambda emb, path: emb.save(path, KB),
               lambda path: EmbeddingSet.load(path, KB),
               lambda c: EmbeddingSet(np.zeros((KB.entity_count, c["dim"])),
                                      np.zeros((KB.relation_count, c["dim"])), c["norm"])),
}


GATHERED = {"ksa.word_emb", "ksa.rel_emb", "ksa.out.w", "tagger.word_emb"}


@pytest.mark.parametrize("owner", OWNERS)
def test_load_equals_construct_then_restore_without_a_draw(tmp_path, monkeypatch, owner):
    make, save, load, build = OWNERS[owner]
    trained = make()
    rng = np.random.default_rng(5)
    for p in trained.parameters():     # off every init value, zero biases included
        p.data += rng.standard_normal(p.data.shape)
    save(trained, tmp_path / "o.ckpt")
    oracle = _restored(tmp_path / "o.ckpt", build)
    for init in ("init_weight", "init_embedding"):
        monkeypatch.setattr(ad, init, lambda *a, **k: pytest.fail("load drew a random init"))
    loaded = load(tmp_path / "o.ckpt")
    got, want = loaded.parameters(), oracle.parameters()
    assert [p.name for p in got] == [p.name for p in want]
    for g, w in zip(got, want):
        # the tables read only through gathers stay float32; widening is exact
        assert g.data.dtype == (np.float32 if g.name in GATHERED else np.float64), g.name
        assert w.data.dtype == np.float64 and g.data.shape == w.data.shape
        assert g.data.astype(np.float64).tobytes() == w.data.tobytes(), g.name
    if owner == "transe":     # the tables are the parameters' arrays
        assert loaded.entity.tobytes() == oracle.entity.tobytes()
        assert loaded.relation.tobytes() == oracle.relation.tobytes()


@pytest.mark.parametrize("owner", ["KSA-BiGRU", "tagger", "transe"])
def test_plain_numpy_reads_each_owner_s_checkpoint_sliced_by_its_table(tmp_path, owner):
    make, save, _, _ = OWNERS[owner]
    trained = make()
    save(trained, tmp_path / "o.ckpt")
    vector = np.load(tmp_path / "o.ckpt", mmap_mode="r")
    assert vector.dtype == np.float32 and vector.ndim == 1
    table = json.loads((tmp_path / "o.ckpt.json").read_text())["tensors"]
    params = trained.parameters()
    assert [name for name, _ in table] == [p.name for p in params]
    start = 0
    for (name, dims), p in zip(table, params):
        size = int(np.prod(dims))
        want = p.data.astype(np.float32)
        assert tuple(dims) == want.shape, name
        assert vector[start : start + size].tobytes() == want.tobytes(), name
        start += size
    assert start == vector.size


OTHER_VOCAB = build_vocabulary([["who", "won", "<e>", "?"]])
# (owner, the identity list that differs, a load of that owner's file against it)
FOREIGN = [
    ("KSA-BiGRU", "vocabulary", lambda path: KsaModel.load(path, OTHER_VOCAB, RELATIONS)),
    ("KSA-BiGRU", "relations",
     lambda path: KsaModel.load(path, VOCAB, ["r/born", "r/penned", "r/won"])),
    ("tagger", "vocabulary", lambda path: TaggerModel.load(path, OTHER_VOCAB)),
    ("transe", "relations", lambda path: EmbeddingSet.load(path, _kb("r/x", "r/renamed"))),
    ("transe", "entities",
     lambda path: EmbeddingSet.load(path, ingest_triples(
         [f"{EPREFIX}a\t{RPREFIX}r/x\t{EPREFIX}b\n", f"{EPREFIX}c\t{RPREFIX}r/y\t{EPREFIX}e\n"]))),
]


@pytest.mark.parametrize("owner,key,load", FOREIGN, ids=[f"{o}-{k}" for o, k, _ in FOREIGN])
def test_each_owner_refuses_a_manifest_recorded_for_another_identity(tmp_path, monkeypatch,
                                                                      owner, key, load):
    """Same shapes, other names: the manifest's hash refuses the file before
    a payload is read."""
    make, save, _, _ = OWNERS[owner]
    save(make(), tmp_path / "o.ckpt")
    monkeypatch.setattr(checkpoint, "load_arrays",
                        lambda *args: pytest.fail("read the tensors of a foreign checkpoint"))
    with pytest.raises(CheckpointError,
                       match=f"o.ckpt.json records no {key}_sha256, or a different {key}$"):
        load(tmp_path / "o.ckpt")
