import json
import struct

import numpy as np
import pytest

from ksaqa.autodiff import Parameter
from ksaqa.checkpoint import (MAGIC, load_arrays, load_checkpoint, save_arrays,
                              save_checkpoint)
from ksaqa.errors import (BadMagicError, CheckpointError, DuplicateNameError,
                          NonFiniteError, TruncatedCheckpointError)


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
    save_arrays(path, arrays)
    back = load_arrays(path)
    assert list(back) == list(arrays)  # insertion order kept
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape
        assert back[name].dtype == np.float64
        assert np.array_equal(back[name], arr.astype(np.float32).astype(np.float64))


def test_second_round_trip_is_bitwise_stable(tmp_path):
    arrays = _sample()
    save_arrays(tmp_path / "a.ckpt", arrays)
    once = load_arrays(tmp_path / "a.ckpt")
    save_arrays(tmp_path / "b.ckpt", once)
    twice = load_arrays(tmp_path / "b.ckpt")
    for name in arrays:
        assert np.array_equal(once[name], twice[name])


def test_files_are_byte_identical_for_identical_input(tmp_path):
    arrays = _sample()
    save_arrays(tmp_path / "a.ckpt", arrays)
    save_arrays(tmp_path / "b.ckpt", arrays)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_magic_prefix_and_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    save_arrays(path, {"x": np.zeros(2)})
    blob = path.read_bytes()
    assert blob[:6] == MAGIC == b"KSAQA1"
    count = struct.unpack("<I", blob[6:10])[0]
    assert count == 1
    name_len = struct.unpack("<I", blob[10:14])[0]
    assert blob[14 : 14 + name_len] == b"x"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAG" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        load_arrays(path)


def test_truncation_reports_offset(tmp_path):
    path = tmp_path / "t.ckpt"
    save_arrays(path, {"weights": np.ones((3, 3))})
    blob = path.read_bytes()
    cut = len(blob) - 5
    path.write_bytes(blob[:cut])
    with pytest.raises(TruncatedCheckpointError) as exc:
        load_arrays(path)
    assert 0 < exc.value.offset <= cut


def test_truncated_header_also_detected(tmp_path):
    path = tmp_path / "h.ckpt"
    path.write_bytes(MAGIC)  # magic only, no count
    with pytest.raises(TruncatedCheckpointError):
        load_arrays(path)


def test_duplicate_name_rejected_on_load(tmp_path):
    # hand-build a file holding the same entry twice
    name = b"dup"
    payload = struct.pack("<f", 1.5)
    entry = struct.pack("<I", len(name)) + name + struct.pack("<I", 1) \
        + struct.pack("<I", 1) + payload
    path = tmp_path / "d.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", 2) + entry + entry)
    with pytest.raises(DuplicateNameError):
        load_arrays(path)


def test_save_rejects_duplicate_names(tmp_path):
    class Sneaky(dict):
        def items(self):
            yield "same", np.ones(1)
            yield "same", np.zeros(1)

    with pytest.raises(DuplicateNameError):
        save_arrays(tmp_path / "s.ckpt", Sneaky())


class Owner:
    """The smallest checkpoint owner: a config and one parameter."""

    def __init__(self, config, x=(0.0, 0.0)):
        self.config = config
        self.x = Parameter("x", np.array(x))

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
