"""Property test of the sealed artifacts: a byte flipped, cut or appended in
kb.npz, aliases.tsv, vocab.txt, a *.jsonl split or their manifests refuses every
command that reads it with one stderr line, and a deleted manifest is a
missing artifact."""

import contextlib
import io
import shutil

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ksaqa.cli import main  # noqa: E402

QUESTION = ["--question", "where was john smith born"]
# each sealed artifact, the stage that writes it, and every command that reads it;
# the training stages take one epoch
TRAIN_TAGGER = ["train-tagger", "--tagger-epochs", "1"]
TRAIN = ["train", "--epochs", "1"]
READERS = {
    "kb.npz": ("ingest-kb", [["relabel"], ["stats"], ["pretrain-transe"], TRAIN,
                             ["eval", "--gold-spans"], ["predict"] + QUESTION,
                             ["attention"] + QUESTION,
                             ["answer", "--non-interactive", QUESTION[1]]]),
    "aliases.tsv": ("ingest-kb", [["relabel"], ["stats"], ["eval", "--gold-spans"],
                                  ["predict"] + QUESTION, ["attention"] + QUESTION,
                                  ["answer", "--non-interactive", QUESTION[1]]]),
    "vocab.txt": ("relabel", [TRAIN_TAGGER, TRAIN, ["eval", "--gold-spans"],
                              ["predict"] + QUESTION, ["attention"] + QUESTION,
                              ["answer", "--non-interactive", QUESTION[1]]]),
    "train.jsonl": ("relabel", [["stats"], TRAIN_TAGGER, TRAIN,
                                ["eval", "--gold-spans", "--split", "train"]]),
    "valid.jsonl": ("relabel", [["stats"], TRAIN_TAGGER, TRAIN,
                                ["eval", "--gold-spans", "--split", "valid"]]),
    "test.jsonl": ("relabel", [["stats"], ["eval", "--gold-spans"]]),
}


def _run(argv, cfg, work):
    """(exit code, stdout, stderr) of one command on ``work``, its path in
    the output replaced by "<work>"."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv[:1] + ["--config", str(cfg), "--workdir", str(work)] + argv[1:])
    return rc, out.getvalue().replace(str(work), "<work>"), err.getvalue()


def _files(work):
    return {p.name: p.read_bytes() for p in work.iterdir()}


@pytest.fixture(scope="module")
def clean(pipeline, tmp_path_factory):
    """(config, the built workdir, a scratch dir, and for each artifact the
    stdout of its readers run in order on a copy of the workdir)."""
    cfg, _, work = pipeline
    scratch = tmp_path_factory.mktemp("sealed")
    outputs = {}
    for name, (_, commands) in READERS.items():
        copy = scratch / "clean"
        shutil.copytree(work, copy)
        outputs[name] = []
        for argv in commands:
            rc, out, err = _run(argv, cfg, copy)
            assert rc == 0, (argv, err)
            outputs[name].append(out)
        shutil.rmtree(copy)
    return cfg, work, scratch, outputs


def _edit(blob: bytes, kind: str, at: int, byte: int) -> bytes:
    if kind == "flip":
        at %= len(blob)
        return blob[:at] + bytes([blob[at] ^ byte]) + blob[at + 1:]
    if kind == "cut":
        return blob[: at % len(blob)]
    return blob + bytes([byte])


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=40, deadline=None)
@given(in_manifest=st.booleans(), kind=st.sampled_from(["flip", "cut", "append", "delete"]),
       at=st.integers(0, 1 << 16), byte=st.integers(1, 255))
@example(in_manifest=True, kind="append", at=0, byte=ord("\n"))    # the same JSON
@example(in_manifest=False, kind="cut", at=0, byte=1)              # an empty file
def test_a_changed_seal_refuses_every_reader(clean, name, in_manifest, kind, at, byte):
    cfg, built, scratch, outputs = clean
    stage, commands = READERS[name]
    work = scratch / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(built, work)
    target = work / (f"{name}.json" if in_manifest or kind == "delete" else name)
    if kind == "delete":
        target.unlink()
    else:
        target.write_bytes(_edit(target.read_bytes(), kind, at, byte))
    for argv, clean_out in zip(commands, outputs[name]):
        before = _files(work)
        rc, out, err = _run(argv, cfg, work)
        assert "Traceback" not in err and len(err.splitlines()) == (rc != 0), (argv, err)
        if kind == "delete":
            assert rc == 6 and f"{work}/{name}.json not found" in err, (argv, err)
        elif rc == 0:       # a manifest edit that leaves the same JSON digest
            assert in_manifest and out == clean_out, argv
            continue
        else:
            assert rc == 8, (argv, err)
            assert err == (f"checkpoint error: {work}/{name} changed since {stage} wrote it; "
                           f"rerun {stage}\n"), argv
        assert _files(work) == before, argv
