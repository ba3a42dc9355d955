"""End-to-end CLI tests on the micro world: artifacts, reruns, exit codes.

One module-scoped fixture (``pipeline``, in conftest.py) drives the full
pipeline (ingest -> relabel -> pretrain -> tag -> train) into a shared work
directory; the tests then exercise the read-only subcommands and the
documented exit codes against it.
"""

import argparse
import errno
import io
import json
import math
import os
import shutil
import struct
import warnings

import numpy as np
import pytest

from ksaqa import artifacts, cli
from ksaqa import autodiff as ad
from ksaqa import kb as kb_module
from ksaqa.checkpoint import load_arrays, save_arrays
from ksaqa.cli import build_parser, main
from ksaqa.config import KEYS
from ksaqa.dataset import Vocabulary
from ksaqa.kb import AliasTable, KnowledgeBase, ingest_triples
from ksaqa.kernels import transe_ops
from ksaqa.model import KsaModel
from ksaqa.tagger import TaggerModel

from ckpt_bytes import PAGED, set_value
from corpus_util import EPREFIX, micro_world


def test_pipeline_writes_every_artifact(pipeline):
    _, _, work = pipeline
    for name in ("kb.npz", "aliases.tsv", "aliases.tsv.json", "aliases.idx.npz",
                 "aliases.idx.npz.json", "vocab.txt", "vocab.txt.json",
                 "train.jsonl", "valid.jsonl", "test.jsonl",
                 "train.jsonl.json", "valid.jsonl.json", "test.jsonl.json",
                 "train_formatted.tsv", "alias_report.tsv", "pattern_report.tsv",
                 "transe.ckpt", "transe.ckpt.json",
                 "tagger.ckpt", "tagger.ckpt.json", "tagger_history.json",
                 "model.ckpt", "model.ckpt.json", "history.json"):
        assert (work / name).exists(), name


def test_ingest_prints_exact_counts(pipeline, capsys):
    cfg, _, _ = pipeline
    assert main(["ingest-kb", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "entities  13" in out
    assert "relations 5" in out
    assert "triples   10" in out
    assert "aliases   13" in out    # entities carrying at least one alias


def test_relabel_reruns_byte_identically(pipeline):
    cfg, _, work = pipeline
    before = {n: (work / n).read_bytes()
              for n in ("train.jsonl", "valid.jsonl", "test.jsonl", "vocab.txt")}
    assert main(["relabel", "--config", str(cfg)]) == 0
    for name, blob in before.items():
        assert (work / name).read_bytes() == blob, name


def test_stats_reports_the_ambiguity_rate(pipeline, capsys):
    cfg, _, _ = pipeline
    assert main(["stats", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "ambiguity rate" in out or "ambiguous" in out


def test_history_records_every_epoch(pipeline):
    _, _, work = pipeline
    history = json.loads((work / "history.json").read_text())
    assert [h["epoch"] for h in history] == list(range(1, 11))
    assert all("valid_macro_f1" in h for h in history)


def test_eval_writes_reports(pipeline, capsys):
    cfg, _, work = pipeline
    rc = main(["eval", "--config", str(cfg), "--split", "test",
               "--gold-spans", "--baseline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "macro F1" in out and "baseline" in out
    report = json.loads((work / "report.json").read_text())
    assert set(report) >= {"macro_f1", "top1_accuracy", "hit_any_rate"}
    assert (work / "report.txt").exists()
    assert (work / "diff.jsonl").exists()


def test_eval_with_the_trained_tagger(pipeline, capsys):
    cfg, _, _ = pipeline
    assert main(["eval", "--config", str(cfg), "--split", "valid"]) == 0
    assert "detection failures" in capsys.readouterr().out


def test_predict_marks_scores_above_lambda(pipeline, capsys):
    cfg, _, _ = pipeline
    rc = main(["predict", "--config", str(cfg), "--lambda", "0.000001",
               "--question", "where was john smith born"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "formatted: where was <e> born" in out
    starred = [l for l in out.splitlines() if l.startswith("*")]
    assert starred and all("people/person/place_of_birth" in l or "/" in l
                           for l in starred)


def test_predict_labels_each_subject_once(pipeline, capsys, monkeypatch):
    cfg, _, _ = pipeline
    looked_up = []
    aliases_of = AliasTable.aliases_of
    monkeypatch.setattr(AliasTable, "aliases_of",
                        lambda self, entity: looked_up.append(entity) or aliases_of(self, entity))
    assert main(["predict", "--config", str(cfg), "--lambda", "0.000001",
                 "--question", "where was john smith born"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(looked_up) == len(set(looked_up)) < len(rows)
    assert {row.rsplit(" [", 1)[1].split("]")[0] for row in rows} == set(looked_up)


def test_predict_accepts_an_explicit_mention(pipeline, capsys):
    cfg, _, _ = pipeline
    rc = main(["predict", "--config", str(cfg), "--mention", "mary",
               "--question", "what genre is mary"])
    assert rc == 0
    assert "music/artist/genre" in capsys.readouterr().out


def test_attention_writes_the_heatmap(pipeline, capsys):
    cfg, _, work = pipeline
    rc = main(["attention", "--config", str(cfg), "--subject", "01",
               "--question", "what did john smith write"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "subject:" in out and "#" in out
    lines = (work / "attention.tsv").read_text().splitlines()
    assert lines[0] == "token\tweight"
    assert len(lines) == 1 + len("what did <e> write".split())
    total = sum(float(l.split("\t")[1]) for l in lines[1:])
    assert abs(total - 1.0) < 1e-3


def test_answer_non_interactive_lists_interpretations(pipeline, capsys):
    cfg, _, _ = pipeline
    rc = main(["answer", "--config", str(cfg), "--non-interactive",
               "--lambda", "0.000001", "what did john smith write"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1." in out and "book/author/works_written" in out


def test_answer_asks_for_clarification_when_ambiguous(pipeline, capsys,
                                                      monkeypatch):
    cfg, _, _ = pipeline
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
    rc = main(["answer", "--config", str(cfg), "--lambda", "0.000001",
               "what did john smith write"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Which one do you mean?" in out
    assert "2." in out          # at least two numbered interpretations


def test_answer_falls_back_to_best_guess(pipeline, capsys):
    cfg, _, _ = pipeline
    rc = main(["answer", "--config", str(cfg), "--lambda", "0.999999",
               "--non-interactive", "what did john smith write"])
    assert rc == 0
    assert "best guess" in capsys.readouterr().out


def test_answer_rejects_a_bad_pick(pipeline, capsys, monkeypatch):
    cfg, _, _ = pipeline
    monkeypatch.setattr("sys.stdin", io.StringIO("99\n"))
    rc = main(["answer", "--config", str(cfg), "--lambda", "0.000001",
               "what did john smith write"])
    assert rc == 3
    assert "out of range" in capsys.readouterr().err


# -- exit codes -----------------------------------------------------------------


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ingest-kb", "--no-such-flag"])
    assert exc.value.code == 2


def test_full_flag_rejects_micro_counts(pipeline, capsys):
    cfg, _, _ = pipeline
    assert main(["ingest-kb", "--config", str(cfg), "--full"]) == 3
    assert "--full expects" in capsys.readouterr().err


def test_transe_dimension_mismatch_exits_3(pipeline, tmp_path, capsys):
    cfg, _, work = pipeline
    broken = tmp_path / "work"
    shutil.copytree(work, broken)
    rc = main(["train", "--config", str(cfg), "--workdir", str(broken),
               "--d-rel", "20", "--epochs", "1"])
    assert rc == 3
    assert "transe_dim" in capsys.readouterr().err
    assert main(["train", "--config", str(cfg), "--workdir", str(broken),
                 "--d-rel", "20", "--epochs", "1", "--no-transe-init"]) == 0


def test_bad_pattern_splits_exits_3(pipeline, capsys):
    cfg, _, _ = pipeline
    assert main(["relabel", "--config", str(cfg),
                 "--pattern-splits", "test"]) == 3
    assert "train/valid" in capsys.readouterr().err


def test_missing_input_file_exits_4(pipeline, tmp_path, capsys):
    cfg, _, _ = pipeline
    rc = main(["ingest-kb", "--config", str(cfg),
               "--triples", str(tmp_path / "absent.txt"),
               "--workdir", str(tmp_path / "w")])
    assert rc == 4
    assert "missing input" in capsys.readouterr().err


def test_malformed_input_exits_5(pipeline, tmp_path, capsys):
    cfg, data, _ = pipeline
    bad = tmp_path / "bad.txt"
    bad.write_text("www.freebase.com/m/01\n")     # one column, not three
    rc = main(["ingest-kb", "--config", str(cfg), "--triples", str(bad),
               "--workdir", str(tmp_path / "w")])
    assert rc == 5
    assert "malformed input" in capsys.readouterr().err


def test_missing_artifact_exits_6(pipeline, tmp_path, capsys):
    cfg, _, _ = pipeline
    rc = main(["stats", "--config", str(cfg), "--workdir", str(tmp_path / "empty")])
    assert rc == 6
    err = capsys.readouterr().err
    assert "missing artifact" in err and "ksaqa ingest-kb" in err


def test_unresolvable_mention_exits_7(pipeline, capsys):
    cfg, _, _ = pipeline
    rc = main(["predict", "--config", str(cfg), "--mention", "nobody",
               "--question", "where was john smith born"])
    assert rc == 7
    assert "detection failure" in capsys.readouterr().err


def test_blank_mention_exits_7(pipeline, capsys):
    cfg, _, _ = pipeline
    rc = main(["predict", "--config", str(cfg), "--mention", " ",
               "--question", "where was john smith born"])
    assert rc == 7
    assert "--mention ' ' does not occur in the question" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_8(pipeline, tmp_path, capsys):
    cfg, _, work = pipeline
    broken = tmp_path / "work"
    shutil.copytree(work, broken)
    blob = bytearray((broken / "model.ckpt").read_bytes())
    blob[:6] = b"XXXXXX"
    (broken / "model.ckpt").write_bytes(bytes(blob))
    rc = main(["predict", "--config", str(cfg), "--workdir", str(broken),
               "--question", "where was john smith born"])
    assert rc == 8
    assert "checkpoint error" in capsys.readouterr().err


# -- every bad artifact or divergence: documented code, one stderr line ----------

PREDICT = ["predict", "--question", "where was john smith born"]


# each mutation takes the copied work directory and the test's monkeypatch
def _write(name, text):
    return lambda work, mp: (work / name).write_text(text)


def _write_bytes(name, blob):
    return lambda work, mp: (work / name).write_bytes(blob)


def _delete(name):
    return lambda work, mp: (work / name).unlink()


def _edit_tensors(name, edit):
    """Save ``edit`` of the tensors of checkpoint ``name``, and their table."""
    def mutate(work, mp):
        arrays = load_arrays(work / name, _table(work, name))
        edit(arrays)
        _retable(work, name, save_arrays(work / name, arrays))
    return mutate


def _table(work, name):
    return json.loads((work / f"{name}.json").read_text())["tensors"]


def _retable(work, name, table):
    """Put ``table`` in the manifest of checkpoint ``name``."""
    _edit_manifest(f"{name}.json", lambda m: m.update(tensors=table))(work, None)


def _edit_manifest(name, edit):
    def mutate(work, mp):
        manifest = json.loads((work / name).read_text())
        edit(manifest)
        (work / name).write_text(json.dumps(manifest))
    return mutate


def _edit_bytes(name, edit):
    return lambda work, mp: (work / name).write_bytes(edit((work / name).read_bytes()))


def _truncate(name):
    return _edit_bytes(name, lambda blob: blob[: len(blob) // 2])


def _foreign_vocabulary(work, mp):
    """Reseal vocab.txt with one token more than the checkpoints were trained on."""
    Vocabulary(Vocabulary.load(work / "vocab.txt").tokens + ["extra"]).save(work / "vocab.txt")


def _second_jsonl_line(name, edit):
    """Keep the first line of ``name`` and put ``edit`` of its second line after it."""
    def mutate(work, mp):
        lines = (work / name).read_text().splitlines(keepends=True)
        (work / name).write_text(lines[0] + edit(lines[1]))
    return mutate


def _keep(work, mp):
    pass


def _key_limit(limit):
    return lambda work, mp: mp.setattr(kb_module, "_KEY_LIMIT", limit)


def _dims(*dims):
    """model.ckpt as a vector of no values, under a table of one tensor with these dims."""
    def mutate(work, mp):
        with open(work / "model.ckpt", "wb") as fh:
            np.save(fh, np.empty(0, dtype="<f4"))
        _retable(work, "model.ckpt", [["w", list(dims)]])
    return mutate


def _nan_last_value(name):
    """Overwrite the file's last float32 (the last value of its last tensor) with NaN."""
    def mutate(work, mp):
        blob = (work / name).read_bytes()
        (work / name).write_bytes(blob[:-4] + struct.pack("<f", float("nan")))
    return mutate


def _nan_first_value(name):
    """Overwrite the first float32 of the file's first tensor with NaN."""
    def mutate(work, mp):
        table = _table(work, name)
        set_value(work / name, table, table[0][0], 0, float("nan"))
    return mutate


def _paged_transe(tensor, index, value):
    """Rewrite transe.ckpt as tensors under a page, over several pages and
    under a page again, with ``value`` at ``index`` of ``tensor``."""
    def mutate(work, mp):
        table = save_arrays(work / "transe.ckpt", PAGED)
        _retable(work, "transe.ckpt", table)
        set_value(work / "transe.ckpt", table, tensor, index, value)
    return mutate


def _ksaqa1_era(name):
    """Rewrite checkpoint ``name`` as it was written before checkpoints were
    .npy vectors: the KSAQA1 container (magic, entry count, then each tensor's
    name, rank, dims and float32 values), under a manifest with no table."""
    def mutate(work, mp):
        arrays = load_arrays(work / name, _table(work, name))
        blob = b"KSAQA1" + struct.pack("<I", len(arrays))
        for key, a in arrays.items():
            blob += struct.pack(f"<I{len(key)}sI{a.ndim}I", len(key), key.encode(), a.ndim,
                                *a.shape) + a.tobytes()
        (work / name).write_bytes(blob)
        _edit_manifest(f"{name}.json", lambda m: m.pop("tensors"))(work, mp)
    return mutate


def _renamed_relations_kb(work, mp):
    """Re-ingest the micro world's KB with its people/person/* relations renamed."""
    ingest_triples([line.replace("/people/person/", "/people/human/")
                    for line in micro_world().triple_lines]).save(work / "kb.npz")


def _old_kb_layout(work, mp):
    """Rewrite kb.npz with its names as fixed-width UTF-32 arrays, as older versions did."""
    kb = KnowledgeBase.load(work / "kb.npz")
    with open(work / "kb.npz", "wb") as fh:
        np.savez_compressed(fh, entities=np.array(kb.entities, dtype=str),
                            relations=np.array(kb.relations, dtype=str),
                            triple_keys=kb.triple_keys)


def _kb_without_entity_order(work, mp):
    """Reseal kb.npz with the three members it held before entity_order."""
    kb = KnowledgeBase.load(work / "kb.npz")
    artifacts.save_npz(work / "kb.npz", names=kb.names, entity_count=np.int64(kb.entity_count),
                       triple_keys=kb.triple_keys)


def _kb_with_entity_order(work, mp):
    """Reseal kb.npz with the four members it held while entity ids were first-seen."""
    kb = KnowledgeBase.load(work / "kb.npz")
    artifacts.save_npz(work / "kb.npz", names=kb.names, entity_count=np.int64(kb.entity_count),
                       entity_order=np.arange(kb.entity_count), triple_keys=kb.triple_keys)


def _bare_array_kb(work, mp):
    """Overwrite kb.npz with one array in the .npy format, not an archive."""
    with open(work / "kb.npz", "wb") as fh:
        np.save(fh, np.arange(3))


def _other_alias_index(work, mp):
    """Put the index of other alias rows, sealed, beside aliases.tsv."""
    AliasTable(["01"], ["someone else"]).save(work / "other.tsv")
    for suffix in ("", ".json"):
        os.replace(work / f"other.idx.npz{suffix}", work / f"aliases.idx.npz{suffix}")
    for name in ("other.tsv", "other.tsv.json"):
        (work / name).unlink()


def _nan_loss(owner, method, call):
    """Make call number ``call`` of ``owner.method`` return a NaN loss, as a
    run that diverges at a legal learning rate would."""
    def mutate(work, mp):
        real, calls = getattr(owner, method), []

        def spoiled(*args):
            calls.append(None)
            loss = real(*args)
            if len(calls) != call:
                return loss
            return ad.scale(loss, math.nan) if isinstance(loss, ad.Tensor) else math.nan
        mp.setattr(owner, method, spoiled)
    return mutate


def _disk_full(work, mp):
    """Fail every move of a written file into place, as a full disk would."""
    def replace(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))
    mp.setattr(artifacts.os, "replace", replace)


NOT_UTF8 = b"caf\xe9\tbar\n"


FAULTS = [
    # corrupt or mismatched checkpoints
    ("model-manifest-not-json", PREDICT, _write("model.ckpt.json", "{"), 8),
    ("tagger-manifest-not-json", PREDICT, _write("tagger.ckpt.json", "{"), 8),
    ("transe-manifest-not-json", ["train", "--epochs", "1"],
     _write("transe.ckpt.json", "{"), 8),
    ("manifest-not-an-object", PREDICT, _write("model.ckpt.json", "[1]"), 8),
    ("manifest-missing-key", PREDICT,
     _edit_manifest("model.ckpt.json", lambda m: m.pop("relations_sha256")), 8),
    ("manifest-missing-config", PREDICT,
     _edit_manifest("tagger.ckpt.json", lambda m: m.pop("config")), 8),
    ("manifest-config-unusable", PREDICT,
     _edit_manifest("tagger.ckpt.json", lambda m: m["config"].update(hidden="x")), 8),
    ("tagger-tensor-missing", PREDICT,
     _edit_tensors("tagger.ckpt", lambda a: a.pop("tagger.crf.stop")), 8),
    ("tagger-tensor-extra", PREDICT,
     _edit_tensors("tagger.ckpt", lambda a: a.update({"tagger.extra": a["tagger.crf.stop"]})), 8),
    ("tagger-tensor-misshaped", PREDICT,
     _edit_tensors("tagger.ckpt", lambda a: a.update({"tagger.emit.w": a["tagger.emit.w"].T})), 8),
    ("transe-tensor-misshaped", ["train", "--epochs", "1"],
     _edit_tensors("transe.ckpt", lambda a: a.update({"transe.entity": a["transe.entity"][:1]})), 8),
    # a transe.ckpt pretrained on a KB that has since been re-ingested
    ("transe-other-kb", ["train", "--epochs", "1"], _renamed_relations_kb, 8),
    # a sealed vocabulary the checkpoints were not trained on
    ("foreign-vocabulary", PREDICT, _foreign_vocabulary, 8),
    # dims whose product passes int64 (it wrapped to 0 there), or that no array
    # can take around a 0
    ("model-dims-overflow", PREDICT, _dims(2 ** 31, 2 ** 31, 2 ** 31), 8),
    ("model-dims-unallocatable", PREDICT, _dims(0, 2 ** 32 - 1, 2 ** 32 - 1), 8),
    # a checkpoint written before checkpoints were .npy vectors, with its manifest
    ("model-ksaqa1-era", PREDICT, _ksaqa1_era("model.ckpt"), 8),
    # a NaN in ksa.out.b, the last tensor saved
    ("model-tensor-nonfinite", PREDICT, _nan_last_value("model.ckpt"), 8),
    # a NaN in ksa.word_emb, the first tensor saved, a table that loads as float32
    ("model-table-nonfinite", PREDICT, _nan_first_value("model.ckpt"), 8),
    # a value the load checks before it gives back the payload's pages: the
    # last float of a multi-page tensor, the first of one that starts mid-page,
    # one in a tensor under a page
    ("transe-multipage-last-nonfinite", ["train", "--epochs", "1"],
     _paged_transe("wide", PAGED["wide"].size - 1, float("nan")), 8),
    ("transe-midpage-start-nonfinite", ["train", "--epochs", "1"],
     _paged_transe("wide", 0, float("inf")), 8),
    ("transe-subpage-nonfinite", ["train", "--epochs", "1"],
     _paged_transe("tail", 1, float("-inf")), 8),
    # a kb.npz that `ingest-kb` did not write, refused by its seal
    ("kb-truncated", ["stats"], _truncate("kb.npz"), 8),
    ("kb-old-layout", ["stats"], _old_kb_layout, 8),
    ("kb-a-bare-array", ["stats"], _bare_array_kb, 8),
    # a kb.npz sealed by an ingest-kb that gave entities first-seen ids, before
    # and after it wrote entity_order
    ("kb-without-entity-order", PREDICT, _kb_without_entity_order, 8),
    ("kb-with-entity-order", PREDICT, _kb_with_entity_order, 8),
    # a vocabulary that `relabel` cannot have written: empty, cut off, CRLF endings
    ("vocab-empty", PREDICT, _write("vocab.txt", ""), 8),
    ("vocab-cut-off", PREDICT, _edit_bytes("vocab.txt", lambda blob: blob[:-2]), 8),
    ("vocab-edited", PREDICT,
     _edit_bytes("vocab.txt", lambda blob: blob.replace(b"\n", b"\r\n")), 8),
    # an aliases.tsv that `ingest-kb` cannot have written, refused by its seal
    ("workdir-aliases-not-utf8", PREDICT,
     _write_bytes("aliases.tsv", b"01\tjohn smith\n" + NOT_UTF8), 8),
    ("workdir-aliases-one-field", PREDICT, _write("aliases.tsv", "01\tjohn smith\n02\n"), 8),
    ("workdir-aliases-unnormalized", PREDICT, _write("aliases.tsv", "01\tJohn Smith\n"), 8),
    ("workdir-aliases-unstripped-id", PREDICT, _write("aliases.tsv", "m/01\tjohn smith\n"), 8),
    ("workdir-aliases-repeated-row", PREDICT,
     _write("aliases.tsv", "01\tjohn smith\n01\tjohn smith\n"), 8),
    ("workdir-aliases-cut-off", PREDICT, _write("aliases.tsv", "01\tjohn smith\n02\tjohn sm"), 8),
    ("workdir-aliases-out-of-order", PREDICT,
     _write("aliases.tsv", "02\tjohn smith\n01\tjohn smith\n"), 8),
    # a relabeled split that `relabel` cannot have written, refused by its seal
    ("workdir-jsonl-cut-off", ["train-tagger"],
     _second_jsonl_line("train.jsonl", lambda line: line[: len(line) // 2]), 8),
    ("workdir-jsonl-not-json", ["train"],
     _second_jsonl_line("train.jsonl", lambda line: line[: len(line) // 2] + "\n"), 8),
    ("workdir-jsonl-gold-not-a-pair", ["train-tagger"],
     _second_jsonl_line("train.jsonl", lambda line: line.replace('"gold": [', '"gold": [1, ')), 8),
    ("workdir-jsonl-no-mention-marker", ["stats"],
     _second_jsonl_line("train.jsonl", lambda line: line.replace("<e>", "it")), 8),
    # a --subject that is not a candidate of the question's mention
    ("attention-subject-unknown",
     ["attention", "--question", "what did john smith write", "--subject", "nosuchentity"],
     _keep, 7),
    ("attention-subject-not-a-candidate",
     ["attention", "--question", "what did john smith write", "--subject", "03"], _keep, 7),
    # a mention no entity is known by ends before the predictor is read
    ("unknown-mention-model-unread", PREDICT + ["--mention", "born"],
     _write("model.ckpt", "not a checkpoint"), 7),
    # a checkpoint without its manifest
    ("model-manifest-absent", PREDICT, _delete("model.ckpt.json"), 6),
    ("tagger-manifest-absent", PREDICT, _delete("tagger.ckpt.json"), 6),
    ("transe-manifest-absent", ["train", "--epochs", "1"], _delete("transe.ckpt.json"), 6),
    # a kb.npz without its manifest, as every kb.npz written before it was sealed
    ("kb-manifest-absent", ["stats"], _delete("kb.npz.json"), 6),
    # no alias index, as in every workdir ingested before there was one, or the
    # index of other rows
    ("aliases-index-absent", PREDICT, _delete("aliases.idx.npz"), 6),
    ("aliases-index-of-other-rows", PREDICT, _other_alias_index, 8),
    # lambda outside (0, 1), by flag or by config file
    ("predict-lambda", PREDICT + ["--lambda", "1.5"], _keep, 3),
    ("eval-lambda", ["eval", "--gold-spans", "--lambda", "1.5"], _keep, 3),
    ("answer-lambda", ["answer", "--lambda", "1.5", "where was john smith born"], _keep, 3),
    ("attention-lambda", ["attention", "--lambda", "0", "--question", "what did john smith write"],
     _keep, 3),
    ("config-lambda", ["stats", "--config", "{work}/lam.cfg"],
     _write("lam.cfg", "lambda = 1.5\n"), 3),
    # knobs out of range are refused when the config loads
    ("transe-epochs-zero", ["pretrain-transe", "--transe-epochs", "0"], _keep, 3),
    ("transe-batch-size-zero", ["pretrain-transe", "--transe-batch-size", "0"], _keep, 3),
    ("tagger-hidden-zero", ["train-tagger", "--tagger-hidden", "0"], _keep, 3),
    ("dropout-above-one", ["train", "--dropout", "1.5"], _keep, 3),
    ("min-count-zero", ["relabel", "--min-count", "0"], _keep, 3),
    ("lr-negative", ["train", "--lr", "-1"], _keep, 3),
    ("transe-lr-negative", ["pretrain-transe", "--transe-lr", "-1"], _keep, 3),
    # a learning rate past 1, which used to train weights near 1e30 and exit 0
    ("lr-too-large", ["train", "--lr", "1e30"], _keep, 3),
    ("transe-lr-too-large", ["pretrain-transe", "--transe-lr", "1e30"], _keep, 3),
    ("tagger-lr-too-large", ["train-tagger", "--tagger-lr", "1e30"], _keep, 3),
    # there is one kernel lane: `backend` is an unknown key
    ("config-backend", ["stats", "--config", "{work}/backend.cfg"],
     _write("backend.cfg", "backend = bogus\n"), 3),
    # manifests from before question_layers or negatives_from_empty_candidates was removed
    ("manifest-question-layers", PREDICT,
     _edit_manifest("model.ckpt.json", lambda m: m["config"].update(question_layers=2)), 8),
    ("manifest-negatives-from-empty-candidates", PREDICT,
     _edit_manifest("model.ckpt.json",
                    lambda m: m["config"].update(negatives_from_empty_candidates=False)), 8),
    # input files that are not UTF-8 or hold a short line, and a KB too large for the
    # int64 triple key
    ("triples-not-utf8", ["ingest-kb", "--triples", "{work}/bad.txt"],
     _write_bytes("bad.txt", NOT_UTF8), 5),
    ("questions-not-utf8", ["relabel", "--train", "{work}/bad.txt"],
     _write_bytes("bad.txt", NOT_UTF8), 5),
    ("triples-two-fields", ["ingest-kb", "--triples", "{work}/bad.txt"],
     _write("bad.txt", "m/01\tr\tm/02\nm/03\tr\n"), 5),
    ("triples-empty-field", ["ingest-kb", "--triples", "{work}/bad.txt"],
     _write("bad.txt", "m/01\tr\tm/02\nm/03\tr\t \n"), 5),
    ("aliases-empty-entity", ["ingest-kb", "--aliases", "{work}/bad.txt"],
     _write("bad.txt", "m/01\tjohn\n \tsmith\n"), 5),
    ("questions-empty", ["relabel", "--train", "{work}/bad.txt"],
     _write("bad.txt", "m/01\tr\tm/02\twho\nm/01\tr\tm/02\t  \n"), 5),
    ("kb-key-overflow", ["ingest-kb"], _key_limit(8), 5),
    # an input path that is not a regular file, a workdir that is not a directory
    ("triples-a-directory", ["ingest-kb", "--triples", "{work}"], _keep, 4),
    ("questions-a-directory", ["relabel", "--train", "{work}"], _keep, 4),
    ("workdir-a-regular-file", ["stats", "--workdir", "{work}/afile"], _write("afile", "x"), 3),
    # dims whose arrays numpy refuses to allocate before it touches any memory
    # (hundreds of TiB); never a size the machine could try to fill
    ("transe-dim-unallocatable", ["pretrain-transe", "--transe-dim", "1000000000000"],
     _keep, 3),
    ("d-word-unallocatable", ["train", "--epochs", "1", "--d-word", "1000000000000"],
     _keep, 3),
    ("tagger-hidden-unallocatable", ["train-tagger", "--tagger-hidden", "1000000000000"],
     _keep, 3),
    # dims whose arrays pass numpy's size limit (2**63 bytes), which numpy refuses
    # with a ValueError before it allocates
    ("transe-dim-past-size-limit", ["pretrain-transe", "--transe-dim", "1000000000000000000"],
     _keep, 3),
    ("d-word-past-size-limit", ["train", "--epochs", "1", "--d-word", "1000000000000000000"],
     _keep, 3),
    ("tagger-d-word-past-size-limit",
     ["train-tagger", "--tagger-d-word", "1000000000000000000"], _keep, 3),
    # a workdir write that fails, as on a full disk
    ("ingest-disk-full", ["ingest-kb"], _disk_full, 3),
    # training divergence at the default learning rates: a loss turns NaN
    ("transe-diverges", ["pretrain-transe"], _nan_loss(transe_ops, "transe_batch", 1), 3),
    ("tagger-diverges", ["train-tagger"], _nan_loss(TaggerModel, "log_likelihood", 2), 3),
    ("model-diverges", ["train"], _nan_loss(KsaModel, "loss", 2), 3),
]


# what the stderr line says of a fault, {work} standing for the broken work
# directory; a fault in the input file bad.txt names the file
SAYS = {**{name: "{work}/bad.txt: line " for name in (
            "triples-not-utf8", "questions-not-utf8", "triples-two-fields",
            "triples-empty-field", "aliases-empty-entity", "questions-empty")},
        "model-tensor-nonfinite": "{work}/model.ckpt: tensor ksa.out.b is not finite",
        "model-table-nonfinite": "{work}/model.ckpt: tensor ksa.word_emb is not finite",
        "transe-multipage-last-nonfinite": "{work}/transe.ckpt: tensor wide is not finite",
        "transe-midpage-start-nonfinite": "{work}/transe.ckpt: tensor wide is not finite",
        "transe-subpage-nonfinite": "{work}/transe.ckpt: tensor tail is not finite",
        "model-ksaqa1-era": "checkpoint error: {work}/model.ckpt.json records no tensor table: "
                            "{work}/model.ckpt predates .npy checkpoints; rerun the stage that "
                            "trained it",
        **{name: "checkpoint error: {work}/kb.npz changed since ingest-kb wrote it; "
                 "rerun ingest-kb" for name in ("kb-truncated", "kb-old-layout", "kb-a-bare-array")},
        **{name: "checkpoint error: {work}/kb.npz was written by an older ingest-kb; "
                 "rerun ingest-kb" for name in ("kb-without-entity-order", "kb-with-entity-order")},
        "kb-manifest-absent":
            "missing artifact: {work}/kb.npz.json not found; run `ksaqa ingest-kb` first",
        "aliases-index-absent":
            "missing artifact: {work}/aliases.idx.npz not found; run `ksaqa ingest-kb` first",
        "aliases-index-of-other-rows": "checkpoint error: {work}/aliases.idx.npz does not "
                                       "index {work}/aliases.tsv; rerun ingest-kb",
        **{name: f"config error: {key}lr must lie in (0, 1], got 1e+30" for name, key in (
            ("lr-too-large", ""), ("transe-lr-too-large", "transe_"),
            ("tagger-lr-too-large", "tagger_"))},
        "transe-diverges": "training diverged; lower the learning rate: "
                           "transe epoch 1: batch loss is nan",
        "tagger-diverges": "training diverged; lower the learning rate: "
                           "tagger epoch 1, step 2: loss is nan",
        "model-diverges": "training diverged; lower the learning rate: epoch 1, step 2: loss is nan",
        **{name: "{work}/aliases.tsv changed since ingest-kb wrote it; rerun ingest-kb"
           for name in ("workdir-aliases-not-utf8", "workdir-aliases-one-field",
                        "workdir-aliases-unnormalized", "workdir-aliases-unstripped-id",
                        "workdir-aliases-repeated-row", "workdir-aliases-cut-off",
                        "workdir-aliases-out-of-order")},
        **{name: "{work}/train.jsonl changed since relabel wrote it; rerun relabel"
           for name in ("workdir-jsonl-cut-off", "workdir-jsonl-not-json",
                        "workdir-jsonl-gold-not-a-pair", "workdir-jsonl-no-mention-marker")},
        **{name: "{work}/vocab.txt changed since relabel wrote it; rerun relabel"
           for name in ("vocab-empty", "vocab-cut-off", "vocab-edited")},
        "transe-other-kb":
            "{work}/transe.ckpt.json records no relations_sha256, or a different relations",
        "attention-subject-unknown":
            "--subject 'nosuchentity' is not a candidate of the alias 'john smith'",
        "attention-subject-not-a-candidate":
            "--subject '03' is not a candidate of the alias 'john smith'",
        "foreign-vocabulary":
            "{work}/tagger.ckpt.json records no vocabulary_sha256, or a different vocabulary",
        "unknown-mention-model-unread": "no entity is known under the alias 'born'",
        "triples-a-directory": "missing input: triples path is not a regular file: {work}",
        "questions-a-directory": "missing input: train path is not a regular file: {work}",
        "workdir-a-regular-file": "config error: workdir is not a directory: {work}/afile",
        **{name: "cannot allocate; lower the model dims: Unable to allocate " for name in (
            "transe-dim-unallocatable", "d-word-unallocatable", "tagger-hidden-unallocatable")},
        "transe-dim-past-size-limit": "cannot allocate; lower the model dims: transe.entity of "
                                      "shape (13, 1000000000000000000) passes numpy's array size",
        "d-word-past-size-limit": "cannot allocate; lower the model dims: ksa.word_emb of shape (",
        "tagger-d-word-past-size-limit":
            "cannot allocate; lower the model dims: tagger.word_emb of shape (",
        "ingest-disk-full": "I/O error: [Errno 28] No space left on device: '{work}/kb.npz'"}


def _files(work):
    return {p.name: p.read_bytes() for p in work.iterdir()}


@pytest.mark.parametrize("name,argv,mutate,code", FAULTS, ids=[f[0] for f in FAULTS])
def test_fault_exits_with_one_line(pipeline, tmp_path, capsys, monkeypatch, name, argv, mutate,
                                   code):
    cfg, _, work = pipeline
    broken = tmp_path / "work"
    shutil.copytree(work, broken)
    mutate(broken, monkeypatch)
    before = _files(broken)
    argv = [a.format(work=broken) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv[:1] + ["--config", str(cfg), "--workdir", str(broken)] + argv[1:])
    err = capsys.readouterr().err
    assert rc == code, err
    assert not caught, [str(w.message) for w in caught]
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    if name in SAYS:
        assert SAYS[name].format(work=broken) in err, err
    # a refused or failed run leaves every workdir file as it was, and no temp file
    assert _files(broken) == before


def test_a_transe_ckpt_of_another_kb_is_not_read_under_no_transe_init(pipeline, tmp_path,
                                                                      capsys):
    cfg, _, work = pipeline
    broken = tmp_path / "work"
    shutil.copytree(work, broken)
    _renamed_relations_kb(broken, None)
    assert main(["train", "--config", str(cfg), "--workdir", str(broken), "--epochs", "1",
                 "--no-transe-init"]) == 0
    assert "random init (--no-transe-init)" in capsys.readouterr().out


def test_train_names_the_positives_a_re_ingested_kb_does_not_hold(pipeline, tmp_path, capsys):
    """ingest-kb rerun on the triples with people/person/* renamed, then
    pretrain-transe and train: the split relabeled against the old KB keeps
    positives that kb.npz no longer holds, and train says so in one line."""
    cfg, data, work = pipeline
    broken = tmp_path / "work"
    shutil.copytree(work, broken)
    renamed = tmp_path / "triples.txt"
    renamed.write_text((data / "triples.txt").read_text().replace("/people/person/",
                                                                  "/people/human/"))
    common = ["--config", str(cfg), "--workdir", str(broken)]
    assert main(["ingest-kb", *common, "--triples", str(renamed)]) == 0
    assert main(["pretrain-transe", *common]) == 0
    capsys.readouterr()
    assert main(["train", *common, "--epochs", "1"]) == 0
    said = [line for line in capsys.readouterr().out.splitlines() if "kb.npz" in line]
    assert said == ["4 training positives name a fact kb.npz does not hold "
                    "(first: 01 people/person/place_of_birth); rerun relabel if kb.npz changed"]


def test_train_names_the_positives_of_a_subject_a_re_ingested_kb_renamed(pipeline, tmp_path,
                                                                         capsys):
    """ingest-kb rerun on the triples with subject m/01 renamed m/01x: every
    relation is still known, but the split's positives about 01 name facts
    kb.npz no longer holds, and train says so in one line."""
    cfg, data, work = pipeline
    broken = tmp_path / "work"
    shutil.copytree(work, broken)
    renamed = tmp_path / "triples.txt"
    renamed.write_text((data / "triples.txt").read_text().replace(f"{EPREFIX}01\t",
                                                                  f"{EPREFIX}01x\t"))
    common = ["--config", str(cfg), "--workdir", str(broken)]
    assert main(["ingest-kb", *common, "--triples", str(renamed)]) == 0
    assert main(["pretrain-transe", *common]) == 0
    capsys.readouterr()
    assert main(["train", *common, "--epochs", "1"]) == 0
    said = [line for line in capsys.readouterr().out.splitlines() if "kb.npz" in line]
    assert said == ["3 training positives name a fact kb.npz does not hold "
                    "(first: 01 book/author/works_written); rerun relabel if kb.npz changed"]


def test_training_stages_do_not_read_aliases(pipeline, tmp_path, capsys):
    cfg, _, work = pipeline
    broken = tmp_path / "work"
    shutil.copytree(work, broken)
    (broken / "aliases.tsv").write_bytes(b"01\tjohn smith\n" + NOT_UTF8)
    common = ["--config", str(cfg), "--workdir", str(broken)]
    assert main(["pretrain-transe"] + common + ["--transe-epochs", "1"]) == 0
    assert main(["train"] + common + ["--epochs", "1"]) == 0
    capsys.readouterr()
    assert main(["predict"] + common + PREDICT[1:]) == 8
    err = capsys.readouterr().err
    assert f"{broken}/aliases.tsv changed since ingest-kb wrote it; rerun ingest-kb" in err, err


# -- flags: each sets the config key (or argument) it set before the flags ----
# -- were derived from the config fields -------------------------------------

SUBCOMMANDS = ("ingest-kb", "relabel", "stats", "pretrain-transe", "train-tagger",
               "train", "eval", "predict", "attention", "answer")
REQUIRED = {"predict": ["--question", "q"], "attention": ["--question", "q"], "answer": ["q"]}

# (subcommand, flag and value, config key or argument name, expected value):
# every flag of the hand-written parser but `train --full`, which did nothing
FLAGS = [(sub, flag, key, want) for sub in SUBCOMMANDS for flag, key, want in (
    (["--workdir", "w2"], "workdir", "w2"), (["--seed", "7"], "seed", 7),
    (["--config", "{cfg}"], "config", "{cfg}"))]
FLAGS += [(sub, flag, key, want) for sub, flag, key, want in (
    ("ingest-kb", ["--triples", "t.txt"], "kb_triples", "t.txt"),
    ("ingest-kb", ["--aliases", "a.txt"], "kb_aliases", "a.txt"),
    ("ingest-kb", ["--full"], "full", True),
    ("relabel", ["--train", "tr.txt"], "train_file", "tr.txt"),
    ("relabel", ["--valid", "va.txt"], "valid_file", "va.txt"),
    ("relabel", ["--test", "te.txt"], "test_file", "te.txt"),
    ("relabel", ["--pattern-splits", "train,valid"], "pattern_splits", "train,valid"),
    ("relabel", ["--min-count", "3"], "min_count", 3),
    ("relabel", ["--full"], "full", True),
    ("pretrain-transe", ["--transe-dim", "8"], "transe_dim", 8),
    ("pretrain-transe", ["--transe-margin", "2.5"], "transe_margin", 2.5),
    ("pretrain-transe", ["--transe-norm", "l1"], "transe_norm", "l1"),
    ("pretrain-transe", ["--transe-lr", "0.5"], "transe_lr", 0.5),
    ("pretrain-transe", ["--transe-epochs", "3"], "transe_epochs", 3),
    ("pretrain-transe", ["--transe-batch-size", "16"], "transe_batch_size", 16),
    ("train-tagger", ["--tagger-d-word", "8"], "tagger_d_word", 8),
    ("train-tagger", ["--tagger-hidden", "6"], "tagger_hidden", 6),
    ("train-tagger", ["--tagger-lr", "0.5"], "tagger_lr", 0.5),
    ("train-tagger", ["--tagger-epochs", "3"], "tagger_epochs", 3),
    ("train-tagger", ["--tagger-patience", "2"], "tagger_patience", 2),
    ("train", ["--variant", "BiGRU"], "variant", "BiGRU"),
    ("train", ["--d-word", "8"], "d_word", 8),
    ("train", ["--d-rel", "6"], "d_rel", 6),
    ("train", ["--d-hidden", "5"], "d_hidden", 5),
    ("train", ["--attention-hidden", "4"], "attention_hidden", 4),
    ("train", ["--dropout", "0.25"], "dropout", 0.25),
    ("train", ["--lambda", "0.3"], "lam", 0.3),
    ("train", ["--negatives", "2"], "negatives_per_positive", 2),
    ("train", ["--lr", "0.5"], "lr", 0.5),
    ("train", ["--epochs", "3"], "epochs", 3),
    ("train", ["--batch-size", "16"], "batch_size", 16),
    ("train", ["--shuffle-augment"], "shuffle_augment", True),
    ("train", ["--no-shuffle-augment"], "shuffle_augment", False),
    ("train", ["--no-transe-init"], "no_transe_init", True),
    ("eval", ["--split", "valid"], "split", "valid"),
    ("eval", ["--gold-spans"], "gold_spans", True),
    ("eval", ["--no-gold-spans"], "gold_spans", False),
    ("eval", ["--skip-detection-failures"], "skip_detection_failures", True),
    ("eval", ["--no-skip-detection-failures"], "skip_detection_failures", False),
    ("eval", ["--lambda", "0.3"], "lam", 0.3),
    ("eval", ["--baseline"], "baseline", True),
    ("predict", ["--question", "who"], "question", "who"),
    ("predict", ["--mention", "john"], "mention", "john"),
    ("predict", ["--lambda", "0.3"], "lam", 0.3),
    ("attention", ["--question", "who"], "question", "who"),
    ("attention", ["--mention", "john"], "mention", "john"),
    ("attention", ["--lambda", "0.3"], "lam", 0.3),
    ("attention", ["--subject", "01"], "subject", "01"),
    ("answer", ["who"], "question", "who"),
    ("answer", ["--non-interactive"], "non_interactive", True),
    ("answer", ["--mention", "john"], "mention", "john"),
    ("answer", ["--lambda", "0.3"], "lam", 0.3))]


@pytest.fixture
def resolved(tmp_path, monkeypatch):
    """Run ``main`` with the subcommand stubbed; returns the (args, config) it got."""
    seen = []
    for sub in SUBCOMMANDS:
        monkeypatch.setattr(cli, "cmd_" + sub.replace("-", "_"),
                            lambda args, cfg: seen.append((args, cfg)) or 0)

    def run(argv):
        assert main(argv) == 0
        return seen.pop()

    return run, tmp_path / "base.cfg"


@pytest.mark.parametrize("sub,flag,key,want", FLAGS, ids=[f"{f[0]} {f[1][0]}" for f in FLAGS])
def test_flag_sets_the_same_key(resolved, sub, flag, key, want):
    run, base = resolved
    # a --no- flag must undo a value that the config file turned on
    base.write_text("".join(f"{k} = yes\n" for k, kind in KEYS.items() if kind is bool))
    flag = [a.format(cfg=base) for a in flag]
    want = want.format(cfg=base) if isinstance(want, str) else want
    argv = flag if flag[0] in ("--question", "who") else flag + REQUIRED.get(sub, [])
    if flag[0].startswith("--no-"):
        argv = ["--config", str(base)] + argv
    args, cfg = run([sub] + argv)
    got = getattr(cfg, key) if key in KEYS else getattr(args, key)
    assert got == want and type(got) is type(want)


def test_every_config_key_has_its_flag():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    named = {a.dest for parser in subs.choices.values() for a in parser._actions
             if "--" + a.dest.replace("_", "-") in a.option_strings}
    assert set(KEYS) <= named


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_backend_flag_is_gone(capsys, sub):
    """There is one kernel lane; no subcommand takes --backend."""
    with pytest.raises(SystemExit) as exc:
        main([sub, "--backend", "numpy"] + REQUIRED.get(sub, []))
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


def _parsed(parser, argv, capsys):
    """(namespace or exit code, stdout, stderr) of ``parser`` on ``argv``."""
    try:
        got = vars(parser.parse_args(argv))
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr()
    return got, out.out, out.err


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_one_subcommand_parser_reads_as_the_full_one(monkeypatch, capsys, sub):
    """``build_parser(sub)`` gives the full parser's namespace, exit code and
    text on every argument list that starts with ``sub``."""
    monkeypatch.setenv("COLUMNS", "80")
    required = REQUIRED.get(sub, [])
    cases = [["-h"], ["--help"], [], ["--no-such-flag"], ["--seed"], ["--seed", "x"],
             ["--workdir"], ["--lambda", "x"], ["--split", "bogus"], ["--split", "valid"],
             ["extra"], ["--config"], ["--full", "x"]]
    keys = [a.dest for a in next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices[sub]._actions if a.dest in KEYS]
    for key in keys:
        flag = key.replace("_", "-")
        cases += [[f"--{flag}"], [f"--no-{flag}"], [f"--{flag}", "1"]]
    assert len(keys) >= 2
    for case in cases:
        for argv in ([sub] + case, [sub] + case + required):
            want = _parsed(build_parser(), argv, capsys)
            assert _parsed(build_parser(sub), argv, capsys) == want, argv


@pytest.mark.parametrize("argv", [["stats"], ["predict", "--question", "q"], ["answer", "-h"],
                                  ["-h"], ["bogus"], [], ["--", "stats"]])
def test_main_builds_only_the_parser_it_runs(monkeypatch, capsys, argv):
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    for sub in SUBCOMMANDS:
        monkeypatch.setattr(cli, "cmd_" + sub.replace("-", "_"), lambda args, cfg: 0)
    try:
        main(argv)
    except SystemExit:
        pass
    assert built == ([argv[0]] if argv and argv[0] in SUBCOMMANDS else list(SUBCOMMANDS))


def test_main_runs_the_handler_bound_when_it_is_called(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_predict", lambda args, cfg: seen.append(args.question) or 5)
    assert main(["predict", "--question", "who wrote it"]) == 5
    assert seen == ["who wrote it"]


# -- paths of the wrong kind ----------------------------------------------------

# the flags of the input paths each stage reads
PATH_FLAGS = {"ingest-kb": {"--triples": "triples", "--aliases": "aliases"},
              "relabel": {"--train": "train", "--valid": "valid", "--test": "test"}}


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_a_path_of_the_wrong_kind_ends_in_one_line(pipeline, tmp_path, capsys, sub):
    """Each input path a stage reads, given a directory, exits 4; a workdir
    that is a regular file exits 3, at every stage."""
    cfg, _, work = pipeline
    broken = tmp_path / "work"
    shutil.copytree(work, broken)
    before = _files(broken)
    common = [sub, "--config", str(cfg), "--workdir", str(broken)] + REQUIRED.get(sub, [])
    for flag, what in PATH_FLAGS.get(sub, {}).items():
        assert main(common + [flag, str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err == f"missing input: {what} path is not a regular file: {tmp_path}\n", err
    afile = tmp_path / "afile"
    afile.write_text("x")
    assert main(common + ["--workdir", str(afile)]) == 3
    err = capsys.readouterr().err
    assert err == f"config error: workdir is not a directory: {afile}\n", err
    assert main(common + ["--workdir", str(afile / "sub")]) == 3
    assert capsys.readouterr().err == f"config error: workdir is not a directory: {afile}/sub\n"
    assert _files(broken) == before and afile.read_text() == "x"
