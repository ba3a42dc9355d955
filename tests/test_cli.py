"""End-to-end CLI tests on the micro world: artifacts, reruns, exit codes.

One module-scoped fixture drives the full pipeline (ingest -> relabel ->
pretrain -> tag -> train) into a shared work directory; the tests then
exercise the read-only subcommands and the documented exit codes against it.
"""

import argparse
import io
import json
import shutil
import warnings

import pytest

from ksaqa import cli, kernels
from ksaqa.checkpoint import load_arrays, save_arrays
from ksaqa.cli import build_parser, main
from ksaqa.config import KEYS

CFG_TEMPLATE = """
kb_triples = {data}/triples.txt
kb_aliases = {data}/aliases.txt
train_file = {data}/train.txt
valid_file = {data}/valid.txt
test_file  = {data}/test.txt
workdir    = {work}

seed = 0
dropout = 0.0
d_word = 16
d_rel = 12
d_hidden = 10
attention_hidden = 8
lr = 0.05
epochs = 10
batch_size = 8

transe_dim = 12
transe_epochs = 10
transe_batch_size = 4
transe_lr = 0.05

tagger_d_word = 12
tagger_hidden = 8
tagger_lr = 0.02
tagger_epochs = 40
tagger_patience = 40
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, micro_raw):
    """Run every build stage once; returns (cfg_path, data_dir, work_dir)."""
    root = tmp_path_factory.mktemp("cli")
    data, work = root / "data", root / "work"
    data.mkdir()
    (data / "triples.txt").write_text("".join(micro_raw.triple_lines))
    (data / "aliases.txt").write_text("".join(micro_raw.alias_lines))
    (data / "train.txt").write_text("".join(micro_raw.question_lines))
    (data / "valid.txt").write_text("".join(micro_raw.question_lines[:4]))
    (data / "test.txt").write_text("".join(micro_raw.question_lines[4:]))
    cfg = root / "pipeline.cfg"
    cfg.write_text(CFG_TEMPLATE.format(data=data, work=work))
    for argv in (["ingest-kb"], ["relabel"], ["pretrain-transe"],
                 ["train-tagger"], ["train"]):
        assert main(argv + ["--config", str(cfg)]) == 0, argv
    return cfg, data, work


def test_pipeline_writes_every_artifact(pipeline):
    _, _, work = pipeline
    for name in ("kb.npz", "aliases.tsv", "vocab.txt",
                 "train.jsonl", "valid.jsonl", "test.jsonl",
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


def test_bad_backend_exits_3(pipeline, capsys):
    cfg, _, _ = pipeline
    assert main(["stats", "--config", str(cfg), "--backend", "cuda"]) == 3
    assert "cuda" in capsys.readouterr().err


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


def _write(name, text):
    return lambda work: (work / name).write_text(text)


def _delete(name):
    return lambda work: (work / name).unlink()


def _edit_tensors(name, edit):
    def mutate(work):
        arrays = load_arrays(work / name)
        edit(arrays)
        save_arrays(work / name, arrays)
    return mutate


def _edit_manifest(name, edit):
    def mutate(work):
        manifest = json.loads((work / name).read_text())
        edit(manifest)
        (work / name).write_text(json.dumps(manifest))
    return mutate


def _truncate(name):
    def mutate(work):
        blob = (work / name).read_bytes()
        (work / name).write_bytes(blob[: len(blob) // 2])
    return mutate


def _keep(work):
    pass


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
    ("foreign-vocabulary", PREDICT,
     lambda work: (work / "vocab.txt").write_text((work / "vocab.txt").read_text() + "extra\n"), 8),
    # other corrupt artifacts
    ("kb-truncated", ["stats"], _truncate("kb.npz"), 8),
    ("vocab-empty", PREDICT, _write("vocab.txt", ""), 8),
    # a checkpoint without its manifest
    ("model-manifest-absent", PREDICT, _delete("model.ckpt.json"), 6),
    ("tagger-manifest-absent", PREDICT, _delete("tagger.ckpt.json"), 6),
    ("transe-manifest-absent", ["train", "--epochs", "1"], _delete("transe.ckpt.json"), 6),
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
    # a kernel lane that is not installed, or not a lane at all
    ("absent-numba-backend", ["stats", "--backend", "numba"], _keep, 3),
    ("config-backend", ["stats", "--config", "{work}/backend.cfg"],
     _write("backend.cfg", "backend = bogus\n"), 3),
    # a manifest from before question_layers was removed
    ("manifest-question-layers", PREDICT,
     _edit_manifest("model.ckpt.json", lambda m: m["config"].update(question_layers=2)), 8),
    # training divergence
    ("transe-diverges", ["pretrain-transe", "--transe-lr", "1e300"], _keep, 3),
    ("tagger-diverges", ["train-tagger", "--tagger-lr", "1e30"], _keep, 3),
]


@pytest.mark.parametrize("argv,mutate,code", [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_fault_exits_with_one_line(pipeline, tmp_path, capsys, argv, mutate, code):
    if "numba" in argv and kernels.HAVE_NUMBA:
        pytest.skip("numba is installed")
    cfg, _, work = pipeline
    broken = tmp_path / "work"
    shutil.copytree(work, broken)
    mutate(broken)
    before = {p.name: p.read_bytes() for p in broken.glob("*.ckpt*")}
    argv = [a.format(work=broken) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv[:1] + ["--config", str(cfg), "--workdir", str(broken)] + argv[1:])
    err = capsys.readouterr().err
    assert rc == code, err
    assert not caught, [str(w.message) for w in caught]
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    # a refused or failed run leaves every checkpoint as it was, and no temp file
    assert {p.name: p.read_bytes() for p in broken.glob("*.ckpt*")} == before


# -- flags: each sets the config key (or argument) it set before the flags ----
# -- were derived from the config fields -------------------------------------

SUBCOMMANDS = ("ingest-kb", "relabel", "stats", "pretrain-transe", "train-tagger",
               "train", "eval", "predict", "attention", "answer")
REQUIRED = {"predict": ["--question", "q"], "attention": ["--question", "q"], "answer": ["q"]}

# (subcommand, flag and value, config key or argument name, expected value):
# every flag of the hand-written parser but `train --full`, which did nothing
FLAGS = [(sub, flag, key, want) for sub in SUBCOMMANDS for flag, key, want in (
    (["--workdir", "w2"], "workdir", "w2"), (["--seed", "7"], "seed", 7),
    (["--backend", "numpy"], "backend", "numpy"), (["--config", "{cfg}"], "config", "{cfg}"))]
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
    previous = kernels.active_backend()

    def run(argv):
        assert main(argv) == 0
        return seen.pop()

    yield run, tmp_path / "base.cfg"
    kernels.set_backend(previous)


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
