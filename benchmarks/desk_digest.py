"""Run the seeded 68-command DESK script and print a digest of everything it leaves.

The world is perfbench's ``generate(SEED, DESK)`` with question splits of
100/20/60, desk dims, dropout 0.3, ``shuffle_augment``, 2 predictor epochs,
3 tagger epochs and 1 TransE epoch.  The script is 68 ``python -m ksaqa.cli``
commands, each in its own process:

* ``ingest-kb``, ``relabel``, ``pretrain-transe``, ``train-tagger``, ``train``;
* ``eval --baseline`` (tagger mode), ``eval --gold-spans`` and
  ``eval --split valid --skip-detection-failures``;
* on each of the first 10 test questions: ``predict`` and ``attention``, each
  with and without ``--mention``, ``answer --non-interactive``, and
  ``answer --mention`` with "1" on stdin.

For every command it prints the exit code and the SHA-256 of its stdout and
its stderr (the root path replaced by ``<root>``), then the SHA-256 of every
workdir file.  Two runs on the same seed agree line for line exactly when the
program's outputs are byte-identical, so diffing the digests of two checkouts
is a byte-identity check:

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/desk_digest.py 7 /tmp/desk --src ../parent/src > a
    OPENBLAS_NUM_THREADS=1 python3 benchmarks/desk_digest.py 7 /tmp/desk > b
    diff a b

``ROOT`` is emptied first; it holds the corpus (``data/``), the config and
the workdir (``work/``).  ``--src`` picks the ``ksaqa`` sources to run; by
default those of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import world as W  # noqa: E402

SPLITS = {"train": 100, "valid": 20, "test": 60}
CONFIG = {"d_word": 64, "d_rel": 32, "d_hidden": 32, "attention_hidden": 48,
          "dropout": 0.3, "shuffle_augment": "true", "epochs": 2, "transe_dim": 32,
          "transe_epochs": 1, "tagger_d_word": 64, "tagger_hidden": 32, "tagger_epochs": 3}
QUESTIONS = 10


def write_inputs(seed: int, root: Path) -> tuple[Path, list]:
    """(config path, test questions) of the seeded desk world under ``root``."""
    world = W.generate(seed, W.DESK)
    splits = {split: W.make_questions(world, seed, n, stream=s)
              for s, (split, n) in enumerate(SPLITS.items())}
    paths = W.write_corpus(world, splits, root / "data")
    keys = {"kb_triples": paths["triples"], "kb_aliases": paths["aliases"],
            "train_file": paths["train"], "valid_file": paths["valid"],
            "test_file": paths["test"], "seed": seed, **CONFIG}
    config = root / "pipeline.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return config, splits["test"]


def commands(test_questions) -> list[tuple[list[str], str]]:
    """(CLI arguments, stdin) of the 68 commands, in order."""
    cmds = [([stage], "") for stage in ("ingest-kb", "relabel", "pretrain-transe",
                                        "train-tagger", "train")]
    cmds += [(["eval", "--baseline"], ""), (["eval", "--gold-spans"], ""),
             (["eval", "--split", "valid", "--skip-detection-failures"], "")]
    for q in test_questions[:QUESTIONS]:
        mention = ["--mention", q.mention]
        cmds += [(["predict", "--question", q.text], ""),
                 (["predict", "--question", q.text, *mention], ""),
                 (["attention", "--question", q.text], ""),
                 (["attention", "--question", q.text, *mention], ""),
                 (["answer", q.text, "--non-interactive"], ""),
                 (["answer", q.text, *mention], "1\n")]
    return cmds


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("root", type=Path)
    parser.add_argument("--src", type=Path, default=HERE.parent / "src")
    args = parser.parse_args()
    root = args.root.resolve()
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    config, test_questions = write_inputs(args.seed, root)
    work = root / "work"
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    for i, (argv, stdin) in enumerate(commands(test_questions), start=1):
        run = subprocess.run(
            [sys.executable, "-m", "ksaqa.cli", *argv, "--config", str(config),
             "--workdir", str(work)],
            input=stdin.encode(), capture_output=True, env=env)
        out, err = (s.replace(str(root).encode(), b"<root>") for s in (run.stdout, run.stderr))
        print(f"{i:2d} exit {run.returncode} stdout {sha(out)[:16]} stderr {sha(err)[:16]}  "
              + " ".join(argv))
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            print(f"   {sha(path.read_bytes())[:16]}  {path.relative_to(work)}")


if __name__ == "__main__":
    main()
