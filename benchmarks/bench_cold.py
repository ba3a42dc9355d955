"""Time each stage of a cold ``ksaqa predict --mention`` in-process.

The world is perfbench's ask-paper world for SEED: ``generate(SEED, PAPER)``,
a fresh KSA-BiGRU at the paper dims (d_word 500, d_rel 300, d_hidden 300,
attention 650) with its weights rounded to float32, and its artifacts
(``kb.npz``, ``aliases.tsv``, ``vocab.txt``, ``model.ckpt``) written once to
a temporary workdir.  Then the stages of a cold predict of one of the
world's questions are timed in turn, REPEATS times each, and the median of
each is printed in ms:

* parser: building the parser ``cli.main`` builds for predict,
  ``cli.build_parser("predict")``, and parsing the predict arguments (with
  ``--src`` sources whose ``build_parser`` takes no argument, it builds
  ``cli.build_parser()``, every subcommand's parser, as their ``main`` does);
* kb, aliases, vocab, model: ``KnowledgeBase.load``, ``AliasTable.load``,
  ``Vocabulary.load`` and ``KsaModel.load``;
* score: the alias lookup and ``score_pairs`` of the question.

Before the timing, the process's first ``KsaModel.load`` plus one score is
run on its own, and a line gives the resident MB it adds: VmRSS from
``/proc/self/status`` before and after, split into RssAnon (the widened
copies; heap that the set-up freed is reused, so this can fall short of the
bytes they hold) and RssFile (the checkpoint pages left mapped in), then the
process's peak RSS so far (``ru_maxrss``).  The sizes of the artifacts
follow the table.  ``--src`` picks the ``ksaqa`` sources to build and load
with (by default this checkout's), so that a parent checkout can be timed
on the same host.  Run with BLAS on one thread, as perfbench pins it:

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench_cold.py 1
    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench_cold.py 1 --src ../parent/src

With ``--entities N`` it builds no model and times only the kb and aliases
stages, at a scale no perfbench world reaches.  A forked child writes a
synthetic ``kb.npz`` and ``aliases.tsv`` in the sources' own layout, through
``KnowledgeBase.save`` and ``AliasTable.save``, so the child's peak stays out
of this process's ``ru_maxrss``:

* N entities named ``0`` plus six hex digits, and 6,701 relations;
* N * 14,180,937 / 2,150,604 triples (FB2M's ratio, about 6.6 per entity)
  drawn uniformly from SEED, duplicates dropped;
* one alias row per entity and a second for every third (4/3 rows per
  entity), each alias two words of a 30,000-word vocabulary.

Each stage is timed REPEATS times, dropping the last load before the next,
and the medians are printed with the process's VmRSS before the loads and
its ``ru_maxrss`` after them.  Then, on the loaded tables, the medians of
REPEATS lookups of one question's worth, in µs: ``entity_id`` plus
``subgraph_relations`` of the middle entity, ``entities_for_alias`` of its
first alias, and ``aliases_of`` of it.  Last comes the floor under each
stage: the median ms to read and SHA-256 each sealed file (one with a
``<name>.json`` manifest) beside its size:

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench_cold.py 1 --entities 2150604

This is a diagnostic, not the benchmark: ask-paper's ``cold_ms`` in
``perfbench/`` times whole cold ``predict`` calls.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import multiprocessing
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
STAGES = ("parser", "kb", "aliases", "vocab", "model", "score")
PAPER_DIMS = dict(d_word=500, d_rel=300, d_hidden=300, attention_hidden=650)
REPEATS = 15
FB2M_ENTITIES, FB2M_RELATIONS, FB2M_TRIPLES = 2_150_604, 6_701, 14_180_937


def resident_mb() -> dict[str, float]:
    """This process's resident set now, in MB, from /proc/self/status: all of
    it (VmRSS), its heap and other anonymous pages (RssAnon) and its mapped
    file pages (RssFile)."""
    fields = dict(line.split(":", 1) for line in
                  Path("/proc/self/status").read_text().splitlines() if ":" in line)
    return {key: int(fields[key].split()[0]) / 1024 for key in ("VmRSS", "RssAnon", "RssFile")}


def write_synthetic(work: Path, seed: int, n: int) -> None:
    """Save the synthetic ``kb.npz`` and ``aliases.tsv`` of the module docstring."""
    from ksaqa.kb import AliasTable, KnowledgeBase

    rng = np.random.default_rng(seed)
    entities = [f"0{i:06x}" for i in range(n)]
    relations = sorted(f"domain{k % 97}/type{k % 701}/relation{k}" for k in range(FB2M_RELATIONS))
    size = round(n * FB2M_TRIPLES / FB2M_ENTITIES)
    keys = np.sort((rng.integers(0, n, size) * FB2M_RELATIONS
                    + rng.integers(0, FB2M_RELATIONS, size)) * n + rng.integers(0, n, size))
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    KnowledgeBase(entities, relations, keys).save(work / "kb.npz")
    letters = rng.integers(ord("a"), ord("z") + 1, (30_000, 8)).astype(np.uint8)
    words = [row.tobytes().decode()[: 3 + i % 6] for i, row in enumerate(letters)]
    rows = [i for i in range(n) for _ in range(1 + (i % 3 == 0))]
    pick = rng.integers(0, len(words), (len(rows), 2))
    AliasTable([entities[i] for i in rows],
               [f"{words[a]} {words[b]}" for a, b in pick.tolist()]).save(work / "aliases.tsv")


def time_synthetic(seed: int, n: int) -> None:
    """Time the kb and aliases stages on the synthetic world of ``n`` entities."""
    from ksaqa.kb import AliasTable, KnowledgeBase

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        child = multiprocessing.get_context("fork").Process(
            target=write_synthetic, args=(work, seed, n))
        child.start()
        child.join()
        if child.exitcode != 0:
            sys.exit(f"bench_cold: writing the synthetic world exited {child.exitcode}")
        stages = {"kb": lambda: KnowledgeBase.load(work / "kb.npz"),
                  "aliases": lambda: AliasTable.load(work / "aliases.tsv")}
        gc.collect()
        before = resident_mb()["VmRSS"]
        times = {name: [] for name in stages}
        for _ in range(REPEATS):
            for name, load in stages.items():
                t0 = time.perf_counter()
                loaded = load()
                times[name].append(time.perf_counter() - t0)
                del loaded
        print(f"# kb and aliases stages, {n} entities, seed {seed}, "
              f"median of {REPEATS} (ms)")
        for name in stages:
            print(f"{name:8s} {statistics.median(times[name]) * 1e3:10.2f}")
        print(f"# VmRSS before the loads {before:.1f} MB; ru_maxrss "
              f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
        kb, aliases = (load() for load in stages.values())
        entity = f"0{n // 2:06x}"
        alias = aliases.aliases_of(entity)[0]
        lookups = {"entity_id + subgraph_relations":
                   lambda: kb.subgraph_relations(kb.entity_id(entity)),
                   "entities_for_alias": lambda: aliases.entities_for_alias(alias),
                   "aliases_of": lambda: aliases.aliases_of(entity)}
        print(f"# one lookup on the loaded tables, median of {REPEATS} (us)")
        for name, lookup in lookups.items():
            print(f"{name:32s} {median_s(lookup) * 1e6:10.1f}")
        print(f"# read + SHA-256 of each sealed file, median of {REPEATS} (ms)")
        for path in sorted(work.iterdir()):
            floor = ""
            if path.with_name(path.name + ".json").exists():
                ms = median_s(lambda: hashlib.sha256(path.read_bytes()).hexdigest()) * 1e3
                floor = f", read + SHA-256 {ms:.2f} ms"
            print(f"# {path.name} {path.stat().st_size} bytes{floor}")


def median_s(call) -> float:
    """The median seconds of REPEATS calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("--src", type=Path, default=HERE.parent / "src")
    parser.add_argument("--entities", type=int, default=None,
                        help="time only the kb and aliases stages on a synthetic KB "
                             "of this many entities")
    args = parser.parse_args()
    sys.path[:0] = [str(args.src.resolve()), str(HERE.parent / "perfbench")]
    if args.entities is not None:
        time_synthetic(args.seed, args.entities)
        return

    import world as W
    from ksaqa import cli
    from ksaqa.dataset import Vocabulary, build_vocabulary, find_span, span_to_formatted
    from ksaqa.kb import AliasTable, KnowledgeBase, ingest_aliases, ingest_triples, tokenize
    from ksaqa.model import KsaModel, ModelConfig

    world = W.generate(args.seed, W.PAPER)
    question = W.make_questions(world, args.seed, 1, stream=0)[0]
    kb = ingest_triples(world.triple_lines())
    vocab = build_vocabulary([world.vocabulary])
    model = KsaModel(vocab, kb.relations, ModelConfig(seed=args.seed, **PAPER_DIMS))
    for p in model.parameters():
        p.data = p.data.astype(np.float32).astype(np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        kb.save(work / "kb.npz")
        ingest_aliases(world.alias_lines()).save(work / "aliases.tsv")
        vocab.save(work / "vocab.txt")
        model.save(work / "model.ckpt")
        del kb, vocab, model
        argv = ["predict", "--workdir", str(work), "--question", question.text,
                "--mention", question.mention]
        loaded = {}
        one = ("predict",) if inspect.signature(cli.build_parser).parameters else ()

        tokens = tokenize(question.text)
        fq = span_to_formatted(tokens, find_span(tokens, tokenize(question.mention)))

        def score():
            candidates = loaded["aliases"].entities_for_alias(fq.mention_text)
            return loaded["model"].score_pairs(fq.tokens, candidates, loaded["kb"])

        stages = {
            "parser": lambda: cli.build_parser(*one).parse_args(argv),
            "kb": lambda: KnowledgeBase.load(work / "kb.npz"),
            "aliases": lambda: AliasTable.load(work / "aliases.tsv"),
            "vocab": lambda: Vocabulary.load(work / "vocab.txt"),
            "model": lambda: KsaModel.load(work / "model.ckpt", loaded["vocab"],
                                           loaded["kb"].relations),
            "score": score,
        }
        for name in ("kb", "aliases", "vocab"):
            loaded[name] = stages[name]()
        gc.collect()
        before = resident_mb()
        loaded["model"] = stages["model"]()
        score()
        after = resident_mb()
        print("# first model load + score: resident " + ", ".join(
            f"{key} +{after[key] - before[key]:.1f}" for key in before) + " MB (VmRSS "
            f"{before['VmRSS']:.1f} -> {after['VmRSS']:.1f}); ru_maxrss "
            f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
        times = {name: [] for name in STAGES}
        for _ in range(REPEATS):
            for name in STAGES:
                t0 = time.perf_counter()
                loaded[name] = stages[name]()
                times[name].append(time.perf_counter() - t0)
        print(f"# cold stages, seed {args.seed}, src {args.src.resolve()}, "
              f"median of {REPEATS} (ms)")
        for name in STAGES:
            print(f"{name:8s} {statistics.median(times[name]) * 1e3:8.2f}")
        total = sum(statistics.median(times[name]) for name in STAGES)
        print(f"{'total':8s} {total * 1e3:8.2f}")
        for path in sorted(work.iterdir()):
            print(f"# {path.name} {path.stat().st_size} bytes")


if __name__ == "__main__":
    main()
