"""The benchmark's two workloads and the closed loop that measures them.

Every workload is one client in a closed loop: it sends its next request
when the previous one has finished, because a user (or a training loop)
waits for each result.  A run sets up several times and reports the median,
measures requests until ``--seconds`` have passed and checks outputs.  It
also times several in-process ``ksaqa predict --mention`` calls on the
artifacts the workload wrote, spread over the measured window between
requests, and reports their median.

* ask-paper     request = one question: alias lookup -> score_pairs -> lambda;
                p50_ms is the median over several hundred questions a run
* pipeline-desk request = one pass of the CLI: ingest-kb, relabel,
                pretrain-transe, train-tagger, train, eval (tagger mode); a
                run holds about ten passes, so p50_ms is the sum of the
                per-stage medians
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from ksaqa.cli import main as cli_main
from ksaqa.dataset import build_vocabulary
from ksaqa.kb import ingest_aliases, ingest_triples, tokenize
from ksaqa.model import KsaModel, ModelConfig
from ksaqa.tagger import span_to_formatted

import oracle
import world as W

REFERENCE_TOL = 1e-9      # scores vs the first serving and vs the oracle
PRINT_TOL = 6e-5          # `predict` prints probabilities with 4 decimals
LAMBDA = 0.5              # the pipeline config's default threshold, used by `predict`
ORACLE_QUESTIONS = 6

PAPER_DIMS = dict(d_word=500, d_rel=300, d_hidden=300, attention_hidden=650)
DESK_DIMS = dict(d_word=64, d_rel=32, d_hidden=32, attention_hidden=48)
TINY_DIMS = dict(d_word=16, d_rel=12, d_hidden=10, attention_hidden=8)


def _quiet(fn, *args):
    """Call ``fn`` with stdout and stderr captured; returns (result, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue() + err.getvalue()


def _f32(model) -> None:
    """Round weights to float32, so that the saved checkpoint reloads them
    bit-exactly and cold and warm scores agree."""
    for p in model.parameters():
        p.data = p.data.astype(np.float32).astype(np.float64)


def mention_span(tokens: list[str], mention: str) -> tuple[int, int]:
    m = tokenize(mention)
    for start in range(len(tokens) - len(m) + 1):
        if tokens[start:start + len(m)] == m:
            return start, start + len(m)
    raise ValueError(f"mention {mention!r} not in question")


def score_problems(scores, expected_pairs: set, reference: dict | None = None,
                   tol: float = REFERENCE_TOL) -> list[str]:
    """Every way a ``score_pairs`` result breaks the output contract.

    The pairs must be exactly ``expected_pairs``; probabilities finite, in
    (0, 1) and sorted by (-probability, pair); and, when ``reference`` maps
    pairs to probabilities, within ``tol`` of it.
    """
    problems = []
    pairs = [s.pair for s in scores]
    if len(set(pairs)) != len(pairs) or set(pairs) != expected_pairs:
        problems.append(f"pair set differs: {len(set(pairs))} returned, "
                        f"{len(expected_pairs)} expected")
    probs = [s.probability for s in scores]
    if not all(math.isfinite(p) and 0.0 < p < 1.0 for p in probs):
        problems.append("probability outside (0, 1) or not finite")
    keys = [(-s.probability, s.pair) for s in scores]
    if keys != sorted(keys):
        problems.append("scores not sorted")
    if reference is not None:
        worst = max((abs(s.probability - reference.get(s.pair, math.inf)) for s in scores),
                    default=0.0)
        if not worst <= tol:
            problems.append(f"score differs from reference by {worst:.3g}")
    return problems


_PREDICT_LINE = re.compile(r"^([* ]) (\d\.\d{4})  .* \[([^\]]+)\]  (\S+)$")


def parse_predict(output: str) -> list[tuple[str, str, float, bool]]:
    """(subject, relation, probability, chosen) rows of `ksaqa predict`."""
    rows = []
    for line in output.splitlines():
        m = _PREDICT_LINE.match(line)
        if m:
            rows.append((m.group(3), m.group(4), float(m.group(2)), m.group(1) == "*"))
    return rows


class Workload:
    """Set-up, one request, checks after the loop and one cold query."""

    name = ""
    calibration_requests = 1     # untraced requests that the traced run repeats
    warmup_requests = 0          # untimed requests before the loop
    setup_repeats = 3            # set-ups per run; setup_s is their median
    cold_repeats = 5             # cold predicts per run; cold_ms is their median
    p50_means = "the median request time"   # what p50_ms measures, for the report

    def __init__(self, seed: int, work: Path, size: str = "full"):
        self.seed = seed
        self.work = work
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def setup(self) -> None:
        raise NotImplementedError

    def request(self, i: int) -> None:
        """Serve request ``i`` and check its outputs."""
        raise NotImplementedError

    def after_loop(self, served: int) -> None:
        """Checks and artifacts that need the whole loop."""

    def p50_ms(self, latencies: list[float]) -> float:
        """The median time of one request, in ms."""
        return statistics.median(latencies) * 1e3

    def notes(self, latencies: list[float], cold: list[float]) -> dict:
        """Workload-specific figures, by name: (value, unit)."""
        return {}

    def shape(self) -> dict:
        return {}

    # -- cold query ----------------------------------------------------------

    def cold_ready(self) -> bool:
        """Whether the artifacts a cold query reads exist yet."""
        return True

    def cold_query(self, k: int) -> tuple[list[str], set, dict | None, set | None]:
        """(argv, expected pairs, warm probabilities, warm answer) for query k;
        the last two are None where no warm result exists."""
        raise NotImplementedError

    def cold(self, k: int) -> float:
        argv, expected, warm, answer = self.cold_query(k)
        self.attempted += 1
        t0 = time.perf_counter()
        rc, out = _quiet(cli_main, argv)
        elapsed = time.perf_counter() - t0
        rows = parse_predict(out)
        if rc != 0:
            self.fail(f"cold predict exited {rc}: {out.strip()[-200:]}")
        elif {(s, r) for s, r, _, _ in rows} != expected or len(rows) != len(expected):
            self.fail("cold predict returned the wrong pair set")
        elif warm is not None and any(abs(p - warm[(s, r)]) > PRINT_TOL for s, r, p, _ in rows):
            self.fail("cold predict scores differ from the warm ones")
        elif any((p > LAMBDA) != chosen for _, _, p, chosen in rows if abs(p - LAMBDA) > 1e-4):
            self.fail("cold predict marks disagree with lambda")
        elif answer is not None and {(s, r) for s, r, _, chosen in rows if chosen} != answer:
            self.fail("cold predict marks differ from the warm answer")
        return elapsed


# ---------------------------------------------------------------------------
# ask-paper
# ---------------------------------------------------------------------------


class AskPaper(Workload):
    """Paper-dims KSA-BiGRU answering questions one at a time."""

    name = "ask-paper"
    calibration_requests = 30
    warmup_requests = 1
    setup_repeats = 3
    cold_repeats = 20
    p50_means = "the median question time"
    PROFILES = {"full": dict(scale=W.PAPER, dims=PAPER_DIMS, questions=200),
                "tiny": dict(scale=W.TINY, dims=TINY_DIMS, questions=20)}

    def setup(self):
        prof = self.PROFILES[self.size]
        self.world = W.generate(self.seed, prof["scale"])
        self.questions = W.make_questions(self.world, self.seed, prof["questions"], stream=0)
        self.kb = ingest_triples(self.world.triple_lines())
        self.aliases = ingest_aliases(self.world.alias_lines())
        vocab = build_vocabulary([self.world.vocabulary])
        self.model = KsaModel(vocab, self.kb.relations, ModelConfig(seed=self.seed, **prof["dims"]))
        _f32(self.model)
        self.work.mkdir(parents=True, exist_ok=True)
        self.kb.save(self.work / "kb.npz")
        self.aliases.save(self.work / "aliases.tsv")
        vocab.save(self.work / "vocab.txt")
        self.model.save(self.work / "model.ckpt")
        self.first_seen: dict[int, dict] = {}
        self.formatted: dict[int, list[str]] = {}
        self.answers: dict[int, set] = {}    # pairs above lambda, as `predict` marks them

    def request(self, i):
        k = i % len(self.questions)
        q = self.questions[k]
        self.attempted += 1
        fq = span_to_formatted(q.tokens, mention_span(q.tokens, q.mention))
        candidates = self.aliases.entities_for_alias(fq.mention_text)
        scores = self.model.score_pairs(fq.tokens, candidates, self.kb)
        self.answers[k] = {s.pair for s in scores if s.probability > self.model.config.lam}
        problems = score_problems(scores, self.world.pairs(q.mention), self.first_seen.get(k))
        if problems:
            self.fail(f"question {k}: " + "; ".join(problems))
        self.first_seen.setdefault(k, {s.pair: s.probability for s in scores})
        self.formatted[k] = fq.tokens

    def after_loop(self, served):
        params = {p.name: p.data for p in self.model.parameters()}
        for k in sorted(self.first_seen)[:ORACLE_QUESTIONS]:
            q = self.questions[k]
            self.attempted += 1
            ref = oracle.reference_scores(
                params, self.model.vocab.encode(self.formatted[k]), self.model.rel_index,
                self.world.rel_of, self.world.candidates(q.mention))
            got = self.first_seen[k]
            worst = max((abs(got[p] - ref[p]) for p in ref if p in got), default=0.0)
            if set(ref) != set(got) or not worst <= REFERENCE_TOL:
                self.fail(f"question {k}: oracle disagrees by {worst:.3g}")

    def cold_ready(self):
        return bool(self.first_seen)

    def cold_query(self, k):
        k = sorted(self.first_seen)[k % len(self.first_seen)]   # a question served warm
        q = self.questions[k]
        argv = ["predict", "--workdir", str(self.work), "--question", q.text,
                "--mention", q.mention]
        return argv, self.world.pairs(q.mention), self.first_seen[k], self.answers[k]

    def notes(self, latencies, cold):
        ms = np.array(latencies) * 1e3
        return {"ask.p50_ms": (float(np.percentile(ms, 50)), "ms"),
                "ask.p90_ms": (float(np.percentile(ms, 90)), "ms"),
                "ask.p99_ms": (float(np.percentile(ms, 99)), "ms"),
                "ask.samples": (len(ms), "count"),
                "ask.questions_per_s": (len(ms) / sum(latencies), "1/s"),
                "ask.cold_ms": (statistics.median(cold) * 1e3, "ms")}

    def shape(self):
        return W.shape(self.world, self.questions)


# ---------------------------------------------------------------------------
# pipeline-desk
# ---------------------------------------------------------------------------

STAGES = ("ingest-kb", "relabel", "pretrain-transe", "train-tagger", "train", "eval")
ARTIFACTS = ("kb.npz", "aliases.tsv", "vocab.txt", "train.jsonl", "valid.jsonl",
             "test.jsonl", "alias_report.tsv", "pattern_report.tsv", "transe.ckpt",
             "transe.ckpt.json", "tagger.ckpt", "tagger.ckpt.json", "model.ckpt",
             "model.ckpt.json", "history.json", "report.txt", "report.json", "diff.jsonl")


class PipelineDesk(Workload):
    """The whole CLI at desk dims on a KB large enough for the data layers."""

    name = "pipeline-desk"
    # set-up and cold queries are cheap at desk dims; more of them steady the medians
    setup_repeats = 9
    cold_repeats = 61
    p50_means = "one CLI pass: the sum of the six per-stage medians"
    # three tagger epochs: after one, the tagger misses a seed-dependent share
    # of mentions (0-43%), and eval skips scoring those, so its work varied by seed
    PROFILES = {"full": dict(scale=W.DESK, dims=DESK_DIMS, splits=(100, 20, 60),
                             tagger=(64, 32), tagger_epochs=3, transe_epochs=1),
                "tiny": dict(scale=W.TINY, dims=TINY_DIMS, splits=(30, 8, 10),
                             tagger=(12, 8), tagger_epochs=3, transe_epochs=1)}

    def setup(self):
        prof = self.PROFILES[self.size]
        self.world = W.generate(self.seed, prof["scale"])
        self.splits = {split: W.make_questions(self.world, self.seed, n, stream=s)
                       for s, (split, n) in enumerate(zip(("train", "valid", "test"),
                                                          prof["splits"]))}
        paths = W.write_corpus(self.world, self.splits, self.work / "data")
        d = prof["dims"]
        t_word, t_hidden = prof["tagger"]
        self.transe_epochs = prof["transe_epochs"]
        self.config = self.work / "pipeline.cfg"
        self.config.write_text("\n".join([
            f"kb_triples = {paths['triples']}", f"kb_aliases = {paths['aliases']}",
            f"train_file = {paths['train']}", f"valid_file = {paths['valid']}",
            f"test_file = {paths['test']}", f"seed = {self.seed}",
            f"d_word = {d['d_word']}", f"d_rel = {d['d_rel']}",
            f"d_hidden = {d['d_hidden']}", f"attention_hidden = {d['attention_hidden']}",
            "epochs = 1", f"transe_dim = {d['d_rel']}",
            f"transe_epochs = {self.transe_epochs}",
            f"tagger_d_word = {t_word}", f"tagger_hidden = {t_hidden}",
            f"tagger_epochs = {prof['tagger_epochs']}",
        ]) + "\n")
        self.stage_s = {stage: [] for stage in STAGES}
        self.last_pass: Path | None = None

    def request(self, i):
        workdir = self.work / f"pass{i}"
        shutil.rmtree(workdir, ignore_errors=True)   # a traced run repeats pass 0
        ok = True
        for stage in STAGES:
            self.attempted += 1
            t0 = time.perf_counter()
            rc, out = _quiet(cli_main, [stage, "--config", str(self.config),
                                        "--workdir", str(workdir)])
            self.stage_s[stage].append(time.perf_counter() - t0)
            if rc != 0:
                self.fail(f"pass {i}: {stage} exited {rc}: {out.strip()[-200:]}")
                ok = False
                break
        if ok:
            self.attempted += 1
            missing = [a for a in ARTIFACTS if not (workdir / a).exists()]
            report = json.loads((workdir / "report.json").read_text()) if not missing else {}
            if missing:
                self.fail(f"pass {i}: missing artifacts {missing}")
            elif report.get("question_count") != len(self.splits["test"]):
                self.fail(f"pass {i}: report question_count {report.get('question_count')} "
                          f"!= {len(self.splits['test'])}")
        if self.last_pass not in (None, workdir):
            shutil.rmtree(self.last_pass, ignore_errors=True)
        self.last_pass = workdir

    def cold_ready(self):
        return self.last_pass is not None

    def cold_query(self, k):
        q = self.splits["test"][k % len(self.splits["test"])]
        argv = ["predict", "--workdir", str(self.last_pass), "--question", q.text,
                "--mention", q.mention]
        return argv, self.world.pairs(q.mention), None, None

    def p50_ms(self, latencies):
        return sum(statistics.median(ts) for ts in self.stage_s.values()) * 1e3

    def notes(self, latencies, cold):
        med = {stage: statistics.median(ts) for stage, ts in self.stage_s.items() if ts}
        if len(med) < len(STAGES):
            return {}
        triples = len(self.world.triples)
        questions = sum(len(qs) for qs in self.splits.values())
        return {"pipeline.wall_s": (sum(med.values()), "s"),
                "ingest.triples_per_s": (triples / med["ingest-kb"], "1/s"),
                "relabel.questions_per_s": (questions / med["relabel"], "1/s"),
                "transe.triples_per_s": (triples * self.transe_epochs / med["pretrain-transe"],
                                         "1/s"),
                "eval.questions_per_s": (len(self.splits["test"]) / med["eval"], "1/s"),
                "pipeline.passes": (len(latencies), "count"),
                **{f"stage.{stage}_s": (t, "s") for stage, t in med.items()}}

    def shape(self):
        out = W.shape(self.world, [q for qs in self.splits.values() for q in qs])
        out["splits"] = {k: len(v) for k, v in self.splits.items()}
        return out


WORKLOADS = {cls.name: cls for cls in (AskPaper, PipelineDesk)}
