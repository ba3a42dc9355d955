"""Command-line pipeline.

Subcommands: ingest-kb, relabel, stats, pretrain-transe, train-tagger,
train, eval, predict, attention, answer.  Configuration comes from a flat
key=value file (--config) with per-flag overrides; later sources win.

Artifacts live in the work directory: kb.npz, aliases.tsv, vocab.txt,
{train,valid,test}.jsonl, {train,valid,test}_formatted.tsv,
alias_report.tsv, pattern_report.tsv, transe.ckpt, tagger.ckpt, model.ckpt,
tagger_history.json, history.json, report.{txt,json}, diff.jsonl,
attention.tsv.  Each is written whole or not at all (see
:mod:`ksaqa.artifacts`).  aliases.tsv, vocab.txt, the *.jsonl splits and
the checkpoints each carry a sibling <name>.json manifest; the text
artifacts' manifest holds their SHA-256, checked on every read.

Exit codes:
    0  success
    2  usage error (bad flags or unknown subcommand)
    3  configuration error (unreadable config, unknown key, bad value, a workdir
       that is not a directory, divergence, model dims numpy cannot allocate)
    4  missing input file, or an input path that is not a regular file
    5  malformed input data (bad or non-UTF-8 line, with its number; KB too large)
    6  missing pipeline artifact or its manifest (run the earlier stage first)
    7  detection failure (no subject mention or no matching entity, or an
       attention --subject that is not a candidate of the mention)
    8  corrupt or incompatible checkpoint (also a non-finite tensor), unreadable
       kb.npz (also one in an older layout), or aliases.tsv, vocab.txt or a
       *.jsonl split changed since its stage wrote it
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .artifacts import save_text
from .autodiff import Rng
from .config import KEYS, PipelineConfig, load_config, stage_config, stage_keys
from .dataset import (build_vocabulary, find_span, format_question, parse_simplequestions,
                      span_to_formatted, write_formatted_tsv, Vocabulary)
from .errors import CheckpointError, ConfigError, IngestError, KsaqaError, NonFiniteError
from .evaluation import diff_report, evaluate, export_attention, random_baseline
from .kb import AliasTable, KnowledgeBase, ingest_aliases, ingest_triples, tokenize
from .model import KsaModel, ModelConfig, train_model
from .relabel import (build_pattern_index, load_jsonl, export_jsonl,
                      relabel_dataset, ambiguity_rate, write_report)
from .tagger import TaggerConfig, TaggerModel, predict_span, tags_for_span, train_tagger
from .transe import EmbeddingSet, TransEConfig, train_transe

FULL_KB_COUNTS = (2_150_604, 6_701, 14_180_937)
FULL_SPLIT_COUNTS = {"train": 75_910, "valid": 10_845, "test": 21_687}


class MissingArtifactError(KsaqaError):
    pass


class DetectionFailureError(KsaqaError):
    pass


def _log(msg: str) -> None:
    print(msg, flush=True)


def _work(cfg: PipelineConfig) -> Path:
    path = Path(cfg.workdir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"workdir is not a directory: {path}") from None
    return path


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path} not found; run `ksaqa {hint}` first")
    return path


def _sealed(work: Path, name: str, hint: str) -> Path:
    """Path of artifact ``name`` once both it and its manifest exist."""
    path = _require(work / name, hint)
    _require(work / f"{name}.json", hint)
    return path


def _open_input(path_str: str, what: str) -> Path:
    if not path_str:
        raise ConfigError(f"no {what} path configured")
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    if not path.is_file():
        raise FileNotFoundError(f"{what} path is not a regular file: {path}")
    return path


def _load_kb(work: Path) -> KnowledgeBase:
    return KnowledgeBase.load(_require(work / "kb.npz", "ingest-kb"))


def _load_aliases(work: Path) -> AliasTable:
    return AliasTable.load(_sealed(work, "aliases.tsv", "ingest-kb"))


def _load_vocab(work: Path) -> Vocabulary:
    return Vocabulary.load(_sealed(work, "vocab.txt", "relabel"))


def _load_model(work: Path, kb: KnowledgeBase, vocab: Vocabulary) -> KsaModel:
    return KsaModel.load(_sealed(work, "model.ckpt", "train"), vocab, kb.relations)


def _entity_label(aliases: AliasTable, entity: str) -> str:
    names = aliases.aliases_of(entity)
    return f"{names[0]} [{entity}]" if names else entity


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest_kb(args, cfg: PipelineConfig) -> int:
    work = _work(cfg)
    kb = ingest_triples(_open_input(cfg.kb_triples, "triples"))
    aliases = ingest_aliases(_open_input(cfg.kb_aliases, "aliases"))
    kb.save(work / "kb.npz")
    aliases.save(work / "aliases.tsv")
    counts = (kb.entity_count, kb.relation_count, kb.triple_count)
    _log(f"entities  {counts[0]}")
    _log(f"relations {counts[1]}")
    _log(f"triples   {counts[2]}")
    _log(f"aliases   {len(aliases)}")
    if args.full and counts != FULL_KB_COUNTS:
        raise ConfigError(
            f"--full expects KB counts {FULL_KB_COUNTS}, got {counts}")
    return 0


def cmd_relabel(args, cfg: PipelineConfig) -> int:
    work = _work(cfg)
    kb, aliases = _load_kb(work), _load_aliases(work)
    splits = {}
    for split, path_str in (("train", cfg.train_file), ("valid", cfg.valid_file),
                            ("test", cfg.test_file)):
        if path_str:
            splits[split] = parse_simplequestions(_open_input(path_str, split), split)
    if "train" not in splits:
        raise ConfigError("relabel needs at least a train_file")
    if args.full:
        for split, records in splits.items():
            want = FULL_SPLIT_COUNTS[split]
            if len(records) != want:
                raise ConfigError(
                    f"--full expects {want} {split} records, got {len(records)}")

    pattern_splits = cfg.pattern_split_names
    formatted = {split: [format_question(r, aliases) for r in records]
                 for split, records in splits.items()}
    index = build_pattern_index(
        [r for s in pattern_splits if s in splits for r in splits[s]],
        [f for s in pattern_splits if s in splits for f in formatted[s]])

    vocab_streams = [r.tokens for r in splits["train"]]
    vocab_streams += [f.tokens for f in formatted["train"] if f is not None]
    vocab = build_vocabulary(vocab_streams, cfg.min_count)
    vocab.save(work / "vocab.txt")
    _log(f"vocabulary {len(vocab)} tokens (min_count={cfg.min_count})")

    for split, records in splits.items():
        examples, skipped = relabel_dataset(records, formatted[split], kb, aliases, index)
        export_jsonl(examples, work / f"{split}.jsonl")
        write_formatted_tsv(work / f"{split}_formatted.tsv", records, formatted[split])
        rate = ambiguity_rate(examples)
        _log(f"{split}: {len(records)} records, {len(examples)} formatable, "
             f"{skipped} without alias match, ambiguity rate {rate:.4f}")
        if split == "train":
            write_report(examples, work / "alias_report.tsv", work / "pattern_report.tsv")
    return 0


def cmd_stats(args, cfg: PipelineConfig) -> int:
    work = _work(cfg)
    kb, aliases = _load_kb(work), _load_aliases(work)
    _log(f"entities  {kb.entity_count}")
    _log(f"relations {kb.relation_count}")
    _log(f"triples   {kb.triple_count}")
    _log(f"aliases   {len(aliases)}")
    for split in ("train", "valid", "test"):
        if (work / f"{split}.jsonl").exists():
            examples = load_jsonl(_sealed(work, f"{split}.jsonl", "relabel"), split)
            _log(f"{split}: {len(examples)} examples, "
                 f"ambiguity rate {ambiguity_rate(examples):.4f}")
    return 0


def cmd_pretrain_transe(args, cfg: PipelineConfig) -> int:
    work = _work(cfg)
    kb = _load_kb(work)
    tcfg = stage_config(cfg, TransEConfig)
    emb, history = train_transe(kb, tcfg, log=_log)
    emb.save(work / "transe.ckpt", kb)
    _log(f"saved transe.ckpt (dim={tcfg.dim}, final epoch loss {history[-1]:.4f})")
    return 0


def cmd_train_tagger(args, cfg: PipelineConfig) -> int:
    work = _work(cfg)
    vocab = _load_vocab(work)

    def tagged(path, split):
        return [(ex.record.tokens, tags_for_span(len(ex.record.tokens), ex.formatted.mention_span))
                for ex in load_jsonl(path, split)]

    pairs = tagged(_sealed(work, "train.jsonl", "relabel"), "train")
    valid_pairs = None
    if (work / "valid.jsonl").exists():
        valid_pairs = tagged(_sealed(work, "valid.jsonl", "relabel"), "valid")
    model, history = train_tagger(pairs, stage_config(cfg, TaggerConfig), vocab, valid_pairs,
                                  log=_log)
    model.save(work / "tagger.ckpt")
    save_text(work / "tagger_history.json", json.dumps(history, indent=2) + "\n")
    _log("saved tagger.ckpt")
    return 0


def cmd_train(args, cfg: PipelineConfig) -> int:
    work = _work(cfg)
    kb = _load_kb(work)
    vocab = _load_vocab(work)
    train_examples = load_jsonl(_sealed(work, "train.jsonl", "relabel"), "train")
    valid_examples = None
    if (work / "valid.jsonl").exists():
        valid_examples = load_jsonl(_sealed(work, "valid.jsonl", "relabel"), "valid")
    mcfg = stage_config(cfg, ModelConfig)
    model = KsaModel(vocab, kb.relations, mcfg)
    transe_path = work / "transe.ckpt"
    if args.no_transe_init:
        _log("relation embeddings: random init (--no-transe-init)")
    elif transe_path.exists():
        emb = EmbeddingSet.load(_sealed(work, "transe.ckpt", "pretrain-transe"), kb)
        if emb.relation.shape[1] != cfg.d_rel:
            raise ConfigError(
                f"transe.ckpt holds {emb.relation.shape[1]}-dim vectors but d_rel is "
                f"{cfg.d_rel}; set transe_dim = d_rel or pass --no-transe-init")
        model.rel_emb.data[: kb.relation_count] = emb.relation
        _log(f"relation embeddings: initialized from {transe_path.name}")
    else:
        _log("relation embeddings: random init (no transe.ckpt found)")
    history = train_model(model, train_examples, kb, valid_examples, log=_log)
    model.save(work / "model.ckpt")
    save_text(work / "history.json", json.dumps(history, indent=2) + "\n")
    _log(f"saved model.ckpt ({model.parameter_count()} parameters, "
         f"variant {mcfg.variant})")
    return 0


def cmd_eval(args, cfg: PipelineConfig) -> int:
    work = _work(cfg)
    kb, aliases = _load_kb(work), _load_aliases(work)
    vocab = _load_vocab(work)
    model = _load_model(work, kb, vocab)
    split = args.split
    examples = load_jsonl(_sealed(work, f"{split}.jsonl", "relabel"), split)
    tagger = None
    if not cfg.gold_spans:
        tagger = TaggerModel.load(_sealed(work, "tagger.ckpt", "train-tagger"), vocab)
    report = evaluate(examples, model, kb, aliases=aliases, tagger=tagger,
                      gold_spans=cfg.gold_spans, lam=cfg.lam,
                      skip_detection_failures=cfg.skip_detection_failures)
    _log(report.table())
    save_text(work / "report.txt", report.table() + "\n")
    save_text(work / "report.json", json.dumps(report.to_dict(), indent=2) + "\n")
    n_diff = diff_report(report.results, work / "diff.jsonl")
    _log(f"diff.jsonl: {n_diff} disagreeing questions")
    if args.baseline:
        base = random_baseline(examples, kb, Rng(cfg.seed + 13),
                               skip_detection_failures=cfg.skip_detection_failures)
        _log("random baseline:")
        _log(base.table())
    return 0


def _resolve_mention(work, vocab, tokens, mention_flag):
    """Question formatted at --mention or the tagger's span; raises DetectionFailureError."""
    if mention_flag:
        span = find_span(tokens, tokenize(mention_flag))
        if span is None:
            raise DetectionFailureError(
                f"--mention {mention_flag!r} does not occur in the question")
        return span_to_formatted(tokens, span)
    tagger = TaggerModel.load(
        _sealed(work, "tagger.ckpt", "train-tagger` or pass `--mention"), vocab)
    fq = predict_span(tagger, tokens)
    if fq is None:
        raise DetectionFailureError("the tagger found no subject mention")
    return fq


def _question_setup(args, cfg):
    work = _work(cfg)
    kb, aliases = _load_kb(work), _load_aliases(work)
    vocab = _load_vocab(work)
    tokens = tokenize(args.question)
    if not tokens:
        raise ConfigError("empty question")
    fq = _resolve_mention(work, vocab, tokens, args.mention)
    candidates = aliases.entities_for_alias(fq.mention_text)
    if not candidates:
        raise DetectionFailureError(
            f"no entity is known under the alias {fq.mention_text!r}")
    # the predictor is the largest artifact: read only for a question it can score
    return work, kb, aliases, _load_model(work, kb, vocab), fq, candidates


def cmd_predict(args, cfg: PipelineConfig) -> int:
    _, kb, aliases, model, fq, candidates = _question_setup(args, cfg)
    _log(f"formatted: {fq.text}")
    scores = model.score_pairs(fq.tokens, candidates, kb)
    for s in scores:
        mark = "*" if s.probability > cfg.lam else " "
        _log(f"{mark} {s.probability:.4f}  {_entity_label(aliases, s.pair[0])}"
             f"  {s.pair[1]}")
    if not scores:
        _log("no candidate pairs")
    return 0


def cmd_attention(args, cfg: PipelineConfig) -> int:
    work, kb, aliases, model, fq, candidates = _question_setup(args, cfg)
    subject = args.subject
    if subject is None:
        top = model.top1(fq.tokens, candidates, kb)
        if top is None:
            raise DetectionFailureError("no scorable candidate pairs")
        subject = top[0]
    elif subject not in candidates:
        raise DetectionFailureError(
            f"--subject {subject!r} is not a candidate of the alias {fq.mention_text!r}")
    amap = export_attention(model, fq.tokens, subject, kb, path=work / "attention.tsv")
    _log(f"subject: {_entity_label(aliases, subject)}")
    _log(amap.heatmap())
    _log(f"wrote {work / 'attention.tsv'}")
    return 0


def cmd_answer(args, cfg: PipelineConfig) -> int:
    _, kb, aliases, model, fq, candidates = _question_setup(args, cfg)
    scores = model.score_pairs(fq.tokens, candidates, kb)
    chosen = [s for s in scores if s.probability > cfg.lam]
    if not chosen and scores:
        _log(f"no interpretation scores above {cfg.lam}; best guess:")
        chosen = [scores[0]]
    if not chosen:
        raise DetectionFailureError("no scorable candidate pairs")

    def show_objects(pair):
        s, r = pair
        objs = kb.objects(kb.entity_id(s), kb.relation_id(r))
        if objs.size == 0:
            _log("no objects recorded for this pair")
        for t in objs:
            _log(f"  {_entity_label(aliases, kb.entities[t])}")

    asking = len(chosen) > 1 and not args.non_interactive
    if asking:
        _log("Which one do you mean?")
    for i, s in enumerate(chosen, start=1):
        _log(f"{i}. {_entity_label(aliases, s.pair[0])} | {s.pair[1]} "
             f"(p={s.probability:.4f})")
    if not asking:
        if not args.non_interactive:
            show_objects(chosen[0].pair)
        return 0
    try:
        raw = input("> ").strip()
    except EOFError:
        raise ConfigError("no choice provided on stdin") from None
    try:
        pick = int(raw)
    except ValueError:
        raise ConfigError(f"expected a number 1..{len(chosen)}, got {raw!r}") from None
    if not 1 <= pick <= len(chosen):
        raise ConfigError(f"choice {pick} out of range 1..{len(chosen)}")
    show_objects(chosen[pick - 1].pair)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

# every config key is the flag "--" + key with "_" -> "-"; these keys also
# keep a second, shorter spelling
_FLAG_ALIASES = {"lam": "--lambda", "negatives_per_positive": "--negatives",
                 "kb_triples": "--triples", "kb_aliases": "--aliases",
                 "train_file": "--train", "valid_file": "--valid", "test_file": "--test"}


def _add_key_flags(sub, keys):
    for key in keys:
        flags = ["--" + key.replace("_", "-")]
        if key in _FLAG_ALIASES:
            flags.append(_FLAG_ALIASES[key])
        parse = ({"action": argparse.BooleanOptionalAction} if KEYS[key] is bool
                 else {"type": KEYS[key]})
        sub.add_argument(*flags, dest=key, default=None, **parse)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksaqa",
        description="Ambiguity-aware single-relation KBQA pipeline.",
        epilog="Exit codes: 2 usage, 3 config, 4 missing input, 5 malformed "
               "input, 6 missing artifact, 7 detection failure, 8 bad checkpoint.")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, helptext, keys=()):
        s = subs.add_parser(name, help=helptext)
        s.add_argument("--config", default=None)
        _add_key_flags(s, ("workdir", "seed", *keys))
        s.set_defaults(func=func)
        return s

    s = sub("ingest-kb", cmd_ingest_kb, "build the KB and alias indexes",
            ("kb_triples", "kb_aliases"))
    s.add_argument("--full", action="store_true",
                   help="assert full Freebase-2M ingest counts")

    s = sub("relabel", cmd_relabel, "format questions and compute plausible sets",
            ("train_file", "valid_file", "test_file", "pattern_splits", "min_count"))
    s.add_argument("--full", action="store_true",
                   help="assert full SimpleQuestions split sizes")

    sub("stats", cmd_stats, "print KB and relabeled-dataset statistics")
    sub("pretrain-transe", cmd_pretrain_transe, "pretrain relation embeddings",
        stage_keys(TransEConfig))
    sub("train-tagger", cmd_train_tagger, "train the subject-span tagger",
        stage_keys(TaggerConfig))
    s = sub("train", cmd_train, "train the relation predictor", stage_keys(ModelConfig))
    s.add_argument("--no-transe-init", action="store_true")

    s = sub("eval", cmd_eval, "evaluate a trained model",
            ("gold_spans", "skip_detection_failures", "lam"))
    s.add_argument("--split", default="test", choices=("train", "valid", "test"))
    s.add_argument("--baseline", action="store_true",
                   help="also print the seeded random baseline")

    for name, func, helptext in (
            ("predict", cmd_predict, "score all interpretations of one question"),
            ("attention", cmd_attention, "export the attention map for one question"),
            ("answer", cmd_answer, "interactive clarification flow")):
        s = sub(name, func, helptext, ("lam",))
        if name == "answer":
            s.add_argument("question")
            s.add_argument("--non-interactive", action="store_true")
        else:
            s.add_argument("--question", required=True)
        s.add_argument("--mention", default=None)
        if name == "attention":
            s.add_argument("--subject", default=None)
    return parser


# (error class, exit code, stderr prefix), as in the module docstring
_EXITS = [(ConfigError, 3, "config error"),
          (NonFiniteError, 3, "training diverged; lower the learning rate"),
          (MemoryError, 3, "cannot allocate; lower the model dims"),
          (FileNotFoundError, 4, "missing input"), (IngestError, 5, "malformed input"),
          (MissingArtifactError, 6, "missing artifact"),
          (DetectionFailureError, 7, "detection failure"), (CheckpointError, 8, "checkpoint error")]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k in KEYS}
    try:
        cfg = load_config(args.config, overrides)
        # a diverging run ends in NonFiniteError below; numpy's own float
        # warnings on the way there would only add stderr lines
        with np.errstate(all="ignore"):
            return args.func(args, cfg)
    except tuple(kind for kind, _, _ in _EXITS) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in _EXITS
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
