"""Span tracing from outside the program.

The benchmark wraps public functions of the ``ksaqa`` modules by replacing
module and class attributes (no file under ``src/`` changes).  Each call
records a span ``(id, name, start, end, parent, request)`` in memory; the
spans are written out when the benchmark ends.  A layer is the first part of
a span name (``model.score_pairs`` belongs to ``model``), and a layer's self
time is its spans' durations minus the parts covered by their child spans.

Backward closures are timed by wrapping ``autodiff._make``, which every op
calls with its closure and op name, so each op's backward shows up as a span
``autodiff.bwd.<op>`` without touching the op code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "kb", "dataset", "relabel", "transe", "tagger", "model",
          "autodiff", "optim", "kernels", "checkpoint", "evaluation")

# (module, attribute path, span name); methods are "Class.method"
TARGETS = [
    ("ksaqa.cli", "cmd_ingest_kb", "cli.ingest_kb"),
    ("ksaqa.cli", "cmd_relabel", "cli.relabel"),
    ("ksaqa.cli", "cmd_pretrain_transe", "cli.pretrain_transe"),
    ("ksaqa.cli", "cmd_train_tagger", "cli.train_tagger"),
    ("ksaqa.cli", "cmd_train", "cli.train"),
    ("ksaqa.cli", "cmd_eval", "cli.eval"),
    ("ksaqa.cli", "cmd_predict", "cli.predict"),
    ("ksaqa.kb", "ingest_triples", "kb.ingest_triples"),
    ("ksaqa.kb", "ingest_aliases", "kb.ingest_aliases"),
    ("ksaqa.kb", "KnowledgeBase.load", "kb.load"),
    ("ksaqa.kb", "KnowledgeBase.save", "kb.save"),
    ("ksaqa.kb", "KnowledgeBase.subgraph_relations", "kb.subgraph_relations"),
    ("ksaqa.kb", "AliasTable.entities_for_alias", "kb.entities_for_alias"),
    ("ksaqa.dataset", "parse_simplequestions", "dataset.parse"),
    ("ksaqa.dataset", "format_question", "dataset.format_question"),
    ("ksaqa.dataset", "build_vocabulary", "dataset.build_vocabulary"),
    ("ksaqa.dataset", "Vocabulary.load", "dataset.vocab_load"),
    ("ksaqa.relabel", "build_pattern_index", "relabel.pattern_index"),
    ("ksaqa.relabel", "relabel_dataset", "relabel.relabel_dataset"),
    ("ksaqa.relabel", "load_jsonl", "relabel.load_jsonl"),
    ("ksaqa.relabel", "export_jsonl", "relabel.export_jsonl"),
    ("ksaqa.transe", "train_transe", "transe.train"),
    ("ksaqa.transe", "_draw_negatives", "transe.draw_negatives"),
    ("ksaqa.tagger", "TaggerModel.log_likelihood", "tagger.log_likelihood"),
    ("ksaqa.tagger", "TaggerModel.decode", "tagger.decode"),
    ("ksaqa.tagger", "predict_span", "tagger.predict_span"),
    ("ksaqa.tagger", "TaggerModel.load", "tagger.load"),
    ("ksaqa.tagger", "train_tagger", "tagger.train"),
    ("ksaqa.model", "KsaModel.score_pairs", "model.score_pairs"),
    ("ksaqa.model", "KsaModel.encode_question", "model.encode_question"),
    ("ksaqa.model", "KsaModel.encode_subgraph", "model.encode_subgraph"),
    ("ksaqa.model", "KsaModel.attend", "model.attend"),
    ("ksaqa.model", "KsaModel.decode_logits", "model.decode"),
    ("ksaqa.model", "KsaModel.loss", "model.loss"),
    ("ksaqa.model", "KsaModel.load", "model.load"),
    ("ksaqa.model", "build_training_items", "model.build_training_items"),
    ("ksaqa.model", "train_model", "model.train"),
    ("ksaqa.autodiff", "backward", "autodiff.backward"),
    ("ksaqa.optim", "Adam.step", "optim.adam_step"),
    ("ksaqa.kernels.gru", "gru_forward", "kernels.gru_forward"),
    ("ksaqa.kernels.gru", "gru_backward", "kernels.gru_backward"),
    ("ksaqa.kernels.crf", "crf_logz", "kernels.crf_logz"),
    ("ksaqa.kernels.crf", "crf_marginals", "kernels.crf_marginals"),
    ("ksaqa.kernels.crf", "crf_viterbi", "kernels.crf_viterbi"),
    ("ksaqa.kernels.adam_ops", "adam_update", "kernels.adam_update"),
    ("ksaqa.kernels.transe_ops", "transe_batch", "kernels.transe_batch"),
    ("ksaqa.checkpoint", "save_arrays", "checkpoint.save"),
    ("ksaqa.checkpoint", "load_arrays", "checkpoint.load"),
    ("ksaqa.evaluation", "evaluate", "evaluation.evaluate"),
]

MAX_SPANS = 2_000_000


class Tracer:
    """In-memory span recorder with a call stack and a current request id."""

    def __init__(self, count_window: int = 1):
        self.count_window = count_window   # requests whose counts are kept
        self.spans: list[tuple] = []       # (id, name, start, end, parent, request)
        self.dropped = 0
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()   # computed counts, keyed by name
        self.maxima: dict[str, float] = {}
        self._next = 0
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            if len(self.spans) < MAX_SPANS:
                self.spans.append((sid, name, t0, t1, parent, self.request))
            else:
                self.dropped += 1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- installing and removing the wrappers ---------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every target; ``hooks[span]`` runs (args, result) after a call."""
        hooks = hooks or {}
        for mod_name, path, span in TARGETS:
            self._wrap(mod_name, path, span, hooks.get(span))
        self._wrap_make()

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type)
                           else getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrapper(self, fn, span, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(span, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def _wrap(self, mod_name, path, span, hook):
        module = sys.modules[mod_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self._wrapper(raw.__func__, span, hook)))
            else:
                self._set(cls, meth, self._wrapper(raw, span, hook))
            return
        original = getattr(module, path)
        wrapped = self._wrapper(original, span, hook)
        # rebind every name that refers to the function, so that callers who
        # imported it by name (``from .kb import ingest_triples``) see the span
        for name, mod in list(sys.modules.items()):
            if name == "ksaqa" or name.startswith("ksaqa."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def _wrap_make(self):
        ad = sys.modules["ksaqa.autodiff"]
        original = ad._make
        tracer = self
        param_type = ad.Parameter

        def make(data, parents, bwd, op):
            if bwd is None:
                return original(data, parents, bwd, op)
            name = "autodiff.bwd." + op
            table = parents[0] if op in ("embedding_lookup", "slice") else None
            dense = table is not None and isinstance(table, param_type)

            def timed_bwd(g):
                if dense:
                    tracer.count("autodiff.embedding_grad_bytes", table.data.nbytes)
                return tracer.call(name, bwd, g)

            return original(data, parents, timed_bwd, op)

        self._set(ad, "_make", make)


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer: span durations minus child coverage."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, _name, t0, t1, parent, _req in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {layer: 0.0 for layer in LAYERS}
    for sid, name, t0, t1, _parent, _req in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - child_time[sid]
    return out


def by_name(spans) -> dict[str, list[float]]:
    """Durations in seconds grouped by span name."""
    out: dict[str, list[float]] = defaultdict(list)
    for _sid, name, t0, t1, _parent, _req in spans:
        out[name].append(t1 - t0)
    return out


def write(path, tracer: Tracer, extra: dict) -> None:
    """Spans as one JSON object per line after a header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"header": extra, "dropped": tracer.dropped,
                             "counts": dict(tracer.counts),
                             "maxima": tracer.maxima}) + "\n")
        for sid, name, t0, t1, parent, req in tracer.spans:
            fh.write(json.dumps([sid, name, round(t0, 9), round(t1, 9), parent, req]) + "\n")
