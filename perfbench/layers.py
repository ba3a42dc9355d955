"""Per-layer metrics derived from a traced run.

Conventions: a metric ending in ``_s``, ``_ms`` or ``_us`` is the mean time
of one call of that function; ``.calls`` is calls per request;
``<layer>.self_ms`` is the layer's self time per request.  Metrics in
``COMPUTED`` are counts the benchmark computes from arguments and results at
the layer boundary (not timings); for a given seed they repeat exactly,
because they are taken over a fixed window of requests at the start of the
traced loop.  A layer the workload does not exercise reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import spans as T

KERNELS = ("gru_forward", "gru_backward", "crf_logz", "crf_marginals", "crf_viterbi",
           "adam_update", "transe_batch")
CLI_STAGES = ("ingest_kb", "relabel", "pretrain_transe", "train_tagger", "train", "eval",
              "predict")
BWD_OPS = {"embedding_lookup": "embedding_lookup", "gru_sequence": "gru_sequence",
           "matmul": "matmul", "crf_log_likelihood": "crf_ll"}

# the end-to-end figures the workloads print, kept per layer in traced runs
FIGURES = [("ask.p50_ms", "ms"), ("ask.p90_ms", "ms"), ("ask.p99_ms", "ms"),
           ("ask.questions_per_s", "1/s"), ("ask.cold_ms", "ms"), ("pipeline.wall_s", "s"),
           ("ingest.triples_per_s", "1/s"), ("relabel.questions_per_s", "1/s"),
           ("transe.triples_per_s", "1/s"), ("eval.questions_per_s", "1/s"),
           ("error_rate", "ratio")]

COMPUTED = ("model.encode_question.calls_per_question",
            "model.encode_subgraph.calls_per_question", "model.logit_use_ratio",
            "model.question_dedupe_ratio", "autodiff.tape_nodes_per_step",
            "autodiff.embedding_grad_bytes", "optim.elements_updated", "kernels.gru.flops",
            "transe.batches", "checkpoint.bytes")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "model.score_pairs_ms": "ms", "model.encode_question_ms": "ms",
        "model.encode_question.calls_per_question": "count",
        "model.encode_subgraph_ms": "ms",
        "model.encode_subgraph.calls_per_question": "count",
        "model.attend_ms": "ms", "model.decode_ms": "ms", "model.logit_use_ratio": "ratio",
        "model.loss_ms": "ms", "model.question_dedupe_ratio": "ratio",
        "autodiff.backward_ms": "ms",
        **{f"autodiff.bwd.{name}_ms": "ms" for name in BWD_OPS},
        "autodiff.tape_nodes_per_step": "count", "autodiff.embedding_grad_bytes": "bytes",
        "optim.adam_step_ms": "ms", "optim.elements_updated": "count",
    }
    for k in KERNELS:
        units[f"kernels.{k}_us"] = "us"
        units[f"kernels.{k}.calls"] = "count"
    units.update({
        "kernels.gru.flops": "count",
        "tagger.predict_span_ms": "ms", "tagger.log_likelihood_ms": "ms",
        "transe.epoch_s": "s", "transe.batches": "count",
        "kb.ingest_triples_s": "s", "kb.load_ms": "ms", "kb.subgraph_relations_us": "us",
        "kb.subgraph_relations.calls": "count",
        "dataset.parse_s": "s", "dataset.format_question_us": "us",
        "relabel.pattern_index_s": "s", "relabel.relabel_dataset_s": "s",
        "checkpoint.load_ms": "ms", "checkpoint.save_ms": "ms", "checkpoint.bytes": "bytes",
        "evaluation.evaluate_s": "s",
    })
    units.update({f"cli.{stage}_s": "s" for stage in CLI_STAGES})
    units.update({f"{layer}.self_ms": "ms" for layer in T.LAYERS})
    units.update({"trace.overhead_pct": "%", "trace.spans": "count"})
    units.update(dict(FIGURES))
    return units


def hooks() -> dict:
    """Hooks that take the computed counts inside the counting window."""

    def in_window(tr):
        return 0 <= tr.request < tr.count_window

    def score_pairs(tr, args, result):
        if in_window(tr):
            tr.count("questions", 1)
            tr.count("logits_read", len(result))

    def loss(tr, args, result):
        if in_window(tr):
            batch = args[1]
            tr.count("questions", len({tuple(item[0]) for item in batch}))
            tr.count("logits_read", sum(len(item[2]) for item in batch))

    def encode(name):
        def hook(tr, args, result):
            if in_window(tr):
                tr.count(name, 1)
        return hook

    def decode(tr, args, result):
        if in_window(tr):
            tr.count("logits_computed", result.data.size)

    def backward(tr, args, result):
        if in_window(tr):
            loss_t = args[0]
            tr.peak("autodiff.tape_nodes_per_step", len(loss_t.tape.nodes))
            total = tr.counts["autodiff.embedding_grad_bytes"]
            tr.peak("autodiff.embedding_grad_bytes", total - tr.counts["bytes_at_backward"])
        tr.counts["bytes_at_backward"] = tr.counts["autodiff.embedding_grad_bytes"]

    def adam(tr, args, result):
        if in_window(tr):
            opt = args[0]
            tr.peak("optim.elements_updated",
                    sum(p.data.size for p in opt.params if p.grad is not None))

    def gru_forward(tr, args, result):
        if in_window(tr):
            x, h0 = args[0], args[1]
            m, d_in, h = x.shape[0], x.shape[1], h0.shape[0]
            # x @ Wx, h @ Wh per step (2 flops per MAC), plus ~10 elementwise per unit
            tr.count("kernels.gru.flops", 2 * m * d_in * 3 * h + 2 * m * h * 3 * h + 10 * m * h)

    def transe_batch(tr, args, result):
        if in_window(tr):
            tr.count("transe_batches", 1)

    def transe_train(tr, args, result):
        tr.count("transe_epochs_all", args[1].epochs)
        if in_window(tr):
            tr.count("transe_epochs", args[1].epochs)

    def ckpt(tr, args, result):
        path = Path(args[0])
        if path.exists():
            tr.peak("checkpoint.bytes", path.stat().st_size)

    return {"model.score_pairs": score_pairs, "model.loss": loss,
            "model.encode_question": encode("encode_question"),
            "model.encode_subgraph": encode("encode_subgraph"),
            "model.decode": decode, "autodiff.backward": backward,
            "optim.adam_step": adam, "kernels.gru_forward": gru_forward,
            "kernels.transe_batch": transe_batch, "transe.train": transe_train,
            "checkpoint.save": ckpt, "checkpoint.load": ckpt}


def derive(tracer: T.Tracer, requests: int, overhead_pct: float, figures: dict) -> dict:
    """{metric: value} for every name in :func:`metric_units`."""
    durations = T.by_name(tracer.spans)
    loop = [s for s in tracer.spans if s[5] >= 0]
    loop_counts: dict[str, int] = defaultdict(int)
    for span in loop:
        loop_counts[span[1]] += 1
    c, mx = tracer.counts, tracer.maxima
    requests = max(requests, 1)

    def mean(name, scale):
        ts = durations.get(name)
        return sum(ts) / len(ts) * scale if ts else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    n_backward = len(durations.get("autodiff.backward", ()))
    out = {
        "model.score_pairs_ms": mean("model.score_pairs", 1e3),
        "model.encode_question_ms": mean("model.encode_question", 1e3),
        "model.encode_question.calls_per_question": ratio(c["encode_question"], c["questions"]),
        "model.encode_subgraph_ms": mean("model.encode_subgraph", 1e3),
        "model.encode_subgraph.calls_per_question": ratio(c["encode_subgraph"], c["questions"]),
        "model.attend_ms": mean("model.attend", 1e3),
        "model.decode_ms": mean("model.decode", 1e3),
        "model.logit_use_ratio": ratio(c["logits_read"], c["logits_computed"]),
        "model.loss_ms": mean("model.loss", 1e3),
        "model.question_dedupe_ratio": ratio(c["questions"], c["encode_question"]),
        "autodiff.backward_ms": mean("autodiff.backward", 1e3),
        "autodiff.tape_nodes_per_step": mx.get("autodiff.tape_nodes_per_step", 0),
        "autodiff.embedding_grad_bytes": mx.get("autodiff.embedding_grad_bytes", 0),
        "optim.adam_step_ms": mean("optim.adam_step", 1e3),
        "optim.elements_updated": mx.get("optim.elements_updated", 0),
    }
    for name, op in BWD_OPS.items():
        total = sum(durations.get(f"autodiff.bwd.{op}", ()))
        out[f"autodiff.bwd.{name}_ms"] = ratio(total, n_backward) * 1e3
    for k in KERNELS:
        out[f"kernels.{k}_us"] = mean(f"kernels.{k}", 1e6)
        out[f"kernels.{k}.calls"] = loop_counts[f"kernels.{k}"] / requests
    window = max(min(tracer.count_window, requests), 1)
    out.update({
        "kernels.gru.flops": c["kernels.gru.flops"] / window,
        "tagger.predict_span_ms": mean("tagger.predict_span", 1e3),
        "tagger.log_likelihood_ms": mean("tagger.log_likelihood", 1e3),
        "transe.epoch_s": ratio(sum(durations.get("transe.train", ())), c["transe_epochs_all"]),
        "transe.batches": ratio(c["transe_batches"], c["transe_epochs"]),
        "kb.ingest_triples_s": mean("kb.ingest_triples", 1.0),
        "kb.load_ms": mean("kb.load", 1e3),
        "kb.subgraph_relations_us": mean("kb.subgraph_relations", 1e6),
        "kb.subgraph_relations.calls": loop_counts["kb.subgraph_relations"] / requests,
        "dataset.parse_s": mean("dataset.parse", 1.0),
        "dataset.format_question_us": mean("dataset.format_question", 1e6),
        "relabel.pattern_index_s": mean("relabel.pattern_index", 1.0),
        "relabel.relabel_dataset_s": mean("relabel.relabel_dataset", 1.0),
        "checkpoint.load_ms": mean("checkpoint.load", 1e3),
        "checkpoint.save_ms": mean("checkpoint.save", 1e3),
        "checkpoint.bytes": mx.get("checkpoint.bytes", 0),
        "evaluation.evaluate_s": mean("evaluation.evaluate", 1.0),
    })
    for stage in CLI_STAGES:
        out[f"cli.{stage}_s"] = mean(f"cli.{stage}", 1.0)
    for layer, seconds in T.self_times(loop).items():
        out[f"{layer}.self_ms"] = seconds / requests * 1e3
    out["trace.overhead_pct"] = overhead_pct
    out["trace.spans"] = len(loop) / requests
    for name, _unit in FIGURES:
        out[name] = figures.get(name, (0.0, ""))[0]
    return out
