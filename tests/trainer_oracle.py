"""The two epoch loops that ``ksaqa.optim.train_epochs`` replaced, as
``ksaqa.tagger.train_tagger`` and ``ksaqa.model.train_model`` ran them: each
built its own Adam, drew its own permutations, and kept, restored and logged
its best epoch itself.  The one loop must give the same histories, log lines,
parameters and Adam moments, bit for bit.  ``Adam``, ``span_accuracy`` and
``valid_macro_f1`` are this module's names, so that a test can patch them.
"""

from __future__ import annotations

from ksaqa import autodiff as ad
from ksaqa.autodiff import Rng, Tape
from ksaqa.dataset import Vocabulary
from ksaqa.errors import ConfigError
from ksaqa.kb import KnowledgeBase
from ksaqa.model import KsaModel, build_training_items, valid_macro_f1
from ksaqa.optim import Adam
from ksaqa.relabel import LabeledExample
from ksaqa.tagger import TaggerConfig, TaggerModel, span_accuracy


def train_tagger(train_pairs, config: TaggerConfig, vocab: Vocabulary,
                 valid_pairs=None, log=None) -> tuple[TaggerModel, list[dict]]:
    """Adam on negative CRF log likelihood, one question per step.

    ``train_pairs`` is a list of (tokens, tags).  With a validation set,
    the best-span-accuracy parameters are kept and training stops early
    after ``patience`` epochs without improvement.
    """
    if not train_pairs:
        raise ConfigError("tagger training set is empty")
    model = TaggerModel(vocab, config)
    opt = Adam(model.parameters(), lr=config.lr)
    rng = Rng(config.seed + 1)
    best_acc = -1.0
    best_state = None
    stale = 0
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_pairs))
        total = 0.0
        for i in order:
            tokens, tags = train_pairs[int(i)]
            opt.zero_grad()
            with Tape():
                total += ad.backward(ad.scale(model.log_likelihood(tokens, tags), -1.0),
                                     where=f"tagger epoch {epoch + 1}, step {opt.step_count + 1}")
            opt.step()
        entry = {"epoch": epoch + 1, "train_loss": total}
        if valid_pairs:
            acc = span_accuracy(model, valid_pairs)
            entry["valid_span_accuracy"] = acc
            if acc > best_acc:
                best_acc = acc
                best_state = opt.keep(into=best_state)
                stale = 0
            else:
                stale += 1
        history.append(entry)
        if log:
            log(f"tagger epoch {entry['epoch']}/{config.epochs} loss {total:.4f}"
                + (f" valid_acc {entry['valid_span_accuracy']:.4f}" if valid_pairs else ""))
        if valid_pairs and stale >= config.patience:
            break
    if best_state is not None:
        opt.data[...] = best_state
    return model, history


def train_model(model: KsaModel, train_examples: list[LabeledExample],
                kb: KnowledgeBase, valid_examples: list[LabeledExample] | None = None,
                log=None, target_f1: float | None = None) -> list[dict]:
    """Minibatch Adam on the summed BCE loss; keeps the best-validation state.

    With ``target_f1`` set, training stops early once the validation macro
    F1 reaches the target (the best state is still restored at the end).
    """
    if not train_examples:
        raise ConfigError("model training set is empty")
    cfg = model.config
    opt = Adam(model.parameters(), lr=cfg.lr)
    rng = Rng(cfg.seed + 1)
    best_f1 = -1.0
    best_state = None
    history = []
    for epoch in range(cfg.epochs):
        unknown = [] if epoch == 0 and log else None
        items = build_training_items(model, train_examples, kb, rng, unknown)
        if unknown:
            log(f"{len(unknown)} training positives name a fact kb.npz does not hold "
                f"(first: {unknown[0]}); rerun relabel if kb.npz changed")
        order = rng.permutation(len(items))
        total = 0.0
        for lo in range(0, len(items), cfg.batch_size):
            batch = [items[int(i)] for i in order[lo : lo + cfg.batch_size]]
            opt.zero_grad()
            with Tape():
                total += ad.backward(model.loss(batch, rng),
                                     where=f"epoch {epoch + 1}, step {opt.step_count + 1}")
            opt.step()
        entry = {"epoch": epoch + 1, "train_loss": total}
        if valid_examples:
            f1 = valid_macro_f1(model, valid_examples, kb)
            entry["valid_macro_f1"] = f1
            if f1 > best_f1:
                best_f1 = f1
                best_state = opt.keep(into=best_state)
        history.append(entry)
        if log:
            log(f"epoch {entry['epoch']}/{cfg.epochs} loss {total:.4f}"
                + (f" valid_f1 {entry['valid_macro_f1']:.4f}" if valid_examples else ""))
        if (target_f1 is not None and valid_examples
                and entry["valid_macro_f1"] >= target_f1):
            break
    if best_state is not None:
        opt.data[...] = best_state
    return history
