"""Knowledge-subgraph-aware question answering over simple-relation KBs.

The package covers the full pipeline: KB ingestion and one-hop subgraph
indexing, question formatting, plausible-interpretation relabeling, a
small tape-based autodiff engine on numpy kernels, TransE
relation pretraining, a BiGRU-CRF subject tagger, the KSA-BiGRU relation
predictor with its two ablation variants, evaluation, and a CLI.
"""

from .autodiff import Parameter, Rng, Tape, Tensor, backward
from .errors import (CheckpointError, ConfigError, IngestError, KsaqaError,
                     NonFiniteError, ShapeError)
from .kb import AliasTable, KnowledgeBase, ingest_aliases, ingest_triples, tokenize
from .dataset import (FormattedQuestion, QuestionRecord, Vocabulary,
                      build_vocabulary, format_question, parse_simplequestions)
from .relabel import (LabeledExample, PatternIndex, PlausibleSet,
                      build_pattern_index, is_ambiguous, plausible_set,
                      relabel_dataset)
from .model import KsaModel, ModelConfig, train_model
from .tagger import TaggerConfig, TaggerModel, predict_span, train_tagger
from .transe import EmbeddingSet, TransEConfig, train_transe
from .evaluation import EvalReport, evaluate, prf1, random_baseline

__version__ = "0.1.0"

__all__ = [
    "AliasTable", "CheckpointError", "ConfigError", "EmbeddingSet",
    "EvalReport", "FormattedQuestion", "IngestError", "KnowledgeBase",
    "KsaModel", "KsaqaError", "LabeledExample", "ModelConfig",
    "NonFiniteError", "Parameter", "PatternIndex", "PlausibleSet",
    "QuestionRecord", "Rng", "ShapeError", "TaggerConfig", "TaggerModel",
    "Tape", "Tensor", "TransEConfig", "Vocabulary", "backward",
    "build_pattern_index", "build_vocabulary", "evaluate", "format_question",
    "ingest_aliases", "ingest_triples", "is_ambiguous",
    "parse_simplequestions", "plausible_set", "predict_span", "prf1",
    "random_baseline", "relabel_dataset", "tokenize", "train_model",
    "train_tagger", "train_transe", "__version__",
]
