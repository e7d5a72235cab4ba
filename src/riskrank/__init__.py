"""riskrank: retrieval evaluation and embedding-adapter finetuning.

Builds dense / lexical / hybrid retrieval over question-context corpora,
trains a linear adapter on frozen base embeddings with an in-batch
ranking loss, and scores systems with MRR@k, MAP@k, NDCG@k, and HR@k.
"""

from .benchmark import (
    BenchmarkTable,
    EvalConfig,
    MetricComparison,
    compare_adapter,
    compare_systems,
    emit_report,
    run_eval,
)
from .cache import VectorCache, text_digest
from .corpus import (
    Chunk,
    DatasetSplit,
    Document,
    EvalSet,
    QAPair,
    SplitConfig,
    build_eval_set,
    chunk_document,
    load_documents,
    load_qa_pairs,
    save_qa_pairs,
    split_pairs,
    synth_dataset,
)
from .embedding import HashEmbedder, tokenize
from .finetune import (
    AdapterParams,
    LossReport,
    TrainingConfig,
    apply_adapter,
    load_adapter,
    mnr_loss,
    save_adapter,
    train_adapter,
)
from .index import (
    DenseIndex,
    LexicalIndex,
    RankedList,
    Run,
    build_dense_index,
    build_lexical_index,
    dense_search_many,
    lexical_search_many,
    rrf_fuse,
)
from .metrics import MetricReport, evaluate_run
from .remote import ProviderConfig, RemoteEmbedder, RemoteEmbedError

__version__ = "0.1.0"

__all__ = [
    "AdapterParams",
    "BenchmarkTable",
    "Chunk",
    "DatasetSplit",
    "DenseIndex",
    "Document",
    "EvalConfig",
    "EvalSet",
    "HashEmbedder",
    "LexicalIndex",
    "LossReport",
    "MetricComparison",
    "MetricReport",
    "ProviderConfig",
    "QAPair",
    "RankedList",
    "RemoteEmbedError",
    "RemoteEmbedder",
    "Run",
    "SplitConfig",
    "TrainingConfig",
    "VectorCache",
    "apply_adapter",
    "build_dense_index",
    "build_eval_set",
    "build_lexical_index",
    "chunk_document",
    "compare_adapter",
    "compare_systems",
    "dense_search_many",
    "emit_report",
    "evaluate_run",
    "lexical_search_many",
    "load_adapter",
    "load_documents",
    "load_qa_pairs",
    "mnr_loss",
    "rrf_fuse",
    "run_eval",
    "save_adapter",
    "save_qa_pairs",
    "split_pairs",
    "synth_dataset",
    "text_digest",
    "tokenize",
    "train_adapter",
]
