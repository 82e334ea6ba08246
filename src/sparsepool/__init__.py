"""Sparse hierarchical graph classification with gated top-k pooling."""

__version__ = "0.1.0"

from .graphs import (
    GraphBatch,
    LabeledGraph,
    SparseGraph,
    batch_graphs,
    degree_onehot,
    erdos_renyi,
    from_edge_list,
    induced_subgraph,
    spmm_mean,
)
from .engine import (
    Parameter,
    Tape,
    Var,
    adam_step,
    finite_diff_check,
    glorot_init,
    load_parameters,
    save_parameters,
)
from .layers import (
    HierarchicalModel,
    build_model,
    forward_summaries,
    model_forward,
    topk_pool,
)
from .datasets import (
    Dataset,
    DatasetFormatError,
    FoldSplit,
    parse_tu_dataset,
    stratified_kfold,
    write_tu_dataset,
)
from .training import (
    RunResult,
    TrainConfig,
    cross_validate,
    default_config,
    evaluate,
    train_one,
)
from .membench import (
    MemoryReport,
    MemoryTracker,
    measure_dense_assignment,
    measure_sparse,
    scaling_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
