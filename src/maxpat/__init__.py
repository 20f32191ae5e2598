"""maxpat: maximality-preserving reductions between pattern domains.

Frequent-pattern mining over itemsets, repetition-free sequences and
uniquely-labelled graphs, organized around reductions that translate one
domain into another while preserving containment exactly.  Because support
and maximality survive the translation, a single levelwise itemset miner
(plus a brute-force oracle for checking it) serves every domain.
"""

from .core import Database, graph_db, is_frequent, is_maximal_feasible, \
    itemset_db, sequence_db, support
from .domains import (
    BOUNDED_DEGREE, DAG, DIGRAPH, DIRECTED, GENERAL, GRAPH, ITEMSET,
    SEQUENCE, TREE,
    GraphClass, Itemset, LabelledGraph, Sequence,
    canonical_key, is_acyclic, is_connected, pattern_domain, pattern_leq,
    pattern_size, validate_class,
)
from .errors import (
    DatabaseError, DomainMismatchError, ExtendError, MaxpatError,
    NoPreimageError, OracleGuardError, ParseError, PatternError,
    ReductionIdError,
)
from .feasibility import (
    ALWAYS, CONNECTED_EDGES, And, AlwaysTrue, ConnectedEdgeItemset,
    PreimageExistsAnd, describe, evaluate,
)
from .miner import (
    LevelStats, MiningResult, count_maximal, extend, extendible,
    extendible_k, mine, mine_max_ffis, mine_via_reduction,
)
from .oracle import enumerate_patterns, oracle_all_feasible_frequent, oracle_max
from .reductions import (
    REDUCTION_IDS, Composed, GraphToBoundedDegree, GraphToEdgeItemset,
    ItemsetToSequence, ItemsetToStar, Reduction, SequenceToDag,
    bind_from_target, bind_reduction, invert_database, lift_results,
    reduce_database,
)

__version__ = "0.1.0"

__all__ = [
    "ALWAYS", "And", "AlwaysTrue", "BOUNDED_DEGREE",
    "CONNECTED_EDGES", "Composed", "ConnectedEdgeItemset",
    "DAG", "DIGRAPH", "DIRECTED", "Database", "DatabaseError",
    "DomainMismatchError", "ExtendError", "GENERAL", "GRAPH",
    "GraphClass", "GraphToBoundedDegree", "GraphToEdgeItemset",
    "ITEMSET", "Itemset", "ItemsetToSequence", "ItemsetToStar",
    "LabelledGraph", "LevelStats", "MaxpatError", "MiningResult",
    "NoPreimageError", "OracleGuardError", "ParseError", "PatternError",
    "PreimageExistsAnd", "REDUCTION_IDS", "Reduction", "ReductionIdError",
    "SEQUENCE", "Sequence", "SequenceToDag", "TREE",
    "bind_from_target", "bind_reduction", "canonical_key", "count_maximal",
    "describe",
    "enumerate_patterns", "evaluate", "extend", "extendible", "extendible_k",
    "graph_db", "is_acyclic", "is_connected", "is_frequent",
    "invert_database", "is_maximal_feasible", "itemset_db", "lift_results",
    "mine", "mine_max_ffis", "mine_via_reduction", "oracle_all_feasible_frequent",
    "oracle_max", "pattern_domain", "pattern_leq", "pattern_size",
    "reduce_database", "sequence_db", "support", "validate_class",
]
