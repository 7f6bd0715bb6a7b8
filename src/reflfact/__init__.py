"""reflfact: exact counts of reflection factorizations in G(r,s,n).

Core objects: group elements as generalized permutation matrices,
reflection tuples as decorated graphs with ordered edge walks, exact
factorization counts (total and refined by a DP over colored cycle
types, connected by a DP over component partitions), closed-form and
generating-series cross-checks, and symmetric-polynomial recovery of
connected counts by exact interpolation.
"""

__version__ = "0.1.0"

from .errors import (
    CacheConflictError,
    ConsistencyError,
    ReflFactError,
    ResourceLimitError,
    UsageError,
    ValidationError,
)
from .groups import (
    CycleType,
    ElementPartition,
    GroupElement,
    GroupParams,
    Reflection,
    cycle_type,
    entry_product,
    identity,
    is_trivial_product,
    multiply,
    partitions,
    permutation_part,
    product,
    reflections,
)
from .graphs import (
    DecoratedGraph,
    Walk,
    all_walks,
    evaluate,
    evaluate_by_walks,
    graph_of_tuple,
    is_connected,
    ordered_walk,
    tuple_of_graph,
    walk_weight,
)

__all__ = [
    "CacheConflictError",
    "ConsistencyError",
    "CycleType",
    "DecoratedGraph",
    "ElementPartition",
    "GroupElement",
    "GroupParams",
    "Reflection",
    "ReflFactError",
    "ResourceLimitError",
    "UsageError",
    "ValidationError",
    "Walk",
    "all_walks",
    "cycle_type",
    "entry_product",
    "evaluate",
    "evaluate_by_walks",
    "graph_of_tuple",
    "identity",
    "is_connected",
    "is_trivial_product",
    "multiply",
    "ordered_walk",
    "partitions",
    "permutation_part",
    "product",
    "reflections",
    "tuple_of_graph",
    "walk_weight",
]
