"""reflfact: exact counts of reflection factorizations in G(r,s,n).

Core objects: group elements as generalized permutation matrices,
reflection tuples as decorated graphs with ordered edge walks, exact
factorization counts (total and refined by a DP over colored cycle
types, connected by a DP over orbits of component-partition states),
closed-form and generating-series cross-checks, and symmetric-polynomial
recovery of connected counts by exact interpolation.
"""

__version__ = "0.1.0"

# name -> the module that defines it, imported on first access (PEP 562),
# so `python -m reflfact` loads only what its subcommand runs
_EXPORTS = {
    "CacheConflictError": "errors",
    "ConsistencyError": "errors",
    "CycleType": "groups",
    "DecoratedGraph": "graphs",
    "ElementPartition": "groups",
    "GroupElement": "groups",
    "GroupParams": "groups",
    "Reflection": "groups",
    "ReflFactError": "errors",
    "ResourceLimitError": "errors",
    "UsageError": "errors",
    "ValidationError": "errors",
    "Walk": "graphs",
    "all_walks": "graphs",
    "cycle_type": "groups",
    "entry_product": "groups",
    "evaluate": "graphs",
    "evaluate_by_walks": "graphs",
    "graph_of_tuple": "graphs",
    "identity": "groups",
    "is_connected": "graphs",
    "is_trivial_product": "groups",
    "multiply": "groups",
    "ordered_walk": "graphs",
    "partitions": "groups",
    "permutation_part": "groups",
    "product": "groups",
    "reflections": "groups",
    "tuple_of_graph": "graphs",
    "walk_weight": "graphs",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
