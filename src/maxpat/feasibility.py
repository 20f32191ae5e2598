"""Feasibility predicates over patterns.

The algebra is deliberately closed and tiny so that a predicate is always
describable in constant space:

* ``AlwaysTrue``             -- the unconstrained problem
* ``ConnectedEdgeItemset``   -- pair-itemsets whose label graph is connected
* ``PreimageExistsAnd``      -- a reduction preimage exists and the inner
                                predicate holds on it
* ``And``                    -- finite conjunction of the above

Each predicate carries a ``split_stable`` flag.  Split-stability means every
feasible set of size m has feasible subsets of every smaller positive size,
which is what licenses levelwise pruning even though connectivity is not
anti-monotone.  The flag is conservative: a conjunction claims it only when
every constituent does, and a preimage predicate never does, since an
encoding skips over sizes (a graph's image gains a marker and an edge at
once).  Forced levelwise pruning is refused on a predicate without the
flag; post-filtering is always sound.

A predicate may also name a ``step_reduction``: a reduction among whose
images lies every set the predicate accepts.  Every preimage predicate
names its reduction, and the miner then climbs through the images of
source patterns grown one element at a time.

The join climb asks ``merge_hint(labels, a, b)`` once per level, for all
pairs of surviving sets at once: ``labels`` holds each survivor's plain
labels as a row of uint64 bitset words, and survivor ``a[i]`` pairs with
``b[i]``.  The answer is a boolean per pair, or True for every pair; a
False must mean that the union of the pair is infeasible.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .domains import (
    Itemset, connected_components, item_labels, pattern_domain,
)
from .errors import DomainMismatchError


@dataclass(frozen=True)
class AlwaysTrue:
    split_stable = True
    step_reduction = None

    def merge_hint(self, labels, a, b):
        return True


@dataclass(frozen=True)
class ConnectedEdgeItemset:
    split_stable = True
    step_reduction = None

    def merge_hint(self, labels, a, b):
        # the union of two connected edge sets is connected iff their label
        # sets intersect, so disjoint pairs can be skipped wholesale
        return (labels[a] & labels[b]).any(axis=1)


@dataclass(frozen=True)
class PreimageExistsAnd:
    reduction: object  # any Reduction; duck-typed to avoid an import cycle
    inner: object

    split_stable = False

    @property
    def step_reduction(self):
        # everything accepted is an image of the reduction
        return self.reduction

    def merge_hint(self, labels, a, b):
        return True


@dataclass(frozen=True)
class And:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def split_stable(self):
        return all(p.split_stable for p in self.parts)

    @property
    def step_reduction(self):
        # a conjunct's images enclose everything the conjunction accepts
        return next((p.step_reduction for p in self.parts
                     if p.step_reduction is not None), None)

    def merge_hint(self, labels, a, b):
        return reduce(np.logical_and,
                      (p.merge_hint(labels, a, b) for p in self.parts), True)


ALWAYS = AlwaysTrue()
CONNECTED_EDGES = ConnectedEdgeItemset()


def connected_edge_itemset(items) -> bool:
    """Connectivity of the graph spelled by pair items.

    Every item (a, b) contributes labels a and b and, when a != b, the edge
    a--b.  The empty itemset is deemed infeasible so that the empty pattern
    never shadows real connected patterns.
    """
    labels = item_labels(items)
    if not labels:
        return False
    return len(next(connected_components(labels, items))) == len(labels)


def _require_pair_itemset(p):
    if not isinstance(p, Itemset):
        raise DomainMismatchError(
            f"connectivity feasibility expects an itemset, got {pattern_domain(p)}")
    if p.items and not isinstance(p.items[0], tuple):
        raise DomainMismatchError(
            "connectivity feasibility expects label-pair items")


def evaluate(phi, p) -> bool:
    """Evaluate a feasibility predicate on a pattern of the matching domain."""
    if isinstance(phi, AlwaysTrue):
        return True
    if isinstance(phi, ConnectedEdgeItemset):
        _require_pair_itemset(p)
        return connected_edge_itemset(p.items)
    if isinstance(phi, PreimageExistsAnd):
        if pattern_domain(p) != phi.reduction.target_domain:
            raise DomainMismatchError(
                f"predicate expects {phi.reduction.target_domain} patterns, "
                f"got {pattern_domain(p)}")
        q = phi.reduction.inverse(p)
        return q is not None and evaluate(phi.inner, q)
    if isinstance(phi, And):
        return all(evaluate(part, p) for part in phi.parts)
    raise TypeError(f"not a feasibility predicate: {phi!r}")


def describe(phi) -> str:
    """Render the textual descriptor used in CLI flags and mining results."""
    if isinstance(phi, AlwaysTrue):
        return "always"
    if isinstance(phi, ConnectedEdgeItemset):
        return "connected-edges"
    if isinstance(phi, PreimageExistsAnd):
        if isinstance(phi.inner, AlwaysTrue):
            return f"preimage({phi.reduction.id})"
        return f"preimage({phi.reduction.id}, {describe(phi.inner)})"
    if isinstance(phi, And):
        return "∧".join(describe(part) for part in phi.parts)
    raise TypeError(f"not a feasibility predicate: {phi!r}")
