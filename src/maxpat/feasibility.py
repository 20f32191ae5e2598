"""Feasibility predicates over patterns.

The algebra is deliberately closed and tiny so that a predicate is always
describable in constant space:

* ``AlwaysTrue``             -- the unconstrained problem
* ``ConnectedEdgeItemset``   -- pair-itemsets whose label graph is connected
* ``PreimageExistsAnd``      -- a reduction preimage exists and the inner
                                predicate holds on it
* ``And``                    -- finite conjunction of the above

Each predicate carries its own behaviour: ``evaluate(p)``,
``evaluate_grown``, ``describe()``, ``merge_hint`` and ``step_reduction``.
The module functions ``evaluate``, ``evaluate_grown`` and ``describe`` are
the entry points and refuse anything else.

A predicate may name a ``step_reduction``: a reduction among whose images
lies every set the predicate accepts.  Every preimage predicate names its
reduction, and the miner then climbs through the images of source
patterns grown one element at a time.  It asks ``evaluate_grown`` about
each frequent image, with two thunks that build the source pattern it
grew and the image: a preimage predicate on the step reduction itself
judges that source, since the source is the image's preimage
(``inverse(forward(q)) == q``), so no image is decoded; any other
conjunct judges the image.  Each is built only for a conjunct that reads
it, so ``ALWAYS`` and a bare preimage on the step build nothing.  A
predicate without a step reduction prunes the join climb, so it must be
split-stable: every feasible set of size m has feasible subsets of every
smaller positive size, which licenses levelwise pruning even though
connectivity is not anti-monotone.  ``AlwaysTrue``,
``ConnectedEdgeItemset`` and their conjunctions are the predicates without
one, and all of them are.

The join climb asks ``merge_hint(labels, a, b)`` once per level, for all
pairs of surviving sets at once: ``labels`` holds each survivor's plain
labels as a row of uint64 bitset words, and survivor ``a[i]`` pairs with
``b[i]``.  The answer is a boolean per pair, or True for every pair; a
False must mean that the union of the pair is infeasible.  On two
feasible sets the hint of a predicate without a step reduction is exact,
True meaning a feasible union, so the miner evaluates only the first
level of a pruned join climb.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .domains import Itemset, item_labels, pattern_domain, spans
from .errors import DomainMismatchError


class Predicate:
    """What the predicates share: no step reduction and no merge hint."""

    step_reduction = None

    def merge_hint(self, labels, a, b):
        return True

    def evaluate_grown(self, step, source, image):
        return self.evaluate(image())


@dataclass(frozen=True)
class AlwaysTrue(Predicate):
    def evaluate(self, p):
        return True

    def evaluate_grown(self, step, source, image):
        return True

    def describe(self):
        return "always"


@dataclass(frozen=True)
class ConnectedEdgeItemset(Predicate):
    def evaluate(self, p):
        if not isinstance(p, Itemset):
            raise DomainMismatchError("connectivity feasibility expects an "
                                      f"itemset, got {pattern_domain(p)}")
        if p.items and not isinstance(p.items[0], tuple):
            raise DomainMismatchError(
                "connectivity feasibility expects label-pair items")
        return connected_edge_itemset(p.items)

    def describe(self):
        return "connected-edges"

    def merge_hint(self, labels, a, b):
        # the union of two connected edge sets is connected iff their label
        # sets intersect, so disjoint pairs can be skipped wholesale
        return (labels[a] & labels[b]).any(axis=1)


@dataclass(frozen=True)
class PreimageExistsAnd(Predicate):
    reduction: object  # any Reduction; duck-typed to avoid an import cycle
    inner: object

    @property
    def step_reduction(self):
        # everything accepted is an image of the reduction
        return self.reduction

    def evaluate(self, p):
        # inverse refuses a pattern off the reduction's target domain
        q = self.reduction.inverse(p)
        return q is not None and evaluate(self.inner, q)

    def evaluate_grown(self, step, source, image):
        if self.reduction == step:
            # the inner predicate judges the source, built only when read
            return evaluate_grown(self.inner, None, None, source)
        return self.evaluate(image())

    def describe(self):
        if self.inner == ALWAYS:
            return f"preimage({self.reduction.id})"
        return f"preimage({self.reduction.id}, {describe(self.inner)})"


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def step_reduction(self):
        # a conjunct's images enclose everything the conjunction accepts
        return next((p.step_reduction for p in self.parts
                     if p.step_reduction is not None), None)

    def evaluate(self, p):
        return all(evaluate(part, p) for part in self.parts)

    def evaluate_grown(self, step, source, image):
        return all(evaluate_grown(part, step, source, image)
                   for part in self.parts)

    def describe(self):
        return "∧".join(describe(part) for part in self.parts)

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
    return spans(item_labels(items), items)


def _check(phi):
    if not isinstance(phi, Predicate):
        raise TypeError(f"not a feasibility predicate: {phi!r}")
    return phi


def evaluate(phi, p) -> bool:
    """Evaluate a feasibility predicate on a pattern of the matching domain."""
    return _check(phi).evaluate(p)


def evaluate_grown(phi, step, source, image) -> bool:
    """Evaluate a feasibility predicate on the image under ``step`` of a
    source pattern the step climb grew: ``source()`` builds the pattern
    and ``image()`` its image, each only for a conjunct that reads it."""
    return _check(phi).evaluate_grown(step, source, image)


def describe(phi) -> str:
    """Render the textual descriptor used in CLI flags and mining results."""
    return _check(phi).describe()
