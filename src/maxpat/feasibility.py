"""Feasibility predicates over patterns.

The algebra is deliberately closed and tiny so that a predicate is always
describable in constant space:

* ``AlwaysTrue``             -- the unconstrained problem
* ``ConnectedEdgeItemset``   -- pair-itemsets whose label graph is connected
* ``PreimageExistsAnd``      -- a reduction preimage exists and the inner
                                predicate holds on it
* ``And``                    -- finite conjunction of the above

Each predicate carries its own behaviour: ``evaluate(p)``, ``judge``,
``describe()``, ``merge_hint`` and ``step_reduction``.  The module
functions ``evaluate``, ``judge`` and ``describe`` are the entry points
and refuse anything else.  ``evaluate`` judges one pattern, the reference
for ``judge``, which the miner asks about a whole list: it takes a
callable ``patterns`` that builds the list, and answers a bool per
pattern or True for all, as ``merge_hint`` does; ``accepted``, which the
oracle asks, keeps the patterns of a list that ``judge`` accepts.
``ALWAYS`` builds nothing; a preimage predicate checks each pattern's
domain, finds every preimage with one ``Reduction._inverses`` call and
judges them as one list; a conjunction judges each conjunct on what the
ones before it accepted, as ``evaluate`` short-circuits, and stops once
nothing is left.

A predicate may name a ``step_reduction``: a reduction among whose images
lies every set the predicate accepts.  Every preimage predicate names its
reduction, and the miner then climbs through the images of source
patterns grown one element at a time.  It judges each level of frequent
images with one ``judge`` call, handing it ``step`` and a second callable
``sources`` that builds the source patterns it grew: a preimage predicate
on the step reduction itself judges those sources, since each is its
image's preimage (``inverse(forward(q)) == q``), so no image is decoded;
any other conjunct judges the images.  Each list is built only for a
conjunct that reads it, so ``ALWAYS`` and a bare preimage on the step
build no image.  A predicate without a step reduction prunes the join
climb, so it must be split-stable: every feasible set of size m has
feasible subsets of every smaller positive size, which licenses levelwise
pruning even though connectivity is not anti-monotone.  ``AlwaysTrue``,
``ConnectedEdgeItemset`` and their conjunctions are the predicates without
one, and all of them are.

The join climb asks ``merge_hint(items, x, y)`` only when it joins
single items, once per block of pairs: ``items`` are its label columns,
and item ``x[i]`` pairs with ``y[i]``.  The answer is a boolean per pair,
or True for every pair; a False must mean an infeasible union.  On two
feasible items the hint of a predicate without a step reduction is exact.
Any later pair is two feasible sets sharing an item, and under these
predicates their union is feasible, so the miner judges only the first
level of a pruned join climb.
"""

from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress

import numpy as np

from .domains import Itemset, item_labels, pattern_domain, spans
from .errors import DomainMismatchError


class Predicate:
    """What the predicates share: no step reduction and no merge hint."""

    step_reduction = None

    def merge_hint(self, items, x, y):
        return True

    def judge(self, patterns, step=None, sources=None):
        return [self.evaluate(p) for p in patterns()]


@dataclass(frozen=True)
class AlwaysTrue(Predicate):
    def evaluate(self, p):
        return True

    def judge(self, patterns, step=None, sources=None):
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

    def merge_hint(self, items, x, y):
        # two items have a connected union iff they share a label, which
        # may stand in either column of each
        return reduce(np.logical_or, (c[x] == d[y] for c in items
                                      for d in items))


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

    def judge(self, patterns, step=None, sources=None):
        if self.reduction == step:
            # the inner predicate judges the sources, built only when read
            return judge(self.inner, sources)
        qs = patterns()
        for q in qs:  # as inverse does, refuse a pattern off the domain
            self.reduction._check_target(q)
        preimages = self.reduction._inverses(qs)
        ok = np.array([p is not None for p in preimages], dtype=bool)
        inner = judge(self.inner,
                      lambda: [p for p in preimages if p is not None])
        if not np.all(inner):
            ok[ok] = inner
        return ok

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

    def judge(self, patterns, step=None, sources=None):
        # each conjunct judges only what the ones before it accepted
        patterns, sources = cache(patterns), sources and cache(sources)
        ok = True
        for part in self.parts:
            kept = None if ok is True else np.flatnonzero(ok)
            if kept is not None and not len(kept):
                return ok
            part_ok = judge(part, _picked(patterns, kept), step,
                            _picked(sources, kept))
            if np.all(part_ok):
                continue
            if kept is None:
                ok = np.array(part_ok, dtype=bool)
            else:
                ok[kept] = part_ok
        return ok

    def describe(self):
        return "∧".join(describe(part) for part in self.parts)

    def merge_hint(self, items, x, y):
        return reduce(np.logical_and,
                      (p.merge_hint(items, x, y) for p in self.parts), True)


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


def judge(phi, patterns, step=None, sources=None):
    """Judge a list of patterns at once: a bool per pattern of
    ``patterns()``, or True for all.  Under a step climb, ``sources()``
    lists the source pattern grown for each, whose image under ``step`` it
    is; each list is built only for a conjunct that reads it."""
    return _check(phi).judge(patterns, step, sources)


def accepted(phi, patterns) -> list:
    """The patterns of the list ``patterns`` that ``phi`` accepts, judged
    with one ``judge`` call, in their order."""
    ok = judge(phi, lambda: patterns)
    return list(patterns) if np.all(ok) else list(compress(patterns, ok))


def _picked(build, kept):
    """``build``, or, when ``kept`` is an index array, a callable building
    only the entries at ``kept`` of its list."""
    if build is None or kept is None:
        return build
    return lambda: list(map(build().__getitem__, kept))


def describe(phi) -> str:
    """Render the textual descriptor used in CLI flags and mining results."""
    return _check(phi).describe()
