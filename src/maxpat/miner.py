"""Levelwise mining of maximal feasible frequent patterns.

The itemset miner is a classic candidate-generate-and-count loop with
vertical (tidset) support counting.  Feasibility is folded in one of three
ways:

* step: a predicate that only accepts images of a reduction
  (``step_reduction``, which every preimage predicate names) is climbed in
  the reduction's source domain: the step climb below;
* levelwise: split-stable predicates prune the join climb: only feasible
  frequent sets survive a level and seed the next one, which can only
  shrink the per-level candidate counts relative to an unconstrained run;
* postfilter: the join climb runs frequency-only and the predicate filters
  the frequent sets before maximality extraction, which is always sound
  because the frequent sets are downward-closed and fully enumerated.  It
  is chosen explicitly, as the reference the other two are checked against.

The step climb counts images only.  Level 1 holds the images of the
one-element source patterns, and level k+1 the images of every pattern
that ``domains.grow`` makes from a frequent level-k one: one new item, one
new label inserted anywhere in a sequence, or one new edge in a graph,
between two of its vertices or to a new one.  It finds every frequent
image, whatever the predicate: a reduction preserves containment, so
image(s') is inside image(s) for every sub-pattern s' of s and is frequent
when image(s) is; and every pattern is one grow away from a sub-pattern one
level down, so by induction every frequent image is reached through
frequent images alone.  An itemset or a sequence of length k+1 loses any
one element.  A connected graph with an edge has a leaf edge or a
non-bridge edge; removing it (a leaf edge with its leaf) leaves a
connected graph with one edge fewer, so a graph's level is its edge count
plus one.  Every set the predicate accepts is an image, so the predicate
only filters what the climb counts.  The join climb would instead count
every frequent subset of the encoding on the way, most of which are no
image at all: through ``seq2dag``∘``dirg2fis`` a length-k sequence is
k + k(k-1)/2 items, and through ``fis2tree``∘``g2bdg3``∘``g2fis`` a
k-itemset is (k+1)(2r-1) + k items, r being the star's root label.  The
source labels a climb grows from are read off the items by the reduction
(``source_labels``), since a link may relabel.

Candidates of the join climb at level k are unions of two surviving
(k-1)-sets sharing k-2 items.  Pairs are found by bucketing each survivor
under its (k-2)-subsets, so a union is attempted once per shared subset and
deduplicated.  The lexicographic prefix join familiar from unconstrained
mining would be incomplete here: the two connected (k-1)-subsets that
witness a connected k-set need not share a prefix (a three-edge path is the
union of its two overlapping two-edge halves, which differ in their first
item).  For the connectivity predicate a pair is skipped when the label
sets are disjoint, which is exactly the cheap merge test that makes the
union disconnected.

The climb runs on item indices.  Items are numbered once, in label order,
so a candidate is a sorted tuple of ints that sorts exactly like the
itemset it names, and the tidsets are packed in numpy from flat index
arrays.  Labels are validated once, where the database is built; a labelled
``Itemset`` is made, without checking its labels again, only where a
predicate or the caller needs one.

Other domains are mined by encoding into itemsets through a reduction and
lifting the results back; the empty itemset / sequence, which some chains
cannot represent, is left out of the reduction and reported directly at the
source level when nothing else is frequent.
"""

from dataclasses import dataclass
from itertools import chain, combinations, compress

import numpy as np

from . import _kernels
from .core import Database, check_tau, support
from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    Itemset, Sequence, canonical_key, grow, item_labels,
)
from .errors import DomainMismatchError, ExtendError, PatternError
from .feasibility import ALWAYS, describe, evaluate
from .reductions import (
    Composed, GraphToEdgeItemset, Reduction, SequenceToDag,
    lift_results, reduce_database,
)

MODES = ("auto", "levelwise", "postfilter")


@dataclass(frozen=True)
class LevelStats:
    """Counts for one level of the climb; feasible_frequent <= frequent <=
    candidates by construction.  A level is an itemset size, except under
    the step climb, where it is the number of grow steps to the source
    patterns whose images are counted: an itemset size, a sequence length,
    or a graph's edge count + 1."""

    level: int
    candidates: int
    frequent: int
    feasible_frequent: int


@dataclass(frozen=True)
class MiningResult:
    maximal: tuple
    stats: tuple
    tau: int
    phi: str


def _tidsets(rows, n_items):
    """One bitset per item index over ``rows``, each a run of item indices:
    bit r of item i is set when row r contains i."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    items = np.fromiter(chain.from_iterable(rows), dtype=np.intp,
                        count=int(lengths.sum()))
    rids = np.repeat(np.arange(len(rows), dtype=np.intp), lengths)
    return _kernels.pack_rows(items, rids, n_items, len(rows))


def _generate(survivors, labels_of, phi):
    """Next-level candidates: unions of survivor pairs sharing all but one
    item, as sorted index tuples in ascending order."""
    buckets = {}
    for i, s in enumerate(survivors):
        for j, x in enumerate(s):
            buckets.setdefault(s[:j] + s[j + 1:], []).append((x, i))
    out = set()
    for shared, entries in buckets.items():
        if len(entries) < 2:
            continue
        for (xa, ia), (xb, ib) in combinations(entries, 2):
            if not phi.merge_hint(labels_of[ia], labels_of[ib]):
                continue
            out.add(tuple(sorted(shared + (xa, xb))))
    return sorted(out)


def _grow_images(r, parents, labels, index):
    """The step climb's next level: the images, as index tuples in sorted
    order, of the source patterns that ``grow`` makes from ``parents`` (a
    parent None grows the one-element patterns), each mapped to the pattern
    it images.  An image with an item the database lacks has support 0, so
    it is dropped before counting."""
    grown = {q for p in parents for q in grow(r.source_domain, p, labels)}
    out = {}
    for q in grown:
        # image items are sorted by label, so their indices come sorted
        s = tuple(map(index.get, r.forward(q).items))
        if None not in s:
            out[s] = q
    return dict(sorted(out.items()))


def _count_by_size(tidsets, sets):
    """Supports of index tuples of mixed sizes, one kernel call per size."""
    by_size = {}
    for i, s in enumerate(sets):
        by_size.setdefault(len(s), []).append(i)
    counts = np.empty(len(sets), dtype=np.int64)
    for idx in by_size.values():
        counts[idx] = _kernels.count_supports(
            tidsets, np.array([sets[i] for i in idx], dtype=np.intp))
    return counts


def _maximal_among(collected, n_items):
    """Drop every index tuple with a strict superset in the collection.  The
    sets are distinct, so a set is maximal iff the only collected set
    containing it is itself; containment is counted like support, with the
    collected sets in place of the transactions."""
    counts = _count_by_size(_tidsets(collected, n_items), collected)
    return list(compress(collected, counts == 1))


def _empty_image(r):
    """The image of ``r``'s empty source pattern, or None where the source
    domain or the chain has none."""
    empty = _empty_pattern(r.source_domain)
    if empty is None:
        return None
    try:
        return r.forward(empty)
    except PatternError:  # seq2dag cannot picture <>
        return None


def mine_max_ffis(db: Database, tau: int, phi=ALWAYS,
                  mode: str = "auto") -> MiningResult:
    """Mine an itemset database for its maximal feasible frequent itemsets.

    ``mode`` selects the feasibility strategy: "auto" climbs through the
    images of a reduction when the predicate names a ``step_reduction`` and
    otherwise prunes levelwise when the predicate declares itself
    split-stable; the explicit modes exist so the strategies can be compared.
    Forcing "levelwise" on a predicate that does not claim split-stability
    is refused, since the climb could then miss feasible sets.
    """
    check_tau(tau)
    if db.domain != ITEMSET:
        raise DomainMismatchError(
            f"the levelwise miner works on itemset databases, got {db.domain}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "levelwise" and not phi.split_stable:
        raise ValueError(
            "levelwise pruning requires a split-stable predicate; "
            "use mode='postfilter'")
    step = phi.step_reduction if mode == "auto" else None
    if step is not None and step.target_domain != ITEMSET:
        step = None  # accepts no itemset at all, which evaluate reports
    prune = phi.split_stable if mode == "auto" else (mode == "levelwise")

    # index order is label order, so index tuples sort like their itemsets
    items = sorted({x for t in db.transactions for x in t.items})
    index = {x: i for i, x in enumerate(items)}
    tidsets = _tidsets([[index[x] for x in t.items] for t in db.transactions],
                       len(items))
    item_label_sets = [item_labels((x,)) for x in items]

    def itemset(s):
        return Itemset._trusted(tuple(items[i] for i in s))

    if step is not None:
        labels = step.source_labels(item_labels(items))
        sources = _grow_images(step, [None], labels, index)
        current = list(sources)
    else:
        current = [(i,) for i in range(len(items))]
    stats = []
    collected = []
    level = 1
    while current:
        if step is not None:
            # grown graphs image to sets of two sizes within a level
            counts = _count_by_size(tidsets, current)
        else:
            counts = _kernels.count_supports(tidsets,
                                             np.array(current, dtype=np.intp))
        frequent = [current[i] for i in np.flatnonzero(counts >= tau)]
        feasible = [s for s in frequent if evaluate(phi, itemset(s))]
        stats.append(LevelStats(level, len(current), len(frequent),
                                len(feasible)))
        collected.extend(feasible)
        level += 1
        if step is not None:
            sources = _grow_images(step, [sources[s] for s in frequent],
                                   labels, index)
            current = list(sources)
            continue
        # the merge hint is sound in both modes: any feasible set of size
        # >= 2 keeps two one-smaller feasible subsets (drop a marker or a
        # leaf/cycle edge), so a climb through feasible sets never needs a
        # pruned join
        survivors = feasible if prune else frequent
        labels_of = [frozenset().union(*(item_label_sets[i] for i in s))
                     for s in survivors]
        current = _generate(survivors, labels_of, phi)

    if collected:
        maximal = [itemset(s) for s in _maximal_among(collected, len(items))]
    else:
        # the one set the climb never counts: the empty itemset, or under
        # the step climb the image of the empty source pattern
        bottom = Itemset() if step is None else _empty_image(step)
        maximal = [bottom] if (bottom is not None
                               and support(bottom, db) >= tau
                               and evaluate(phi, bottom)) else []
    return MiningResult(tuple(sorted(maximal, key=canonical_key)),
                        tuple(stats), tau, describe(phi))


def mine_via_reduction(r: Reduction, db: Database, tau: int, phi=ALWAYS,
                       mode: str = "auto") -> MiningResult:
    """Reduce, mine with the induced predicate, lift the results back.

    The chain must end in the itemset domain (compose with an edge-itemset
    encoding if it does not).  Transactions equal to the empty source
    pattern support nothing else, so they are left out of the reduction;
    when nothing else is frequent, the empty pattern is reported directly
    at the source level.
    """
    check_tau(tau)
    if db.domain != r.source_domain:
        raise DomainMismatchError(
            f"{r.id} starts from {r.source_domain}, got a {db.domain} database")
    if r.target_domain != ITEMSET:
        raise DomainMismatchError(
            f"{r.id} ends in {r.target_domain}; compose it down to itemsets "
            f"to mine through it")
    empty = _empty_pattern(r.source_domain)
    source = db
    if empty is not None and empty in db.transactions:
        source = Database(db.domain,
                          tuple(t for t in db.transactions if t != empty))
    reduced = reduce_database(r, source)
    res = mine_max_ffis(reduced, tau, r.induced_feasibility(phi), mode=mode)
    lifted = lift_results(r, res.maximal)
    if not lifted and empty is not None and tau <= len(db) \
            and evaluate(phi, empty):
        lifted = (empty,)
    return MiningResult(lifted, res.stats, tau, describe(phi))


def _empty_pattern(domain):
    if domain == ITEMSET:
        return Itemset()
    if domain == SEQUENCE:
        return Sequence()
    return None  # graphs have no empty pattern


#: the encoding ``mine`` climbs through, per non-itemset domain
_ENCODINGS = {
    GRAPH: GraphToEdgeItemset(directed=False),
    DIGRAPH: GraphToEdgeItemset(directed=True),
    SEQUENCE: Composed(SequenceToDag(), GraphToEdgeItemset(directed=True)),
}


def mine(db: Database, tau: int, phi=ALWAYS,
         mode: str = "auto") -> MiningResult:
    """Mine any supported domain: itemsets directly, graphs through the
    edge-itemset encoding, sequences through the order-dag chain."""
    check_tau(tau)
    if db.domain == ITEMSET:
        return mine_max_ffis(db, tau, phi, mode=mode)
    return mine_via_reduction(_ENCODINGS[db.domain], db, tau, phi, mode=mode)


def count_maximal(db: Database, tau: int, phi=ALWAYS,
                  mode: str = "auto") -> int:
    return len(mine(db, tau, phi, mode=mode).maximal)


def extend(db: Database, tau: int, phi, known, mode: str = "auto"):
    """The canonically smallest maximal pattern outside ``known``, or None
    once ``known`` covers everything.  ``known`` must consist of maximal
    patterns of this instance; anything else is the caller holding the API
    wrong and raises."""
    result = mine(db, tau, phi, mode=mode)
    maximal = set(result.maximal)
    known = set(known)
    bad = known - maximal
    if bad:
        sample = min(bad, key=canonical_key)
        raise ExtendError(f"known set contains a non-maximal pattern: {sample!r}")
    rest = sorted(maximal - known, key=canonical_key)
    return rest[0] if rest else None


def extendible(db: Database, tau: int, phi, known, mode: str = "auto") -> bool:
    return extend(db, tau, phi, known, mode=mode) is not None


def extendible_k(db: Database, tau: int, phi, known, k: int,
                 mode: str = "auto") -> bool:
    """Bounded variant: only meaningful while fewer than ``k`` maximal
    patterns are known."""
    known = tuple(known)
    if len(known) >= k:
        raise ExtendError(f"extendible_k needs |known| < k, got {len(known)} >= {k}")
    return extendible(db, tau, phi, known, mode=mode)
