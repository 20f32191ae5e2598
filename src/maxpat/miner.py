"""Levelwise mining of maximal feasible frequent patterns.

The itemset miner is a classic candidate-generate-and-count loop with
vertical (tidset) support counting.  Feasibility is folded in one of three
ways:

* a predicate that only accepts images of a reduction whose source
  patterns can grow (``step_reduction``, today any chain that starts with
  ``seq2dag``) is climbed in the source domain: the step climb below;
* split-stable predicates prune during the climb: only feasible frequent
  sets survive a level and seed the next one, which can only shrink the
  per-level candidate counts relative to an unconstrained run;
* everything else runs frequency-only and applies the predicate as a
  post-filter before maximality extraction, which is always sound because
  the frequent sets are downward-closed and fully enumerated.

The step climb counts images only.  Level 1 holds the images of the
one-element source patterns, and level k+1 the images of every pattern
that ``grow`` makes from a frequent level-k one (for sequences: one new
label inserted anywhere).  It finds every frequent image, whatever the
predicate: a reduction preserves containment, so image(s') is inside
image(s) for every sub-pattern s' of s and is frequent when image(s) is;
a sequence of length k+1 is one insertion away from each of its length-k
subsequences, so by induction every frequent image is reached through
frequent images alone.  Every set the predicate accepts is an image, so
the predicate only filters what the climb counts.  Through
``seq2dag``∘``dirg2fis`` a length-k sequence is k + k(k-1)/2 items; the
join climb below would count every frequent connected subset of those
items on the way, most of which are no image at all.  Graph encodings are
linear in the pattern and stay on the join climb.

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
cannot represent, is reported directly at the source level when nothing
else is frequent.
"""

from dataclasses import dataclass
from itertools import chain, combinations, compress

import numpy as np

from . import _kernels
from .core import Database, check_tau
from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    Itemset, Sequence, canonical_key, item_labels,
)
from .errors import DomainMismatchError, ExtendError
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
    the step climb, where it is the size of the source patterns whose
    images are counted."""

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


def _generate(survivors, labels_of, merge_phi):
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
            if not merge_phi.merge_hint(labels_of[ia], labels_of[ib]):
                continue
            out.add(tuple(sorted(shared + (xa, xb))))
    return sorted(out)


def _grow_images(r, parents, labels, index):
    """The step climb's next level: the images, as index tuples in sorted
    order, of the source patterns that ``r.grow`` makes from ``parents``
    (a parent None grows the one-element patterns), each mapped to the
    pattern it images.  An image with an item the database lacks has
    support 0, so it is dropped before counting."""
    grown = {q for p in parents for q in r.grow(p, labels)}
    out = {}
    for q in grown:
        # image items are sorted by label, so their indices come sorted
        s = tuple(map(index.get, r.forward(q).items))
        if None not in s:
            out[s] = q
    return dict(sorted(out.items()))


def _maximal_among(collected, n_items):
    """Drop every index tuple with a strict superset in the collection.  The
    sets are distinct, so a set is maximal iff the only collected set
    containing it is itself; containment is counted like support, with the
    collected sets in place of the transactions, one size bucket at a time."""
    tidsets = _tidsets(collected, n_items)
    by_size = {}
    for s in collected:
        by_size.setdefault(len(s), []).append(s)
    maximal = []
    for sets in by_size.values():
        counts = _kernels.count_supports(tidsets,
                                         np.array(sets, dtype=np.intp))
        maximal.extend(s for s, c in zip(sets, counts) if c == 1)
    return maximal


def mine_max_ffis(db: Database, tau: int, phi=ALWAYS,
                  mode: str = "auto") -> MiningResult:
    """Mine an itemset database for its maximal feasible frequent itemsets.

    ``mode`` selects the feasibility strategy: "auto" climbs through the
    images of a reduction when the predicate names a ``step_reduction``,
    prunes levelwise when it declares itself split-stable and post-filters
    otherwise; the explicit modes exist so the strategies can be compared.
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
    # auto mode with a non-stable predicate may still trim the climb with a
    # split-stable family known to enclose it, keeping the exact predicate
    # for the post-filter; the explicit postfilter mode stays frequency-only
    proxy = phi.prune_proxy if mode == "auto" and not prune else None

    # index order is label order, so index tuples sort like their itemsets
    items = sorted({x for t in db.transactions for x in t.items})
    index = {x: i for i, x in enumerate(items)}
    tidsets = _tidsets([[index[x] for x in t.items] for t in db.transactions],
                       len(items))
    item_label_sets = [item_labels((x,)) for x in items]

    def itemset(s):
        return Itemset._trusted(tuple(items[i] for i in s))

    # the merge hint is sound in both modes: any feasible set of size >= 2
    # keeps two one-smaller feasible subsets (drop a marker or a leaf/cycle
    # edge), so a climb through feasible sets never needs a pruned join
    merge_phi = proxy if proxy is not None else phi

    if step is not None:
        labels = item_labels(items)
        sources = _grow_images(step, [None], labels, index)
        current = list(sources)
    else:
        current = [(i,) for i in range(len(items))]
    stats = []
    collected = []
    level = 1
    while current:
        counts = _kernels.count_supports(tidsets,
                                         np.array(current, dtype=np.intp))
        frequent = [current[i] for i in np.flatnonzero(counts >= tau)]
        accepted = [evaluate(phi, itemset(s)) for s in frequent]
        feasible = list(compress(frequent, accepted))
        stats.append(LevelStats(level, len(current), len(frequent),
                                len(feasible)))
        collected.extend(feasible)
        level += 1
        if step is not None:
            sources = _grow_images(step, [sources[s] for s in frequent],
                                   labels, index)
            current = list(sources)
            continue
        if prune:
            survivors = feasible
        elif proxy is not None:
            # the proxy encloses phi, so only the sets phi rejected need it
            survivors = [s for s, ok in zip(frequent, accepted)
                         if ok or evaluate(proxy, itemset(s))]
        else:
            survivors = frequent
        labels_of = [frozenset().union(*(item_label_sets[i] for i in s))
                     for s in survivors]
        current = _generate(survivors, labels_of, merge_phi)

    if collected:
        maximal = [itemset(s) for s in _maximal_among(collected, len(items))]
    elif tau <= len(db) and evaluate(phi, Itemset()):
        maximal = [Itemset()]
    else:
        maximal = []
    return MiningResult(tuple(sorted(maximal, key=canonical_key)),
                        tuple(stats), tau, describe(phi))


def mine_via_reduction(r: Reduction, db: Database, tau: int, phi=ALWAYS,
                       mode: str = "auto") -> MiningResult:
    """Reduce, mine with the induced predicate, lift the results back.

    The chain must end in the itemset domain (compose with an edge-itemset
    encoding if it does not).  When the chain cannot represent the empty
    source pattern and nothing else is frequent, the empty pattern is
    reported directly at the source level.
    """
    check_tau(tau)
    if db.domain != r.source_domain:
        raise DomainMismatchError(
            f"{r.id} starts from {r.source_domain}, got a {db.domain} database")
    if r.target_domain != ITEMSET:
        raise DomainMismatchError(
            f"{r.id} ends in {r.target_domain}; compose it down to itemsets "
            f"to mine through it")
    reduced = reduce_database(r, db)
    induced = r.induced_feasibility(phi)
    res = mine_max_ffis(reduced, tau, induced, mode=mode)
    lifted = lift_results(r, res.maximal)
    if not lifted and tau <= len(db):
        empty = _empty_pattern(r.source_domain)
        if empty is not None and evaluate(phi, empty):
            lifted = (empty,)
    return MiningResult(lifted, res.stats, tau, describe(phi))


def _empty_pattern(domain):
    if domain == ITEMSET:
        return Itemset()
    if domain == SEQUENCE:
        return Sequence()
    return None  # graphs have no empty pattern


_SEQ_CHAIN = Composed(SequenceToDag(), GraphToEdgeItemset(directed=True))


def mine(db: Database, tau: int, phi=ALWAYS,
         mode: str = "auto") -> MiningResult:
    """Mine any supported domain: itemsets directly, graphs through the
    edge-itemset encoding, sequences through the order-dag chain."""
    check_tau(tau)
    if db.domain == ITEMSET:
        return mine_max_ffis(db, tau, phi, mode=mode)
    if db.domain == GRAPH:
        return mine_via_reduction(GraphToEdgeItemset(directed=False), db, tau,
                                  phi, mode=mode)
    if db.domain == DIGRAPH:
        return mine_via_reduction(GraphToEdgeItemset(directed=True), db, tau,
                                  phi, mode=mode)
    assert db.domain == SEQUENCE
    nonempty = [t for t in db.transactions if len(t)]
    if len(nonempty) == len(db.transactions):
        return mine_via_reduction(_SEQ_CHAIN, db, tau, phi, mode=mode)
    # empty transactions cannot pass through the order-dag chain; they only
    # ever support the empty sequence, so mine the rest and patch it in
    res = mine_via_reduction(_SEQ_CHAIN, Database(SEQUENCE, tuple(nonempty)),
                             tau, phi, mode=mode)
    maximal = res.maximal
    if not maximal and tau <= len(db) and evaluate(phi, Sequence()):
        maximal = (Sequence(),)
    return MiningResult(maximal, res.stats, tau, res.phi)


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
