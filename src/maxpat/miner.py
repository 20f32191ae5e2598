"""Levelwise mining of maximal feasible frequent patterns.

The itemset miner is a classic candidate-generate-and-count loop with
vertical (tidset) support counting.  The predicate alone chooses the
climb, by whether it names a ``step_reduction``:

* step: a predicate that only accepts images of a reduction (every
  preimage predicate names its reduction) is climbed in the reduction's
  source domain: the step climb below;
* join: any other predicate is split-stable (see ``feasibility``) and
  prunes the join climb: only feasible frequent sets survive a level and
  seed the next one, which can only shrink the per-level candidate counts
  relative to an unconstrained run.

Mode "postfilter" is the reference the two are checked against: the join
climb runs frequency-only and the predicate filters the frequent sets
before maximality extraction, which is always sound because the frequent
sets are downward-closed and fully enumerated.

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

Itemsets and sequences also get the Apriori check: from level 2 on, a
grown pattern is counted only when every one-smaller sub-pattern of it
(drop an item, or drop an event) is among the level's frequent patterns.
That is sound because the climb counts every source pattern with a
frequent image, as above, so a sub-pattern missing from the frequent level
has an infrequent image, and containment makes the grown pattern's image
infrequent too.  A survivor without its largest item, or without its last
event, is a frequent pattern, so growing past the largest item or at the
end reaches every survivor once.  ``grow`` checks the raw tuples and
builds a pattern only for a survivor, so only survivors are encoded and
counted: on the sequences-dag benchmark (seed 1) the climb counts 822
candidates instead of 2 483.  Graphs grow without the check.  Dropping a
leaf or non-bridge edge is the graph form of it, but on graphs-wide every
connected two-edge pattern is frequent, so it would prune none of the
1 176 level-4 candidates while costing time on each.

Candidates of the join climb at level k are unions of two surviving
(k-1)-sets sharing k-2 items, built a whole level at a time in numpy.  Each
survivor enters once per column, as that column's item keyed by its other
k-2 items; sorting the entries brings equal keys together in runs, and each
pair of entries in a run is one union, the survivor of the first with the
item of the second.  A k-set is built once per pair of its surviving
(k-1)-subsets, so the unions are deduplicated as sorted rows, packed into
int64 words several item indices to a word: first within each block of
pairs, which keeps only its distinct unions and so bounds the memory, then
across the level.  The lexicographic prefix join familiar from
unconstrained mining would be incomplete here: the two connected
(k-1)-subsets that witness a connected k-set need not share a prefix (a
three-edge path is the union of its two overlapping two-edge halves, which
differ in their first item).  The predicate's merge hint judges all pairs
at once from bitsets of the survivors' labels; for connectivity a pair is
skipped when the bitsets share no label, which is exactly when the union is
disconnected.

The climb runs on item indices (``climb_rows``).  Items are numbered once,
in label order, so a candidate is a sorted row of ints and rows sort
exactly like the itemsets they name.  Numbering and packing are one flat
pass over the transactions' item rows: their items are chained into one
list, the distinct items sorted, every entry of the list mapped to its
index into one array, and that array packed into tidsets with the row ids
repeated along it.  The maximality filter packs the collected sets with
the same helper.  Labels are validated once, where the database is built;
a labelled ``Itemset`` is made, without checking its labels again, only for
a frequent set, where a predicate or the caller needs one.

Other domains are mined by encoding into itemsets through a reduction and
lifting the results back.  The encoding happens in index space: each
source transaction goes straight to the items of its image
(``encode_rows`` over ``Reduction.image_items``), and the step climb maps a
grown pattern's image items to indices and sorts the ints, so no image
``Itemset`` and no image ``Database`` is built or validated on the mine
path.  The empty itemset / sequence, which some chains cannot represent, is
left out of the encoding and reported directly at the source level when
nothing else is frequent.  ``MiningResult.seconds`` splits a call into
encoding, packing, the climb, the maximality filter and lifting.
"""

from dataclasses import dataclass, field
from itertools import chain, compress
from time import perf_counter

import numpy as np

from . import _kernels
from .core import Database, check_tau
from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    Itemset, Sequence, canonical_key, grow, item_labels,
)
from .errors import DomainMismatchError, ExtendError, PatternError
from .feasibility import ALWAYS, describe, evaluate
# the mine path encodes with encode_rows; reduce_database stays a module
# attribute because perfbench's tracer wraps it here by name
from .reductions import (  # noqa: F401
    Reduction, bind_reduction, encode_rows, lift_results, reduce_database,
)

MODES = ("auto", "postfilter")


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
    """The maximal patterns, the level table, and the seconds each phase
    took: ``encode`` (source transactions to item rows), ``pack`` (rows to
    tidsets), ``climb``, ``maximal`` (the maximality filter) and ``lift``
    (results back to the source domain).  Timings take no part in
    equality."""

    maximal: tuple
    stats: tuple
    tau: int
    phi: str
    seconds: dict = field(default_factory=dict, compare=False)


def _tidsets(rows, flat, n_items):
    """One bitset per item index over ``rows``, runs of items whose indices
    ``flat`` lists end to end: bit r of item i is set when row r contains
    i."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    rids = np.repeat(np.arange(len(rows), dtype=np.intp), lengths)
    return _kernels.pack_rows(flat, rids, n_items, len(rows))


def _label_bitsets(items):
    """One row of bitset words per item over the plain labels it touches.
    The labels are numbered densely, in sorted order, so sparse labels cost
    no more words than dense ones."""
    per_item = [item_labels((x,)) for x in items]
    code = {x: i for i, x in enumerate(sorted(frozenset().union(*per_item)))}
    bits = [code[x] for labels in per_item for x in labels]
    owners = np.repeat(np.arange(len(items), dtype=np.intp),
                       [len(labels) for labels in per_item])
    return _kernels.pack_rows(owners, bits, len(items), len(code))


def _packing(n_items):
    """Bits per item index below ``n_items``, and indices per int64 word."""
    width = max(1, (n_items - 1).bit_length())
    return width, 63 // width


def _row_words(rows, n_items):
    """The rows of an index matrix with entries below ``n_items``, packed
    into int64 words, as many columns to a word as fit, first column
    highest: equal rows pack equal, and sorting by the words in turn sorts
    the rows lexicographically.  A matrix without columns packs to one
    word of zeros."""
    width, per_word = _packing(n_items)
    words = []
    for lo in range(0, max(1, rows.shape[1]), per_word):
        w = np.zeros(len(rows), dtype=np.int64)
        for col in rows.T[lo:lo + per_word]:
            w <<= width
            w |= col
        words.append(w)
    return words


def _word_rows(words, k, n_items):
    """The k-column index matrix that ``_row_words`` packed into
    ``words``."""
    width, per_word = _packing(n_items)
    rows = np.empty((len(words[0]), k), dtype=np.intp)
    for j in range(k):
        w, c = divmod(j, per_word)
        shift = width * (min(per_word, k - w * per_word) - 1 - c)
        rows[:, j] = (words[w] >> shift) & ((1 << width) - 1)
    return rows


def _sort_words(words):
    """The order that sorts rows packed by ``_row_words``, and for each
    sorted position whether its row differs from the one before."""
    order = np.lexsort(words[::-1])
    ranked = [w[order] for w in words]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = ~np.logical_and.reduce([w[1:] == w[:-1] for w in ranked])
    return order, fresh


def _unique_words(words):
    """The distinct packed rows, in ascending order."""
    order, fresh = _sort_words(words)
    return [w[order[fresh]] for w in words]


def _generate(survivors, item_bits, phi):
    """Next-level candidates: the sorted unions of survivor pairs sharing
    all but one item, as the rows of an index matrix in ascending order.
    ``survivors`` holds distinct sorted rows of item indices and
    ``item_bits`` each item's labels (``_label_bitsets``)."""
    n, m = survivors.shape
    if n < 2:
        return np.empty((0, m + 1), dtype=np.intp)
    n_items = len(item_bits)
    labels = np.bitwise_or.reduce(item_bits[survivors], axis=1)
    # one entry per survivor and column: the column's item, keyed by the
    # survivor's other items; equal keys sort into runs
    keys = [np.concatenate(ws) for ws in zip(*(
        _row_words(np.delete(survivors, j, axis=1), n_items)
        for j in range(m)))]
    order, fresh = _sort_words(keys)
    owner = np.tile(np.arange(n, dtype=np.intp), m)[order]
    dropped = survivors.T.ravel()[order]
    # every entry pairs with each later entry of its run
    starts = np.flatnonzero(fresh)
    ends = np.append(starts[1:], len(order))
    later = np.repeat(ends, ends - starts) - 1 - np.arange(len(order))
    # blocks of entries whose unions fill about _BLOCK_BYTES each bound the
    # intermediates; a block keeps only its distinct unions, packed
    budget = max(1, _kernels._BLOCK_BYTES // (8 * (m + 1)))
    pairs = np.cumsum(later)
    cuts = np.unique(np.concatenate((
        [0], np.searchsorted(pairs, np.arange(budget, pairs[-1], budget)),
        [len(order)])))
    blocks = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        count = later[lo:hi]
        a = np.repeat(np.arange(lo, hi), count)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count,
                                                  count)
        keep = phi.merge_hint(labels, owner[a], owner[b])
        if not np.all(keep):
            a, b = a[keep], b[keep]
        cand = np.column_stack((survivors[owner[a]], dropped[b]))
        cand.sort(axis=1)
        blocks.append(_unique_words(_row_words(cand, n_items)))
    words = _unique_words([np.concatenate(ws) for ws in zip(*blocks)])
    return _word_rows(words, m + 1, n_items)


def _grow_images(r, level, labels, index):
    """The step climb's next level: the images, as sorted index tuples in
    sorted order, of the source patterns that ``grow`` makes from the
    frequent ``level`` (None grows the one-element patterns), each mapped
    to the pattern it images.  An image with an item the database lacks has
    support 0, so it is dropped before counting."""
    out = {}
    for q in grow(r.source_domain, level, labels):
        s = list(map(index.get, r.image_items(q)))
        if None not in s:
            s.sort()
            out[tuple(s)] = q
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
    flat = np.fromiter(chain.from_iterable(collected), dtype=np.intp)
    counts = _count_by_size(_tidsets(collected, flat, n_items), collected)
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

    In ``mode`` "auto" a predicate that names a ``step_reduction`` climbs
    through the images of that reduction, and any other predicate prunes
    the join climb.  "postfilter" runs the join climb on frequency alone
    and filters at the end; it is the reference the climbs are checked
    against.
    """
    check_tau(tau)
    if db.domain != ITEMSET:
        raise DomainMismatchError(
            f"the levelwise miner works on itemset databases, got {db.domain}")
    return climb_rows([t.items for t in db.transactions], tau, phi, mode)


def climb_rows(rows, tau: int, phi=ALWAYS,
               mode: str = "auto") -> MiningResult:
    """The levelwise climb of ``mine_max_ffis`` on item rows: each entry of
    ``rows`` lists one transaction's items, in any order, and all items are
    valid labels of one kind.  ``tau`` was checked by the caller.  The
    result's seconds cover packing, the climb and the maximality filter."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    prune = mode == "auto"
    step = phi.step_reduction if prune else None
    if step is not None and step.target_domain != ITEMSET:
        step = None  # accepts no itemset at all, which evaluate reports

    # one flat pass numbers the items and packs their tidsets; index order
    # is label order, so sorted index tuples sort like their itemsets
    start = perf_counter()
    flat = list(chain.from_iterable(rows))
    items = sorted(set(flat))
    index = {x: i for i, x in enumerate(items)}
    tidsets = _tidsets(rows, np.fromiter(map(index.__getitem__, flat),
                                         dtype=np.intp, count=len(flat)),
                       len(items))
    packed = perf_counter()

    def itemset(s):
        return Itemset._trusted(tuple(map(items.__getitem__, s)))

    if step is not None:
        labels = step.source_labels(item_labels(items))
        sources = _grow_images(step, None, labels, index)
        current = list(sources)
    else:
        item_bits = _label_bitsets(items)
        current = np.arange(len(items), dtype=np.intp).reshape(-1, 1)
    stats = []
    collected = []
    level = 1
    while len(current):
        if step is not None:
            # grown graphs image to sets of two sizes within a level
            hit = _count_by_size(tidsets, current) >= tau
            frequent = list(compress(current, hit))
        else:
            hit = _kernels.count_supports(tidsets, current) >= tau
            frequent = list(map(tuple, current[hit].tolist()))
        ok = [evaluate(phi, itemset(s)) for s in frequent]
        feasible = list(compress(frequent, ok))
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
        survivors = current[hit]
        if prune:
            survivors = survivors[np.array(ok, dtype=bool)]
        current = _generate(survivors, item_bits, phi)
    climbed = perf_counter()

    if collected:
        maximal = [itemset(s) for s in _maximal_among(collected, len(items))]
    else:
        # the one set the climb never counts: the empty itemset, or under
        # the step climb the image of the empty source pattern
        bottom = Itemset() if step is None else _empty_image(step)
        maximal = [bottom] if (
            bottom is not None
            and _support_on(tidsets, index, len(rows), bottom.items) >= tau
            and evaluate(phi, bottom)) else []
    maximal = tuple(sorted(maximal, key=canonical_key))
    seconds = {"encode": 0.0, "pack": packed - start,
               "climb": climbed - packed,
               "maximal": perf_counter() - climbed, "lift": 0.0}
    return MiningResult(maximal, tuple(stats), tau, describe(phi), seconds)


def _support_on(tidsets, index, n_rows, items):
    """Support of the itemset ``items`` among the ``n_rows`` rows that
    ``tidsets`` packs: every row for the empty itemset, none for one with
    an item the rows lack."""
    if not items:
        return n_rows
    s = [index.get(x) for x in items]
    if None in s:
        return 0
    return int(_kernels.count_supports(tidsets, np.array([s], dtype=np.intp))[0])


def mine_via_reduction(r: Reduction, db: Database, tau: int, phi=ALWAYS,
                       mode: str = "auto") -> MiningResult:
    """Encode, mine with the induced predicate, lift the results back.

    The chain must end in the itemset domain (compose with an edge-itemset
    encoding if it does not).  The transactions are encoded straight to
    item rows (``encode_rows``), with no image database.  Transactions
    equal to the empty source pattern support nothing else, so they are
    left out of the encoding; when nothing else is frequent, the empty
    pattern is reported directly at the source level.
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
    start = perf_counter()
    rows = encode_rows(r, db, skip=empty)
    encoded = perf_counter()
    res = climb_rows(rows, tau, r.induced_feasibility(phi), mode)
    lifting = perf_counter()
    lifted = lift_results(r, res.maximal)
    if not lifted and empty is not None and tau <= len(db) \
            and evaluate(phi, empty):
        lifted = (empty,)
    seconds = dict(res.seconds, encode=encoded - start,
                   lift=perf_counter() - lifting)
    return MiningResult(lifted, res.stats, tau, describe(phi), seconds)


def _empty_pattern(domain):
    if domain == ITEMSET:
        return Itemset()
    if domain == SEQUENCE:
        return Sequence()
    return None  # graphs have no empty pattern


#: the encoding ``mine`` climbs through, per non-itemset domain
_ENCODINGS = {
    GRAPH: bind_reduction("g2fis"),
    DIGRAPH: bind_reduction("dirg2fis"),
    SEQUENCE: bind_reduction("compose:seq2dag,dirg2fis"),
}


def mine(db: Database, tau: int, phi=ALWAYS,
         mode: str = "auto") -> MiningResult:
    """Mine any supported domain: itemsets directly, graphs through the
    edge-itemset encoding, sequences through the order-dag chain."""
    check_tau(tau)
    if db.domain == ITEMSET:
        return mine_max_ffis(db, tau, phi, mode=mode)
    return mine_via_reduction(_ENCODINGS[db.domain], db, tau, phi, mode=mode)


def count_maximal(db: Database, tau: int, phi=ALWAYS) -> int:
    return len(mine(db, tau, phi).maximal)


def extend(db: Database, tau: int, phi, known):
    """The canonically smallest maximal pattern outside ``known``, or None
    once ``known`` covers everything.  ``known`` must consist of maximal
    patterns of this instance; anything else is the caller holding the API
    wrong and raises."""
    result = mine(db, tau, phi)
    maximal = set(result.maximal)
    known = set(known)
    bad = known - maximal
    if bad:
        sample = min(bad, key=canonical_key)
        raise ExtendError(f"known set contains a non-maximal pattern: {sample!r}")
    rest = sorted(maximal - known, key=canonical_key)
    return rest[0] if rest else None


def extendible(db: Database, tau: int, phi, known) -> bool:
    return extend(db, tau, phi, known) is not None


def extendible_k(db: Database, tau: int, phi, known, k: int) -> bool:
    """Bounded variant: only meaningful while fewer than ``k`` maximal
    patterns are known."""
    known = tuple(known)
    if len(known) >= k:
        raise ExtendError(f"extendible_k needs |known| < k, got {len(known)} >= {k}")
    return extendible(db, tau, phi, known)
