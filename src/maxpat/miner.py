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
one-element source patterns, and level k+1 the images of every pattern one
element larger than a frequent level-k one: one new item, one new event,
or one new edge in a graph, between two of its vertices or to a new one.
It finds every frequent image, whatever the predicate: a reduction
preserves containment, so image(s') is inside image(s) for every
sub-pattern s' of s and is frequent when image(s) is; and every pattern
is one element larger than a sub-pattern one level down, so by induction
every frequent image is reached through frequent images alone.  An
itemset or a sequence of length k+1 loses any one element.  A connected
graph with an edge has a leaf edge or a non-bridge edge; removing it (a
leaf edge with its leaf) leaves a connected graph with one edge fewer, so
a graph's level is its edge count plus one.  The predicate only filters
what the climb counts: one ``feasibility.judge`` call judges each level
of frequent images, and a preimage conjunct through the step reduction
judges the source patterns the climb grew in place of their images.  The
join climb would instead count every frequent subset of the encoding on
the way, most of which are no image at all: through
``seq2dag``∘``dirg2fis`` a length-k sequence is k + k(k-1)/2 items, and
through ``fis2tree``∘``g2bdg3``∘``g2fis`` a k-itemset is (k+1)(2r-1) + k
items, r being the star's root label.

A level of the step climb is one intp matrix of source rows: ranks in
the alphabet, the sorted source labels that the items can stand for
(``source_labels``).  A row holds an itemset's items or a sequence's
events in order, or the sorted codes a * n + b of a graph's edges (a, b),
for n labels, with a < b when undirected; a lone vertex v is (v, v), as
in an edge itemset.  Rows are grown (``_grow``), read as a batch of
source patterns (``_row_batch``), mapped to image rows (``_images``) and
judged in numpy; patterns are built (``core.batch_patterns``) only for
the answer and for a predicate that reads them, a level at a time.
Itemsets and sequences also get the Apriori check: a grown row is kept
only when each row that drops one of its elements is among the level's
frequent rows.
The climb counts every source pattern with a frequent image, so a
sub-pattern missing there has an infrequent image, and so has the grown
pattern.  A survivor without its largest item, or its last event, is
frequent, so growing past the last item or at the end reaches each
survivor once.  Graphs grow without the check: on graphs-wide every
connected two-edge pattern is frequent, so it would prune none of the
1 176 level-4 candidates while costing time on each.

Candidates of the join climb at level k are unions of two surviving
(k-1)-sets sharing k-2 items, built a whole level at a time in numpy.  Each
survivor enters once per column, as that column's item keyed by its other
k-2 items; sorting the entries brings equal keys together in runs, and each
pair of entries in a run is one union, the survivor of the first with the
item of the second.  That item is put in its place in the first's sorted
row (``_inserted``), moving left past each larger item a column at a time,
so no row is sorted on its own.  A k-set is built once per pair of its
surviving (k-1)-subsets, so the unions are deduplicated, packed into int64
words several item indices to a word: first within each block of pairs,
which keeps only its distinct unions and so bounds the memory, then across
the level when it took more than one block.  The lexicographic prefix join
familiar from unconstrained mining would be incomplete here: the two
connected (k-1)-subsets that witness a connected k-set need not share a
prefix (a three-edge path is the union of its two overlapping two-edge
halves, which differ in their first item).  The predicate's merge hint judges all pairs
at once from bitsets of the survivors' labels; for connectivity a pair is
skipped when the bitsets share no label, which is exactly when the union is
disconnected.  In mode "auto" every predicate without a step reduction is
``ALWAYS``, connectivity or their conjunction, and any other one is refused
at level 1, so the union of two feasible sets is feasible iff the hint
keeps the pair: the climb judges level 1 alone, and under ``ALWAYS``,
which accepts every set, builds no itemset even for that.

The climb runs on item indices (``climb_rows``).  Items are numbered once,
in label order, so rows sort like the itemsets they name, from one flat
incidence of the transactions (``incidence.number``), and packed into
tidsets (``_kernels.pack_rows``).  Every level of either climb is one
(n, k) matrix of sorted index rows, from counting to the maximality
filter, which packs the collected rows as the transactions are packed and
counts each level's containments at once.  The step climb pads a row at
the end with a padding item, numbered after the items, whose tidset is all
ones: a grown graph level images to sets of two sizes, and still counts in
one call.  Labels are validated once, where the database is built, and
stay label columns; the itemsets and source patterns made from rows
(``core.batch_patterns``) are not checked again.

Other domains are mined by encoding into itemsets through a reduction,
in index space: ``encode_rows`` maps the database's batch of transactions
(``Database.batch``) through the links of the chain as flat arrays
(``Reduction._batch``), and the step climb's source rows go through the
same link maps, found among the packed items by ``incidence.lookup``.
An itemset database is climbed from its own batch (``Database.batch``),
and a file that ``io`` parsed into a batch, of itemsets, sequences or
graphs, is mined without building a transaction.  In mode "auto" the
step climb answers with the source patterns of the maximal images, so no
middle pattern, no image ``Itemset`` and no image ``Database`` is built
on the mine path, and nothing is decoded or lifted; mode "postfilter"
mines images and lifts them back (``lift_results``).  The empty itemset /
sequence, which some chains cannot represent, is left out of the encoding
and reported directly at the source level when nothing else is frequent.
``MiningResult.seconds`` splits a call into encoding, packing, the climb,
the maximality filter and lifting.
"""

from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from . import _kernels
from .core import Database, batch_patterns, check_tau
from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, Itemset, Sequence, canonical_key,
)
from .errors import DomainMismatchError, ExtendError, PatternError
from .feasibility import ALWAYS, describe, evaluate, judge
from .incidence import Incidence, label_array, lookup, number
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


def _pack(incidence: Incidence):
    """The distinct items of ``incidence`` in label order, as label columns
    (``incidence.number``), and one bitset per item over its rows: bit r of
    item i is set when row r holds item i."""
    items, index = number(incidence.labels)
    return items, _kernels.pack_rows(index, incidence.rows, len(items[0]),
                                     incidence.n_rows)


def _label_bitsets(items):
    """One row of bitset words per item of the columns ``items`` over the
    plain labels it touches, numbered densely, in sorted order, so sparse
    labels cost no more words than dense ones: a plain item is its own
    label, and a pair item touches both of its components."""
    (labels,), bits = number((np.concatenate(items),))
    owners = np.tile(np.arange(len(items[0]), dtype=np.intp), len(items))
    return _kernels.pack_rows(owners, bits, len(items[0]), len(labels))


def _itemsets(items, rows):
    """The itemsets that the rows of the index matrix ``rows`` name among
    the label columns ``items``, the padding item left out."""
    real = rows < len(items[0])
    return batch_patterns(ITEMSET, Incidence(
        tuple(c[rows[real]] for c in items), np.nonzero(real)[0], len(rows)))


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


def _inserted(rows, new):
    """The sorted rows of the index matrix ``rows``, each with the entry of
    ``new`` beside it put in its place, as one (column-major) matrix: the
    new entry moves left past every larger one, a column at a time, so no
    row is sorted on its own."""
    n, m = rows.shape
    out = np.empty((n, m + 1), dtype=np.intp, order="F")
    carry = new
    for j in range(m - 1, -1, -1):
        np.maximum(rows[:, j], carry, out=out[:, j + 1])
        carry = np.minimum(rows[:, j], carry)
    out[:, 0] = carry
    return out


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
    # blocks of entries whose unions fill about _CACHE_BYTES each bound the
    # intermediates (see ``_kernels``); a block keeps only its distinct
    # unions, packed
    budget = max(1, _kernels._CACHE_BYTES // (8 * (m + 1)))
    pairs = np.cumsum(later)
    cuts = np.concatenate((
        [0], np.searchsorted(pairs, np.arange(budget, pairs[-1], budget)),
        [len(order)]))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]  # non-decreasing: dedupe
    blocks = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        count = later[lo:hi]
        a = np.repeat(np.arange(lo, hi), count)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count,
                                                  count)
        keep = phi.merge_hint(labels, owner[a], owner[b])
        if not np.all(keep):
            a, b = a[keep], b[keep]
        cand = _inserted(survivors[owner[a]], dropped[b])
        blocks.append(_unique_words(_row_words(cand, n_items)))
    # one block's unions are distinct and sorted already
    words = blocks[0] if len(blocks) == 1 else _unique_words(
        [np.concatenate(ws) for ws in zip(*blocks)])
    return _word_rows(words, m + 1, n_items)


def _grow(rows, level, n, domain):
    """The source rows one element larger than the frequent ``rows`` of
    ``level`` over ``n`` labels, each once (see the module docstring)."""
    if level == 0:  # a graph's lone vertex v is the code v * n + v
        return np.arange(n).reshape(-1, 1) \
            * (n + 1 if domain in (GRAPH, DIGRAPH) else 1)
    if domain in (GRAPH, DIGRAPH):
        # an edge from each end to each label: no loop, no edge of the row
        ends = np.hstack(np.divmod(rows, n))
        edges = rows if level > 1 else rows[:, :0]
        owner = np.repeat(np.arange(len(rows)), ends.shape[1] * n)
        u, x = np.repeat(ends.ravel(), n), np.tile(np.arange(n), ends.size)
        if domain == DIGRAPH:
            owner = np.tile(owner, 2)
            u, x = np.concatenate((u, x)), np.concatenate((x, u))
        else:
            u, x = np.minimum(u, x), np.maximum(u, x)
        codes = u * n + x
        fresh = (u != x) & (edges[owner] != codes[:, None]).all(axis=1)
        grown = _inserted(edges[owner[fresh]], codes[fresh])
        return _word_rows(_unique_words(_row_words(grown, n * n)), level,
                          n * n)
    # an itemset gains a rank above its last, a sequence one it lacks
    fresh = np.arange(n) > rows[:, -1:] if domain == ITEMSET \
        else (rows[:, :, None] != np.arange(n)).all(axis=1)
    owner, new = np.nonzero(fresh)
    grown = np.column_stack((rows[owner], new))
    # the Apriori check: each row that drops a position i < level is in
    # ``rows``; the sort is stable, so such a row starts the run it is in
    order, fresh = _sort_words([np.concatenate(ws) for ws in zip(
        _row_words(rows, n), *(_row_words(np.delete(grown, i, axis=1), n)
                               for i in range(level)))])
    known = np.empty(len(order), dtype=bool)
    known[order] = order[np.flatnonzero(fresh)][np.cumsum(fresh) - 1] \
        < len(rows)
    return grown[known[len(rows):].reshape(level, -1).all(axis=0)]


def _row_batch(domain, rows, labels):
    """The batch (see ``reductions``) of the source patterns that the
    source ``rows`` hold over the label array ``labels`` (see the module
    docstring)."""
    ids = np.repeat(np.arange(len(rows), dtype=np.intp), rows.shape[1])
    if domain in (ITEMSET, SEQUENCE):
        return Incidence((labels[rows.ravel()],), ids, len(rows))
    heads, tails = np.divmod(rows, len(labels))
    ends = np.sort(np.hstack((heads, tails)), axis=1)
    first = np.diff(ends, axis=1, prepend=-1) != 0
    edge = (heads != tails).ravel()  # (v, v) is a lone vertex
    return (Incidence((labels[ends[first]],), np.nonzero(first)[0],
                      len(rows)),
            Incidence((labels[heads.ravel()[edge]],
                       labels[tails.ravel()[edge]]), ids[edge], len(rows)))


def _images(step, rows, labels, items):
    """The source ``rows`` over the label array ``labels`` whose images
    under ``step``, mapped as a batch (see ``reductions``), hold only
    packed ``items``, and those images as one index matrix, each row
    sorted and padded at the end with the padding item (``_padded``)."""
    images = step._batch(_row_batch(step.source_domain, rows, labels))
    index = lookup(items, images.labels)
    order = np.lexsort((index, images.rows))
    owner = images.rows[order]
    width = np.bincount(owner, minlength=len(rows)).max(initial=0)
    out = np.full((len(rows), width), len(items[0]), dtype=np.intp)
    out[owner, np.arange(len(owner)) - np.searchsorted(owner, owner)] \
        = index[order]
    # an item the database lacks (-1) sorts first, and has support 0
    keep = (out[:, :1] >= 0).all(axis=1)
    return rows[keep], out[keep]


def _padded(tidsets):
    """``tidsets`` and a row of ones: the padding item, held by every
    row."""
    return np.vstack((tidsets, np.full_like(tidsets[:1], ~np.uint64(0))))


def _maximal_among(levels, n_items):
    """One mask per index matrix of ``levels``, padded as ``_images``
    pads, marking the rows with no strict superset among the rows of all
    of them.  The rows are distinct sets, so a row is maximal iff the only
    row containing it is itself; containment is counted like support, with
    the rows in place of the transactions, one kernel call per level."""
    widths = np.repeat([m.shape[1] for m in levels], list(map(len, levels)))
    entries = np.concatenate([m.ravel() for m in levels])
    owners = np.repeat(np.arange(len(widths)), widths)
    real = entries < n_items
    tidsets = _padded(_kernels.pack_rows(entries[real], owners[real], n_items,
                                         len(widths)))
    return [_kernels.count_supports(tidsets, m) == 1 for m in levels]


def _bottom(tidsets, items, n_rows, tau, phi, step, sources):
    """The answer of a climb that collected nothing: the one set it never
    counts, the empty itemset, or under the step climb the image of the
    empty source pattern (with ``sources``, the pattern), where the domain
    and the chain have one, if it is frequent and feasible."""
    if step is None:
        return [Itemset()] if n_rows >= tau \
            and np.all(judge(phi, lambda: [Itemset()])) else []
    empty = _empty_pattern(step.source_domain)
    if empty is None:
        return []
    try:  # the empty pattern is one row of no labels
        _, image = _images(step, np.empty((1, 0), dtype=np.intp),
                           np.empty(0, dtype=np.int64), items)
    except PatternError:  # seq2dag cannot picture <>
        return []
    # every image into itemsets ends in an edge itemset, which has an item
    found = _itemsets(items, image)  # of the one row, or of none
    if not found or _kernels.count_supports(tidsets, image)[0] < tau \
            or not np.all(judge(phi, lambda: found, step, lambda: [empty])):
        return []
    return [empty if sources else found[0]]


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
    return climb_rows(db.batch, tau, phi, mode)


def climb_rows(incidence: Incidence, tau: int, phi=ALWAYS,
               mode: str = "auto", sources: bool = False) -> MiningResult:
    """The levelwise climb of ``mine_max_ffis`` on item rows: one row per
    transaction, whose items ``incidence`` lists, all valid labels of one
    kind.  ``tau`` was checked by the caller.  With ``sources`` a step
    climb answers with the source patterns whose images are maximal, and
    builds no image for them; a join climb answers with images all the
    same.  The result's seconds cover packing, the climb and the
    maximality filter."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    prune = mode == "auto"
    step = phi.step_reduction if prune else None
    if step is not None and step.target_domain != ITEMSET:
        step = None  # accepts no itemset at all, which judge reports

    # index order is label order, so sorted index tuples sort like their
    # itemsets
    start = perf_counter()
    items, tidsets = _pack(incidence)
    n_items, n_rows = len(items[0]), incidence.n_rows
    # no caller keeps the incidence (a database hands out a copy of its
    # batch), so it is freed here
    del incidence
    tidsets = _padded(tidsets)
    packed = perf_counter()

    if step is not None:
        (touched,), _ = number((np.concatenate(items),))
        alphabet = sorted(step.source_labels(frozenset(touched.tolist())))
        labels = label_array(lambda: iter(alphabet), len(alphabet))
        domain = step.source_domain

        def patterns(rows):
            return batch_patterns(domain, _row_batch(domain, rows, labels))
        grown, current = _images(step, _grow(None, 0, len(labels), domain),
                                 labels, items)
    else:
        item_bits = _label_bitsets(items)
        current = np.arange(n_items, dtype=np.intp).reshape(-1, 1)
    stats = []
    collected = []  # each level's feasible rows
    found = []  # under the step climb, each level's feasible source rows
    level = 1
    while len(current):
        hit = _kernels.count_supports(tidsets, current) >= tau
        frequent = current[hit]
        if step is not None:
            grown = grown[hit]
        # past level 1 of a pruned join climb the merge hint kept only
        # feasible unions; otherwise the predicate judges the level, from
        # its images or, under the step climb, the sources it grew
        ok = True if step is None and prune and level > 1 else judge(
            phi, partial(_itemsets, items, frequent), step,
            None if step is None else partial(patterns, grown))
        ok = slice(None) if np.all(ok) else np.asarray(ok, dtype=bool)
        feasible = frequent[ok]
        stats.append(LevelStats(level, len(current), len(frequent),
                                len(feasible)))
        collected.append(feasible)
        level += 1
        if step is not None:
            found.append(grown[ok])
            grown, current = _images(
                step, _grow(grown, level - 1, len(labels), domain), labels,
                items)
            continue
        # the merge hint is sound in both modes: any feasible set of size
        # >= 2 keeps two one-smaller feasible subsets (drop a marker or a
        # leaf/cycle edge), so a climb through feasible sets never needs a
        # pruned join
        current = _generate(feasible if prune else frequent, item_bits, phi)
    climbed = perf_counter()

    if any(map(len, collected)):
        keep = _maximal_among(collected, n_items)
        if sources and step is not None:
            maximal = [p for rows, m in zip(found, keep)
                       for p in patterns(rows[m])]
        else:
            maximal = [p for rows, m in zip(collected, keep)
                       for p in _itemsets(items, rows[m])]
    else:
        maximal = _bottom(tidsets, items, n_rows, tau, phi, step, sources)
    maximal = tuple(sorted(maximal, key=canonical_key))
    seconds = {"encode": 0.0, "pack": packed - start,
               "climb": climbed - packed,
               "maximal": perf_counter() - climbed, "lift": 0.0}
    return MiningResult(maximal, tuple(stats), tau, describe(phi), seconds)


def mine_via_reduction(r: Reduction, db: Database, tau: int, phi=ALWAYS,
                       mode: str = "auto") -> MiningResult:
    """Encode, mine with the induced predicate, and answer with the source
    patterns of the maximal images.

    The chain must end in the itemset domain (compose with an edge-itemset
    encoding if it does not).  The transactions are encoded straight to
    item rows (``encode_rows``), with no image database.  In mode "auto"
    the step climb grows the source patterns and answers with them;
    "postfilter" mines images and lifts them back (``lift_results``).
    Transactions equal to the empty source pattern support nothing else,
    so they are left out of the encoding; when nothing else is frequent,
    the empty pattern is reported directly at the source level.
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
    incidence = encode_rows(r, db, skip=empty)
    encoded = perf_counter()
    res = climb_rows(incidence, tau, r.induced_feasibility(phi), mode,
                     sources=True)
    lifting = perf_counter()
    # the induced predicate names r as its step reduction, so in mode auto
    # the step climb answered with sources, and the join climb with images
    maximal = res.maximal if mode == "auto" else lift_results(r, res.maximal)
    if not maximal and empty is not None and tau <= len(db) \
            and evaluate(phi, empty):
        maximal = (empty,)
    seconds = dict(res.seconds, encode=encoded - start,
                   lift=perf_counter() - lifting)
    return MiningResult(maximal, res.stats, tau, describe(phi), seconds)


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
