"""Transactions as one flat incidence of items and rows, in numpy.

An ``Incidence`` is what the miner numbers (``number``) and packs, with no
Python list of items per transaction.  An itemset database gives one
directly (``item_incidence``), and a reduction into itemsets gives the
incidence of a database's images (``reductions.encode_rows``) and of the
source rows a step climb grows, whose entries ``lookup`` finds among the
numbered items, which stay label columns, by the codes of both
(``_codes``).  The reductions carry their batches of patterns between
links as incidences too, whose entries ``gathered`` brings together by
row, and ``core.batch_patterns`` reads patterns back off them with one
Python object per distinct label (``number``).
"""

from itertools import chain
from typing import NamedTuple

import numpy as np


class Incidence(NamedTuple):
    """Transactions as one flat incidence of items and rows: entry j says
    that row ``rows[j]`` holds an item, whose label is entry j of the one
    array in ``labels``, or a label pair, whose components are entry j of
    the two arrays in ``labels``.  The arrays are int64, or object arrays
    of Python ints when a label does not fit in 64 bits."""

    labels: tuple
    rows: np.ndarray
    n_rows: int


def label_array(make, count: int) -> np.ndarray:
    """The ``count`` ints that ``make()`` iterates, as an int64 array, or
    as an object array of Python ints when one of them is 2**63 or more."""
    try:
        return np.fromiter(make(), dtype=np.int64, count=count)
    except OverflowError:
        return np.fromiter(make(), dtype=object, count=count)


def lengths(sized) -> np.ndarray:
    """The length of each entry of the list ``sized``."""
    return np.fromiter(map(len, sized), dtype=np.intp, count=len(sized))


def item_incidence(rows) -> Incidence:
    """The ``Incidence`` of ``rows``, a list of label tuples that are all
    plain labels or all label pairs: an itemset database's own items."""
    sizes = lengths(rows)
    pairs = isinstance(next(chain.from_iterable(rows), None), tuple)

    def flat():
        items = chain.from_iterable(rows)
        return chain.from_iterable(items) if pairs else items

    labels = label_array(flat, (1 + pairs) * int(sizes.sum()))
    return Incidence((labels[0::2], labels[1::2]) if pairs else (labels,),
                     np.repeat(np.arange(len(rows), dtype=np.intp), sizes),
                     len(rows))


def gathered(incidence, rank=None) -> Incidence:
    """``incidence`` with its entries gathered by row, each row's entries
    in their order or, given each entry's ``rank`` below the number of
    entries, sorted by it; ``incidence`` itself when they come that way
    already."""
    rows = incidence.rows
    key = rows if rank is None else rows * len(rank) + rank
    if (key[1:] >= key[:-1]).all():
        return incidence
    order = np.argsort(key, kind="stable")
    return Incidence(tuple(c[order] for c in incidence.labels), rows[order],
                     incidence.n_rows)


#: codes below this (or below the number of entries) are numbered through
#: a lookup table of that length, larger ones by sorting
_TABLE_CODES = 1 << 16


def _codes(labels, base):
    """The code of each entry of the columns ``labels``
    (``Incidence.labels``): a plain label itself, and a pair (a, b)
    a*base + b, ``base`` being above every b, so the codes sort the way the
    pairs do and no pair is built or hashed.  Codes past int64 are Python
    ints in an object array."""
    if len(labels) == 1:
        return labels[0]
    a, b = labels
    if int(a.max(initial=0)) * base + base > 2**63:
        a = a.astype(object)
    return a * base + b


def number(labels):
    """Number the distinct labels of the columns ``labels``
    (``Incidence.labels``) in label order, by their codes (``_codes``): the
    sorted distinct labels, as columns like ``labels``, and the index of
    each entry among them."""
    base = int(labels[-1].max(initial=0)) + 1
    codes = _codes(labels, base)
    top = int(codes.max(initial=0))
    shift = len(codes).bit_length()
    if codes.dtype != object and top < max(_TABLE_CODES, len(codes)):
        present = np.zeros(top + 1, dtype=bool)
        present[codes] = True
        distinct = np.flatnonzero(present)
        index = (np.cumsum(present) - 1)[codes]
    elif codes.dtype == object or top.bit_length() + shift > 63:
        distinct, index = np.unique(codes, return_inverse=True)
    else:
        # each key carries its entry's position in the bits below its code,
        # so one plain sort does the work of np.unique's argsort
        keys = codes << shift
        keys |= np.arange(len(codes))
        keys.sort()
        ranked = keys >> shift
        fresh = np.ones(len(keys), dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
        distinct = ranked[fresh]
        index = np.empty(len(keys), dtype=np.intp)
        index[keys & ((1 << shift) - 1)] = np.cumsum(fresh) - 1
    if len(labels) == 1:
        return (distinct,), index
    return (distinct // base, distinct % base), index


def later_pairs(later):
    """Each entry i of ``later`` paired with each of the ``later[i]``
    entries right after it: the first and the second entry of every pair,
    in order of the first and then of the second."""
    first = np.repeat(np.arange(len(later)), later)
    return first, first + 1 + np.arange(len(first)) \
        - np.repeat(np.cumsum(later) - later, later)


def lookup(items, labels) -> np.ndarray:
    """The index among ``items``, sorted distinct items such as ``number``
    returns, of each entry of the columns ``labels`` (``Incidence.labels``),
    or -1 for an entry that is no item.  A single column may hold keys of
    any sortable dtype.  A pair is found by its code, with the base above
    every second label of both, which keeps the items' codes sorted; past
    int64 too."""
    if len(items) != len(labels) or not len(items[0]):
        return np.full(len(labels[0]), -1)
    base = None if len(items) == 1 else int(  # keys need not have a max
        max(items[1].max(), labels[1].max(initial=0))) + 1
    known, codes = _codes(items, base), _codes(labels, base)
    if known.dtype != codes.dtype:
        known, codes = known.astype(object), codes.astype(object)
    at = np.minimum(np.searchsorted(known, codes), len(known) - 1)
    return np.where(known[at] == codes, at, -1)
