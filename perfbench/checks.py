"""Answer checks for one mined instance, independent of the miner's code.

Every pattern is turned into a set of atoms whose inclusion is the domain's
containment order: an itemset's items, a graph's vertices and edges (labels
are unique, so subgraph is set inclusion), and for a repetition-free
sequence its events plus every ordered pair of them.  Support is then the
size of the intersection of the atoms' transaction sets, kept as Python int
bitsets.
"""

import hashlib
import json
from itertools import combinations
from pathlib import Path

import numpy as np

from maxpat import io
from maxpat.domains import Itemset, LabelledGraph, Sequence
from maxpat.feasibility import evaluate

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def atoms(p):
    if isinstance(p, Itemset):
        return frozenset(p.items)
    if isinstance(p, Sequence):
        return frozenset(p.events) | frozenset(combinations(p.events, 2))
    if isinstance(p, LabelledGraph):
        return p.vertices | p.edges
    raise TypeError(f"not a pattern: {p!r}")


def answer_digest(res):
    """Digest of the rendered maximal patterns.  The level table is left out
    on purpose: a change to the climb may change it without changing the
    answer."""
    text = "".join(io.render_pattern(p) + "\n" for p in res.maximal)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_digests(workload, seed):
    """The committed digests of the pool's instances, or None when the seed
    has none."""
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def dense_reference(db, tau, n_labels):
    """Maximal frequent itemsets of a database over labels 1..n_labels, as
    label bitmasks, found by testing all 2**n_labels label subsets against
    the transaction masks.  A set is maximal when it is frequent and no
    one-item extension is."""
    masks = np.arange(1 << n_labels, dtype=np.uint32)
    support = np.zeros(masks.shape, dtype=np.uint16)
    for t in db.transactions:
        t_mask = np.uint32(sum(1 << (x - 1) for x in t.items))
        support += (masks & ~t_mask) == 0
    frequent = support >= tau
    extendable = np.zeros(masks.shape, dtype=bool)
    for b in range(n_labels):
        bit = np.uint32(1 << b)
        extendable |= ((masks & bit) == 0) & frequent[masks | bit]
    return {int(m) for m in masks[frequent & ~extendable]}


class Checker:
    """Checks every answer mined from one database instance."""

    def __init__(self, db, tau, phi, digest=None, reference=None):
        self.tau = tau
        self.phi = phi
        self.digest = digest
        self.reference = reference  # exact maximal sets as label bitmasks
        n = len(db.transactions)
        self.everything = (1 << n) - 1
        where = {}
        for i, t in enumerate(db.transactions):
            for a in atoms(t):
                where.setdefault(a, []).append(i)
        self.tids = {}
        for a, rows in where.items():
            hit = np.zeros(n, dtype=bool)
            hit[rows] = True
            self.tids[a] = int.from_bytes(
                np.packbits(hit, bitorder="little").tobytes(), "little")

    def support(self, p):
        tids = self.everything
        for a in atoms(p):
            tids &= self.tids.get(a, 0)
        return tids.bit_count()

    def problems(self, res):
        """Every way ``res`` is wrong, as one line each; empty when right."""
        out = []
        for p in res.maximal:
            if not evaluate(self.phi, p):
                out.append(f"infeasible: {io.render_pattern(p)}")
            if self.support(p) < self.tau:
                out.append(f"support below tau: {io.render_pattern(p)}")
        sets = sorted((atoms(p) for p in res.maximal), key=len)
        for i, a in enumerate(sets):
            if any(a <= b for b in sets[i + 1:]):
                out.append("one reported pattern contains another")
                break
        if self.digest is not None and answer_digest(res) != self.digest:
            out.append("digest differs from the committed one")
        if self.reference is not None:
            got = {sum(1 << (x - 1) for x in p.items) for p in res.maximal}
            if got != self.reference:
                out.append("maximal sets differ from the exhaustive reference")
        return out
