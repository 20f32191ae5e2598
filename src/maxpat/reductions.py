"""Maximality-preserving encodings between pattern domains.

Each reduction is an injective polynomial map on patterns (transactions use
the same map) with three guarantees:

1. images are valid patterns of the target domain,
2. containment is preserved and reflected exactly, so support counts carry
   over unchanged,
3. the inverse is computable and returns None off the image.

Each link implements its map once, on batches (``_batch``, below); the
map of one pattern (``_forward``) is the batch map of a batch of one.
Guarantee 3 holds by construction.  Each link has a decoder (``_decode``)
that reads off a target pattern ``q`` the one source pattern that can map
to it: the star's vertices beside the root, a sequence's events as a set,
the path of each stop with an edge per edge between two paths, the
markers and proper pairs of an edge itemset as a graph, a tournament's
vertices by falling out-degree.  The pattern constructor makes the
candidate a valid source pattern, and a graph decoder refuses one that is
not connected; ``Reduction._inverses`` keeps a candidate only when the
batch map sends it back to its ``q``, so it never needs to know what an
image looks like, and checks a list of candidates with one batch.  A
chain folds its links' decoders right to left and checks once, with its
own batch map.

Together these make maximality transfer both ways: the maximal feasible
frequent patterns of a reduced database are exactly the images of the
source's maximal feasible frequent patterns, in equal number.

Feasibility travels along a reduction by the preimage construction: a target
pattern is feasible iff it has a preimage and the source predicate accepts
that preimage.  ``induced_feasibility`` builds that predicate, for a single
reduction and a composition alike: a whole-chain preimage implies every
hop's, so the chain's inverse is the only preimage test needed.

A composition is one flat chain of links.  A pattern's domain is checked
once, where it enters through ``forward`` or ``inverse``; past that, links
and chains run unchecked maps (``_batch``, ``_decode`` and ``_inverses``),
as do ``reduce_database``, ``encode_rows`` and ``invert_database`` once
they have checked the database's domain.

A database hands over its transactions as flat arrays, a *batch*
(``Database.batch``): a database that ``io`` parsed, of itemsets,
sequences or graphs, holds nothing else until its transactions are asked
for, and one built from patterns reads them into a batch once
(``core.pattern_batch``).  Every link maps a batch to a batch
(``_batch``) by plain arithmetic, so no pattern is built in the middle
of a chain, and ``core.batch_patterns`` reads the patterns back off the
last batch.  ``encode_rows`` maps a database's batch, which for a
reduction into itemsets is the item rows that the miner packs, and when
the map refuses the batch it bisects on prefixes of the rows for the
first refused transaction; the miner's step climb hands its levels to
``_batch`` as batches of its own, and ``bind_reduction`` reads a link's
parameter off the batch that the links before it map:

* an itemset or sequence batch is an ``Incidence``, a graph batch a
  vertex ``Incidence`` and an edge ``Incidence`` of (head, tail) pairs;
* a row's entries may come in any order and its rows interleaved, but a
  sequence's entries keep their order within a row; a link lists the
  entries it adds after the ones it carries;
* ``fis2seq`` puts each row's items in ascending order, ``fis2tree``
  adds the root and the edges (x, root), ``seq2dag`` an arc from each
  event to each later one of its row, ``g2bdg3`` the stops, the path
  edges and one cross edge per edge, and ``g2fis``/``dirg2fis`` a marker
  (v, v) per vertex and a pair per edge: the item rows.

A label at or above 2**63, or a stop past int64, is kept as a Python int
in an object array, as ``incidence.number`` does.  ``fis2seq`` and
``seq2dag`` carry label pairs; the other links read plain labels, and
refuse label pairs by their kind, naming the first (``_plain``).

Every reduction id lives in one table, which says how the reduction is
bound from a database on its source side (``bind_reduction``, used to
reduce and mine) and from one on its target side (``bind_from_target``,
used to invert and for ``preimage(<rid>)``).
"""

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import (
    Database, batch_patterns, label_columns, lead_incidence, pattern_batch,
)
from .domains import (
    BOUNDED_DEGREE, DAG, DIGRAPH, GRAPH, ITEMSET, SEQUENCE, TREE,
    GraphClass, Itemset, LabelledGraph, Sequence,
    canonical_key, is_connected, pattern_domain,
)
from .errors import (
    DatabaseError, DomainMismatchError, NoPreimageError, PatternError,
    ReductionIdError,
)
from .feasibility import PreimageExistsAnd
from .incidence import Incidence, gathered, number


class Reduction:
    """Base class; concrete reductions are frozen dataclasses below."""

    id = "?"
    source_domain = "?"
    target_domain = "?"
    #: narrowest graph class the images are known to land in, if any
    target_class: GraphClass | None = None

    def forward(self, p):
        self._check_source(p)
        return self._forward(p)

    def inverse(self, q):
        self._check_target(q)
        return self._inverses([q])[0]

    def _forward(self, p):
        """The image of ``p``: the batch map of a batch of one pattern."""
        return self._map([p])[0]

    def _map(self, patterns):
        """The images of the source patterns in the list ``patterns``."""
        return batch_patterns(self.target_domain, self._batch(
            pattern_batch(self.source_domain, patterns)))

    def _inverses(self, qs):
        """The preimage of each target pattern in the list ``qs``, or None:
        the candidate that ``_decode`` reads off it, kept when the batch
        map sends it back.  The candidates are mapped together; when the
        map refuses the batch, each is mapped alone, so that a refusal
        voids only its own candidate.  A ``PatternError`` from either map
        means that a pattern has no preimage."""
        candidates = [_attempt(self._decode, q) for q in qs]
        found = [p for p in candidates if p is not None]
        try:
            images = self._map(found)
        except PatternError:
            images = [_attempt(self._forward, p) for p in found]
        images = iter(images)  # one image per candidate found, in order
        return [p if p is not None and next(images) == q else None
                for p, q in zip(candidates, qs)]

    def _decode(self, q):
        """The one source pattern whose image ``q`` can be, or None: a
        valid source pattern, which is the preimage of ``q`` if ``q`` has
        one (the forward map decides)."""
        raise NotImplementedError

    def _batch(self, batch):
        """The batch of the images of the patterns in ``batch``, a batch of
        source patterns (see the module docstring).  It raises
        ``PatternError`` when it cannot map one of them."""
        raise NotImplementedError

    def induced_feasibility(self, phi_source):
        return PreimageExistsAnd(self, phi_source)

    def source_labels(self, labels):
        """The source labels that the target labels ``labels`` can stand
        for: the alphabet a climb through images grows source patterns
        from (see ``miner``)."""
        return labels

    def _check_source(self, p):
        if pattern_domain(p) != self.source_domain:
            raise DomainMismatchError(
                f"{self.id} maps {self.source_domain} patterns, "
                f"got {pattern_domain(p)}")

    def _check_target(self, q):
        if pattern_domain(q) != self.target_domain:
            raise DomainMismatchError(
                f"{self.id} inverts {self.target_domain} patterns, "
                f"got {pattern_domain(q)}")


def _attempt(f, x):
    """``f(x)``, or None when it raises ``PatternError``."""
    try:
        return f(x)
    except PatternError:
        return None


def _plain(incidence, link):
    """The one label column of ``incidence``, whose labels ``link`` reads
    as plain ints.  It refuses label pairs, naming the first of the first
    row in the pattern's own order: for an itemset, whose batch lists a
    row's entries in any order, the smallest."""
    columns, rows = incidence.labels, incidence.rows
    if len(columns) == 1 or not len(rows):
        return columns[0]
    pairs = zip(*(c[rows == rows[0]].tolist() for c in columns))
    first = min(pairs) if link.source_domain == ITEMSET else next(pairs)
    raise PatternError(f"{link.id} needs plain int labels, got {first!r}")


@dataclass(frozen=True)
class ItemsetToStar(Reduction):
    """Itemset -> star tree: a fresh root adjacent to one leaf per item.

    The root label must exceed every item label; binding it to
    max(universe) + 1 keeps it fresh even for sparse label sets.  The empty
    itemset maps to the bare root vertex.
    """

    root: int

    id = "fis2tree"
    source_domain = ITEMSET
    target_domain = GRAPH
    target_class = GraphClass(TREE)

    def _batch(self, items):
        x = _plain(items, self)
        collides = x >= self.root
        if collides.any():
            raise PatternError(f"item {x[collides.argmax()]} collides with "
                               f"root label {self.root}")
        fits = x.dtype != object and self.root < 2**63
        roots = np.full(items.n_rows, self.root,
                        dtype=np.int64 if fits else object)
        ids = np.arange(items.n_rows, dtype=np.intp)
        return (Incidence((np.concatenate((x, roots)),),
                          np.concatenate((items.rows, ids)), items.n_rows),
                Incidence((x, roots[items.rows]), items.rows, items.n_rows))

    def source_labels(self, labels):
        return frozenset(x for x in labels if x < self.root)

    def _decode(self, q: LabelledGraph):
        if self.root in q.vertices:
            # the graph validated its labels, and beside the root they are
            # plain ints too
            return Itemset._trusted(tuple(sorted(q.vertices - {self.root})))
        return None


@dataclass(frozen=True)
class ItemsetToSequence(Reduction):
    """Itemset -> the sequence of its items in ascending order.  A sequence
    inverts iff it is strictly increasing."""

    id = "fis2seq"
    source_domain = ITEMSET
    target_domain = SEQUENCE

    def _batch(self, items):
        # a sequence keeps the order of a row's entries: the items ascending
        return gathered(items, number(items.labels)[1])

    def _decode(self, q: Sequence):
        # distinct valid labels of one kind, sorted
        return Itemset._trusted(tuple(sorted(q.events)))


@dataclass(frozen=True)
class GraphToBoundedDegree(Reduction):
    """Undirected graph -> degree-3 graph via one label path per vertex.

    Vertex v becomes an n-vertex path, its i-th stop labelled
    (v-1)*n + i; the edge {u, v} becomes the single cross edge between
    stop v of u's path and stop u of v's path.  A stop then has at most
    two path neighbours and at most one cross neighbour, so the image's
    maximum degree is 3.  ``n`` is fixed per database as the largest
    source label, so every cross position exists.  The arithmetic labels
    keep the images inside the plain-int world, where the edge-itemset
    encoding (and with it the miner) can pick them up unchanged.
    """

    n: int

    id = "g2bdg3"
    source_domain = GRAPH
    target_domain = GRAPH
    target_class = GraphClass(BOUNDED_DEGREE, 3)

    def _path(self, x):
        """The vertex on whose path the stop ``x`` lies."""
        return (x - 1) // self.n + 1

    def _batch(self, graphs):
        vertices, edges = graphs
        v, (a, b), n = _plain(vertices, self), edges.labels, self.n
        outside = v > n
        if outside.any():
            row = vertices.rows[outside].min()
            raise PatternError(f"vertex label {v[vertices.rows == row].max()} "
                               f"outside 1..{n}")
        if n * n >= 2**63:  # the top stop, n*n, passes int64
            v, a, b = (c.astype(object) for c in (v, a, b))
        stops = (v[:, None] - 1) * n + np.arange(1, n + 1)
        on_path = np.repeat(vertices.rows, n - 1)
        # every edge joins two stops smaller first: a path runs upwards,
        # and for a < b the cross edge's stop (a-1)n + b lies below
        # (b-1)n + a
        return (
            Incidence((stops.ravel(),), np.repeat(vertices.rows, n),
                      vertices.n_rows),
            Incidence((np.concatenate((stops[:, :-1].ravel(), (a - 1) * n + b)),
                       np.concatenate((stops[:, 1:].ravel(), (b - 1) * n + a))),
                      np.concatenate((on_path, edges.rows)), edges.n_rows))

    def source_labels(self, labels):
        # each stop names the vertex whose path it lies on
        return frozenset(self._path(x) for x in labels
                         if x <= self.n * self.n)

    def _decode(self, q: LabelledGraph):
        if not all(isinstance(x, int) and x <= self.n * self.n
                   for x in q.vertices):
            return None  # a label that is no stop
        path = {x: self._path(x) for x in q.vertices}
        # the paths are positive ints, and an edge between two of them runs
        # from the smaller stop, so from the smaller path
        g = LabelledGraph._trusted(
            frozenset(path.values()),
            frozenset((path[a], path[b]) for a, b in q.edges
                      if path[a] != path[b]))
        return g if is_connected(g) else None


@dataclass(frozen=True)
class GraphToEdgeItemset(Reduction):
    """Graph -> itemset of label pairs: one reflexive marker pair (v, v) per
    vertex plus one pair per edge (ordered when the graph is directed).

    Carrying a marker for every vertex, not only for isolated ones, is what
    keeps containment exact in both directions: a single vertex inside a
    larger graph must compare below that graph's image, and a bare edge set
    without its markers must not masquerade as an image.  An itemset inverts
    iff its proper pairs stay within the marker vertices, run from the
    smaller label to the larger when undirected (as the image stores them),
    and the decoded graph is connected; in particular a marker is feasible
    only on its own.
    """

    directed: bool = False

    source_domain = GRAPH  # overridden per instance below
    target_domain = ITEMSET

    @property
    def id(self):
        return "dirg2fis" if self.directed else "g2fis"

    def __post_init__(self):
        object.__setattr__(self, "source_domain",
                           DIGRAPH if self.directed else GRAPH)

    def _batch(self, graphs):
        vertices, edges = graphs
        v, (heads, tails) = _plain(vertices, self), edges.labels
        # a marker (v, v) per vertex, then the edges; markers never collide
        # with edges, since graphs have no self-loops
        return Incidence((np.concatenate((v, heads)),
                          np.concatenate((v, tails))),
                         np.concatenate((vertices.rows, edges.rows)),
                         vertices.n_rows)

    def _decode(self, q: Itemset):
        # the items are of one kind, and only label pairs can be markers
        if not q.items or not isinstance(q.items[0], tuple):
            return None
        # validated: a proper pair may leave the markers, and then the
        # constructor refuses it
        g = LabelledGraph(frozenset(a for a, b in q.items if a == b),
                          frozenset(x for x in q.items if x[0] != x[1]),
                          self.directed)
        return g if is_connected(g) else None


@dataclass(frozen=True)
class SequenceToDag(Reduction):
    """Sequence -> the transitive tournament spelling its order: an edge
    from the i-th event to the j-th for every i < j.  Inverts iff the graph
    is a transitive tournament (exactly one arc per vertex pair, acyclic);
    the empty sequence maps to no graph and is handled at the source level
    by the miner."""

    id = "seq2dag"
    source_domain = SEQUENCE
    target_domain = DIGRAPH
    target_class = GraphClass(DAG)

    def _batch(self, seq):
        sizes = np.bincount(seq.rows, minlength=seq.n_rows)
        if not sizes.all():
            raise PatternError("the empty sequence has no graph image")
        seq = gathered(seq)
        # an arc from each event to each later event of its row
        at = np.arange(len(seq.rows))
        later = np.cumsum(sizes)[seq.rows] - at - 1
        heads = np.repeat(at, later)
        tails = heads + 1 + np.arange(len(heads)) \
            - np.repeat(np.cumsum(later) - later, later)
        # the events are the vertices; an arc between label pairs has the
        # components of its head and then of its tail
        return seq, Incidence(
            tuple(c[e] for e in (heads, tails) for c in seq.labels),
            seq.rows[heads], seq.n_rows)

    def _decode(self, q: LabelledGraph):
        # a tournament's order puts each vertex before all it points to
        outdeg = Counter(map(itemgetter(0), q.edges))
        return Sequence._trusted(tuple(
            sorted(q.vertices, key=outdeg.__getitem__, reverse=True)))


@dataclass(frozen=True, init=False)
class Composed(Reduction):
    """Left-to-right composition of two or more reductions, held as one
    flat chain: a composition given as a link contributes its own links, so
    that the id of any chain parses back through ``bind_reduction``."""

    links: tuple

    def __init__(self, *links):
        links = tuple(x for r in links
                      for x in (r.links if isinstance(r, Composed) else (r,)))
        if len(links) < 2:
            raise ReductionIdError(
                f"a composition needs at least two links, got {len(links)}")
        for a, b in zip(links, links[1:]):
            if a.target_domain != b.source_domain:
                raise DomainMismatchError(
                    f"cannot compose {a.id} ({a.target_domain} out) "
                    f"with {b.id} ({b.source_domain} in)")
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "id",
                           "compose:" + ",".join(r.id for r in links))
        object.__setattr__(self, "source_domain", links[0].source_domain)
        object.__setattr__(self, "target_domain", links[-1].target_domain)
        object.__setattr__(self, "target_class", links[-1].target_class)

    def source_labels(self, labels):
        for r in reversed(self.links):
            labels = r.source_labels(labels)
        return labels

    def _batch(self, batch):
        for r in self.links:
            batch = r._batch(batch)
        return batch

    def _decode(self, q):
        for r in reversed(self.links):
            q = r._decode(q)
            if q is None:
                return None
        return q


# ---------------------------------------------------------------------------
# database-level application

def reduce_database(r: Reduction, db: Database) -> Database:
    """Apply ``r`` to every transaction: the patterns of the batch of their
    images (``encode_rows``), validated as a database.  A transaction the
    map rejects (wrong labels, empty sequence, ...) raises with the index
    where it first occurs."""
    return Database(r.target_domain,
                    batch_patterns(r.target_domain, encode_rows(r, db)),
                    r.target_class)


def encode_rows(r: Reduction, db: Database, skip=None):
    """The batch of the images of ``db``'s transactions under ``r``, with
    those equal to ``skip``, the empty source pattern, left out: for a
    reduction into itemsets, the ``Incidence`` of one item row per
    transaction.  The database hands over its batch (``Database.batch``),
    with the database's domain checked in place of each transaction's, and
    each link maps it on in numpy.  No pattern is built or validated, no
    list of items is kept per transaction, and every transaction is
    encoded, repeats included.  A transaction the map rejects raises with
    the index where it first occurs, and its own encoding's message."""
    if db.domain != r.source_domain:
        raise DomainMismatchError(
            f"{r.id} reduces {r.source_domain} databases, got {db.domain}")
    batch = db.batch
    held = None
    if skip is not None:  # renumber the rows that hold an entry
        held = np.bincount(batch.rows, minlength=batch.n_rows) > 0
        batch = Incidence(batch.labels, (np.cumsum(held) - 1)[batch.rows],
                          int(held.sum()))
    try:
        return r._batch(batch)
    except PatternError:
        found = _first_refused(r, batch)
        if found is not None:
            row, e = found
            raise DatabaseError(
                f"cannot reduce: {e}",
                row if held is None else int(np.flatnonzero(held)[row])
            ) from e
        raise


def _first_refused(r: Reduction, batch):
    """The first row of ``batch`` that ``r`` refuses, when the batch is
    refused, and the error its own pattern raises; None when that pattern
    maps.  The map refuses row by row, so a prefix of the rows is refused
    when it holds a refused row, and bisecting on prefixes takes about
    log2(n) batch maps."""
    lo, hi = 0, lead_incidence(batch).n_rows  # prefix lo maps, hi not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            r._batch(_rows(batch, np.arange(mid)))
            lo = mid
        except PatternError:
            hi = mid
    try:
        r._forward(batch_patterns(r.source_domain,
                                  _rows(batch, np.array([lo])))[0])
    except PatternError as e:
        return lo, e
    return None


def _rows(batch, keep):
    """The rows ``keep``, in increasing order, of ``batch``, numbered
    from 0."""
    if not isinstance(batch, Incidence):
        return tuple(_rows(part, keep) for part in batch)
    at = np.full(batch.n_rows, -1)
    at[keep] = np.arange(len(keep))
    new = at[batch.rows]
    taken = new >= 0
    return Incidence(tuple(c[taken] for c in batch.labels), new[taken],
                     len(keep))


def lift_results(r: Reduction, results) -> tuple:
    """Pull mining results back through ``r``.  Every pattern must invert;
    anything off the image means the caller's pipeline is broken, so that
    raises rather than being dropped silently."""
    results = list(results)
    for q in results:
        r._check_target(q)
    out = r._inverses(results)
    for q, p in zip(results, out):
        if p is None:
            raise NoPreimageError(f"{r.id}: no preimage for {q!r}")
    return tuple(sorted(out, key=canonical_key))


def invert_database(rid: str, db: Database) -> Database:
    """Map a database on the target side of ``rid`` back to the source side,
    binding the reduction from it.  The database's domain is checked once,
    before any link reads it.  Each distinct transaction is inverted once,
    and equal transactions share its preimage; a transaction without a
    preimage raises with the index where it first occurs."""
    r = bind_reduction(rid)
    if db.domain != r.target_domain:
        raise DomainMismatchError(
            f"{r.id} inverts {r.target_domain} databases, got {db.domain}")
    r = bind_from_target(rid, db)
    distinct = list(dict.fromkeys(db.transactions))
    sources = dict(zip(distinct, r._inverses(distinct)))
    for i, t in enumerate(db.transactions):
        if sources[t] is None:
            raise DatabaseError(f"no preimage under {r.id}", i)
    return Database(r.source_domain, tuple(map(sources.get, db.transactions)))


# ---------------------------------------------------------------------------
# registry

#: every reduction id.  A reduction with no parameter is stored as itself;
#: the two whose parameter comes from the database are stored as a pair of
#: binders, one reading the largest plain label on the source side and one
#: on the target side (0 when there is none).  The star's root must exceed
#: every item, and the path bundle needs one stop per source label: on the
#: target side the root is the largest label, and the top stop label of an
#: n-path image is n*n.
_REGISTRY = {
    "fis2tree": (lambda top: ItemsetToStar(top + 1),
                 lambda top: ItemsetToStar(max(top, 1))),
    "fis2seq": ItemsetToSequence(),
    "g2bdg3": (lambda top: GraphToBoundedDegree(max(top, 1)),
               lambda top: GraphToBoundedDegree(
                   math.isqrt(max(top, 1) - 1) + 1)),
    "g2fis": GraphToEdgeItemset(directed=False),
    "dirg2fis": GraphToEdgeItemset(directed=True),
    "seq2dag": SequenceToDag(),
}

#: ids accepted on the command line and inside preimage(...) descriptors
REDUCTION_IDS = tuple(_REGISTRY)


def _links(rid: str) -> list:
    """The registry entries ``rid`` names, left to right: one for a plain
    id, two or more for ``compose:a,b[,c...]``, whose links may be padded
    with whitespace."""
    if rid.startswith("compose:"):
        ids = [part.strip() for part in rid[len("compose:"):].split(",")]
        if len(ids) < 2:
            raise ReductionIdError(
                f"compose: needs at least two ids, got {rid!r}")
    else:
        ids = [rid]
    for part in ids:
        if part not in _REGISTRY:
            raise ReductionIdError(f"unknown reduction id {part!r} "
                                   f"(known: {', '.join(_REGISTRY)})")
    return [_REGISTRY[part] for part in ids]


def _reads_db(links) -> bool:
    return any(not isinstance(link, Reduction) for link in links)


def _chain(links) -> Reduction:
    return links[0] if len(links) == 1 else Composed(*links)


def _top_label(batch) -> int:
    """The largest plain label of ``batch``, or 0 when it has none; a
    label pair's components are plain labels."""
    return max((int(c.max(initial=0)) for c in label_columns(batch)),
               default=0)


def bind_reduction(rid: str, db: Database | None = None) -> Reduction:
    """Construct the reduction named ``rid``, fixing any parameters from
    ``db``, its source database.  A chain folds left to right; a link that
    reads the database reads the largest plain label of the batch of
    ``db``'s images under the links before it (``encode_rows``), which is
    only mapped when such a link follows.  No image database is built."""
    links = _links(rid)
    bound = []
    batch = db.batch if db is not None and _reads_db(links) else None
    for k, link in enumerate(links):
        if not isinstance(link, Reduction):
            link = link[0](0 if batch is None else _top_label(batch))
        bound.append(link)
        if db is not None and _reads_db(links[k + 1:]):
            batch = encode_rows(_chain(bound), db)
    return _chain(bound)


def bind_from_target(rid: str, db: Database) -> Reduction:
    """Construct the reduction named ``rid`` from ``db``, a database on its
    target side.  A chain binds right to left; a link that reads the
    database reads the labels ``db`` can stand for there: ``db.universe``
    passed back through the later links' ``source_labels``, as the step
    climb reads its alphabet, so no transaction needs a preimage."""
    labels = db.universe
    bound = []
    for link in reversed(_links(rid)):
        if not isinstance(link, Reduction):
            link = link[1](max(labels, default=0))
        bound.insert(0, link)
        labels = link.source_labels(labels)
    return _chain(bound)
