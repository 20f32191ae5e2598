"""Maximality-preserving encodings between pattern domains.

Each reduction is an injective polynomial map on patterns (transactions use
the same map) with three guarantees:

1. images are valid patterns of the target domain,
2. containment is preserved and reflected exactly, so support counts carry
   over unchanged,
3. the inverse is computable and returns None off the image.

Together these make maximality transfer both ways: the maximal feasible
frequent patterns of a reduced database are exactly the images of the
source's maximal feasible frequent patterns, in equal number.

Feasibility travels along a reduction by the preimage construction: a target
pattern is feasible iff it has a preimage and the source predicate accepts
that preimage.  ``induced_feasibility`` builds that predicate, for a single
reduction and a composition alike: a whole-chain preimage implies every
hop's, so the chain's inverse is the only preimage test needed.

A composition is one flat chain of links.  A pattern's domain is checked
once, where it enters through ``forward``, ``inverse`` or ``image_items``;
past that, links and chains run unchecked maps (``_forward``, ``_inverse``,
``_items``), as do ``reduce_database`` and ``encode_rows`` once they have
checked the database's domain.

Every reduction id lives in one table, which says how the reduction is
bound from a database on its source side (``bind_reduction``, used to
reduce and mine) and from one on its target side (``bind_from_target``,
used to invert and for ``preimage(<rid>)``).
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .core import Database
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
        return self._inverse(q)

    def image_items(self, p):
        """The items of the itemset image of the source pattern ``p``, in
        any order, for a reduction into itemsets: what the miner numbers
        and packs, without building the image itself."""
        self._check_source(p)
        return self._items(p)

    def _items(self, p):
        raise NotImplementedError(f"{self.id} does not map into itemsets")

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

    def _forward(self, p: Itemset) -> LabelledGraph:
        for x in p.items:
            if not isinstance(x, int):
                raise PatternError(f"{self.id} needs plain int labels, got {x!r}")
            if x >= self.root:
                raise PatternError(
                    f"item {x} collides with root label {self.root}")
        return LabelledGraph(frozenset(p.items) | {self.root},
                             frozenset((x, self.root) for x in p.items))

    def source_labels(self, labels):
        return frozenset(x for x in labels if x < self.root)

    def _inverse(self, q: LabelledGraph):
        if q.vertices == {self.root} and not q.edges:
            return Itemset()
        if self.root not in q.vertices:
            return None
        leaves = q.vertices - {self.root}
        if not all(isinstance(x, int) and x < self.root for x in leaves):
            return None
        if q.edges != frozenset((x, self.root) for x in leaves):
            return None
        # the graph validated its labels, and these are ints below the root
        return Itemset._trusted(tuple(sorted(leaves)))


@dataclass(frozen=True)
class ItemsetToSequence(Reduction):
    """Itemset -> the sequence of its items in ascending order.  A sequence
    inverts iff it is strictly increasing."""

    id = "fis2seq"
    source_domain = ITEMSET
    target_domain = SEQUENCE

    def _forward(self, p: Itemset) -> Sequence:
        # the items are distinct valid labels of one kind
        return Sequence._trusted(p.items)

    def _inverse(self, q: Sequence):
        ev = q.events
        if all(ev[i] < ev[i + 1] for i in range(len(ev) - 1)):
            # distinct valid labels of one kind, and sorted
            return Itemset._trusted(ev)
        return None


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

    def _stop(self, v, i):
        return (v - 1) * self.n + i

    def _unstop(self, x):
        return (x - 1) // self.n + 1, (x - 1) % self.n + 1

    def _forward(self, p: LabelledGraph) -> LabelledGraph:
        for v in p.vertices:
            if not isinstance(v, int) or v > self.n:
                raise PatternError(
                    f"vertex label {v!r} outside 1..{self.n}")
        vertices = {self._stop(v, i)
                    for v in p.vertices for i in range(1, self.n + 1)}
        edges = {(self._stop(v, i), self._stop(v, i + 1))
                 for v in p.vertices for i in range(1, self.n)}
        for a, b in p.edges:
            edges.add((self._stop(a, b), self._stop(b, a)))
        # stops are positive ints, and every edge joins two of them smaller
        # first: a path runs upwards, and for a < b the cross edge's stop
        # (a-1)n + b lies below (b-1)n + a
        return LabelledGraph._trusted(frozenset(vertices), frozenset(edges))

    def source_labels(self, labels):
        # each stop names the vertex whose path it lies on
        return frozenset(self._unstop(x)[0] for x in labels
                         if x <= self.n * self.n)

    def _inverse(self, q: LabelledGraph):
        groups = {}
        for x in q.vertices:
            if not isinstance(x, int) or x > self.n * self.n:
                return None
            a, i = self._unstop(x)
            groups.setdefault(a, set()).add(i)
        full = set(range(1, self.n + 1))
        if any(positions != full for positions in groups.values()):
            return None
        path_edges = set()
        cross = set()
        for e in q.edges:
            a, i = self._unstop(e[0])
            b, j = self._unstop(e[1])
            if a == b and abs(i - j) == 1:
                path_edges.add(e)
            elif a != b and i == b and j == a:
                cross.add((min(a, b), max(a, b)))
            else:
                return None
        want_paths = {(self._stop(a, i), self._stop(a, i + 1))
                      for a in groups for i in range(1, self.n)}
        if path_edges != want_paths:
            return None
        # the groups are positive ints, and every cross edge joins two of
        # them, smaller first
        g = LabelledGraph._trusted(frozenset(groups), frozenset(cross))
        return g if is_connected(g) else None


class _Markers(dict):
    """The marker pair (v, v) of each label, made once and then shared by
    every edge itemset that holds it.  A fresh pair for each vertex of each
    graph would be most of the objects that encoding a graph database
    allocates, and so most of what sets off the garbage collector.  The
    pairs are immutable, so sharing them changes no result; the table is
    emptied when it reaches 2**16 labels, so it stays small."""

    def __missing__(self, v):
        if len(self) >= 1 << 16:
            self.clear()
        self[v] = marker = (v, v)
        return marker


_MARKERS = _Markers()


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

    def _forward(self, p: LabelledGraph) -> Itemset:
        # the graph validated its labels and edges, and markers never
        # collide with edges since self-loops are rejected
        return Itemset._trusted(tuple(sorted(self._items(p))))

    def _items(self, p: LabelledGraph):
        # a graph has a vertex, and its labels are of one kind, so any one
        # label shows whether they are plain ints (before it gets a marker)
        v = next(iter(p.vertices))
        if not isinstance(v, int):
            raise PatternError(f"{self.id} needs plain int labels, got {v!r}")
        return [*map(_MARKERS.__getitem__, p.vertices), *p.edges]

    def _inverse(self, q: Itemset):
        if not q.items:
            return None
        markers = set()
        propers = []
        for x in q.items:
            if not isinstance(x, tuple):
                return None
            a, b = x
            if a == b:
                markers.add(a)
            else:
                propers.append(x)
        if not markers:
            return None
        for a, b in propers:
            if a not in markers or b not in markers:
                return None
            if not self.directed and a > b:
                return None
        # every condition of a valid graph was checked above, on labels the
        # itemset validated
        g = LabelledGraph._trusted(frozenset(markers), frozenset(propers),
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

    def _forward(self, p: Sequence) -> LabelledGraph:
        if not p.events:
            raise PatternError("the empty sequence has no graph image")
        # the events are distinct valid labels of one kind, so the
        # tournament on them is a valid graph as it stands
        return LabelledGraph._trusted(frozenset(p.events),
                                      frozenset(combinations(p.events, 2)),
                                      directed=True)

    def _inverse(self, q: LabelledGraph):
        n = len(q.vertices)
        if len(q.edges) != n * (n - 1) // 2:
            return None
        outdeg = {v: 0 for v in q.vertices}
        seen_pairs = set()
        for u, v in q.edges:
            key = (u, v) if u < v else (v, u)
            if key in seen_pairs:
                return None  # both directions present
            seen_pairs.add(key)
            outdeg[u] += 1
        order = sorted(q.vertices, key=lambda v: -outdeg[v])
        if q.edges != frozenset(combinations(order, 2)):
            return None
        return Sequence._trusted(tuple(order))


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

    def _forward(self, p):
        for r in self.links:
            p = r._forward(p)
        return p

    def _items(self, p):
        for r in self.links[:-1]:
            p = r._forward(p)
        return self.links[-1]._items(p)

    def _inverse(self, q):
        for r in reversed(self.links):
            q = r._inverse(q)
            if q is None:
                return None
        return q


# ---------------------------------------------------------------------------
# database-level application

def reduce_database(r: Reduction, db: Database) -> Database:
    """Apply ``r`` to every transaction.  Each distinct transaction is
    mapped once, and equal transactions share its one (immutable) image.  A
    transaction the map rejects (wrong labels, empty sequence, ...) raises
    with the index where it first occurs."""
    if db.domain != r.source_domain:
        raise DomainMismatchError(
            f"{r.id} reduces {r.source_domain} databases, got {db.domain}")
    images = {}
    out = []
    for i, t in enumerate(db.transactions):
        q = images.get(t)
        if q is None:
            try:
                q = images[t] = r._forward(t)
            except PatternError as e:
                raise DatabaseError(f"cannot reduce: {e}", i) from e
        out.append(q)
    return Database(r.target_domain, tuple(out), r.target_class)


def encode_rows(r: Reduction, db: Database, skip=None) -> list:
    """The item rows of ``db`` under ``r``, a reduction into itemsets: for
    each transaction other than those equal to ``skip``, the items of its
    image in any order (``image_items``, with the database's domain checked
    in place of each transaction's).  No image is built or validated, and
    every transaction is encoded, repeats included: listing a transaction's
    items costs less than hashing it.  A transaction the map rejects raises
    with the index where it first occurs."""
    if db.domain != r.source_domain:
        raise DomainMismatchError(
            f"{r.id} reduces {r.source_domain} databases, got {db.domain}")
    txns = db.transactions
    if skip is not None:
        txns = [t for t in txns if t != skip]
    try:
        return list(map(r._items, txns))
    except PatternError as e:
        # the map stopped at the first transaction rejected: find its index
        for i, t in enumerate(db.transactions):
            if t != skip:
                try:
                    r._items(t)
                except PatternError:
                    raise DatabaseError(f"cannot reduce: {e}", i) from e
        raise


def lift_results(r: Reduction, results) -> tuple:
    """Pull mining results back through ``r``.  Every pattern must invert;
    anything off the image means the caller's pipeline is broken, so that
    raises rather than being dropped silently."""
    out = []
    for q in results:
        p = r.inverse(q)
        if p is None:
            raise NoPreimageError(f"{r.id}: no preimage for {q!r}")
        out.append(p)
    return tuple(sorted(out, key=canonical_key))


def invert_database(rid: str, db: Database) -> Database:
    """Map a database on the target side of ``rid`` back to the source side,
    binding the reduction from it.  A transaction without a preimage raises
    with its index."""
    return _undo(bind_from_target(rid, db), db)


def _undo(r: Reduction, db: Database) -> Database:
    sources = []
    for i, t in enumerate(db.transactions):
        p = r.inverse(t)
        if p is None:
            raise DatabaseError(f"no preimage under {r.id}", i)
        sources.append(p)
    return Database(r.source_domain, tuple(sources))


# ---------------------------------------------------------------------------
# registry

def _top_label(db):
    """The largest plain label of ``db`` (0 when there is none)."""
    return max(db.universe, default=0) if db is not None else 0


#: every reduction id.  A reduction with no parameter is stored as itself;
#: the two whose parameter comes from the database are stored as a pair of
#: binders, one reading the source database and one the target database.
#: The star's root must exceed every item, and the path bundle needs one
#: stop per source label, so both read the largest label: on the target
#: side the root is that label, and the top stop label of an n-path image
#: is n*n.
_REGISTRY = {
    "fis2tree": (lambda db: ItemsetToStar(_top_label(db) + 1),
                 lambda db: ItemsetToStar(max(_top_label(db), 1))),
    "fis2seq": ItemsetToSequence(),
    "g2bdg3": (lambda db: GraphToBoundedDegree(max(_top_label(db), 1)),
               lambda db: GraphToBoundedDegree(
                   math.isqrt(max(_top_label(db), 1) - 1) + 1)),
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


_SOURCE, _TARGET = 0, 1


def _bind(link, side: int, db):
    return link if isinstance(link, Reduction) else link[side](db)


def bind_reduction(rid: str, db: Database | None = None) -> Reduction:
    """Construct the reduction named ``rid``, fixing any parameters from
    ``db``, its source database.  A chain folds left to right; a link that
    reads the database reads the image of ``db`` under the links before it,
    which is only computed when such a link follows."""
    links = _links(rid)
    bound = []
    for k, link in enumerate(links):
        bound.append(_bind(link, _SOURCE, db))
        if db is not None and _reads_db(links[k + 1:]):
            db = reduce_database(bound[-1], db)
    return bound[0] if len(bound) == 1 else Composed(*bound)


def bind_from_target(rid: str, db: Database) -> Reduction:
    """Construct the reduction named ``rid`` from ``db``, a database on its
    target side.  A chain binds right to left; a link that reads the
    database reads the preimage of ``db`` under the links after it."""
    links = _links(rid)
    bound = []
    for k in reversed(range(len(links))):
        bound.insert(0, _bind(links[k], _TARGET, db))
        if _reads_db(links[:k]):
            db = _undo(bound[0], db)
    return bound[0] if len(bound) == 1 else Composed(*bound)
