"""Pattern domains: itemsets, repetition-free sequences and labelled graphs.

All three pattern kinds are immutable and hashable so they can live in sets
and serve as dict keys.  Labels are positive integers; the pair-labelled
universes used by the graph encodings additionally allow (int, int) tuples
as labels.  Within one pattern every label has the same shape.

The containment order is plain inclusion per domain:

* itemsets:   subset of items
* sequences:  subsequence (order preserved, labels distinct)
* graphs:     subgraph (vertex set and edge set inclusion); vertex identity
              is the label itself, so there is no separate isomorphism test
"""

from dataclasses import dataclass, field

from .errors import DomainMismatchError, PatternError

ITEMSET = "itemset"
SEQUENCE = "sequence"
GRAPH = "graph"       # undirected
DIGRAPH = "digraph"   # directed


def _check_label(x):
    if isinstance(x, bool):
        raise PatternError(f"label must be a positive int or label pair, got {x!r}")
    if isinstance(x, int):
        if x < 1:
            raise PatternError(f"labels are 1-based positive ints, got {x}")
        return
    if (isinstance(x, tuple) and len(x) == 2
            and all(isinstance(c, int) and not isinstance(c, bool) and c >= 1
                    for c in x)):
        return
    raise PatternError(f"label must be a positive int or label pair, got {x!r}")


def _label_kind(x):
    return "pair" if isinstance(x, tuple) else "int"


_PLAIN = frozenset((int,))  # exactly int: a bool is not a label


def _check_labels(labels, what, distinct=False):
    """Raise PatternError unless ``labels`` (a set, or a tuple when
    ``distinct``) are valid labels of one kind, pairwise distinct when
    ``distinct``.  The errors come in this order: a bad label, a repeated
    label, labels of two kinds.  Plain ints, the common input, are
    confirmed by one scan of their types and their minimum; any other
    input gets the full check of every label."""
    plain = _PLAIN.issuperset(map(type, labels)) \
        and (not labels or min(labels) >= 1)
    if not plain:
        for x in labels:
            _check_label(x)
    if distinct and len(set(labels)) != len(labels):
        raise PatternError(f"{what} repeats a label: {labels}")
    if not plain and len({_label_kind(x) for x in labels}) > 1:
        raise PatternError(f"{what} mixes plain labels and label pairs")


@dataclass(frozen=True, repr=False)
class Itemset:
    """A set of labels in canonical (sorted, duplicate-free) form."""

    items: tuple = ()

    def __post_init__(self):
        items = set(self.items)
        _check_labels(items, "itemset")
        object.__setattr__(self, "items", tuple(sorted(items)))

    @classmethod
    def _trusted(cls, items: tuple):
        """Internal constructor that skips validation.  ``items`` must
        already be canonical: a sorted, duplicate-free tuple of valid labels
        of one kind, taken from a pattern that was validated."""
        p = object.__new__(cls)
        object.__setattr__(p, "items", items)
        return p

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __contains__(self, x):
        return x in self.items

    def as_set(self):
        return frozenset(self.items)

    def __repr__(self):
        return "Itemset(%s)" % ", ".join(map(repr, self.items))


@dataclass(frozen=True, repr=False)
class Sequence:
    """An ordered run of pairwise-distinct labels."""

    events: tuple = ()

    def __post_init__(self):
        events = tuple(self.events)
        _check_labels(events, "sequence", distinct=True)
        object.__setattr__(self, "events", events)

    @classmethod
    def _trusted(cls, events: tuple):
        """Internal constructor that skips validation.  ``events`` must be a
        tuple of pairwise-distinct valid labels of one kind, taken from
        patterns that were validated."""
        p = object.__new__(cls)
        object.__setattr__(p, "events", events)
        return p

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self):
        return "Sequence(%s)" % ", ".join(map(repr, self.events))


def _normalize_edge(e, vertices, directed):
    """``e`` as stored in a graph on ``vertices``, whose labels were checked:
    an endpoint that is one of them has a valid label of their one kind."""
    if not (isinstance(e, tuple) and len(e) == 2):
        raise PatternError(f"edge must be a 2-tuple, got {e!r}")
    u, v = e
    if type(u) is not int or type(v) is not int:
        # equal to a vertex is not enough for anything but a plain int:
        # True and 1.0 both equal 1, and an unhashable endpoint cannot be
        # looked up
        _check_label(u)
        _check_label(v)
    if u not in vertices or v not in vertices:
        raise PatternError(f"edge ({u!r}, {v!r}) leaves the vertex set")
    if u == v:
        raise PatternError(f"self-loop on {u!r} is not allowed")
    if not directed and u > v:
        u, v = v, u
    return (u, v)


def _in_stored_form(edges, vertices, directed):
    """Whether ``edges`` is already a frozenset of edges as a graph on the
    plain-int ``vertices`` stores them: pairs of distinct vertices, smaller
    first unless ``directed``."""
    if type(edges) is not frozenset:
        return False
    for e in edges:
        if type(e) is not tuple or len(e) != 2:
            return False
        u, v = e
        if not (type(u) is int and type(v) is int and u in vertices
                and v in vertices and (u < v or directed and u != v)):
            return False
    return True


@dataclass(frozen=True, repr=False)
class LabelledGraph:
    """A graph whose vertices are identified by their (unique) labels.

    Undirected edges are stored smaller-endpoint-first.  The empty graph is
    rejected; a single vertex with no edges is fine.  Connectivity is not
    enforced here because intermediate construction steps may pass through
    disconnected shapes; database validation and the class validators check
    it where the contract requires it.
    """

    vertices: frozenset = field(default_factory=frozenset)
    edges: frozenset = field(default_factory=frozenset)
    directed: bool = False

    def __post_init__(self):
        vertices = frozenset(self.vertices)
        if not vertices:
            raise PatternError("the empty graph is not a pattern")
        _check_labels(vertices, "graph")
        edges = self.edges
        if not _in_stored_form(edges, vertices, self.directed):
            edges = frozenset(_normalize_edge(e, vertices, self.directed)
                              for e in edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _trusted(cls, vertices: frozenset, edges: frozenset,
                 directed: bool = False):
        """Internal constructor that skips validation.  ``vertices`` must be
        a non-empty frozenset of valid labels of one kind and ``edges`` a
        frozenset of pairs of distinct vertices, smaller endpoint first when
        undirected, all taken from patterns that were validated."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "directed", directed)
        return g

    def __repr__(self):
        arrow = "->" if self.directed else "--"
        es = ", ".join(f"{u}{arrow}{v}" for u, v in sorted(self.edges))
        vs = ", ".join(map(repr, sorted(self.vertices)))
        return f"LabelledGraph([{vs}], [{es}])"


def connected_components(vertices, edges):
    """The connected components of the undirected view of ``edges`` over
    ``vertices``, as sets, found one at a time.  They split an edge list
    into graphs; whether a graph is connected is for ``spans`` to say."""
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        yield comp
        seen |= comp


def spans(vertices, edges) -> bool:
    """Whether the undirected view of ``edges`` joins ``vertices``, which
    hold every endpoint, into one component (no vertices make none); an
    edge (a, a) adds nothing.  Union-find with path halving and no
    recursion, which answers early when there are fewer than n - 1 edges
    or once one component is left."""
    n = len(vertices)
    if len(edges) < n - 1:
        return False
    parent = dict(zip(vertices, vertices))
    for u, v in edges:
        # path halving: point each node met at its grandparent, and go there
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            n -= 1
            if n == 1:
                return True
    return n == 1


def is_connected(g: LabelledGraph) -> bool:
    """Connectivity of the undirected view; a single vertex counts."""
    return spans(g.vertices, g.edges)


def undirected_degrees(g: LabelledGraph):
    deg = {v: 0 for v in g.vertices}
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def is_acyclic(g: LabelledGraph) -> bool:
    """True iff a directed graph has no directed cycle (Kahn's algorithm)."""
    indeg = {v: 0 for v in g.vertices}
    out = {v: [] for v in g.vertices}
    for u, v in g.edges:
        indeg[v] += 1
        out[u].append(v)
    queue = [v for v, d in indeg.items() if d == 0]
    removed = 0
    while queue:
        v = queue.pop()
        removed += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return removed == len(g.vertices)


# ---------------------------------------------------------------------------
# graph classes

TREE = "tree"
BOUNDED_DEGREE = "bounded-degree"
GENERAL = "general"
DAG = "dag"
DIRECTED = "directed"


@dataclass(frozen=True)
class GraphClass:
    kind: str
    degree_bound: int | None = None

    def __post_init__(self):
        if self.kind not in (TREE, BOUNDED_DEGREE, GENERAL, DAG, DIRECTED):
            raise ValueError(f"unknown graph class kind {self.kind!r}")
        if self.kind == BOUNDED_DEGREE:
            if not isinstance(self.degree_bound, int) or self.degree_bound < 1:
                raise ValueError("bounded-degree class needs a positive bound")
        elif self.degree_bound is not None:
            raise ValueError(f"{self.kind} takes no degree bound")

    @property
    def directed(self) -> bool:
        return self.kind in (DAG, DIRECTED)

    def __str__(self):
        if self.kind == BOUNDED_DEGREE:
            return f"bdg:{self.degree_bound}"
        return self.kind


def validate_class(g: LabelledGraph, cls: GraphClass) -> bool:
    """Membership test: directedness, connectivity and the class shape."""
    return g.directed == cls.directed and is_connected(g) \
        and has_class_shape(g, cls)


def has_class_shape(g: LabelledGraph, cls: GraphClass) -> bool:
    """The part of class membership beyond directedness and connectivity,
    for a connected graph ``g`` as directed as ``cls``."""
    if cls.kind == TREE:
        return len(g.edges) == len(g.vertices) - 1
    if cls.kind == BOUNDED_DEGREE:
        return max(undirected_degrees(g).values()) <= cls.degree_bound
    if cls.kind == DAG:
        return is_acyclic(g)
    return True  # general / directed: connectivity was the only constraint


# ---------------------------------------------------------------------------
# containment orders

def itemset_leq(p: Itemset, q: Itemset) -> bool:
    return p.as_set() <= q.as_set()


def sequence_leq(p: Sequence, q: Sequence) -> bool:
    it = iter(q.events)
    return all(x in it for x in p.events)


def graph_leq(p: LabelledGraph, q: LabelledGraph) -> bool:
    if p.directed != q.directed:
        raise DomainMismatchError(
            "cannot compare a directed graph with an undirected one")
    return p.vertices <= q.vertices and p.edges <= q.edges


def pattern_domain(p) -> str:
    if isinstance(p, Itemset):
        return ITEMSET
    if isinstance(p, Sequence):
        return SEQUENCE
    if isinstance(p, LabelledGraph):
        return DIGRAPH if p.directed else GRAPH
    raise DomainMismatchError(f"not a pattern: {p!r}")


def pattern_leq(p, q) -> bool:
    """Containment in whichever domain both operands share."""
    dp, dq = pattern_domain(p), pattern_domain(q)
    if dp != dq:
        raise DomainMismatchError(f"cannot compare {dp} with {dq}")
    if dp == ITEMSET:
        return itemset_leq(p, q)
    if dp == SEQUENCE:
        return sequence_leq(p, q)
    return graph_leq(p, q)


def canonical_key(p):
    """Sort key giving the canonical output order within one domain:
    itemsets by item list, sequences by event list, graphs by sorted edge
    list then sorted vertex list."""
    if isinstance(p, Itemset):
        return p.items
    if isinstance(p, Sequence):
        return p.events
    if isinstance(p, LabelledGraph):
        return (tuple(sorted(p.edges)), tuple(sorted(p.vertices)))
    raise DomainMismatchError(f"not a pattern: {p!r}")


def item_labels(items) -> frozenset:
    """The plain labels that ``items`` touch; a label pair contributes both
    of its components, which is what the connectivity merge test needs."""
    out = set()
    for x in items:
        if isinstance(x, tuple):
            out.update(x)
        else:
            out.add(x)
    return frozenset(out)


def element_kind(p):
    """'int' or 'pair' judged from the pattern's own elements; None when the
    pattern is empty.  Databases must not mix the two kinds."""
    if isinstance(p, Itemset):
        xs = p.items
    elif isinstance(p, Sequence):
        xs = p.events
    elif isinstance(p, LabelledGraph):
        xs = p.vertices
    else:
        raise DomainMismatchError(f"not a pattern: {p!r}")
    return _label_kind(next(iter(xs))) if xs else None


def pattern_size(p) -> int:
    """Uniform size notion: items, events, or vertices plus edges."""
    if isinstance(p, Itemset):
        return len(p.items)
    if isinstance(p, Sequence):
        return len(p.events)
    if isinstance(p, LabelledGraph):
        return len(p.vertices) + len(p.edges)
    raise DomainMismatchError(f"not a pattern: {p!r}")
