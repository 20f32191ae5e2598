"""Database container and the support/frequency/maximality primitives.

A database is an ordered multiset of transactions from a single domain.
Support counts containing transactions with multiplicity, so duplicated
transactions contribute twice.  The support threshold is a positive integer
and may exceed the database size; nothing is frequent then, which is a
legitimate outcome rather than an error.
"""

from dataclasses import FrozenInstanceError
from itertools import chain
from operator import itemgetter

import numpy as np

from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    GraphClass, Itemset, LabelledGraph, Sequence,
    element_kind, has_class_shape, is_connected, pattern_domain, pattern_leq,
)
from .errors import DatabaseError, DomainMismatchError
from .incidence import (
    Incidence, gathered, item_incidence, label_array, lengths, number,
)

_DOMAINS = (ITEMSET, SEQUENCE, GRAPH, DIGRAPH)


def check_tau(tau):
    if not isinstance(tau, int) or isinstance(tau, bool) or tau < 1:
        raise ValueError(f"support threshold must be a positive int, got {tau!r}")
    return tau


def _check_transaction(t, domain, graph_class, index):
    if pattern_domain(t) != domain:
        raise DatabaseError(
            f"expected a {domain} transaction, got {pattern_domain(t)}", index)
    if domain in (GRAPH, DIGRAPH):
        if not is_connected(t):
            raise DatabaseError("graph transactions must be connected", index)
        # the domain fixes the directedness the class asks for
        if graph_class is not None and not has_class_shape(t, graph_class):
            raise DatabaseError(
                f"transaction is not in class {graph_class}", index)


def pattern_batch(domain, patterns):
    """The batch of the list ``patterns`` of ``domain`` patterns (see
    ``reductions``): an itemset's items or a sequence's events as one
    ``Incidence``, and a graph's vertices and its (head, tail) edges as
    two.  An edge between label pairs has the components of its head and
    then of its tail, four columns."""
    if domain == ITEMSET:
        return item_incidence([p.items for p in patterns])
    if domain == SEQUENCE:
        return item_incidence([p.events for p in patterns])
    vertices = item_incidence([g.vertices for g in patterns])
    edge_sets = [g.edges for g in patterns]
    # the edges' ends are read off by index: flattening each edge into its
    # ends would allocate an iterator per edge
    edges = list(chain.from_iterable(edge_sets))
    if len(vertices.labels) == 2:
        parts = [lambda e, i=i, j=j: e[i][j] for i in (0, 1) for j in (0, 1)]
    else:
        parts = [itemgetter(0), itemgetter(1)]
    ends = tuple(label_array(lambda: map(part, edges), len(edges))
                 for part in parts)
    return vertices, Incidence(ends, np.repeat(np.arange(
        len(patterns), dtype=np.intp), lengths(edge_sets)), len(patterns))


def lead_incidence(batch) -> Incidence:
    """A batch's items or events, or its vertices, which hold the ends of
    its edges and a row for each graph."""
    return batch if isinstance(batch, Incidence) else batch[0]


def label_columns(batch) -> tuple:
    """The label columns of a batch's items or events, or of its vertices,
    which hold the ends of its edges."""
    return lead_incidence(batch).labels


def batch_patterns(domain, batch) -> tuple:
    """The ``domain`` patterns that ``batch`` holds, one per row, built
    unchecked: the inverse of ``pattern_batch``.  A row's entries may come
    in any order, and its rows interleaved: an itemset sorts its entries,
    a sequence keeps their order, and a graph gathers them by row.  Equal
    labels, label pairs and vertex sets each share one object, so that
    the garbage collector has fewer objects to scan."""
    if domain in (ITEMSET, SEQUENCE):
        entries, cuts = _row_entries(batch, domain == ITEMSET)
        make = Itemset._trusted if domain == ITEMSET else Sequence._trusted
        return tuple(make(tuple(entries[a:b]))
                     for a, b in zip([0] + cuts, cuts))
    (labels, vcuts), (edges, ecuts) = map(_row_entries, batch)
    shared = {}
    out = []
    for v0, v1, e0, e1 in zip([0] + vcuts, vcuts, [0] + ecuts, ecuts):
        vs = frozenset(labels[v0:v1])
        out.append(LabelledGraph._trusted(shared.setdefault(vs, vs),
                                          frozenset(edges[e0:e1]),
                                          domain == DIGRAPH))
    return tuple(out)


def _row_entries(incidence, by_label=False):
    """The entries of ``incidence`` row by row, as Python objects, one
    for each distinct label or label pair (``incidence.number``), and
    where each row ends among them.  A row keeps its entries' order, or
    with ``by_label`` puts them in label order.  An edge between label
    pairs, four columns, is a pair of pairs."""
    columns, rows = incidence.labels, incidence.rows
    if len(columns) == 4:
        (heads, cuts), (tails, _) = (
            _row_entries(incidence._replace(labels=half))
            for half in (columns[:2], columns[2:]))
        return list(zip(heads, tails)), cuts
    items, index = number(columns)
    index = gathered(Incidence((index,), rows, incidence.n_rows),
                     index if by_label else None).labels[0]
    cuts = np.cumsum(np.bincount(rows, minlength=incidence.n_rows)).tolist()
    # each entry refers to its item's one object: no int is made per entry
    table = np.fromiter(zip(*(c.tolist() for c in items)) if len(items) == 2
                        else items[0].tolist(), dtype=object,
                        count=len(items[0]))
    return table[index].tolist(), cuts


def _narrowed(batch):
    """``batch`` with each int64 array in the narrowest unsigned dtype that
    holds its values, so that a database holds it in less memory; object
    arrays stay as they are.  ``_widened`` gives the batch back."""
    if not isinstance(batch, Incidence):
        return tuple(map(_narrowed, batch))

    def narrowed(a):
        if a.dtype == object:
            return a
        return a.astype(np.min_scalar_type(int(a.max(initial=0))))
    return Incidence(tuple(map(narrowed, batch.labels)),
                     narrowed(batch.rows), batch.n_rows)


def _widened(batch):
    """The batch that ``_narrowed`` holds, in int64 arrays again."""
    if not isinstance(batch, Incidence):
        return tuple(map(_widened, batch))
    return Incidence(tuple(c if c.dtype == object else c.astype(np.int64)
                           for c in batch.labels),
                     batch.rows.astype(np.intp), batch.n_rows)


class Database:
    """An ordered multiset of same-domain transactions.

    ``graph_class`` optionally narrows graph databases to a class (trees,
    bounded degree, dags, ...); every transaction is validated against it
    at construction time.

    A database holds its transactions as patterns, as a batch
    (``pattern_batch``) or as both, and makes the one it lacks on first
    use and keeps it: patterns enter a batch through ``pattern_batch`` and
    leave it through ``batch_patterns``.  One built from patterns reads
    them into its batch once.  A database that ``io`` parsed straight into
    a batch, of itemsets, sequences or graphs, builds its ``transactions``
    on first use.  The batch is held in the narrowest dtypes that fit
    (``_narrowed``), and ``batch`` hands out an int64 copy of it.
    ``len``, ``universe`` and the encoding of the transactions
    (``reductions.encode_rows``) read the batch, so mining such a database
    builds no transaction.  Equality and hashing compare the
    transactions.
    """

    def __init__(self, domain: str, transactions=(),
                 graph_class: GraphClass | None = None):
        if domain not in _DOMAINS:
            raise ValueError(f"unknown domain {domain!r}")
        txns = tuple(transactions)
        if graph_class is not None:
            if domain not in (GRAPH, DIGRAPH):
                raise ValueError("graph_class only applies to graph domains")
            if graph_class.directed != (domain == DIGRAPH):
                raise ValueError(
                    f"class {graph_class} does not match domain {domain}")
        kinds = set()
        for i, t in enumerate(txns):
            _check_transaction(t, domain, graph_class, i)
            kinds.add(element_kind(t))
        kinds.discard(None)
        if len(kinds) > 1:
            raise DatabaseError("transactions mix plain and pair labels")
        self._set(domain, graph_class, txns, None)

    @classmethod
    def _from_batch(cls, domain: str, batch):
        """The database of the ``batch``, unchecked: its rows passed every
        check of ``__init__``, and its entries come row by row, an
        itemset's in label order and without a repeat, as ``pattern_batch``
        gives them."""
        db = object.__new__(cls)
        db._set(domain, None, None, _narrowed(batch))
        return db

    def _set(self, domain, graph_class, transactions, batch):
        for name, value in (("domain", domain), ("graph_class", graph_class),
                            ("_transactions", transactions),
                            ("_batch", batch)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def transactions(self) -> tuple:
        if self._transactions is None:
            object.__setattr__(self, "_transactions", batch_patterns(
                self.domain, self.batch))
        return self._transactions

    @property
    def batch(self):
        """The transactions as one batch (``pattern_batch``), in int64
        arrays."""
        if self._batch is None:
            object.__setattr__(self, "_batch", _narrowed(pattern_batch(
                self.domain, self._transactions)))
        return _widened(self._batch)

    def _key(self):
        return self.domain, self.transactions, self.graph_class

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"Database(domain={self.domain!r}, "
                f"transactions={self.transactions!r}, "
                f"graph_class={self.graph_class!r})")

    def __len__(self):
        if self._transactions is None:
            return lead_incidence(self._batch).n_rows
        return len(self._transactions)

    def __iter__(self):
        return iter(self.transactions)

    @property
    def universe(self) -> frozenset:
        """The plain labels occurring in the transactions; a label pair
        contributes both of its components."""
        (labels,), _ = number((np.concatenate(label_columns(self.batch)),))
        return frozenset(labels.tolist())


def itemset_db(transactions) -> Database:
    return Database(ITEMSET, tuple(
        t if isinstance(t, Itemset) else Itemset(tuple(t)) for t in transactions))


def sequence_db(transactions) -> Database:
    return Database(SEQUENCE, tuple(
        t if isinstance(t, Sequence) else Sequence(tuple(t)) for t in transactions))


def graph_db(transactions, graph_class=None, directed=False) -> Database:
    return Database(DIGRAPH if directed else GRAPH, tuple(transactions),
                    graph_class)


def support(p, db: Database) -> int:
    """Number of transactions containing ``p``, counted with multiplicity."""
    if pattern_domain(p) != db.domain:
        raise DomainMismatchError(
            f"{pattern_domain(p)} pattern against a {db.domain} database")
    return sum(1 for t in db.transactions if pattern_leq(p, t))


def is_frequent(p, db: Database, tau: int) -> bool:
    check_tau(tau)
    return support(p, db) >= tau


def is_maximal_feasible(p, db: Database, tau: int, phi, supersets=None) -> bool:
    """True iff ``p`` is feasible, frequent, and no strict feasible frequent
    superset exists.

    The caller may supply the candidate supersets to check; when omitted the
    brute-force enumeration from the oracle is used, subject to its size
    guard.
    """
    from .feasibility import accepted, evaluate  # local, avoids a cycle
    check_tau(tau)
    if not evaluate(phi, p):
        return False
    if support(p, db) < tau:
        return False
    if supersets is None:
        from .oracle import enumerate_patterns
        supersets = enumerate_patterns(db)
    above = [q for q in supersets if q != p and pattern_leq(p, q)]
    return not any(support(q, db) >= tau for q in accepted(phi, above))
