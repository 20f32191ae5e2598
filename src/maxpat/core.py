"""Database container and the support/frequency/maximality primitives.

A database is an ordered multiset of transactions from a single domain.
Support counts containing transactions with multiplicity, so duplicated
transactions contribute twice.  The support threshold is a positive integer
and may exceed the database size; nothing is frequent then, which is a
legitimate outcome rather than an error.
"""

from dataclasses import dataclass

from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    GraphClass, Itemset, LabelledGraph, Sequence,
    element_kind, has_class_shape, is_connected, item_labels, pattern_domain,
    pattern_leq,
)
from .errors import DatabaseError, DomainMismatchError

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


@dataclass(frozen=True)
class Database:
    """An ordered multiset of same-domain transactions.

    ``graph_class`` optionally narrows graph databases to a class (trees,
    bounded degree, dags, ...); every transaction is validated against it
    at construction time.
    """

    domain: str
    transactions: tuple = ()
    graph_class: GraphClass | None = None

    def __post_init__(self):
        if self.domain not in _DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        txns = tuple(self.transactions)
        if self.graph_class is not None:
            if self.domain not in (GRAPH, DIGRAPH):
                raise ValueError("graph_class only applies to graph domains")
            if self.graph_class.directed != (self.domain == DIGRAPH):
                raise ValueError(
                    f"class {self.graph_class} does not match domain {self.domain}")
        kinds = set()
        for i, t in enumerate(txns):
            _check_transaction(t, self.domain, self.graph_class, i)
            kinds.add(element_kind(t))
        kinds.discard(None)
        if len(kinds) > 1:
            raise DatabaseError("transactions mix plain and pair labels")
        object.__setattr__(self, "transactions", txns)

    def __len__(self):
        return len(self.transactions)

    def __iter__(self):
        return iter(self.transactions)

    @property
    def universe(self) -> frozenset:
        """The plain labels occurring in the transactions; a label pair
        contributes both of its components."""
        return item_labels(
            x for t in self.transactions
            for x in (t.vertices if isinstance(t, LabelledGraph) else t))


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
    from .feasibility import evaluate  # local import, avoids a cycle
    check_tau(tau)
    if not evaluate(phi, p):
        return False
    if support(p, db) < tau:
        return False
    if supersets is None:
        from .oracle import enumerate_patterns
        supersets = enumerate_patterns(db)
    for q in supersets:
        if q != p and pattern_leq(p, q) and evaluate(phi, q) \
                and support(q, db) >= tau:
            return False
    return True
