"""File formats.

* itemset / sequence databases: one transaction per line, whitespace-
  separated label tokens; an empty line is an empty transaction.  Sequence
  lines are order-significant and must not repeat a label.
* graph databases: blocks of ``t # <id>`` / ``v <label>`` / ``e <u> <v>``
  lines; a single ``d`` line before the first block marks the database as
  directed.
* edge lists: one file per transaction, ``src dst`` per line; self-loops
  are skipped with a warning.

Label tokens are plain ints ("7") or pairs ("3,1").  The parsers read a
token as a plain int first and fall back to ``parse_label_token``, which
reads a pair or raises, only when that fails.  Writers emit canonical
order (sorted items, vertex and edge lists) so write-then-parse round-trips
byte-identically for canonical inputs.
"""

import sys

from .core import Database
from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    Itemset, LabelledGraph, Sequence, connected_components,
)
from .errors import ParseError, PatternError


def _warn_stderr(msg):
    print(f"warning: {msg}", file=sys.stderr)


def parse_label_token(tok: str, line=None):
    try:
        if "," in tok:
            a, b = tok.split(",")
            return (int(a), int(b))
        return int(tok)
    except ValueError:
        raise ParseError(f"bad label token {tok!r}", line) from None


def _label_tokens(toks, line):
    """``toks`` as labels: plain ints first, anything else through
    ``parse_label_token``."""
    try:
        return list(map(int, toks))
    except ValueError:
        return [parse_label_token(t, line) for t in toks]


def label_token(x) -> str:
    return f"{x[0]},{x[1]}" if isinstance(x, tuple) else str(x)


# ---------------------------------------------------------------------------
# itemset / sequence lines

def parse_itemset_db(text: str) -> Database:
    txns = []
    for lineno, line in enumerate(text.splitlines(), 1):
        items = _label_tokens(line.split(), lineno)
        try:
            txns.append(Itemset(items))
        except PatternError as e:
            raise ParseError(str(e), lineno) from e
    return Database(ITEMSET, tuple(txns))


def parse_sequence_db(text: str) -> Database:
    txns = []
    for lineno, line in enumerate(text.splitlines(), 1):
        events = _label_tokens(line.split(), lineno)
        try:
            txns.append(Sequence(events))
        except PatternError as e:
            raise ParseError(str(e), lineno) from e
    return Database(SEQUENCE, tuple(txns))


def write_itemset_db(db: Database) -> str:
    return "".join(" ".join(label_token(x) for x in t.items) + "\n"
                   for t in db.transactions)


def write_sequence_db(db: Database) -> str:
    return "".join(" ".join(label_token(x) for x in t.events) + "\n"
                   for t in db.transactions)


# ---------------------------------------------------------------------------
# graph blocks

def parse_graph_db(text: str, graph_class=None) -> Database:
    directed = False
    txns = []
    start = None  # the current block's "t" line
    vertices, edges = [], []
    # equal vertex sets share one frozenset, so that the garbage collector
    # has fewer objects to scan; few labels make few distinct vertex sets
    vertex_sets = {}

    def flush():
        vs = frozenset(vertices)
        try:
            txns.append(LabelledGraph(vertex_sets.setdefault(vs, vs),
                                      frozenset(edges), directed=directed))
        except PatternError as e:
            raise ParseError(str(e), start) from e

    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split()
        if not toks:
            continue
        head = toks[0]
        if head == "e":
            if start is None or len(toks) != 3:
                raise ParseError(f"bad edge line {raw!r}", lineno)
            try:
                edges.append((int(toks[1]), int(toks[2])))
            except ValueError:
                edges.append((parse_label_token(toks[1], lineno),
                              parse_label_token(toks[2], lineno)))
        elif head == "v":
            if start is None or len(toks) != 2:
                raise ParseError(f"bad vertex line {raw!r}", lineno)
            try:
                vertices.append(int(toks[1]))
            except ValueError:
                vertices.append(parse_label_token(toks[1], lineno))
        elif head == "t":
            if start is not None:
                flush()
            start, vertices, edges = lineno, [], []
        elif head == "d":
            if start is not None:
                raise ParseError("the 'd' flag must precede the first block",
                                 lineno)
            directed = True
        else:
            raise ParseError(f"unrecognized line {raw!r}", lineno)
    if start is not None:
        flush()
    return Database(DIGRAPH if directed else GRAPH, tuple(txns), graph_class)


def write_graph_db(db: Database) -> str:
    out = []
    if db.domain == DIGRAPH:
        out.append("d\n")
    for i, g in enumerate(db.transactions):
        out.append(f"t # {i}\n")
        for v in sorted(g.vertices):
            out.append(f"v {label_token(v)}\n")
        for u, v in sorted(g.edges):
            out.append(f"e {label_token(u)} {label_token(v)}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# edge lists

def ingest_edge_lists(paths, components="keep", directed=False,
                      warn=_warn_stderr) -> Database:
    """One transaction per file.  ``components='split'`` turns each
    connected component into its own transaction instead of failing on a
    disconnected file."""
    if components not in ("keep", "split"):
        raise ValueError("components must be 'keep' or 'split'")
    txns = []
    for path in paths:
        with open(path) as fh:
            text = fh.read()
        edges = []
        for lineno, line in enumerate(text.splitlines(), 1):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != 2:
                raise ParseError(f"{path}: expected 'src dst'", lineno)
            u, v = _label_tokens(toks, lineno)
            if u == v:
                warn(f"{path}:{lineno}: skipping self-loop on {u}")
                continue
            edges.append((u, v))
        if not edges:
            warn(f"{path}: no usable edges, skipping file")
            continue
        vertices = {x for e in edges for x in e}
        if components == "split":
            comps = sorted(connected_components(vertices, edges), key=sorted)
            where = {v: i for i, comp in enumerate(comps) for v in comp}
            parts = [[] for _ in comps]
            for e in edges:
                parts[where[e[0]]].append(e)
            for comp, part in zip(comps, parts):
                txns.append(LabelledGraph(frozenset(comp), frozenset(part),
                                          directed=directed))
        else:
            txns.append(LabelledGraph(frozenset(vertices), frozenset(edges),
                                      directed=directed))
    return Database(DIGRAPH if directed else GRAPH, tuple(txns))


# ---------------------------------------------------------------------------
# pattern rendering (one line per pattern, canonical and unambiguous)

def render_pattern(p) -> str:
    if isinstance(p, Itemset):
        return "{" + " ".join(label_token(x) for x in p.items) + "}"
    if isinstance(p, Sequence):
        return "<" + " ".join(label_token(x) for x in p.events) + ">"
    if isinstance(p, LabelledGraph):
        arrow = ">" if p.directed else "~"
        parts = [" ".join(label_token(v) for v in sorted(p.vertices))]
        if p.edges:
            parts.append(" ".join(f"{label_token(u)}{arrow}{label_token(v)}"
                                  for u, v in sorted(p.edges)))
        return " | ".join(parts)
    raise TypeError(f"not a pattern: {p!r}")


def render_result(res) -> str:
    """Serialize a mining result: header, pattern lines, level table."""
    out = [f"# tau {res.tau}", f"# phi {res.phi}",
           f"# maximal {len(res.maximal)}"]
    out.extend(render_pattern(p) for p in res.maximal)
    out.append("# levels")
    out.append("level\tcandidates\tfrequent\tfeasible")
    for s in res.stats:
        out.append(f"{s.level}\t{s.candidates}\t{s.frequent}\t{s.feasible_frequent}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# dispatch helpers

def parse_database(text: str, domain: str, graph_class=None) -> Database:
    if domain == ITEMSET:
        return parse_itemset_db(text)
    if domain == SEQUENCE:
        return parse_sequence_db(text)
    if domain in (GRAPH, DIGRAPH):
        db = parse_graph_db(text, graph_class)
        if not db.transactions:
            return Database(domain, (), graph_class)
        if db.domain != domain:
            raise ParseError(f"file is a {db.domain} database, expected {domain}")
        return db
    raise ValueError(f"unknown domain {domain!r}")


def write_database(db: Database) -> str:
    if db.domain == ITEMSET:
        return write_itemset_db(db)
    if db.domain == SEQUENCE:
        return write_sequence_db(db)
    return write_graph_db(db)


def load_database(path, domain: str, graph_class=None) -> Database:
    with open(path) as fh:
        return parse_database(fh.read(), domain, graph_class)


def save_database(db: Database, path):
    with open(path, "w") as fh:
        fh.write(write_database(db))
