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

Itemset, sequence and graph files each have two parsers.  A batch parser
reads the whole text in numpy, in pieces of about ``_PIECE_CHARS``
characters, into one batch (see ``reductions``), which the ``Database``
holds, building its transactions only when they are asked for.  Both
batch parsers share one tokenizer (``_tokens``): the text must be
printable ASCII, tokens are runs of characters other than space and
newline, each ``\\n`` ends a line, and a label (``_labels``) is a run of at
most 18 digits, at least 1, read a decimal place at a time.

* Lines (``_parse_lines_batch``): each line is one row of an item
  ``Incidence``; pieces may be cut after any space or newline.  An
  itemset row is sorted and loses its repeats, as ``Itemset`` does; a
  sequence row that repeats a label is left to the line parser.
* Graph blocks (``_parse_graph_batch``): pieces are cut before a ``t``
  line, and the batch is a vertex and an edge ``Incidence``.  It takes an
  optional first line ``d`` and ``t``/``v``/``e`` lines when every block
  has a vertex, repeats no vertex and no edge (an undirected one smaller
  end first), has no self-loop and no edge leaving its vertices, and is
  connected.  A file read against a graph class goes to the line parser.

Anything else goes to the line parser (``_parse_lines``,
``_parse_graph_lines``), which builds the patterns one line or block at a
time and says what is wrong, and where; it also accepts what the batch
parsers leave to it, such as ``+1``, a pair label, a tab or a repeated
edge, as it always has.  So both give equal databases, or the same error.
"""

import sys

import numpy as np

from . import _kernels
from .core import Database
from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    Itemset, LabelledGraph, Sequence, connected_components,
)
from .errors import ParseError, PatternError
from .incidence import Incidence


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
# the batch parsers' tokenizer

#: characters read into arrays at once: an int64 per character of a piece
#: fills _kernels._BLOCK_BYTES
_PIECE_CHARS = _kernels._BLOCK_BYTES // 8
#: at most this many digits make a label, which then fits in int64
_DIGITS = 18


def _tokens(data: bytes):
    """The characters of ``data`` with a newline after them, and the start,
    the end and the line of each token, or None unless ``data`` is
    printable ASCII: a token is a run of characters other than space and
    newline, and a line ends at each newline."""
    b = np.frombuffer(data + b"\n", dtype=np.uint8)
    newline = b == 10
    space = newline | (b == 32)
    if not (space | ((b > 32) & (b < 127))).all():
        return None  # a tab, a carriage return, a control character
    step = np.diff(space.view(np.int8), prepend=np.int8(1))
    starts, ends = np.flatnonzero(step == -1), np.flatnonzero(step == 1)
    # a token's line is the number of newlines before it
    return b, starts, ends, np.cumsum(newline)[starts]


def _labels(b, at, size):
    """The labels that the tokens of ``size`` characters at ``at`` in the
    characters ``b`` spell, read a decimal place at a time, or None unless
    each is at most ``_DIGITS`` digits and at least 1."""
    places = int(size.max(initial=0))
    if places > _DIGITS:
        return None
    labels = np.zeros(len(at), dtype=np.int64)
    for k in range(places):
        more = size > k
        digit = b[np.minimum(at + k, len(b) - 1)].astype(np.int64) - ord("0")
        if (more & ((digit < 0) | (digit > 9))).any():
            return None
        labels = np.where(more, labels * 10 + digit, labels)
    return None if labels.min(initial=1) < 1 else labels


# ---------------------------------------------------------------------------
# itemset / sequence lines

def parse_itemset_db(text: str) -> Database:
    db = _parse_lines_batch(text, ITEMSET)
    return _parse_lines(text, ITEMSET) if db is None else db


def parse_sequence_db(text: str) -> Database:
    db = _parse_lines_batch(text, SEQUENCE)
    return _parse_lines(text, SEQUENCE) if db is None else db


def _parse_lines(text: str, domain: str) -> Database:
    """The itemset or sequence lines of ``text`` read one at a time into
    patterns; an error names its line."""
    make = Itemset if domain == ITEMSET else Sequence
    txns = []
    for lineno, line in enumerate(text.splitlines(), 1):
        labels = _label_tokens(line.split(), lineno)
        try:
            txns.append(make(labels))
        except PatternError as e:
            raise ParseError(str(e), lineno) from e
    return Database(domain, tuple(txns))


def _parse_lines_batch(text: str, domain: str):
    """The database of the itemset or sequence lines ``text`` holds, read
    in numpy into one ``Incidence``, or None unless ``text`` is printable
    ASCII lines of plain-int labels that the line parser takes without a
    repeat in a sequence (see the module docstring).  Each ``\\n`` ends a
    row, a last line without one is a row too, and an empty line is an
    empty row.  The text is read in pieces of about ``_PIECE_CHARS``
    characters, each cut after a space or a newline, so that the arrays
    of a piece stay small even when a line is long."""
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    labels, rows = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.intp)]
    lo = n_rows = 0
    while lo < len(data):
        cut = lo + _PIECE_CHARS
        hi = min(data.find(b" ", cut) + 1 or len(data),
                 data.find(b"\n", cut) + 1 or len(data))
        tokens = _tokens(data[lo:hi])
        if tokens is None:
            return None
        b, starts, ends, lines = tokens
        piece = _labels(b, starts, ends - starts)
        if piece is None:
            return None
        # a piece's lines come after the newlines of the pieces before it
        labels.append(piece)
        rows.append(lines + n_rows)
        n_rows += data.count(b"\n", lo, hi)
        lo = hi
    n_rows += not data.endswith(b"\n") and bool(data)
    labels, rows = np.concatenate(labels), np.concatenate(rows)
    base = int(labels.max(initial=0)) + 1
    if n_rows * base >= 2**63:
        return None
    # a row's labels are sorted and distinct when its keys row * base +
    # label increase strictly, as those of a written itemset file do
    keys = rows * base + labels
    if not (keys[1:] > keys[:-1]).all():
        # the stable argsort that the link maps use (incidence.gathered):
        # a first np.sort of int64 pages about 0.3 MiB of numpy in
        keys = keys[np.argsort(keys, kind="stable")]
        new = np.ones(len(keys), dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        if domain == ITEMSET:
            rows, labels = np.divmod(keys[new], base)
        elif not new.all():
            return None  # a repeated event
    return Database._from_batch(domain, Incidence((labels,), rows, n_rows))


def write_itemset_db(db: Database) -> str:
    return "".join(" ".join(label_token(x) for x in t.items) + "\n"
                   for t in db.transactions)


def write_sequence_db(db: Database) -> str:
    return "".join(" ".join(label_token(x) for x in t.events) + "\n"
                   for t in db.transactions)


# ---------------------------------------------------------------------------
# graph blocks

def parse_graph_db(text: str, graph_class=None) -> Database:
    if graph_class is None:
        db = _parse_graph_batch(text)
        if db is not None:
            return db
    return _parse_graph_lines(text, graph_class)


def _parse_graph_batch(text: str):
    """The database of the graph blocks ``text`` holds, read in numpy into
    one batch, or None unless ``text`` is printable ASCII lines of
    plain-int graph blocks that pass every check of the line parser and of
    ``Database`` (see the module docstring).  The text is read in pieces
    of about ``_PIECE_CHARS`` characters, each cut before a ``t`` line, so
    that the arrays of a piece stay small."""
    directed = text.startswith("d\n")
    try:
        data = text[2 * directed:].encode("ascii")
    except UnicodeEncodeError:
        return None
    pieces, lo = [], 0
    while lo < len(data):
        hi = data.find(b"\nt", lo + _PIECE_CHARS) + 1 or len(data)
        piece = _graph_piece(data[lo:hi], directed)
        if piece is None:
            return None
        pieces.append(piece)
        lo = hi
    if not pieces:
        return None
    v, vrows, heads, tails, erows, counts = zip(*pieces)
    offsets = np.cumsum((0,) + counts).tolist()
    n = offsets.pop()

    def numbered(rows):
        # a piece's blocks come after those of the pieces before it
        return np.concatenate([r + o for r, o in zip(rows, offsets)])

    return Database._from_batch(DIGRAPH if directed else GRAPH, (
        Incidence((np.concatenate(v),), numbered(vrows), n),
        Incidence((np.concatenate(heads), np.concatenate(tails)),
                  numbered(erows), n)))


def _graph_piece(data: bytes, directed: bool):
    """The vertices, their blocks, the edges' heads and tails, their
    blocks, and the number of blocks of the graph blocks in ``data``, or
    None when a check fails; the first line must be a ``t`` line.  An
    undirected edge runs from its smaller end, and a block's vertices are
    sorted."""
    tokens = _tokens(data)
    if tokens is None:
        return None
    b, starts, ends, line = tokens
    first = np.ones(len(starts), dtype=bool)  # a line's first token
    first[1:] = line[1:] != line[:-1]
    heads = np.flatnonzero(first)
    width = np.diff(heads, append=len(starts))  # tokens per line
    kind = b[starts[heads]]
    is_t, is_v = kind == ord("t"), kind == ord("v")
    is_e = kind == ord("e")
    if not len(heads) or not is_t[0] \
            or (ends[heads] - starts[heads] != 1).any() \
            or not (is_t | is_v | is_e).all() \
            or (width[is_v] != 2).any() or (width[is_e] != 3).any():
        return None
    # the labels: the second token of each "v" line, and the second and
    # third of each "e" line, read a place at a time
    block = np.cumsum(is_t) - 1  # of each line
    at = np.concatenate((heads[is_v], heads[is_e], heads[is_e] + 1)) + 1
    labels = _labels(b, starts[at], ends[at] - starts[at]) if len(at) else None
    if labels is None:
        return None
    v, u, w = np.split(labels, np.cumsum([is_v.sum(), is_e.sum()]))
    n_blocks = int(is_t.sum())
    counts = np.bincount(block[is_v], minlength=n_blocks)
    base = int(labels.max()) + 1
    if not counts.all() or n_blocks * base >= 2**63:
        return None
    # a vertex is found by its key block * base + label, sorted
    keys = np.sort(block[is_v] * base + v)
    if (keys[1:] == keys[:-1]).any() or (u == w).any():
        return None  # a repeated vertex, a self-loop
    if not directed:
        u, w = np.minimum(u, w), np.maximum(u, w)
    erows = block[is_e]
    ends = [erows * base + x for x in (u, w)]
    iu, iw = (np.searchsorted(keys, e) for e in ends)
    for i, e in zip((iu, iw), ends):
        if (keys[np.minimum(i, len(keys) - 1)] != e).any():
            return None  # an end outside its block's vertices
    edges = np.sort(iu * len(keys) + iw)
    if (edges[1:] == edges[:-1]).any():
        return None  # a repeated edge
    # connectivity: each vertex points at the least vertex it is known to
    # reach; an edge hooks the larger of its ends' targets onto the
    # smaller, and pointer jumping flattens the result, until no edge
    # joins two targets.  A block is connected when every vertex then
    # points at its block's first.
    comp = np.arange(len(keys))
    while True:
        hooked = comp.copy()
        np.minimum.at(hooked, comp[iu], comp[iw])
        np.minimum.at(hooked, comp[iw], comp[iu])
        while True:
            jumped = hooked[hooked]
            if (jumped == hooked).all():
                break
            hooked = jumped
        if (hooked == comp).all():
            break
        comp = hooked
    if (comp != np.repeat(np.cumsum(counts) - counts, counts)).any():
        return None
    vrows, v = np.divmod(keys, base)
    return v, vrows, u, w, erows, n_blocks


def _parse_graph_lines(text: str, graph_class=None) -> Database:
    """The graph blocks of ``text`` read line by line into patterns; an
    error names its line."""
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
        # the whole file is one graph first, so that its labels are checked
        # (one kind, say) before components are sorted by them
        g = LabelledGraph(frozenset(x for e in edges for x in e),
                          frozenset(edges), directed=directed)
        if components == "split":
            comps = sorted(connected_components(g.vertices, g.edges),
                           key=sorted)
            where = {v: i for i, comp in enumerate(comps) for v in comp}
            parts = [[] for _ in comps]
            for e in g.edges:
                parts[where[e[0]]].append(e)
            for comp, part in zip(comps, parts):
                txns.append(LabelledGraph(frozenset(comp), frozenset(part),
                                          directed=directed))
        else:
            txns.append(g)
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
        if not len(db):
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
