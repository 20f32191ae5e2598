import random
from itertools import chain, groupby

import pytest

from maxpat.core import graph_db, itemset_db, sequence_db
from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, TREE,
    GraphClass, Itemset, LabelledGraph, Sequence,
)
from maxpat.errors import DatabaseError, MaxpatError, ParseError, PatternError
from maxpat import io as mio
from maxpat.cli import main
from maxpat.synth import random_db, random_graph_db


def graph(vs, es, directed=False):
    return LabelledGraph(frozenset(vs), frozenset(es), directed=directed)


def test_label_tokens():
    assert mio.parse_label_token("7") == 7
    assert mio.parse_label_token("3,1") == (3, 1)
    assert mio.label_token(7) == "7"
    assert mio.label_token((3, 1)) == "3,1"
    with pytest.raises(ParseError):
        mio.parse_label_token("x", 4)


def test_itemset_round_trip():
    db = itemset_db([{1, 5}, set(), {2}])
    text = mio.write_itemset_db(db)
    assert text == "1 5\n\n2\n"
    back = mio.parse_itemset_db(text)
    assert back == db


def test_itemset_pair_round_trip():
    db = itemset_db([{(1, 2), (2, 3)}])
    back = mio.parse_itemset_db(mio.write_itemset_db(db))
    assert back == db


def test_sequence_round_trip_keeps_order():
    db = sequence_db([(3, 1), ()])
    text = mio.write_sequence_db(db)
    assert text == "3 1\n\n"
    assert mio.parse_sequence_db(text) == db


def test_sequence_duplicate_reports_line():
    with pytest.raises(ParseError) as ei:
        mio.parse_sequence_db("1 2\n3 3\n")
    assert "line 2" in str(ei.value)


def test_graph_block_round_trip():
    g = graph({1, 2, 3}, {(1, 2), (2, 3)})
    db = graph_db([g, graph({4}, set())])
    text = mio.write_graph_db(db)
    back = mio.parse_graph_db(text)
    assert back.transactions == db.transactions
    # canonical writer: write(parse(write(x))) == write(x)
    assert mio.write_graph_db(back) == text


def test_equal_vertex_sets_share_one_frozenset():
    text = "t # 0\nv 1\nv 2\nv 3\ne 1 3\ne 2 3\n" \
           "t # 1\nv 3\nv 2\nv 1\ne 1 2\ne 2 3\nt # 2\nv 1\nv 2\ne 1 2\n"
    a, b, c = mio.parse_graph_db(text).transactions
    assert a.vertices is b.vertices and a != b
    assert c == graph({1, 2}, {(1, 2)})


def test_directed_graph_file():
    g = graph({1, 2}, {(2, 1)}, directed=True)
    db = graph_db([g], directed=True)
    text = mio.write_graph_db(db)
    assert text.startswith("d\n")
    back = mio.parse_graph_db(text)
    assert back.domain == DIGRAPH
    assert back.transactions[0].edges == frozenset({(2, 1)})


def test_graph_parse_errors():
    with pytest.raises(ParseError):
        mio.parse_graph_db("v 1\n")           # vertex before any block
    with pytest.raises(ParseError):
        mio.parse_graph_db("t # 0\nq 1\n")    # unknown line
    with pytest.raises(ParseError):
        mio.parse_graph_db("t # 0\nv 1\nd\n")  # flag after a block
    with pytest.raises(ParseError) as ei:
        mio.parse_graph_db("t # 0\ne 1 2\n")  # edge without vertices
    assert "line 1" in str(ei.value)


@pytest.mark.parametrize("block, line", [
    ("v 1\nv 2\ne 1 0\n", 5),             # label 0
    ("v 1\nv 2\ne 1 1,2\n", 5),           # mixed kinds
    ("v 1,1\nv 1,2\ne 1 1,2\n", 5),
    ("v 1\nv 2\ne 2 2\n", 5),             # self-loop
    ("v 1\nv 2\ne 1 3\n", 5),             # outside the vertex set
    ("v 1\nv 2\ne 1 2 3\n", 8),           # three endpoints
    ("v 1\nv 2\ne True 2\n", 8),
    ("v 1\nv 2\ne 1.0 2\n", 8),
])
def test_graph_edge_errors_report_their_line(block, line):
    # the first block is fine; a bad edge is reported at its block's
    # "t" line, a bad edge line or token at its own line
    text = "t # 0\nv 1\nv 2\ne 1 2\nt # 1\n" + block
    with pytest.raises(ParseError) as ei:
        mio.parse_graph_db(text)
    assert ei.value.line == line


def test_parse_database_dispatch_and_domain_check():
    assert mio.parse_database("1 2\n", ITEMSET).domain == ITEMSET
    assert mio.parse_database("1 2\n", SEQUENCE).domain == SEQUENCE
    with pytest.raises(ParseError):
        mio.parse_database("t # 0\nv 1\n", DIGRAPH)
    assert mio.parse_database("", DIGRAPH).domain == DIGRAPH


def test_file_round_trip(tmp_path):
    db = sequence_db([(2, 1, 3)])
    path = tmp_path / "seqs.db"
    mio.save_database(db, path)
    assert mio.load_database(path, SEQUENCE) == db


def test_edge_list_ingestion(tmp_path):
    f1 = tmp_path / "a.edges"
    f1.write_text("1 2\n2 3\n3 3\n")
    f2 = tmp_path / "b.edges"
    f2.write_text("1 2\n")
    warnings = []
    db = mio.ingest_edge_lists([f1, f2], warn=warnings.append)
    assert db.domain == GRAPH
    assert len(db.transactions) == 2
    assert any("self-loop" in w for w in warnings)


def test_edge_list_split_components(tmp_path):
    f = tmp_path / "two.edges"
    f.write_text("1 2\n4 5\n")
    warnings = []
    db = mio.ingest_edge_lists([f], components="split", warn=warnings.append)
    assert [sorted(t.vertices) for t in db.transactions] == [[1, 2], [4, 5]]

    # many components, listed from the last; the path 1-2-3-4 has its
    # edges out of order and one of them reversed
    g = tmp_path / "many.edges"
    pairs = [(3 * i + 1, 3 * i + 2) for i in range(2, 300)]
    g.write_text("".join(f"{u} {v}\n" for u, v in reversed(pairs))
                 + "3 4\n2 1\n3 2\n")
    db = mio.ingest_edge_lists([g], components="split", warn=warnings.append)
    assert db.transactions == (
        graph({1, 2, 3, 4}, {(1, 2), (2, 3), (3, 4)}),
        *(graph({u, v}, {(u, v)}) for u, v in pairs))
    assert warnings == []


@pytest.mark.parametrize("components", ["keep", "split"])
def test_edge_list_mixing_label_kinds_is_refused(tmp_path, capsys,
                                                 components):
    f = tmp_path / "mixed.edges"
    f.write_text("1 2\n3,4 5,6\n")
    with pytest.raises(PatternError, match="mixes plain labels and label pairs"):
        mio.ingest_edge_lists([f], components=components)
    code = main(["mine", "--input", str(f), "--format", "edges",
                 "--components", components, "--domain", "graph",
                 "--tau", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:validation:")
    assert "Traceback" not in err


def test_edge_list_empty_file_skipped(tmp_path):
    f = tmp_path / "empty.edges"
    f.write_text("7 7\n")
    warnings = []
    db = mio.ingest_edge_lists([f], warn=warnings.append)
    assert db.transactions == ()
    assert any("no usable edges" in w for w in warnings)


def test_render_pattern():
    assert mio.render_pattern(Itemset({2, 1})) == "{1 2}"
    assert mio.render_pattern(Itemset()) == "{}"
    assert mio.render_pattern(Sequence([3, 1])) == "<3 1>"
    assert mio.render_pattern(graph({1, 2}, {(1, 2)})) == "1 2 | 1~2"
    assert mio.render_pattern(graph({5}, set())) == "5"
    d = graph({1, 2}, {(2, 1)}, directed=True)
    assert mio.render_pattern(d) == "1 2 | 2>1"
    assert mio.render_pattern(Itemset({(1, 2)})) == "{1,2}"


def test_render_result():
    from maxpat.miner import mine
    from maxpat.feasibility import ALWAYS
    db = itemset_db([{1, 2}, {1, 2}, {2, 3}])
    text = mio.render_result(mine(db, 2, ALWAYS))
    assert text.splitlines()[:4] == [
        "# tau 2", "# phi always", "# maximal 1", "{1 2}"]
    assert "level\tcandidates\tfrequent\tfeasible" in text


# Error parity: each bad input raises the same exception type, message and
# line, whichever path of the parser and the pattern checks it takes.
BAD_INPUTS = [
    (ITEMSET, "1 2\n0\n", ParseError,
     "labels are 1-based positive ints, got 0", 2),
    (ITEMSET, "1 2\n-1\n", ParseError,
     "labels are 1-based positive ints, got -1", 2),
    (ITEMSET, "1 2\n1.0\n", ParseError, "bad label token '1.0'", 2),
    (ITEMSET, "1 2\nTrue\n", ParseError, "bad label token 'True'", 2),
    (ITEMSET, "1 2\n1,2,3\n", ParseError, "bad label token '1,2,3'", 2),
    (ITEMSET, "1 2\nx\n", ParseError, "bad label token 'x'", 2),
    (ITEMSET, "1 2\n3 1,2\n", ParseError,
     "itemset mixes plain labels and label pairs", 2),
    (ITEMSET, "1,2\n3\n", DatabaseError,
     "transactions mix plain and pair labels", None),
    (SEQUENCE, "1 2\n0\n", ParseError,
     "labels are 1-based positive ints, got 0", 2),
    (SEQUENCE, "1 2\n-1\n", ParseError,
     "labels are 1-based positive ints, got -1", 2),
    (SEQUENCE, "1 2\n1.0\n", ParseError, "bad label token '1.0'", 2),
    (SEQUENCE, "1 2\nTrue\n", ParseError, "bad label token 'True'", 2),
    (SEQUENCE, "1 2\n1,2,3\n", ParseError, "bad label token '1,2,3'", 2),
    (SEQUENCE, "1 2\nx\n", ParseError, "bad label token 'x'", 2),
    (SEQUENCE, "1 2\n3 1,2\n", ParseError,
     "sequence mixes plain labels and label pairs", 2),
    # a repeat is reported ahead of the mixed kinds
    (SEQUENCE, "1 2\n1 2,3 1\n", ParseError,
     "sequence repeats a label: (1, (2, 3), 1)", 2),
    (SEQUENCE, "1 2\n2 1 2\n", ParseError,
     "sequence repeats a label: (2, 1, 2)", 2),
    # a bad vertex label is reported at its block's "t" line, a bad token
    # at its own line
    (GRAPH, "t # 0\nv 1\nv 0\n", ParseError,
     "labels are 1-based positive ints, got 0", 1),
    (GRAPH, "t # 0\nv -1\n", ParseError,
     "labels are 1-based positive ints, got -1", 1),
    (GRAPH, "t # 0\nv 1.0\n", ParseError, "bad label token '1.0'", 2),
    (GRAPH, "t # 0\nv True\n", ParseError, "bad label token 'True'", 2),
    (GRAPH, "t # 0\nv 1,2,3\n", ParseError, "bad label token '1,2,3'", 2),
    (GRAPH, "t # 0\nv x\n", ParseError, "bad label token 'x'", 2),
    (GRAPH, "t # 0\nv 1\nv 2\ne 1 x\n", ParseError,
     "bad label token 'x'", 4),
    (GRAPH, "t # 0\nv 1\nv 2,3\n", ParseError,
     "graph mixes plain labels and label pairs", 1),
    (GRAPH, "t # 0\nv 1\nv 2\ne 1 2,1\n", ParseError,
     "edge (1, (2, 1)) leaves the vertex set", 1),
    (GRAPH, "t # 0\nv 1\nv 2\ne 2 2\n", ParseError,
     "self-loop on 2 is not allowed", 1),
    (GRAPH, "t # 0\nv 1\nv 2\ne 1 3\n", ParseError,
     "edge (1, 3) leaves the vertex set", 1),
    (GRAPH, "t # 0\nv 1\nt # 1\nt # 2\nv 1\n", ParseError,
     "the empty graph is not a pattern", 3),
    (GRAPH, "t # 0\nv 1 2\n", ParseError, "bad vertex line 'v 1 2'", 2),
    (GRAPH, "t # 0\n  v 1 2\n", ParseError,
     "bad vertex line '  v 1 2'", 2),
    (GRAPH, "v 1\n", ParseError, "bad vertex line 'v 1'", 1),
    (GRAPH, "t # 0\nv 1\nv 2\ne 1\n", ParseError, "bad edge line 'e 1'", 4),
    (GRAPH, "t # 0\nv 1\nv 2\ne 1 2 3\n", ParseError,
     "bad edge line 'e 1 2 3'", 4),
    (GRAPH, "e 1 2\n", ParseError, "bad edge line 'e 1 2'", 1),
    (GRAPH, "t # 0\nv 1\nd\n", ParseError,
     "the 'd' flag must precede the first block", 3),
    (GRAPH, "t # 0\nv 1\nq 1\n", ParseError, "unrecognized line 'q 1'", 3),
    (GRAPH, "t # 0\nv 1\nv 2\n", DatabaseError,
     "transaction 0: graph transactions must be connected", None),
    (GRAPH, "d\nt # 0\nv 1\n", ParseError,
     "file is a digraph database, expected graph", None),
    (DIGRAPH, "t # 0\nv 1\n", ParseError,
     "file is a graph database, expected digraph", None),
]


@pytest.mark.parametrize("domain, text, exc, message, line", BAD_INPUTS)
def test_ingest_error_parity(domain, text, exc, message, line):
    with pytest.raises(exc) as ei:
        mio.parse_database(text, domain)
    want = message if line is None else f"line {line}: {message}"
    assert str(ei.value) == want
    assert getattr(ei.value, "line", None) == line


@pytest.mark.parametrize("text, message", [
    # a disconnected graph fails on connectivity ahead of the class
    ("t # 0\nv 1\nv 2\nv 3\ne 1 2\n", "graph transactions must be connected"),
    ("t # 0\nv 1\nv 2\nv 3\ne 1 2\ne 2 3\ne 1 3\n",
     "transaction is not in class tree"),
])
def test_ingest_class_error_parity(text, message):
    with pytest.raises(DatabaseError) as ei:
        mio.parse_database(text, GRAPH, GraphClass(TREE))
    assert str(ei.value) == f"transaction 0: {message}"
    assert ei.value.index == 0


def _as_graph(labels):
    return LabelledGraph(frozenset(labels))


@pytest.mark.parametrize("labels, message", [
    ([0], "labels are 1-based positive ints, got 0"),
    ([-1], "labels are 1-based positive ints, got -1"),
    ([1.0], "label must be a positive int or label pair, got 1.0"),
    ([True], "label must be a positive int or label pair, got True"),
    ([(1, 2, 3)], "label must be a positive int or label pair, got (1, 2, 3)"),
    (["x"], "label must be a positive int or label pair, got 'x'"),
    ([(0, 1)], "label must be a positive int or label pair, got (0, 1)"),
    ([(1, True)], "label must be a positive int or label pair, got (1, True)"),
    ([1, (1, 2)], "{} mixes plain labels and label pairs"),
])
@pytest.mark.parametrize("make, kind", [
    (Itemset, "itemset"), (Sequence, "sequence"), (_as_graph, "graph")])
def test_pattern_error_parity(labels, message, make, kind):
    with pytest.raises(PatternError) as ei:
        make(labels)
    assert str(ei.value) == message.format(kind)


def test_sequence_reports_a_repeat_ahead_of_mixed_kinds():
    with pytest.raises(PatternError) as ei:
        Sequence([1, (2, 3), 1])
    assert str(ei.value) == "sequence repeats a label: (1, (2, 3), 1)"


# ---------------------------------------------------------------------------
# the two graph parsers: the batch parser reads plain-int text in numpy and
# leaves anything else to the line parser, so both give the same outcome

def _outcome(parse, text):
    """The database ``parse`` reads off ``text``, or the type, message and
    line of what it raises."""
    try:
        return parse(text)
    except MaxpatError as e:
        return type(e), str(e), getattr(e, "line", None)


def _graph_texts(wide):
    """Seeded graph and digraph files, and with ``wide`` a file of 2 500
    graphs over 8 labels with up to 8 vertices each, as the graphs-wide
    benchmark draws them, which spans two pieces of the batch parser."""
    rng = random.Random(23)
    for domain in (GRAPH, DIGRAPH):
        for _ in range(4):
            yield mio.write_graph_db(random_db(rng, domain, n_txns=8))
    if wide:
        yield mio.write_graph_db(random_graph_db(
            rng, n_labels=8, n_txns=2500, max_vertices=8))


def _mutants(text, rng):
    """``text`` changed in each way that takes it off the batch parser,
    in three ways that keep it there (``BATCH_KEEPS``), and by dropping an
    edge, which may or may not disconnect a graph, by name."""
    lines = text.splitlines(keepends=True)
    vs = [i for i, line in enumerate(lines) if line.startswith("v ")]
    es = [i for i, line in enumerate(lines) if line.startswith("e ")]
    ts = [i for i, line in enumerate(lines) if line.startswith("t ")]
    i = rng.choice(vs)
    x = lines[i].split()[1]

    def put(at, *new, drop=0):
        return "".join(lines[:at] + list(new) + lines[at + drop:])

    out = {
        "pair label": put(i, f"v {x},1\n", drop=1),
        "plus sign": put(i, f"v +{x}\n", drop=1),
        "underscore": put(i, f"v 1_{x}\n", drop=1),
        "unicode digit": put(i, f"v {x}١\n", drop=1),
        "19 digits": put(i, f"v {x:0>19}\n", drop=1),
        "2**63": put(i, f"v {2**63 + int(x)}\n", drop=1),
        "repeated vertex": put(i, lines[i]),
        "empty block": put(rng.choice(ts), "t # empty\n"),
        "bad line": put(i, "q 1\n"),
        "lone vertex": put(i, "v 99\n"),
        "unsorted vertices": "".join(chain.from_iterable(
            reversed(list(run)) if vertex else run
            for vertex, run in groupby(lines, lambda s: s.startswith("v ")))),
        "blank lines": "".join(line + "\n" * (rng.random() < 0.2)
                               for line in lines),
        # the batch parser reads the "d" flag as the writer puts it
        "leading spaces": "".join(" " * rng.randint(0, 2) * (line != "d\n")
                                  + line for line in lines),
    }
    for ch in "\t\r\x0b\x0c\x1c\x1d\x1e":
        out[f"whitespace {ch!r}"] = put(i, f"v{ch}{x}\n", drop=1)
    if es:
        j = rng.choice(es)
        _, a, b = lines[j].split()
        out.update({"repeated edge": put(j, lines[j]),
                    "reversed edge": put(j, f"e {b} {a}\n"),
                    "self-loop": put(j, f"e {a} {a}\n", drop=1),
                    "missing edge": put(j, drop=1)})
    return out


BATCH_KEEPS = ("unsorted vertices", "blank lines", "leading spaces")


@pytest.mark.parametrize("piece", [64, mio._PIECE_CHARS])
def test_batch_and_line_parsers_agree(piece, monkeypatch):
    """Every graph file, and every mutant of it, parses to an equal
    database on either parser, or raises the same exception, message and
    line; plain-int files that pass every check, in pieces of ``piece``
    characters, take the batch parser."""
    texts = list(_graph_texts(wide=piece == mio._PIECE_CHARS))
    monkeypatch.setattr(mio, "_PIECE_CHARS", piece)
    rng = random.Random(piece)
    taken = off = 0
    for text in texts:
        assert mio._parse_graph_batch(text) == mio._parse_graph_lines(text)
        # dropping an edge may leave the graph connected, and an arc
        # reversed may be new
        either = {"missing edge"} | (
            {"reversed edge"} if text.startswith("d\n") else set())
        for name, mutant in _mutants(text, rng).items():
            want = _outcome(mio._parse_graph_lines, mutant)
            assert _outcome(mio.parse_graph_db, mutant) == want, name
            fast = mio._parse_graph_batch(mutant)
            if name in BATCH_KEEPS:
                assert fast == want, name
                taken += 1
            elif name not in either:
                assert fast is None, name
                off += 1
    assert taken == 3 * len(texts) and off > 18 * len(texts)


# ---------------------------------------------------------------------------
# the two itemset and sequence parsers: the batch parser reads plain-int
# lines in numpy and leaves anything else to the line parser, so both give
# the same outcome

def _line_texts(domain, n_skewed):
    """Seeded files of ``domain``, blank lines for empty transactions
    among them, ``""`` and ``"\\n"``, and a file of ``n_skewed`` lines of
    up to 30 labels over 500, drawn with weights i^-0.8 as itemsets-skewed
    draws them: 3 000 lines span two pieces of the batch parser."""
    rng = random.Random(domain)
    for _ in range(4):
        yield mio.write_database(random_db(rng, domain, n_txns=8))
    yield ""
    yield "\n"
    weights = [i ** -0.8 for i in range(1, 501)]
    rows = (set(rng.choices(range(1, 501), weights, k=rng.randint(1, 30)))
            for _ in range(n_skewed))
    yield "".join(" ".join(map(str, sorted(row) if domain == ITEMSET
                               else rng.sample(sorted(row), len(row))))
                  + "\n" for row in rows)


def _line_mutants(text, rng, piece):
    """``text`` changed in each way that takes it off the batch parser,
    and in each way that keeps it there (``LINE_BATCH_KEEPS``), by name."""
    lines = text.splitlines(keepends=True)
    full = [i for i, line in enumerate(lines) if line.strip()]
    if not full:
        return {}
    i = rng.choice(full)
    x, *rest = lines[i].split()

    def put(*new):
        return "".join(lines[:i] + list(new) + lines[i + 1:])

    tail = "".join(f" {y}" for y in rest) + "\n"
    out = {
        "pair label": put(f"{x},1{tail}"),
        "plus sign": put(f"+{x}{tail}"),
        "underscore": put(f"1_{x}{tail}"),
        "unicode digit": put(f"{x}١{tail}"),
        "19 digits": put(f"{x:0>19}{tail}"),
        "2**63": put(f"{2**63 + int(x)}{tail}"),
        "zero": put(f"0{tail}"),
        "repeated label": put(f"{x} {x}{tail}"),
        "unsorted line": put(" ".join(reversed(lines[i].split())) + "\n"),
        "leading spaces": "".join(" " * rng.randint(0, 2) + line
                                  for line in lines),
        "trailing spaces": "".join(line[:-1] + " " * rng.randint(0, 2)
                                   + "\n" for line in lines),
        "blank lines": "".join(line + "\n" * (rng.random() < 0.2)
                               for line in lines),
        "no final newline": text[:-1],
        "long line": put(" ".join(map(str, range(1, piece // 4))) + "\n"),
    }
    for ch in "\t\r\x0b\x0c\x1c\x1d\x1e":
        out[f"whitespace {ch!r}"] = put(f"{x}{ch}{tail}")
    return out


LINE_BATCH_KEEPS = ("unsorted line", "leading spaces", "trailing spaces",
                    "blank lines", "no final newline", "long line")


@pytest.mark.parametrize("piece", [64, None], ids=["64", "default"])
@pytest.mark.parametrize("domain", [ITEMSET, SEQUENCE])
def test_line_batch_and_line_parsers_agree(domain, piece, monkeypatch):
    """Every itemset and sequence file, and every mutant of it, parses to
    an equal database on either parser, or raises the same exception,
    message and line; plain-int files that the line parser takes, in
    pieces of ``piece`` characters, take the batch parser.  An itemset
    line that repeats a label is merged there, and a sequence line that
    does is left to the line parser."""
    texts = list(_line_texts(domain, 100 if piece else 3000))
    if piece is None:
        piece = mio._PIECE_CHARS
    monkeypatch.setattr(mio, "_PIECE_CHARS", piece)
    keeps = LINE_BATCH_KEEPS + (("repeated label",) if domain == ITEMSET
                                else ())
    rng = random.Random(piece)
    taken = off = 0
    for text in texts:
        fast = mio._parse_lines_batch(text, domain)
        # the length is read off the batch, before the transactions exist
        assert len(fast) == len(text.splitlines())
        assert fast == mio._parse_lines(text, domain)
        for name, mutant in _line_mutants(text, rng, piece).items():
            want = _outcome(lambda t: mio._parse_lines(t, domain), mutant)
            assert _outcome(lambda t: mio.parse_database(t, domain),
                            mutant) == want, name
            fast = mio._parse_lines_batch(mutant, domain)
            if name in keeps:
                assert len(fast) == len(want) and fast == want, name
                taken += 1
            else:
                assert fast is None, name
                off += 1
    mutated = len(texts) - 2  # "" and "\n" have no label to change
    assert taken == len(keeps) * mutated and off >= 14 * mutated
