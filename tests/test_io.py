import pytest

from maxpat.core import graph_db, itemset_db, sequence_db
from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, TREE,
    GraphClass, Itemset, LabelledGraph, Sequence,
)
from maxpat.errors import DatabaseError, ParseError, PatternError
from maxpat import io as mio
from maxpat.cli import main


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
