import pytest

from maxpat.core import graph_db, itemset_db, sequence_db
from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, Itemset, LabelledGraph, Sequence,
)
from maxpat.errors import ParseError
from maxpat import io as mio


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
