import subprocess
import sys

import pytest

from maxpat.cli import main, parse_graph_class, parse_phi
from maxpat.core import itemset_db
from maxpat.domains import BOUNDED_DEGREE, TREE
from maxpat.feasibility import ALWAYS, And, ConnectedEdgeItemset, PreimageExistsAnd

ITEMS = "1 2\n1 2\n2 3\n"
GRAPHS = """\
t # 0
v 1
v 2
v 3
v 4
e 1 2
e 1 3
e 3 4
t # 1
v 1
v 2
v 3
v 4
e 1 2
e 2 4
e 3 4
"""


@pytest.fixture
def items_file(tmp_path):
    p = tmp_path / "items.db"
    p.write_text(ITEMS)
    return str(p)


@pytest.fixture
def graphs_file(tmp_path):
    p = tmp_path / "graphs.db"
    p.write_text(GRAPHS)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mine_itemsets(capsys, items_file):
    code, out, _ = run(capsys, ["mine", "--input", items_file,
                                "--domain", "itemset", "--tau", "2"])
    assert code == 0
    lines = out.splitlines()
    assert "# maximal 1" in lines
    assert "{1 2}" in lines


def test_mine_tau_frac(capsys, items_file):
    code, out, _ = run(capsys, ["mine", "--input", items_file,
                                "--domain", "itemset", "--tau-frac", "0.6"])
    assert code == 0
    assert "# tau 2" in out.splitlines()


def test_mine_graphs(capsys, graphs_file):
    code, out, _ = run(capsys, ["mine", "--input", graphs_file,
                                "--domain", "graph", "--tau", "2"])
    assert code == 0
    assert "1 2 | 1~2" in out.splitlines()
    assert "3 4 | 3~4" in out.splitlines()


def test_mine_through_reduction(capsys, items_file):
    code, out, _ = run(capsys, ["mine", "--input", items_file,
                                "--domain", "itemset", "--tau", "2",
                                "--reduce", "compose:fis2seq,seq2dag,dirg2fis"])
    assert code == 0
    assert "{1 2}" in out.splitlines()


def test_oracle_agrees(capsys, items_file):
    code, out, _ = run(capsys, ["oracle", "--input", items_file,
                                "--domain", "itemset", "--tau", "2"])
    assert code == 0
    assert "{1 2}" in out.splitlines()


def test_reduce_and_invert_round_trip(capsys, graphs_file, tmp_path):
    enc = tmp_path / "enc.db"
    code, _, _ = run(capsys, ["reduce", "--input", graphs_file,
                              "--domain", "graph", "--reduce", "g2fis",
                              "--output", str(enc)])
    assert code == 0
    assert "1,1 1,2 1,3 2,2 3,3 3,4 4,4" in enc.read_text().splitlines()

    back = tmp_path / "back.db"
    code, _, _ = run(capsys, ["reduce", "--input", str(enc),
                              "--domain", "itemset", "--reduce", "g2fis",
                              "--invert", "--output", str(back)])
    assert code == 0
    from maxpat import io as mio
    from maxpat.domains import GRAPH
    assert (mio.write_database(mio.load_database(back, GRAPH))
            == mio.write_database(mio.load_database(graphs_file, GRAPH)))


def test_reduce_and_invert_round_trip_bdg3(capsys, graphs_file, tmp_path):
    # the inverse binding has to recover the path length from stop labels
    enc = tmp_path / "enc.db"
    code, _, _ = run(capsys, ["reduce", "--input", graphs_file,
                              "--domain", "graph", "--reduce", "g2bdg3",
                              "--output", str(enc)])
    assert code == 0
    back = tmp_path / "back.db"
    code, _, _ = run(capsys, ["reduce", "--input", str(enc),
                              "--domain", "graph", "--reduce", "g2bdg3",
                              "--invert", "--output", str(back)])
    assert code == 0
    from maxpat import io as mio
    from maxpat.domains import GRAPH
    assert (mio.write_database(mio.load_database(back, GRAPH))
            == mio.write_database(mio.load_database(graphs_file, GRAPH)))


@pytest.mark.parametrize("rid", [
    "bogus", "compose:fis2tree", "compose:fis2seq,,seq2dag"])
def test_bad_reduction_id_is_a_usage_error(capsys, items_file, rid):
    # an unknown id, a one-id chain and an empty link, read by the same
    # parser whichever direction the command binds in
    errors = set()
    for cmd in (["mine", "--tau", "1"], ["reduce"], ["reduce", "--invert"],
                ["verify", "--tau", "1"],
                ["stats", "--tau", "1", "--phi", "connected-edges"]):
        code, _, err = run(capsys, cmd + ["--input", items_file,
                                          "--reduce", rid])
        assert code == 1, (cmd, err)
        assert err.startswith("error:usage:"), (cmd, err)
        errors.add(err)
    assert len(errors) == 1, errors


def test_compose_links_may_carry_whitespace(capsys, items_file, tmp_path):
    rid = "compose:fis2seq, seq2dag"
    enc = tmp_path / "enc.db"
    code, _, err = run(capsys, ["reduce", "--input", items_file,
                                "--reduce", rid, "--output", str(enc)])
    assert code == 0, err
    back = tmp_path / "back.db"
    code, _, err = run(capsys, ["reduce", "--input", str(enc),
                                "--domain", "digraph", "--reduce", rid,
                                "--invert", "--output", str(back)])
    assert code == 0, err
    assert back.read_text() == ITEMS


def test_invert_without_preimage_fails(capsys, tmp_path):
    p = tmp_path / "bad.db"
    p.write_text("1,2\n")  # proper pair without markers
    code, _, err = run(capsys, ["reduce", "--input", str(p),
                                "--domain", "itemset", "--reduce", "g2fis",
                                "--invert"])
    assert code == 3
    assert err.startswith("error:validation:")


def test_verify_file_mode(capsys, graphs_file):
    code, out, _ = run(capsys, ["verify", "--input", graphs_file,
                                "--domain", "graph", "--tau", "2"])
    assert code == 0
    assert out.startswith("ok:")


def test_verify_random_mode(capsys):
    code, out, _ = run(capsys, ["verify", "--random", "2",
                                "--domain", "itemset", "--seed", "9",
                                "--phi", "connected-edges"])
    assert code == 0
    assert "checks passed" in out


def test_verify_random_mismatch_prints_a_replayable_instance(
        capsys, monkeypatch, tmp_path):
    import maxpat.cli as cli
    from maxpat import io as mio
    from maxpat.miner import MiningResult

    mined = []

    def wrong(db, tau, phi, mode="auto"):
        mined.append(db)
        return MiningResult((), (), tau, "always")  # the oracle finds more

    monkeypatch.setattr(cli, "mine", wrong)
    code, out, _ = run(capsys, ["verify", "--random", "3",
                                "--domain", "itemset", "--seed", "9"])
    assert code == 4
    lines = out.splitlines()
    assert lines[0] == "MISMATCH tau=1 phi=always"
    header = next(line for line in lines if line.startswith("instance "))
    assert header.startswith("instance 0 of --random 3 --seed 9;")
    assert header.endswith("maxpat verify --input FILE --domain itemset "
                           "--tau 1 --phi 'always'")
    body = lines[lines.index("--- instance") + 1:lines.index("--- end")]
    text = "".join(line + "\n" for line in body)
    assert mio.parse_database(text, "itemset") == mined[-1]

    monkeypatch.undo()
    replay = tmp_path / "replay.db"
    replay.write_text(text)
    code, out, _ = run(capsys, ["verify", "--input", str(replay),
                                "--domain", "itemset", "--tau", "1",
                                "--phi", "always"])
    assert code == 0
    assert out.startswith("ok:")


def test_verify_file_mode_with_reduction_properties(capsys, graphs_file):
    code, out, _ = run(capsys, ["verify", "--input", graphs_file,
                                "--domain", "graph", "--tau", "1",
                                "--reduce", "g2fis"])
    assert code == 0
    assert "g2fis properties hold" in out
    assert "miner matches oracle" in out


def test_verify_random_mode_with_chain(capsys):
    code, out, _ = run(capsys, ["verify", "--random", "2",
                                "--domain", "itemset", "--seed", "11",
                                "--reduce", "compose:fis2seq,seq2dag,dirg2fis"])
    assert code == 0
    assert "properties hold" in out
    assert "checks passed" in out


def test_verify_reduce_domain_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--random", "1",
                                "--domain", "sequence", "--reduce", "g2fis"])
    assert code == 1
    assert err.startswith("error:usage:")


_FLAGS = {"mine": ["--tau", "1"], "reduce": [], "verify": ["--tau", "1"],
          "stats": ["--tau", "1", "--phi", "connected-edges"]}


@pytest.mark.parametrize("cmd", sorted(_FLAGS))
@pytest.mark.parametrize("domain,rid", [
    ("itemset", "g2fis"), ("graph", "compose:fis2tree,g2bdg3,g2fis")],
    ids=["g2fis-on-itemsets", "star-chain-on-graphs"])
def test_reduce_from_another_domain_is_a_usage_error(
        capsys, items_file, graphs_file, cmd, domain, rid):
    # the star chain reads the database to bind, and used to fail there
    path = items_file if domain == "itemset" else graphs_file
    code, out, err = run(capsys, [cmd, "--input", path, "--domain", domain,
                                  "--reduce", rid, *_FLAGS[cmd]])
    assert code == 1, err
    source = "graph" if domain == "itemset" else "itemset"
    assert err == f"error:usage: --reduce {rid} starts from {source}, " \
                  f"not {domain}\n"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("domain", ["itemset", "graph"])
def test_verify_random_refuses_class(capsys, domain):
    code, out, err = run(capsys, ["verify", "--random", "2", "--domain",
                                  domain, "--class", "tree"])
    assert code == 1
    assert err.startswith("error:usage: --class")
    assert "checks passed" not in out


def test_mine_refuses_a_chain_off_itemsets_as_usage(capsys, items_file):
    code, out, err = run(capsys, ["mine", "--input", items_file, "--tau", "1",
                                  "--reduce", "fis2seq"])
    assert code == 1 and out == ""
    assert err.startswith("error:usage:")
    assert "fis2seq ends in sequence" in err
    assert "Traceback" not in err


def test_stats_names_the_target_of_a_chain_off_itemsets(capsys, items_file):
    code, _, err = run(capsys, ["stats", "--input", items_file, "--tau", "1",
                                "--phi", "connected-edges",
                                "--reduce", "fis2seq"])
    assert code == 1
    assert err.startswith("error:usage:")
    assert "fis2seq ends in sequence" in err
    assert "compose it down to itemsets" in err
    assert "add --reduce" not in err


def test_stats_shows_constrained_exceeding_unconstrained(capsys, graphs_file):
    code, out, _ = run(capsys, ["stats", "--input", graphs_file,
                                "--domain", "graph", "--reduce", "g2fis",
                                "--phi", "connected-edges",
                                "--tau", "2", "--tau-range", "1..2"])
    assert code == 0
    lines = out.splitlines()
    sweep = lines[lines.index("# sweep") + 2:]
    rows = {int(t): (int(a), int(c))
            for t, a, c in (line.split("\t") for line in sweep)}
    assert rows[2] == (1, 2)  # the constrained count strictly exceeds


def test_stats_requires_itemset_shape(capsys, graphs_file):
    code, _, err = run(capsys, ["stats", "--input", graphs_file,
                                "--domain", "graph", "--tau", "1",
                                "--phi", "connected-edges"])
    assert code == 1
    assert "error:usage" in err


def test_exit_code_parse_error(capsys, tmp_path):
    p = tmp_path / "junk.db"
    p.write_text("one two\n")
    code, _, err = run(capsys, ["mine", "--input", str(p),
                                "--domain", "itemset", "--tau", "1"])
    assert code == 2
    assert err.startswith("error:parse:")


@pytest.mark.parametrize("cmd", ["mine", "oracle", "stats", "verify"])
@pytest.mark.parametrize("extra", [
    [],
    ["--tau", "0"],
    ["--tau", "-2"],
    ["--tau", "1", "--domain", "graph", "--class", "dag"],
    ["--tau", "1", "--domain", "digraph", "--class", "tree"],
    ["--tau", "1", "--domain", "itemset", "--class", "tree"],
], ids=["no-tau", "tau-0", "tau-negative", "graph-class-dag",
        "digraph-class-tree", "itemset-class-tree"])
def test_exit_code_missing_tau(capsys, items_file, cmd, extra):
    argv = [cmd, "--input", items_file, "--domain", "itemset", *extra]
    if cmd == "stats":
        argv += ["--phi", "connected-edges"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:usage"), err
    assert "Traceback" not in out + err


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, ["mine", "--input", "/does/not/exist",
                                "--domain", "itemset", "--tau", "1"])
    assert code == 3
    assert err.startswith("error:io")


def test_out_of_memory_exits_five(capsys, monkeypatch, items_file):
    import maxpat.cli as cli

    def oom(*args, **kwargs):
        raise MemoryError("Unable to allocate 27.4 GiB")

    monkeypatch.setattr(cli, "mine", oom)
    code, out, err = run(capsys, ["mine", "--input", items_file,
                                  "--domain", "itemset", "--tau", "2"])
    assert code == 5
    assert out == ""
    assert err.startswith("error:memory: Unable to allocate 27.4 GiB")


_CAPPED_CLI = r'''
import resource
import sys

cap = 384 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

from maxpat.cli import main

sys.exit(main(sys.argv[1:]))
'''


def test_verify_collapse_chain_fits_in_memory():
    # through the itemset -> star tree -> degree-3 graph chain, a climb over
    # the frequent connected subsets of the encoding ran out of memory on
    # this seed; the climb through grown itemsets counts a handful of sets
    pytest.importorskip("resource")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, "verify", "--random", "30",
         "--domain", "itemset", "--reduce", "compose:fis2tree,g2bdg3,g2fis",
         "--seed", "3"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("ok:")


def test_bad_flag_exits_one(capsys, items_file):
    code, _, _ = run(capsys, ["mine", "--nope"])
    assert code == 1
    code, _, err = run(capsys, ["mine", "--input", items_file, "--tau", "1",
                                "--mode", "levelwise"])
    assert code == 1
    assert "error:usage" in err and "Traceback" not in err


def test_parse_graph_class():
    assert parse_graph_class("tree").kind == TREE
    gc = parse_graph_class("bdg:3")
    assert gc.kind == BOUNDED_DEGREE and gc.degree_bound == 3
    from maxpat.cli import CliError
    with pytest.raises(CliError):
        parse_graph_class("bdg:0")


def test_parse_phi_grammar():
    db = itemset_db([{1, 2}])
    assert parse_phi("always", db) is ALWAYS
    assert isinstance(parse_phi("connected-edges", db), ConnectedEdgeItemset)
    phi = parse_phi("connected-edges & preimage(g2fis)", db)
    assert isinstance(phi, And) and len(phi.parts) == 2
    assert isinstance(phi.parts[1], PreimageExistsAnd)
    # redundant always conjuncts collapse away
    assert parse_phi("always & always", db) is ALWAYS
    from maxpat.cli import CliError
    with pytest.raises(CliError):
        parse_phi("sometimes", db)


def test_preimage_binding_uses_target_universe():
    db = itemset_db([{1, 4}])
    phi = parse_phi("preimage(fis2tree)", db)
    assert phi.reduction.root == 4  # the largest label doubles as the hub


def test_output_flag_writes_file(capsys, items_file, tmp_path):
    out_path = tmp_path / "result.txt"
    code, out, _ = run(capsys, ["mine", "--input", items_file,
                                "--domain", "itemset", "--tau", "2",
                                "--output", str(out_path)])
    assert code == 0
    assert out == ""
    assert "{1 2}" in out_path.read_text().splitlines()
