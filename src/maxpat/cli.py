"""Command line front end.

Subcommands::

    maxpat mine    mine maximal feasible frequent patterns
    maxpat reduce  translate a database along a reduction chain
    maxpat oracle  brute-force reference miner (small inputs only)
    maxpat verify  cross-check the miner against the oracle
    maxpat stats   per-level tables and a tau sweep (itemset encodings)

Exit codes: 0 success, 1 usage error, 2 parse failure, 3 validation
failure, 4 verification mismatch, 5 out of memory.
"""

import argparse
import math
import re
import sys

from . import io as mio
from .core import Database, support
from .domains import (
    BOUNDED_DEGREE, DAG, DIGRAPH, DIRECTED, GENERAL, GRAPH, ITEMSET,
    SEQUENCE, TREE, GraphClass, pattern_leq, validate_class,
)
from .errors import (
    DatabaseError, DomainMismatchError, MaxpatError, NoPreimageError,
    OracleGuardError, ParseError, PatternError, ReductionIdError,
)
from .feasibility import (
    ALWAYS, CONNECTED_EDGES, And, PreimageExistsAnd, describe,
)
from .miner import MODES, mine, mine_via_reduction
from .oracle import oracle_max
from .reductions import (
    bind_from_target, bind_reduction, invert_database, reduce_database,
)
from .synth import random_db, random_subpattern


class CliError(MaxpatError):
    def __init__(self, code, tag, message):
        super().__init__(message)
        self.code = code
        self.tag = tag


def _usage(msg):
    return CliError(1, "usage", msg)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; reserve 2 for parse failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _usage(message)


# ---------------------------------------------------------------------------
# flag parsing helpers

_DOMAINS = (ITEMSET, SEQUENCE, GRAPH, DIGRAPH)


def parse_graph_class(s: str) -> GraphClass:
    if s in (TREE, GENERAL, DAG, DIRECTED):
        return GraphClass(s)
    m = re.fullmatch(r"bdg:(\d+)", s)
    if m and int(m.group(1)) >= 1:
        return GraphClass(BOUNDED_DEGREE, int(m.group(1)))
    raise _usage(f"bad graph class {s!r} (tree|bdg:<b>|general|dag|directed)")


def parse_phi(expr: str, db: Database):
    parts = []
    for piece in re.split(r"[∧&]", expr):
        piece = piece.strip()
        if not piece:
            raise _usage(f"empty conjunct in predicate {expr!r}")
        if piece == "always":
            parts.append(ALWAYS)
        elif piece == "connected-edges":
            parts.append(CONNECTED_EDGES)
        else:
            m = re.fullmatch(r"preimage\((.+)\)", piece)
            if not m:
                raise _usage(f"bad predicate {piece!r} (always | "
                             "connected-edges | preimage(<rid>))")
            parts.append(PreimageExistsAnd(
                bind_from_target(m.group(1).strip(), db), ALWAYS))
    keep = [p for p in parts if p is not ALWAYS]
    if not keep:
        return ALWAYS
    return keep[0] if len(keep) == 1 else And(tuple(keep))


def _resolve_tau(args, db: Database) -> int:
    if args.tau is not None and args.tau_frac is not None:
        raise _usage("--tau and --tau-frac are mutually exclusive")
    if args.tau is not None:
        if args.tau < 1:
            raise _usage(f"--tau must be a positive integer, got {args.tau}")
        return args.tau
    if args.tau_frac is not None:
        if not 0 < args.tau_frac <= 1:
            raise _usage("--tau-frac must be in (0, 1]")
        return max(1, math.ceil(args.tau_frac * len(db.transactions)))
    raise _usage("one of --tau or --tau-frac is required")


def _load(args) -> Database:
    if not args.input:
        raise _usage("--input is required")
    gc = parse_graph_class(args.graph_class) if args.graph_class else None
    if gc is not None and args.domain != (DIGRAPH if gc.directed else GRAPH):
        raise _usage(f"--class {gc} needs --domain "
                     f"{DIGRAPH if gc.directed else GRAPH}")
    if args.format == "edges":
        if args.domain not in (GRAPH, DIGRAPH):
            raise _usage("--format edges needs --domain graph or digraph")
        db = mio.ingest_edge_lists(args.input, components=args.components,
                                   directed=args.domain == DIGRAPH)
        if gc is not None:
            db = Database(db.domain, db.transactions, gc)
        return db
    if len(args.input) != 1:
        raise _usage("--format db takes exactly one input file")
    return mio.load_database(args.input[0], args.domain, gc)


def _emit(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands

def _check_itemset_chain(args, chain, what: str):
    """Refuse, as a usage error, a --reduce chain that does not end in
    itemsets, which ``what`` needs."""
    if chain.target_domain != ITEMSET:
        raise _usage(f"{what}, and --reduce {args.reduce} ends in "
                     f"{chain.target_domain}; compose it down to itemsets")


def cmd_mine(args) -> int:
    db = _load(args)
    tau = _resolve_tau(args, db)
    phi = parse_phi(args.phi, db)
    chain = _bind_chain(args, db)
    if chain is not None:
        _check_itemset_chain(args, chain, "mine climbs through itemsets")
        res = mine_via_reduction(chain, db, tau, phi, mode=args.mode)
    else:
        res = mine(db, tau, phi, mode=args.mode)
    _emit(mio.render_result(res), args.output)
    return 0


def cmd_reduce(args) -> int:
    db = _load(args)
    if args.invert:
        out = invert_database(args.reduce, db)
    else:
        out = reduce_database(_bind_chain(args, db), db)
    _emit(mio.write_database(out), args.output)
    return 0


def cmd_oracle(args) -> int:
    db = _load(args)
    tau = _resolve_tau(args, db)
    phi = parse_phi(args.phi, db)
    found = oracle_max(db, tau, phi)
    lines = [f"# tau {tau}", f"# phi {describe(phi)}",
             f"# maximal {len(found)}"]
    lines.extend(mio.render_pattern(p) for p in found)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _check_one(db: Database, tau: int, phi, out, chain=None) -> bool:
    want = oracle_max(db, tau, phi)
    if chain is not None and chain.target_domain == ITEMSET:
        got = tuple(mine_via_reduction(chain, db, tau, phi).maximal)
    else:
        got = tuple(mine(db, tau, phi).maximal)
    if want == got:
        return True
    print(f"MISMATCH tau={tau} phi={describe(phi)}", file=out)
    for tag, pats in (("oracle", want), ("miner", got)):
        print(f"  {tag}: " + "; ".join(mio.render_pattern(p) for p in pats),
              file=out)
    return False


def _print_instance(n, args, db: Database, tau: int, phi: str, out):
    """Report a failing ``verify --random`` instance in the input format,
    between marker lines, with the command that replays it."""
    replay = (f"maxpat verify --input FILE --domain {db.domain} --tau {tau} "
              f"--phi '{phi}'")
    if args.reduce:
        replay += f" --reduce {args.reduce}"
    print(f"instance {n} of --random {args.random} --seed {args.seed}; save "
          f"the lines between the markers as FILE and replay with: {replay}",
          file=out)
    print("--- instance", file=out)
    out.write(mio.write_database(db))
    print("--- end", file=out)


def _check_reduction_properties(chain, db: Database, rng, out,
                                samples: int = 24) -> bool:
    """Spot-check what makes the encoding trustworthy on this database:
    images land in the advertised target class, every transaction decodes
    back to itself, order is preserved and reflected on sampled subpattern
    pairs, and support carries over unchanged.
    """
    target_db = reduce_database(chain, db)

    def fail(what, detail):
        print(f"PROPERTY VIOLATION {what}: {detail}", file=out)
        return False

    def image_of(p):
        try:
            return chain.forward(p)
        except PatternError:  # e.g. a chain that cannot encode <>
            return None

    pool = []
    for i, t in enumerate(db.transactions):
        img = target_db.transactions[i]
        if chain.target_class is not None and not validate_class(
                img, chain.target_class):
            return fail("class",
                        f"image of transaction {i} leaves "
                        f"{chain.target_class.kind}")
        if chain.inverse(img) != t:
            return fail("round-trip",
                        f"transaction {i} does not decode to itself")
        pool.append((t, img))
        for _ in range(3):
            p = random_subpattern(rng, t)
            fp = image_of(p)
            if fp is not None:
                pool.append((p, fp))
    if not pool:
        print(f"ok: {chain.id} (empty database, nothing to sample)", file=out)
        return True

    for _ in range(samples):
        (p, fp), (q, fq) = rng.choice(pool), rng.choice(pool)
        if pattern_leq(p, q) != pattern_leq(fp, fq):
            return fail("order", f"{mio.render_pattern(p)} vs "
                                 f"{mio.render_pattern(q)}")
    for p, fp in rng.sample(pool, min(len(pool), samples)):
        if support(p, db) != support(fp, target_db):
            return fail("support", mio.render_pattern(p))
    print(f"ok: {chain.id} properties hold on {len(db.transactions)} "
          f"transactions, {samples} sampled pairs", file=out)
    return True


def _bind_chain(args, db: Database):
    """The ``--reduce`` chain bound to ``db``, or None without one; a chain
    that starts from another domain is a usage error, found before any
    link reads the database."""
    if not args.reduce:
        return None
    source = bind_reduction(args.reduce).source_domain
    if source != db.domain:
        raise _usage(f"--reduce {args.reduce} starts from {source}, "
                     f"not {db.domain}")
    return bind_reduction(args.reduce, db)


def cmd_verify(args) -> int:
    import random

    rng = random.Random(args.seed)
    if args.random is not None:
        if args.input:
            raise _usage("--random and --input are mutually exclusive")
        if args.graph_class:
            raise _usage("--class applies to --input databases; --random "
                         "draws its own")
        with_connectivity = "connected-edges" in args.phi
        if with_connectivity and args.domain != ITEMSET:
            raise _usage("connected-edges applies to itemset databases")
        kw = {"pair_items": True} if with_connectivity else {}
        if args.reduce and args.domain in (ITEMSET, SEQUENCE):
            # chains through seq2dag cannot picture an empty transaction
            kw["allow_empty"] = False
        checked = 0
        for n in range(args.random):
            db = random_db(rng, args.domain, **kw)
            if not db.transactions:
                continue
            chain = _bind_chain(args, db)
            if chain is not None and not _check_reduction_properties(
                    chain, db, rng, sys.stdout):
                _print_instance(n, args, db, 1, args.phi, sys.stdout)
                return 4
            for tau in range(1, len(db.transactions) + 1):
                phis = [ALWAYS]
                if args.phi != "always":
                    phis.append(parse_phi(args.phi, db))
                for phi in phis:
                    if not _check_one(db, tau, phi, sys.stdout, chain):
                        _print_instance(n, args, db, tau, describe(phi),
                                        sys.stdout)
                        return 4
                    checked += 1
        print(f"ok: {checked} checks passed")
        return 0

    if not args.input:
        raise _usage("verify needs --input or --random")
    db = _load(args)
    tau = _resolve_tau(args, db)
    phi = parse_phi(args.phi, db)
    chain = _bind_chain(args, db)
    if chain is not None and not _check_reduction_properties(
            chain, db, rng, sys.stdout):
        return 4
    if not _check_one(db, tau, phi, sys.stdout, chain):
        return 4
    print(f"ok: miner matches oracle (tau={tau})")
    return 0


def cmd_stats(args) -> int:
    db = _load(args)
    chain = _bind_chain(args, db)
    if chain is not None:
        _check_itemset_chain(args, chain, "stats works on itemset databases")
        db = reduce_database(chain, db)
    if db.domain != ITEMSET:
        raise _usage("stats works on itemset databases; add --reduce to "
                     "encode other domains first")
    phi = parse_phi(args.phi, db)
    if phi is ALWAYS:
        raise _usage("stats needs a non-trivial --phi to compare against")
    tau = _resolve_tau(args, db)

    lines = [f"# levels tau={tau} phi={describe(phi)}",
             "level\tcandidates\tfrequent\tfeasible"]
    res = mine(db, tau, phi, mode="postfilter")
    for s in res.stats:
        lines.append(f"{s.level}\t{s.candidates}\t{s.frequent}\t"
                     f"{s.feasible_frequent}")

    lo, hi = 1, len(db.transactions)
    if args.tau_range:
        m = re.fullmatch(r"(\d+)\.\.(\d+)", args.tau_range)
        if not m:
            raise _usage("--tau-range looks like a..b")
        lo, hi = int(m.group(1)), int(m.group(2))
        if not 1 <= lo <= hi:
            raise _usage("--tau-range needs 1 <= a <= b")
    lines.append("# sweep")
    lines.append("tau\talways\tconstrained")
    for t in range(lo, hi + 1):
        n_always = len(mine(db, t, ALWAYS).maximal)
        n_phi = len(mine(db, t, phi).maximal)
        lines.append(f"{t}\t{n_always}\t{n_phi}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# wiring

def _add_io_flags(p):
    p.add_argument("--input", nargs="+", metavar="FILE",
                   help="input database file (several with --format edges)")
    p.add_argument("--domain", choices=_DOMAINS, default=ITEMSET)
    p.add_argument("--class", dest="graph_class", default=None,
                   help="graph class: tree | bdg:<b> | general | dag | directed")
    p.add_argument("--format", choices=("db", "edges"), default="db")
    p.add_argument("--components", choices=("keep", "split"), default="keep",
                   help="how to treat disconnected edge-list files")
    p.add_argument("--output", default=None, metavar="FILE")


def _add_mine_flags(p):
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--tau-frac", type=float, default=None)
    p.add_argument("--phi", default="always",
                   help="always | connected-edges | preimage(<rid>), "
                        "joined with & for conjunction")


def build_parser() -> _Parser:
    top = _Parser(prog="maxpat",
                  description="maximality-preserving pattern mining")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine maximal feasible frequent patterns")
    _add_io_flags(p)
    _add_mine_flags(p)
    p.add_argument("--reduce", default=None,
                   help="mine through a reduction: <rid> or compose:<a>,<b>[,...]")
    p.add_argument("--mode", choices=MODES, default="auto")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("reduce", help="translate a database along a reduction")
    _add_io_flags(p)
    p.add_argument("--reduce", required=True,
                   help="<rid> or compose:<a>,<b>[,...]")
    p.add_argument("--invert", action="store_true",
                   help="map target-side transactions back to the source")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force reference miner")
    _add_io_flags(p)
    _add_mine_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="cross-check miner against the oracle")
    _add_io_flags(p)
    _add_mine_flags(p)
    p.add_argument("--random", type=int, default=None, metavar="N",
                   help="verify N random databases instead of a file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reduce", default=None,
                   help="also spot-check this reduction chain's properties "
                        "(and mine through it when it ends in itemsets)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="level tables and a tau sweep")
    _add_io_flags(p)
    _add_mine_flags(p)
    p.add_argument("--reduce", default=None,
                   help="encode the input through a reduction first")
    p.add_argument("--tau-range", default=None, metavar="a..b")
    p.set_defaults(func=cmd_stats)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error:{e.tag}: {e}", file=sys.stderr)
        return e.code
    except ReductionIdError as e:
        print(f"error:usage: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"error:parse: {e}", file=sys.stderr)
        return 2
    except (DatabaseError, PatternError, DomainMismatchError,
            NoPreimageError, OracleGuardError) as e:
        print(f"error:validation: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error:io: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"error:memory: {str(e) or 'out of memory'}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
