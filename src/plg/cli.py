"""Command-line interface.

Subcommands: dist, realize, embed-sub1, embed-beta1, expander, walkprod,
solve, verify.  Exit codes: 0 success, 1 verification failure, 2 usage or
input errors.  Identical invocations (same flags, same seeds) produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

from . import _jsonio
from .errors import InputError, ResourceLimitError
from .graph import _graph_blocks, read_graph
from .model import (
    PowerLawParams,
    degree_counts,
    interval_size_bounds,
    interval_volume_bounds,
    totals,
)
from .realizer import interval_degree_sequence, realize
from .report import SCHEMA

_COUNTS_LIMIT = 100_000


def _read_graph_file(path: str):
    """The graph in the file at ``path``, read as bytes."""
    return read_graph(Path(path).read_bytes())


def _write_graph_file(path: str, g) -> None:
    """Write the canonical text of ``g`` to the file at ``path``, a block
    at a time."""
    with open(path, "wb") as f:
        f.writelines(_graph_blocks(g))


def _cmd_dist(args) -> int:
    p = PowerLawParams(args.alpha, args.beta)
    t = totals(p)
    record = {
        "schema": SCHEMA,
        "alpha": args.alpha,
        "beta": args.beta,
        "delta": p.delta,
        "n_exact": t.n_exact,
        "edge_half_sum_exact": t.edge_half_sum_exact,
        "estimates": {"n": t.n_estimate, "m": t.m_estimate},
    }
    if p.delta <= _COUNTS_LIMIT:
        record["counts"] = degree_counts(p)
    if args.interval:
        x, y = args.interval
        record["bounds"] = {"x": x, "y": y, "size": asdict(interval_size_bounds(p, x, y))}
        if p.beta == 1 or y == 1.0:
            record["bounds"]["volume"] = asdict(interval_volume_bounds(p, x, y))
    sys.stdout.write(_jsonio.dumps(record))
    return 0


def _cmd_realize(args) -> int:
    p = PowerLawParams(args.alpha, args.beta)
    d = interval_degree_sequence(p, args.from_degree, args.to_degree)
    if len(d) == 0:
        raise InputError("interval contains no vertices after flooring")
    graph, cert = realize(d)
    _write_graph_file(args.out, graph)
    text = _jsonio.dumps({"schema": SCHEMA, **cert.to_dict()})
    if args.cert:
        Path(args.cert).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_embed_sub1(args) -> int:
    from .embed_sub1 import embed_sub1

    g = _read_graph_file(args.infile)
    graph, report = embed_sub1(g, args.beta)
    _write_graph_file(args.out, graph)
    Path(args.report).write_text(_jsonio.dumps(report))
    return 0


def _cmd_embed_beta1(args) -> int:
    from .embed_beta1 import embed_beta1

    g = _read_graph_file(args.infile)
    graph, report = embed_beta1(g, args.d, args.seed, args.k)
    _write_graph_file(args.out, graph)
    Path(args.report).write_text(_jsonio.dumps(report))
    return 0


def _cmd_expander(args) -> int:
    from .embed_beta1 import random_regular_expander

    cert = random_regular_expander(args.n, args.d, args.seed)
    if args.out:
        _write_graph_file(args.out, cert.graph)
    sys.stdout.write(_jsonio.dumps({"schema": SCHEMA, **cert.to_dict()}))
    return 0


def _cmd_walkprod(args) -> int:
    from .embed_beta1 import walk_block

    wp = walk_block(_read_graph_file(args.infile), args.d, args.seed, args.k)
    u, v, _ = wp.product.arrays()
    if args.out:
        _write_graph_file(args.out, wp.product)
    sys.stdout.write(
        _jsonio.dumps(
            {
                "schema": SCHEMA,
                "n_d": wp.n_d,
                "k": args.k,
                "d": args.d,
                "lambda": wp.expander.lam,
                "max_degree": int(wp.product.degrees().max()) if wp.n_d else 0,
                "self_loops": int((u == v).sum()),
            }
        )
    )
    return 0


def _cmd_solve(args) -> int:
    from .solver import exact_mis

    res = exact_mis(_read_graph_file(args.infile), budget=args.budget)
    sys.stdout.write(_jsonio.dumps(asdict(res)))
    return 0


def _cmd_verify(args) -> int:
    import json

    from .verify import verify_embedding

    plg = _read_graph_file(args.plg)
    try:
        report = json.loads(Path(args.report).read_bytes())
    except ValueError:  # not JSON: the schema check fails it
        report = None
    original = _read_graph_file(args.infile)
    verdict = verify_embedding(plg, report, original)
    sys.stdout.write(_jsonio.dumps(verdict))
    return 0 if verdict["ok"] else 1


# Built once per process: main() only reads it, and parse_args returns a
# fresh namespace on every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plg")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="degree distribution calculators")
    d.add_argument("--alpha", type=float, required=True)
    d.add_argument("--beta", type=float, required=True)
    d.add_argument("--interval", nargs=2, type=float, metavar=("X", "Y"))
    d.set_defaults(fn=_cmd_dist)

    r = sub.add_parser("realize", help="realize a degree interval as a multigraph")
    r.add_argument("--alpha", type=float, required=True)
    r.add_argument("--beta", type=float, required=True)
    r.add_argument("--from", dest="from_degree", type=int, required=True)
    r.add_argument("--to", dest="to_degree", type=int, required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--cert")
    r.set_defaults(fn=_cmd_realize)

    e1 = sub.add_parser("embed-sub1", help="embed a graph into a PLG, beta < 1")
    e1.add_argument("--beta", type=float, required=True)
    e1.add_argument("--in", dest="infile", required=True)
    e1.add_argument("--out", required=True)
    e1.add_argument("--report", required=True)
    e1.set_defaults(fn=_cmd_embed_sub1)

    e2 = sub.add_parser("embed-beta1", help="embed a walk product into a PLG, beta = 1")
    e2.add_argument("--in", dest="infile", required=True)
    e2.add_argument("--d", type=int, required=True)
    e2.add_argument("--k", type=int, default=2)
    e2.add_argument("--seed", type=int, required=True)
    e2.add_argument("--out", required=True)
    e2.add_argument("--report", required=True)
    e2.set_defaults(fn=_cmd_embed_beta1)

    x = sub.add_parser("expander", help="random regular graph with spectral certificate")
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--d", type=int, required=True)
    x.add_argument("--seed", type=int, required=True)
    x.add_argument("--out")
    x.set_defaults(fn=_cmd_expander)

    w = sub.add_parser("walkprod", help="k-walk product over a seeded expander")
    w.add_argument("--in", dest="infile", required=True)
    w.add_argument("--d", type=int, required=True)
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--out")
    w.set_defaults(fn=_cmd_walkprod)

    s = sub.add_parser("solve", help="exact maximum independent set")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--budget", type=int, default=100_000_000)
    s.set_defaults(fn=_cmd_solve)

    v = sub.add_parser("verify", help="re-verify an embedding report")
    v.add_argument("--plg", required=True)
    v.add_argument("--report", required=True)
    v.add_argument("--in", dest="infile", required=True)
    v.set_defaults(fn=_cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InputError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
