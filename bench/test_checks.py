"""Each benchmark checker accepts a genuine output and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from plg import cli, random_regular_expander  # noqa: E402
from worker import Outcomes  # noqa: E402

P4 = [(0, 1), (1, 2), (2, 3)]


def _run(capsys, argv) -> tuple[int, str]:
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


@pytest.fixture
def sub1(tmp_path):
    op = workloads._sub1_op("p4", tmp_path, 4, P4, 0.5)
    assert cli.main(op.argv) == 0
    return op, op.outputs[0].read_text(), op.outputs[1].read_text()


@pytest.fixture
def beta1(tmp_path):
    edges = workloads.random_graph(workloads.BETA1_N, workloads.BETA1_M, workloads._rng(7, "test"))
    op = workloads._beta1_op("b", tmp_path, edges, 5)
    assert cli.main(op.argv) == 0
    return edges, op.outputs[0].read_text(), op.outputs[1].read_text()


def _rejects(fn, *args):
    with pytest.raises(checks.CheckError):
        fn(*args)


@pytest.mark.parametrize("beta, alpha", [(1.0, 3.0), (0.75, 3.0)])
def test_dist_checker(capsys, beta, alpha):
    interval = (0.2, 1.0)
    rc, out = _run(capsys, ["dist", "--alpha", str(alpha), "--beta", str(beta), "--interval", "0.2", "1.0"])
    assert rc == 0
    checks.check_dist(alpha, beta, interval, out)
    for path in (("n_exact",), ("edge_half_sum_exact",), ("bounds", "size", "exact"), ("bounds", "volume", "exact")):
        rec = json.loads(out)
        node = rec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 1
        _rejects(checks.check_dist, alpha, beta, interval, json.dumps(rec))
    rec = json.loads(out)
    rec["counts"][3] += 1
    _rejects(checks.check_dist, alpha, beta, interval, json.dumps(rec))


def test_sub1_checker(sub1):
    op, text, report = sub1
    checks.check_sub1(P4, 0.5, text, report)
    rep = json.loads(report)
    # The degree-preserving 2-swap that plg verify accepts today.
    swapped = workloads.two_swap(text, rep)
    assert checks.degrees(checks.parse_graph(swapped)).tolist() == checks.degrees(checks.parse_graph(text)).tolist()
    _rejects(checks.check_sub1, P4, 0.5, swapped, report)
    _rejects(checks.check_sub1, P4, 0.5, workloads.delete_clique_edge(text, rep), report)
    g = checks.parse_graph(text)
    g.m[-1] += 1  # one degree off
    _rejects(checks.check_sub1, P4, 0.5, checks.format_graph(g), report)
    bad = dict(rep, witness=rep["witness"] + [1])  # 1 is the pair partner of 0
    _rejects(checks.check_sub1, P4, 0.5, text, json.dumps(bad))


def test_sub1_checker_sees_missing_pair_clique(sub1):
    op, text, report = sub1
    g = checks.parse_graph(text)
    keep = g.keys != 0 * g.n + 1
    cut = checks.with_edges(g, g.u[keep], g.v[keep], g.m[keep])
    _rejects(checks.check_sub1, P4, 0.5, checks.format_graph(cut), report)


def test_beta1_checker(beta1):
    edges, text, report = beta1
    n = workloads.BETA1_N
    checks.check_beta1(edges, n, text, report, random_regular_expander)
    rep = json.loads(report)
    g = checks.parse_graph(text)
    # Swap (a,b),(c,d) -> (a,d),(c,b) on two even-even edges of the D block.
    lo, hi = rep["parts"]["D"]["range"]
    present = set(zip(g.u.tolist(), g.v.tolist()))
    block = [(a, b) for a, b in present if lo <= a < b < hi and a % 2 == 0 and b % 2 == 0]
    swap = next(
        (e, f)
        for e in sorted(block)
        for f in sorted(block)
        if len({*e, *f}) == 4 and (min(e[0], f[1]), max(e[0], f[1])) not in present
        and (min(f[0], e[1]), max(f[0], e[1])) not in present
    )
    (a, b), (c, d) = swap
    keep = (g.keys != a * g.n + b) & (g.keys != c * g.n + d)
    u = g.u[keep].tolist() + [min(a, d), min(c, b)]
    v = g.v[keep].tolist() + [max(a, d), max(c, b)]
    m = g.m[keep].tolist() + [1, 1]
    swapped = checks.format_graph(checks.with_edges(g, u, v, m))
    _rejects(checks.check_beta1, edges, n, swapped, report, random_regular_expander)
    bad = json.loads(report)
    bad["extras"]["lambda"] += 1e-6
    _rejects(checks.check_beta1, edges, n, text, json.dumps(bad), random_regular_expander)
    _rejects(checks.check_beta1, edges[1:], n, text, report, random_regular_expander)


def test_expander_checker_rejects_irregular_graph():
    h = random_regular_expander(20, 4, 3)
    ex = {"lambda": h.lam, "lambda_1": h.lambda_1, "lambda_min": h.lambda_min}
    checks.check_expander(h, 20, 4, ex)
    _rejects(checks.check_expander, h, 20, 3, ex)


def test_verify_checker():
    good = json.dumps({"ok": True, "checks": [{"ok": True}]})
    bad = json.dumps({"ok": False, "checks": [{"ok": False}]})
    checks.check_verify(True, 0, good)
    checks.check_verify(False, 1, bad)
    _rejects(checks.check_verify, False, 0, good)
    _rejects(checks.check_verify, True, 1, bad)
    _rejects(checks.check_verify, True, 0, json.dumps({"ok": True, "checks": [{"ok": False}]}))


def test_repeated_operation_must_be_byte_identical(tmp_path):
    out = tmp_path / "o"
    op = workloads.Op("x", [], [out], check=lambda rc, stdout, texts: None)
    outcomes = Outcomes()
    for text in ("same", "same", "other"):
        out.write_text(text)
        assert outcomes.record(op, 0, "")
    assert len(outcomes.errors) == 1 and "differs" in outcomes.errors[0]
    assert not out.exists()
    assert not outcomes.record(op, 2, "")  # a wrong exit code is a failure, not an error
