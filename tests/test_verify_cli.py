import copy
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from plg import (
    CliqueCoverCertificate,
    MultiGraph,
    _jsonio,
    alon_interval,
    embed_sub1,
    is_independent,
    read_graph,
    verify_embedding,
    write_graph,
)
from plg.cli import main
from plg.embed_beta1 import Beta1Params, beta1_leaves, embed_beta1, random_regular_expander, walk_block
from plg.embed_sub1 import Sub1Params, sub1_leaves
from plg.errors import InternalError
from plg.model import PowerLawParams, degree_counts
from plg.realizer import interval_degree_sequence, realize
from plg.report import INPUT_EXTRAS, KEYS, input_extras
from plg.verify import _check_bounds, _check_certificates, _check_conformance

from test_golden import _BETA1_INPUT, _SUB1_INPUT


def failing(checks):
    return [c["check"] for c in checks if not c["ok"]]


def test_verify_untampered(c5):
    g, rep = embed_sub1(c5, 0.5)
    res = verify_embedding(g, rep, c5)
    assert res["ok"]
    assert failing(res["checks"]) == []


def test_verify_detects_deleted_edge(c5):
    g, rep = embed_sub1(c5, 0.5)
    edges = g.edge_dict()
    key = max(edges)  # drop an edge inside the last fill clique
    del edges[key]
    mutated = MultiGraph(g.vertex_count, edges)
    res = verify_embedding(mutated, rep, c5)
    assert not res["ok"]
    bad = failing(res["checks"])
    assert "conformance" in bad
    detail = next(c["detail"] for c in res["checks"] if c["check"] == "conformance")
    assert "degree bucket" in detail


def test_verify_detects_bad_witness(c5):
    g, rep = embed_sub1(c5, 0.5)
    doc = copy.deepcopy(rep)
    doc["witness"] = [0, 2]  # adjacent pair copies of adjacent C5 vertices
    res = verify_embedding(g, doc, c5)
    assert not res["ok"]
    assert "witness" in failing(res["checks"])


def test_verify_detects_tampered_bound(c5):
    g, rep = embed_sub1(c5, 0.5)
    doc = copy.deepcopy(rep)
    doc["bounds"]["g3_bound"] += 0.5
    res = verify_embedding(g, doc, c5)
    assert not res["ok"]
    assert "bounds" in failing(res["checks"])


def test_verify_detects_broken_certificate(c5):
    g, rep = embed_sub1(c5, 0.5)
    doc = copy.deepcopy(rep)
    doc["certificates"]["G2"]["cliques"][0][1] += 1  # clique overlaps its neighbour
    res = verify_embedding(g, doc, c5)
    assert not res["ok"]
    assert "certificates" in failing(res["checks"])


def test_verify_certified_block_counts_its_cliques(c5):
    # A part's certificate sets its clique count, the block's too: the
    # doubled C5 is covered by the K4s of input edges (0,1) and (2,3) and the
    # pair {8, 9}, three cliques where the block's pair cliques number 5.
    g, rep = embed_sub1(c5, 0.5)
    doc = copy.deepcopy(rep)
    doc["certificates"]["Gprime"] = CliqueCoverCertificate(np.array([4, 4, 2])).to_dict()
    assert doc["certificates"]["Gprime"]["cliques"] == [[0, 4], [4, 8], [8, 10]]
    doc["is_upper_bounds"]["Gprime"] = 3
    assert verify_embedding(g, doc, c5)["ok"]
    # A count is a plain int: an equal float fails too.
    for forged in (5, 3.0):
        doc["is_upper_bounds"]["Gprime"] = forged
        res = verify_embedding(g, doc, c5)
        assert [(c["check"], c["detail"]) for c in res["checks"] if not c["ok"]] == [
            ("certificates", f"is_upper_bounds/Gprime: report {forged}, recomputed 3")
        ]


def test_verify_detects_unjoined_pair(c5):
    g, rep = embed_sub1(c5, 0.5)
    edges = g.edge_dict()
    del edges[(0, 1)]
    res = verify_embedding(MultiGraph(g.vertex_count, edges), rep, c5)
    assert not res["ok"]
    detail = next(c["detail"] for c in res["checks"] if c["check"] == "embedded")
    assert detail == "pair (0,1) not joined"


def test_verify_beta1(c5):
    from plg import embed_beta1

    g, rep = embed_beta1(c5, d=4, seed=3, k=2)
    assert verify_embedding(g, rep, c5)["ok"]
    doc = copy.deepcopy(rep)
    doc["bounds"]["alon_hi"] *= 2
    assert not verify_embedding(g, doc, c5)["ok"]


# -- CLI ------------------------------------------------------------------------


def write_c5(path):
    g = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    path.write_text(write_graph(g))


@pytest.mark.parametrize("kind", ["sub1", "beta1"])
def test_returned_report_is_the_written_document(c5, tmp_path, kind):
    # The embedder returns the document ``plg embed-*`` writes, JSON-equal
    # to that file, and verify reads it as it reads the file, without
    # changing it.
    write_c5(tmp_path / "c5.plg")
    if kind == "sub1":
        argv = ["embed-sub1", "--beta", "0.5"]
        g, rep = embed_sub1(c5, 0.5)
    else:
        argv = ["embed-beta1", "--d", "4", "--seed", "3", "--k", "2"]
        g, rep = embed_beta1(c5, d=4, seed=3, k=2)
    out, report = tmp_path / "out.plg", tmp_path / "report.json"
    assert main(argv + ["--in", str(tmp_path / "c5.plg"), "--out", str(out), "--report", str(report)]) == 0
    assert _jsonio.dumps(rep) == report.read_text()
    assert rep == json.loads(report.read_text())
    before = copy.deepcopy(rep)
    in_memory = verify_embedding(g, rep, c5)
    from_file = verify_embedding(g, json.loads(report.read_text()), c5)
    assert in_memory["ok"]
    assert in_memory == from_file
    assert rep == before


@pytest.mark.parametrize("kind", ["sub1", "beta1"])
def test_report_has_exactly_the_report_keys(c5, kind):
    _, rep = embed_sub1(c5, 0.5) if kind == "sub1" else embed_beta1(c5, d=4, seed=3, k=2)
    assert sorted(rep) == sorted(KEYS)


def test_cli_dist(capsys):
    assert main(["dist", "--alpha", "2", "--beta", "1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["delta"] == 7
    assert rec["n_exact"] == 16
    assert rec["counts"] == [7, 3, 2, 1, 1, 1, 1]
    assert rec["schema"] == "plg-report/2"


def test_cli_dist_interval(capsys):
    assert main(["dist", "--alpha", "3", "--beta", "1", "--interval", "0.2", "1.0"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["bounds"]["size"]["exact"] == 25
    assert "volume" in rec["bounds"]


def test_cli_solve_c5(tmp_path, capsys):
    write_c5(tmp_path / "c5.plg")
    assert main(["solve", "--in", str(tmp_path / "c5.plg")]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["size"] == 2
    assert rec["optimal"] is True


def test_cli_solve_long_path_within_small_budget(tmp_path, capsys):
    # Degree-1 reductions solve a path without branching; a plain branch and
    # bound needs about n^2/6 nodes on it.
    n = 2000
    g = MultiGraph(n, [(i, i + 1) for i in range(n - 1)])
    (tmp_path / "path.plg").write_text(write_graph(g))
    assert main(["solve", "--budget", "10", "--in", str(tmp_path / "path.plg")]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["size"] == 1000 and rec["optimal"] is True
    assert len(rec["witness"]) == 1000 and is_independent(g, rec["witness"])


def test_cli_realize_roundtrip(tmp_path, capsys):
    out = tmp_path / "r.plg"
    assert main(
        ["realize", "--alpha", "2", "--beta", "1", "--from", "1", "--to", "7",
         "--out", str(out)]
    ) == 0
    cert = json.loads(capsys.readouterr().out)
    assert sorted(cert) == ["cliques", "parity_deficit_vertex", "schema"]
    g = read_graph(out.read_text())
    assert g.vertex_count == 16
    cliques = cert["cliques"]
    assert [start for start, _ in cliques] == [0] + [stop for _, stop in cliques[:-1]] and cliques[-1][1] == 16
    assert all(g.multiplicity(u, v) for s, t in cliques for u in range(s, t) for v in range(u + 1, t))
    assert write_graph(read_graph(write_graph(g))) == write_graph(g)


def test_cli_embed_verify_pipeline(tmp_path, capsys):
    write_c5(tmp_path / "c5.plg")
    code = main(
        ["embed-sub1", "--beta", "0.5", "--in", str(tmp_path / "c5.plg"),
         "--out", str(tmp_path / "e.plg"), "--report", str(tmp_path / "e.json")]
    )
    assert code == 0
    code = main(
        ["verify", "--plg", str(tmp_path / "e.plg"),
         "--report", str(tmp_path / "e.json"), "--in", str(tmp_path / "c5.plg")]
    )
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["ok"] is True


def test_cli_verify_fails_on_tampered_graph(tmp_path, capsys):
    write_c5(tmp_path / "c5.plg")
    main(
        ["embed-sub1", "--beta", "0.5", "--in", str(tmp_path / "c5.plg"),
         "--out", str(tmp_path / "e.plg"), "--report", str(tmp_path / "e.json")]
    )
    g = read_graph((tmp_path / "e.plg").read_text())
    edges = g.edge_dict()
    del edges[max(edges)]
    (tmp_path / "bad.plg").write_text(write_graph(MultiGraph(g.vertex_count, edges)))
    code = main(
        ["verify", "--plg", str(tmp_path / "bad.plg"),
         "--report", str(tmp_path / "e.json"), "--in", str(tmp_path / "c5.plg")]
    )
    assert code == 1


def test_cli_verify_fails_on_two_swapped_block(tmp_path, capsys):
    # A degree-preserving 2-swap inside the embedded block of P4 at beta 0.5:
    # degrees, certificates and the witness {0, 4} survive, but the graph
    # induced on {2i} is no longer P4.
    (tmp_path / "p4.plg").write_text(write_graph(MultiGraph(4, [(0, 1), (1, 2), (2, 3)])))
    assert main(
        ["embed-sub1", "--beta", "0.5", "--in", str(tmp_path / "p4.plg"),
         "--out", str(tmp_path / "e.plg"), "--report", str(tmp_path / "e.json")]
    ) == 0
    g = read_graph((tmp_path / "e.plg").read_text())
    edges = g.edge_dict()
    assert edges.pop((0, 2)) == 1 and edges.pop((5, 6)) == 1
    assert (0, 5) not in edges and (2, 6) not in edges
    edges[(0, 5)] = edges[(2, 6)] = 1
    swapped = MultiGraph(g.vertex_count, edges)
    assert sorted(swapped.degrees()) == sorted(g.degrees())
    (tmp_path / "s.plg").write_text(write_graph(swapped))
    capsys.readouterr()
    code = main(
        ["verify", "--plg", str(tmp_path / "s.plg"),
         "--report", str(tmp_path / "e.json"), "--in", str(tmp_path / "p4.plg")]
    )
    assert code == 1
    rec = json.loads(capsys.readouterr().out)
    assert failing(rec["checks"]) == ["embedded"]


def test_cli_expander_and_walkprod(tmp_path, capsys):
    assert main(["expander", "--n", "20", "--d", "4", "--seed", "7"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["n"] == 20 and rec["d"] == 4
    assert 0 <= rec["lambda"] <= 1
    write_c5(tmp_path / "c5.plg")
    assert main(
        ["walkprod", "--in", str(tmp_path / "c5.plg"), "--d", "4", "--k", "2",
         "--seed", "1", "--out", str(tmp_path / "w.plg")]
    ) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["n_d"] == 20
    assert rec["self_loops"] == 10
    g = read_graph((tmp_path / "w.plg").read_text())
    assert g.vertex_count == 20


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["nosuchcommand"]) == 2
    assert main(["solve", "--in", str(tmp_path / "missing.plg")]) == 2
    assert main(["dist", "--alpha", "-1", "--beta", "1"]) == 2
    # bracket calculators are only stated for beta <= 1
    assert main(["dist", "--alpha", "2", "--beta", "1.5", "--interval", "0.2", "0.8"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["latin1.plg", ".", "labelled.plg"], ids=["not-utf8", "directory", "labelled"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--in"],
        ["walkprod", "--d", "4", "--k", "2", "--seed", "1", "--in"],
        ["verify", "--report", "r.json", "--in", "c5.plg", "--plg"],
        ["verify", "--plg", "c5.plg", "--report", "r.json", "--in"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-1:]),
)
def test_cli_unreadable_graph_file_exits_2(tmp_path, monkeypatch, capsys, argv, bad):
    monkeypatch.chdir(tmp_path)
    write_c5(tmp_path / "c5.plg")
    (tmp_path / "r.json").write_text("{}")
    (tmp_path / "latin1.plg").write_bytes(b"p plg 2 1\ne 0 1 1\nl 0 na\xefve\n")
    # A labelled file of an earlier version: the format has no label lines.
    (tmp_path / "labelled.plg").write_bytes(b"p plg 2 1\ne 0 1 1\nl 0 embedded\n")
    assert main(argv + [bad]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if bad == "latin1.plg":
        assert err == "error: line 3: text is not UTF-8\n"
    elif bad == "labelled.plg":
        assert err == "error: line 3: unknown line type 'l'\n"


@pytest.mark.parametrize("text", ["", "{", "not json", "\ufeff{]"])
def test_cli_verify_report_not_json_fails_schema(tmp_path, capsys, text):
    write_c5(tmp_path / "c5.plg")
    out, rep = tmp_path / "e.plg", tmp_path / "e.json"
    argv = ["--in", str(tmp_path / "c5.plg"), "--out", str(out), "--report", str(rep)]
    assert main(["embed-sub1", "--beta", "0.5", *argv]) == 0
    rep.write_text(text)
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(rep), "--in", str(tmp_path / "c5.plg")]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [{"check": "schema", "ok": False, "detail": "unknown schema"}]


@pytest.mark.parametrize(
    "argv",
    [
        ["expander", "--n", "6", "--d", "3", "--seed", "-1"],
        ["expander", "--n", "5", "--d", "4", "--seed", "-3"],  # K5, drawn without the seed
        ["embed-beta1", "--in", "c5.plg", "--d", "4", "--seed", "-1", "--out", "g.plg", "--report", "r.json"],
        ["walkprod", "--in", "c5.plg", "--d", "4", "--k", "2", "--seed", "-2"],
        ["dist", "--alpha", "3", "--beta", "inf"],
        ["dist", "--alpha", "inf", "--beta", "1"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-1:]),
)
def test_cli_bad_numeric_arguments_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_c5(tmp_path / "c5.plg")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "g.plg").exists()


def _run_capped(argv, cwd, limit):
    """``python -m plg.cli argv`` in its own process under a ``limit``-byte
    address space, so that a regression fails with MemoryError, not by
    taking the machine's memory."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "plg.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["embed-sub1", "--beta", "0.5", "--out", "g.plg", "--report", "r.json"],
        ["embed-beta1", "--d", "4", "--seed", "1", "--out", "g.plg", "--report", "r.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_huge_header_exits_2(tmp_path, argv):
    # 2^36 declared vertices over one edge: the vertex count must be refused
    # before any per-vertex allocation, under a 2 GiB address space.
    (tmp_path / "huge.plg").write_text("p plg 68719476736 1\ne 0 7 1\n")
    proc = _run_capped([*argv, "--in", "huge.plg"], tmp_path, 2 << 30)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and "cap" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["expander", "--n", "20000", "--d", "4", "--seed", "1"],
        ["embed-beta1", "--in", "cycle.plg", "--d", "4", "--seed", "1", "--out", "g.plg", "--report", "r.json"],
        ["walkprod", "--in", "huge.plg", "--d", "4", "--k", "2", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_oversized_walk_inputs_exit_2(tmp_path, argv):
    # Each would need a dense matrix of 2.98 GiB (the 20,000-vertex expander's
    # spectrum) or more, so it must be refused before the expander is drawn.
    # Run apart under a 2 GiB address space, as the huge-header test is.
    n = 20_000
    cycle = sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))
    (tmp_path / "cycle.plg").write_text(f"p plg {n} {n}\n" + "".join(f"e {u} {v} 1\n" for u, v in cycle))
    (tmp_path / "huge.plg").write_text("p plg 68719476736 1\ne 0 7 1\n")
    proc = _run_capped(argv, tmp_path, 2 << 30)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and "cap" in proc.stderr
    assert not (tmp_path / "g.plg").exists()


def test_cli_realize_over_cap_interval_exits_2_before_allocating(tmp_path):
    # [1, 2*10^7] at alpha 17, beta 1 spans fewer degrees than the sequence
    # cap but holds about 4*10^8 vertices.  The count is refused from the
    # exact floor-block sum, before any per-degree array (the counts alone
    # take 153 MiB), under a 512 MiB address space.
    argv = ["realize", "--alpha", "17", "--beta", "1", "--from", "1", "--to", "20000000", "--out", "g.plg"]
    proc = _run_capped(argv, tmp_path, 512 << 20)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr == "error: interval [1, 20000000] holds more than 20000001 vertices\n"
    assert not (tmp_path / "g.plg").exists()


def test_cli_determinism(tmp_path, capsys):
    write_c5(tmp_path / "c5.plg")

    def run(tag):
        paths = {}
        for name in ("e.plg", "e.json", "b.plg", "b.json", "r.plg", "h.plg"):
            paths[name] = tmp_path / f"{tag}-{name}"
        main(["embed-sub1", "--beta", "0.5", "--in", str(tmp_path / "c5.plg"),
              "--out", str(paths["e.plg"]), "--report", str(paths["e.json"])])
        main(["embed-beta1", "--in", str(tmp_path / "c5.plg"), "--d", "4",
              "--seed", "3", "--out", str(paths["b.plg"]), "--report", str(paths["b.json"])])
        main(["realize", "--alpha", "3", "--beta", "1", "--from", "1", "--to", "20",
              "--out", str(paths["r.plg"])])
        main(["expander", "--n", "20", "--d", "4", "--seed", "7",
              "--out", str(paths["h.plg"])])
        return {
            name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()
        }

    first = run("a")
    second = run("b")
    capsys.readouterr()
    assert first == second


# Every command that writes a graph file: (argv, input text, the graph it builds).
_GRAPH_WRITERS = {
    "realize": (
        ["realize", "--alpha", "3", "--beta", "1", "--from", "1", "--to", "20"], None,
        lambda g: realize(interval_degree_sequence(PowerLawParams(3.0, 1.0), 1, 20))[0],
    ),
    "embed-sub1": (["embed-sub1", "--beta", "0.8"], _SUB1_INPUT, lambda g: embed_sub1(g, 0.8)[0]),
    "embed-beta1": (
        ["embed-beta1", "--d", "4", "--seed", "3", "--k", "2"], _BETA1_INPUT, lambda g: embed_beta1(g, 4, 3, 2)[0],
    ),
    "expander": (
        ["expander", "--n", "20", "--d", "4", "--seed", "7"], None, lambda g: random_regular_expander(20, 4, 7).graph,
    ),
    "walkprod": (
        ["walkprod", "--d", "4", "--k", "2", "--seed", "1"], _BETA1_INPUT, lambda g: walk_block(g, 4, 1, 2).product,
    ),
}


@pytest.mark.parametrize("command", sorted(_GRAPH_WRITERS))
def test_cli_writes_the_canonical_text_of_its_graph(tmp_path, capsys, command):
    argv, text, build = _GRAPH_WRITERS[command]
    argv = argv + ["--out", str(tmp_path / "g.plg")]
    if text is not None:
        (tmp_path / "in.plg").write_text(text)
        argv += ["--in", str(tmp_path / "in.plg")]
    if command.startswith("embed"):
        argv += ["--report", str(tmp_path / "r.json")]
    assert main(argv) == 0
    capsys.readouterr()
    graph = build(read_graph(text) if text is not None else None)
    assert (tmp_path / "g.plg").read_bytes() == write_graph(graph).encode("utf-8")


def reference_check_certificates(plg, rep):
    """The pair-by-pair certificate check the vectorised one must agree with."""
    for name, cert in rep["certificates"].items():
        lo, hi = rep["parts"][name]["range"]
        covered = 0
        pos = lo
        for start, stop in cert["cliques"]:
            if start != pos or stop > hi:
                return f"{name}: clique [{start},{stop}) misaligned with part [{lo},{hi})"
            for u in range(start, stop):
                for v in range(u + 1, stop):
                    if plg.multiplicity(u, v) < 1:
                        return f"{name}: missing clique edge ({u},{v})"
            covered += stop - start
            pos = stop
        if covered != hi - lo:
            return f"{name}: cliques cover {covered} of {hi - lo} vertices"
    for name, cert in rep["certificates"].items():
        if rep["is_upper_bounds"][name] != len(cert["cliques"]):
            count = len(cert["cliques"])
            return f"is_upper_bounds/{name}: report {rep['is_upper_bounds'][name]}, recomputed {count}"
    return ""


def _one_part(n, cliques):
    """A report of one part [0, n) whose certificate is the cover its cliques define."""
    return {
        "kind": "sub1",
        "parts": {"P": {"range": [0, n]}},
        "certificates": {"P": {"cliques": cliques, "parity_deficit_vertex": None}},
        "parity_deficits": [],
        "is_upper_bounds": {"P": len(cliques)},
    }


_K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
# (graph, report, detail) beside the tampered embeddings.
_CERTIFICATE_CASES = [
    # Row 1 of [0, 4) lacks (1,2) but holds (1,5) and (1,6) past the clique.
    (
        MultiGraph(8, [e for e in _K4 if e != (1, 2)] + [(1, 5), (1, 6), (0, 7)]),
        _one_part(8, [[0, 4], [4, 5], [5, 6], [6, 7], [7, 8]]),
        "P: missing clique edge (1,2)",
    ),
    # Key base 4 (the largest endpoint is 3), not n = 2^40: the clique [3, 6)
    # reaches past every endpoint.
    (MultiGraph(2**40, _K4 + [(v, v) for v in range(4)]), _one_part(6, [[0, 3], [3, 6]]), "P: missing clique edge (3,4)"),
    (MultiGraph(2**40, _K4 + [(v, v) for v in range(4)]), _one_part(4, [[0, 4]]), ""),
]


def test_certificate_check_matches_pairwise_reference(petersen):
    rng = random.Random(9)
    g, rep = embed_sub1(petersen, 0.5)
    base = copy.deepcopy(rep)
    clique_edges = [
        (u, v)
        for cert in base["certificates"].values()
        for start, stop in cert["cliques"]
        for u in range(start, stop)
        for v in range(u + 1, stop)
    ]
    for trial in range(60):
        doc = copy.deepcopy(base)
        edges = g.edge_dict()
        for key in rng.sample(clique_edges, rng.randint(0, 3)):
            del edges[key]
        if trial % 3 == 1:  # shift one clique boundary
            cliques = doc["certificates"][rng.choice(sorted(doc["certificates"]))]["cliques"]
            cliques[rng.randrange(len(cliques))][rng.randint(0, 1)] += rng.choice([-1, 1])
        if trial % 5 == 2:
            doc["is_upper_bounds"]["G1"] += 1
        tampered = MultiGraph(g.vertex_count, edges)
        got = _check_certificates(tampered, doc)
        assert got["detail"] == reference_check_certificates(tampered, doc)
        assert got["ok"] == (got["detail"] == "")
    for graph, doc, detail in _CERTIFICATE_CASES:
        assert _check_certificates(graph, doc)["detail"] == reference_check_certificates(graph, doc) == detail


def _dict_check_conformance(plg, rep):
    """verify's conformance check before it used report.degree_conformance,
    verbatim: a dict loop over every degree."""
    params = rep["params"]
    beta = params.get("beta", 1.0)
    p = PowerLawParams(params["alpha"], beta)
    counts = degree_counts(p)
    deficits = [tuple(t) for t in rep["parity_deficits"]]
    if len(deficits) > 2:
        return {"check": "conformance", "ok": False, "detail": "more than 2 deficits declared"}
    expected = {i + 1: int(c) for i, c in enumerate(counts)}
    for _v, t in deficits:
        expected[t] = expected.get(t, 0) - 1
        expected[t - 1] = expected.get(t - 1, 0) + 1
    actual: dict[int, int] = {}
    for dv in plg.degrees():
        actual[int(dv)] = actual.get(int(dv), 0) + 1
    bad = {
        i: (expected.get(i, 0), actual.get(i, 0))
        for i in set(expected) | set(actual)
        if expected.get(i, 0) != actual.get(i, 0)
    }
    if bad:
        worst = sorted(bad)[0]
        return {
            "check": "conformance",
            "ok": False,
            "detail": f"degree bucket {worst}: expected {bad[worst][0]}, found {bad[worst][1]}",
        }
    return {"check": "conformance", "ok": True, "detail": ""}


@pytest.mark.parametrize("beta", [0.5, 0.8])
def test_conformance_matches_dict_check_on_forged_deficits(c5, beta):
    g, rep = embed_sub1(c5, beta)
    doc = copy.deepcopy(rep)
    delta = doc["params"]["delta"]
    top = int(g.degrees().max())
    forged = [
        [],
        [[0, 1]],
        [[0, 2]],
        [[0, delta]],
        [[0, delta + 1]],
        [[3, 5], [4, 5]],
        [[1, 3], [2, 4], [3, 5]],
        [[0, 0]],
        [[0, -4]],
        [[0, delta + 2]],
        [[0, top + 1]],
        [[0, top + 2], [1, top + 3]],
        [[0, 10**12]],
        [[0, -(10**12)], [1, 7]],
    ]
    for deficits in [doc["parity_deficits"], *forged]:
        doc["parity_deficits"] = deficits
        assert _check_conformance(g, doc) == _dict_check_conformance(g, doc), deficits


def test_conformance_matches_dict_check_past_size_bounds():
    # Small graphs against forged parameters: more degree-0 vertices than
    # deficits explain, or fewer vertices than delta has classes.  The check
    # tabulates only up to a bucket that must mismatch, and reports the same
    # lowest bucket as the full dict check.
    rng = random.Random(7)
    fired = 0
    for _ in range(400):
        n = rng.randint(1, 30)
        edges: dict[tuple[int, int], int] = {}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            edges[(u, v)] = edges.get((u, v), 0) + rng.choice([1, 1, 2, 5])
        g = MultiGraph(n, edges)
        beta = rng.choice([0.5, 0.8, 1.0])
        alpha = rng.uniform(0.3, 3.0) * beta
        delta = PowerLawParams(alpha, beta).delta
        deficits = [[rng.randrange(n), rng.randint(-2, delta + 3)] for _ in range(rng.randint(0, 2))]
        doc = {"params": {"alpha": alpha, "beta": beta}, "parity_deficits": deficits}
        fired += n > 2 * len(edges) + len(deficits) or delta > n + 2 * len(deficits) + 1
        assert _check_conformance(g, doc) == _dict_check_conformance(g, doc), (n, edges, alpha, beta, deficits)
    assert fired > 100


def test_conformance_fails_on_out_of_range_deficit(c5):
    g, rep = embed_sub1(c5, 0.5)
    doc = copy.deepcopy(rep)
    delta = doc["params"]["delta"]
    for t in (0, -1, delta + 2, 10**15):
        doc["parity_deficits"] = [[0, t]]
        res = verify_embedding(g, doc, c5)
        assert not res["ok"] and "conformance" in failing(res["checks"])
    doc["parity_deficits"] = [[0, 2.5]]
    assert "conformance" in failing(verify_embedding(g, doc, c5)["checks"])


@pytest.mark.parametrize("d", [3, 4])
def test_cli_embed_beta1_k1_on_edgeless_input_exits_2(tmp_path, capsys, d):
    # Every pair of the 6-walk product straddles two slots, and the only fill
    # vertices left have degree 1, so the surplus half-edges have nowhere to go.
    src = tmp_path / "e6.plg"
    src.write_text("p plg 6 0\n")
    out, rep = tmp_path / "out.plg", tmp_path / "rep.json"
    argv = ["embed-beta1", "--in", str(src), "--d", str(d), "--k", "1", "--seed", "2"]
    assert main(argv + ["--out", str(out), "--report", str(rep)]) == 2
    assert "surplus half-edges" in capsys.readouterr().err
    assert not out.exists() and not rep.exists()
    argv[argv.index("--k") + 1] = "2"
    assert main(argv + ["--out", str(out), "--report", str(rep)]) == 0


def _run_cli_limited(tmp_path, argv, timeout=120):
    """Run the CLI apart, under a 2 GiB address space, so that a regression
    fails with MemoryError or a timeout, not by taking the machine's memory."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    limit = 2 << 30
    return subprocess.run(
        [sys.executable, "-m", "plg.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_cli_solve_refuses_graph_over_solver_cap(tmp_path):
    # 40,000 vertices pass the reader but not the solver's bitset cap: the
    # search must not start.
    (tmp_path / "wide.plg").write_text("p plg 40000 0\n")
    proc = _run_cli_limited(tmp_path, ["solve", "--in", "wide.plg"], timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1 and "cap" in proc.stderr


def test_cli_verify_fails_oversized_clique_before_pairs(tmp_path):
    # Part G1 forged to [lo, lo + 200000] with one clique spanning it: about
    # 2*10^10 pairs (149 GiB of columns) that must never be built.
    write_c5(tmp_path / "c5.plg")
    argv = ["embed-sub1", "--beta", "0.5", "--in", "c5.plg", "--out", "g.plg", "--report", "r.json"]
    assert _run_cli_limited(tmp_path, argv).returncode == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    lo = rep["parts"]["G1"]["range"][0]
    rep["parts"]["G1"]["range"] = [lo, lo + 200_000]
    rep["certificates"]["G1"]["cliques"] = [[lo, lo + 200_000]]
    (tmp_path / "forged.json").write_text(json.dumps(rep))
    proc = _run_cli_limited(tmp_path, ["verify", "--plg", "g.plg", "--report", "forged.json", "--in", "c5.plg"])
    assert proc.returncode == 1, proc.stderr[-2000:]
    checks = {c["check"]: c for c in json.loads(proc.stdout)["checks"]}
    assert not checks["certificates"]["ok"]
    assert "outside the graph's" in checks["certificates"]["detail"]


def test_certificate_check_fails_more_pairs_than_edges():
    # One clique over all ten vertices needs 45 distinct edges: K10 passes,
    # K10 less one edge fails on the count before any pair is built.
    k10 = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    rep = _one_part(10, [[0, 10]])
    assert _check_certificates(MultiGraph(10, k10), rep)["ok"]
    got = _check_certificates(MultiGraph(10, k10[1:]), rep)
    assert not got["ok"]
    assert got["detail"] == "P: cliques need 45 distinct edges, the graph has 44"


def _huge_multiplicity(tmp_path):
    path = tmp_path / "g.plg"
    lines = path.read_text().split("\n")
    # The last edge that is not a loop: its endpoints get degree about 10^18.
    i = max(j for j, line in enumerate(lines) if line.startswith("e ") and line.split()[1] != line.split()[2])
    lines[i] = " ".join(lines[i].split()[:3] + [str(10**18)])
    path.write_text("\n".join(lines))


def _huge_output_header(tmp_path):
    path = tmp_path / "g.plg"
    head, rest = path.read_text().split("\n", 1)
    path.write_text(f"p plg 68719476736 {head.split()[3]}\n{rest}")


def _forged_alpha(alpha):
    def forge(tmp_path):
        rep = json.loads((tmp_path / "r.json").read_text())
        rep["params"]["alpha"] = alpha
        (tmp_path / "r.json").write_text(json.dumps(rep))

    return forge


def _huge_input_header(tmp_path):
    path = tmp_path / "in.plg"
    head, rest = path.read_text().split("\n", 1)
    path.write_text(f"p plg 20000000000 {head.split()[3]}\n{rest}")


@pytest.mark.parametrize(
    "beta, forge, failed",
    [
        (0.5, _huge_multiplicity, ["conformance"]),  # 6.94 EiB of histogram
        (0.5, _huge_output_header, ["conformance", "parts"]),  # 512 GiB of degrees
        (0.8, _forged_alpha(24), ["conformance", "bounds"]),  # 77.8 TiB of counts
        (0.8, _forged_alpha(30), ["conformance", "bounds"]),  # 137 PiB of counts
        (0.5, _huge_input_header, ["witness", "embedded"]),  # 149 GiB of doubling
    ],
    ids=["multiplicity-1e18", "output-header-2^36", "alpha-24", "alpha-30", "input-header-2e10"],
)
def test_cli_verify_fails_oversized_numbers_before_allocating(tmp_path, beta, forge, failed):
    # Numbers in a header or report that would size an array past memory
    # fail a check instead; run apart under a 2 GiB address space.
    write_c5(tmp_path / "in.plg")
    argv = ["embed-sub1", "--beta", str(beta), "--in", "in.plg", "--out", "g.plg", "--report", "r.json"]
    assert _run_cli_limited(tmp_path, argv).returncode == 0
    forge(tmp_path)
    proc = _run_cli_limited(tmp_path, ["verify", "--plg", "g.plg", "--report", "r.json", "--in", "in.plg"])
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert failing(json.loads(proc.stdout)["checks"]) == failed


@pytest.mark.parametrize(
    "alpha, beta, error",
    [
        ("800", "1", "overflows"),  # e^800 is not a float
        ("5", "0.005", "overflows"),  # nor is e^1000
        ("36", "1", "floored terms"),  # about 1.3*10^8 terms
        ("12", "0.25", "2^53"),  # delta = e^48
        ("44", "50", "2^63"),  # delta = 2, y_1 = e^44 > 2^63
        ("50", "100", "2^63"),  # delta = 1, y_1 = e^50
    ],
)
def test_cli_dist_huge_alpha_exits_2(tmp_path, alpha, beta, error):
    # Refused before any work: no traceback, no hang.
    proc = _run_cli_limited(tmp_path, ["dist", "--alpha", alpha, "--beta", beta], timeout=60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and error in proc.stderr
    assert proc.stdout == ""


def test_cli_realize_count_past_int64_exits_2(tmp_path):
    # y_1 = e^50 does not fit in int64: refused, not wrapped to -2^63.
    argv = ["realize", "--alpha", "50", "--beta", "100", "--from", "1", "--to", "1", "--out", "x.plg"]
    proc = _run_cli_limited(tmp_path, argv, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1 and "2^63" in proc.stderr


# -- the beta = 1 embedded block D -----------------------------------------------


def _beta1_c5_files(tmp_path):
    write_c5(tmp_path / "c5.plg")
    argv = ["embed-beta1", "--in", str(tmp_path / "c5.plg"), "--d", "4", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "e.plg"), "--report", str(tmp_path / "e.json")]) == 0
    return ["verify", "--plg", str(tmp_path / "e.plg"), "--report", str(tmp_path / "e.json"),
            "--in", str(tmp_path / "c5.plg")]


def test_cli_verify_checks_beta1_block(tmp_path, capsys):
    verify = _beta1_c5_files(tmp_path)
    capsys.readouterr()
    assert main(verify) == 0
    rec = json.loads(capsys.readouterr().out)
    assert {"check": "embedded", "ok": True, "detail": ""} in rec["checks"]


def test_cli_verify_fails_on_two_swapped_beta1_block(tmp_path, capsys):
    # A degree-preserving 2-swap inside D: degrees, certificates and the
    # witness survive, but the graph induced on {2i} is no longer the walk
    # product.
    verify = _beta1_c5_files(tmp_path)
    g = read_graph((tmp_path / "e.plg").read_text())
    edges = g.edge_dict()
    assert edges.pop((2, 4)) == 1 and edges.pop((17, 24)) == 1
    assert (2, 17) not in edges and (4, 24) not in edges
    edges[(2, 17)] = edges[(4, 24)] = 1
    swapped = MultiGraph(g.vertex_count, edges)
    assert sorted(swapped.degrees()) == sorted(g.degrees())
    (tmp_path / "e.plg").write_text(write_graph(swapped))
    capsys.readouterr()
    assert main(verify) == 1
    rec = json.loads(capsys.readouterr().out)
    assert failing(rec["checks"]) == ["embedded"]


def _swap_edges(path, old, new):
    """Replace the simple edges ``old`` of the graph file by ``new``, keeping
    every degree."""
    g = read_graph(path.read_text())
    edges = g.edge_dict()
    assert all(edges.pop(e) == 1 for e in old) and not any(e in edges for e in new)
    edges.update(dict.fromkeys(new, 1))
    swapped = MultiGraph(g.vertex_count, edges)
    assert sorted(swapped.degrees()) == sorted(g.degrees())
    path.write_text(write_graph(swapped))


@pytest.mark.parametrize(
    "embed, old, new",
    [
        (["embed-sub1", "--beta", "0.5"], [(1, 3), (5, 7)], [(1, 5), (3, 7)]),
        (["embed-beta1", "--d", "4", "--seed", "3"], [(3, 5), (17, 25)], [(3, 17), (5, 25)]),
    ],
    ids=["Gprime", "D"],
)
def test_cli_verify_fails_on_odd_copy_two_swap(tmp_path, capsys, embed, old, new):
    # A 2-swap among odd copies leaves the graph induced on {2i} and the
    # witness as they were, but the block is no longer the doubling G[K2]:
    # in Gprime it raises alpha of the block from alpha(C5) = 2 to 3.
    write_c5(tmp_path / "c5.plg")
    out, rep = tmp_path / "e.plg", tmp_path / "e.json"
    assert main(embed + ["--in", str(tmp_path / "c5.plg"), "--out", str(out), "--report", str(rep)]) == 0
    _swap_edges(out, old, new)
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(rep), "--in", str(tmp_path / "c5.plg")]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert failing(rec["checks"]) == ["embedded"]
    detail = next(c["detail"] for c in rec["checks"] if c["check"] == "embedded")
    assert detail.startswith("block differs from the doubled")


def test_cli_verify_fails_on_forged_spectrum(tmp_path, capsys):
    # lambda_1 = 0.1 and lambda_min = -0.1 with alon_lo and alon_hi
    # rewritten to match, so the bounds pass: the expander regenerated from
    # the report's seed does not have that spectrum.
    src, out, rep = tmp_path / "g.plg", tmp_path / "e.plg", tmp_path / "e.json"
    src.write_text(write_graph(_C40))
    argv = ["embed-beta1", "--d", "4", "--seed", "3", "--in", str(src), "--out", str(out), "--report", str(rep)]
    assert main(argv) == 0
    doc = json.loads(rep.read_text())
    ex = doc["extras"]
    ex["lambda_1"], ex["lambda_min"] = 0.1, -0.1
    lo, hi = alon_interval(ex["is_g"], ex["n_base"], ex["d"], 0.1, -0.1, ex["k"])
    doc["bounds"].update(alon_lo=lo, alon_hi=hi)
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(rep), "--in", str(src)]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert failing(rec["checks"]) == ["embedded"]
    detail = {c["check"]: c["detail"] for c in rec["checks"]}
    assert detail["embedded"].startswith("extras/lambda_1: report 0.1, recomputed ")


def _embedded_check(g, doc, original):
    return next(c for c in verify_embedding(g, doc, original)["checks"] if c["check"] == "embedded")


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("n_base", 6, "walk product: n_base 6 is not the input's 5 vertices"),
        ("k", 40, "walk product: walk product would have"),  # refused by the walk caps
        ("d", 5, "walk product: need d < n"),
    ],
)
def test_verify_beta1_block_from_forged_extras(c5, field, value, detail):
    from plg import embed_beta1

    g, rep = embed_beta1(c5, d=4, seed=3, k=2)
    doc = copy.deepcopy(rep)
    assert _embedded_check(g, doc, c5)["ok"]
    doc["extras"][field] = value
    got = _embedded_check(g, doc, c5)
    assert not got["ok"] and got["detail"].startswith(detail)


def test_verify_beta1_block_range(c5):
    from plg import embed_beta1

    g, rep = embed_beta1(c5, d=4, seed=3, k=2)
    doc = copy.deepcopy(rep)
    n_d = doc["extras"]["n_d"]
    doc["parts"]["D"]["range"] = [0, 2 * n_d - 2]
    assert _embedded_check(g, doc, c5) == {
        "check": "embedded", "ok": False, "detail": f"D is not the block [0,{2 * n_d})",
    }


# -- one parser per process --------------------------------------------------------


def test_cli_parser_is_reused_without_state(tmp_path, capsys):
    from plg.cli import _build_parser

    assert _build_parser() is _build_parser()
    write_c5(tmp_path / "c5.plg")
    argv = ["embed-beta1", "--in", str(tmp_path / "c5.plg"), "--d", "4", "--seed", "3",
            "--out", str(tmp_path / "e.plg"), "--report", str(tmp_path / "e.json")]
    assert main(argv + ["--k", "3"]) == 0
    assert json.loads((tmp_path / "e.json").read_text())["extras"]["k"] == 3
    assert main(argv + ["--k", "3", "--no-such-flag"]) == 2
    assert main(argv) == 0
    assert json.loads((tmp_path / "e.json").read_text())["extras"]["k"] == 2
    assert main(["verify", "--plg", str(tmp_path / "e.plg"), "--report", str(tmp_path / "e.json"),
                 "--in", str(tmp_path / "c5.plg")]) == 0


# -- witness against its source ------------------------------------------------------


def _drop_source(doc):
    # An empty witness is independent; without its source nothing ties it to
    # the input, so the source is required.
    doc["witness"] = []
    del doc["extras"]["witness_source_vertices"]


_C40 = MultiGraph(40, [(i, (i + 1) % 40) for i in range(40)] + [(i, i + 20) for i in range(0, 20, 3)])


@pytest.mark.parametrize(
    "embed, graph, forge",
    [
        (["embed-sub1", "--beta", "0.5"], MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), _drop_source),
        (["embed-beta1", "--d", "4", "--seed", "3"], _C40, lambda doc: doc.update(witness=[])),
        (["embed-beta1", "--d", "4", "--seed", "3"], _C40, lambda doc: doc.update(witness=doc["witness"][:-1])),
    ],
    ids=["sub1-without-source", "beta1-empty", "beta1-one-short"],
)
def test_cli_verify_fails_forged_witness(tmp_path, capsys, embed, graph, forge):
    src, out, rep = tmp_path / "g.plg", tmp_path / "e.plg", tmp_path / "e.json"
    src.write_text(write_graph(graph))
    assert main(embed + ["--in", str(src), "--out", str(out), "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    forge(doc)
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(rep), "--in", str(src)]) == 1
    assert failing(json.loads(capsys.readouterr().out)["checks"]) == ["witness"]


def test_verify_beta1_witness_walk_count(c5):
    from plg import embed_beta1

    g, rep = embed_beta1(c5, d=4, seed=3, k=2)
    doc = copy.deepcopy(rep)
    doc["extras"]["witness_walk_count"] += 1
    res = verify_embedding(g, doc, c5)
    assert failing(res["checks"]) == ["witness"]


# -- malformed reports fail a check ---------------------------------------------------


_CHECK_ORDER = ["conformance", "parts", "certificates", "witness", "bounds", "embedded"]


def _c5_outputs(c5, kind):
    from plg import embed_beta1

    g, rep = embed_sub1(c5, 0.5) if kind == "sub1" else embed_beta1(c5, d=4, seed=3, k=2)
    return g, copy.deepcopy(rep)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def forge(doc):
        for p in path:
            doc = doc[p]
        doc[key] = value

    return forge


def _delete(*path):
    def forge(doc):
        for p in path[:-1]:
            doc = doc[p]
        del doc[path[-1]]

    return forge


def _append(*path_and_value):
    *path, value = path_and_value

    def forge(doc):
        for p in path:
            doc = doc[p]
        doc.append(value)

    return forge


def _empty_base(doc):
    doc["extras"]["n_base"] = doc["extras"]["is_g"] = 0


def _move_deficit(doc):
    doc["certificates"]["G1"]["parity_deficit_vertex"] = 56
    doc["parity_deficits"][1][0] = 56


@pytest.mark.parametrize(
    "kind, forge, failed, detail",
    [
        pytest.param(
            "sub1", _delete("params", "g3_cut"), ["bounds"], "report lacks key 'g3_cut'",
            id="del-g3_cut",
        ),
        pytest.param(
            "beta1", _delete("extras", "seed"), ["witness", "bounds", "embedded"], "report lacks key 'seed'",
            id="del-seed",
        ),
        pytest.param(
            "sub1", _delete("parity_deficits"), ["conformance", "certificates"], "report lacks key 'parity_deficits'",
            id="del-parity_deficits",
        ),
        pytest.param(
            "beta1", _delete("witness"), ["witness"], "report lacks key 'witness'",
            id="del-witness",
        ),
        pytest.param(
            "sub1", _append("witness", 1000000), ["witness"], "vertex 1000000 out of range",
            id="sub1-witness-out-of-range",
        ),
        pytest.param(
            "beta1", _append("witness", 1000000), ["witness"], "vertex 1000000 out of range",
            id="beta1-witness-out-of-range",
        ),
        pytest.param(
            "sub1", _append("extras", "witness_source_vertices", 1000000), ["witness"], "vertex 1000000 out of range",
            id="sub1-source-out-of-range",
        ),
        pytest.param(
            "beta1", _append("extras", "witness_source_vertices", 1000000), ["witness"], "vertex 1000000 out of range",
            id="beta1-source-out-of-range",
        ),
        pytest.param("sub1", _set("witness", None), ["witness"], None, id="witness-null"),
        pytest.param("sub1", _set("witness", ["a"]), ["witness"], None, id="witness-str"),
        pytest.param("sub1", _set("params", "alpha", "a"), ["conformance", "bounds"], None, id="alpha-str"),
        pytest.param(
            "sub1", _set("params", "alpha", -1), ["conformance", "bounds"], "alpha and beta must be positive",
            id="sub1-alpha-negative",
        ),
        pytest.param(
            "beta1", _set("params", "alpha", -1), ["conformance", "bounds"], "alpha and beta must be positive",
            id="beta1-alpha-negative",
        ),
        pytest.param(
            "sub1", _set("parts", "G1", "range", "x"), ["parts", "certificates"], None,
            id="range-str",
        ),
        pytest.param(
            "sub1", _set("parity_deficits", [5]), ["conformance", "certificates"], "'int' object is not iterable",
            id="deficits-int",
        ),
        pytest.param("sub1", _set("certificates", "G1", "cliques", 0, [1]), ["certificates"], None, id="clique-short"),
        pytest.param("sub1", _set("parts", []), ["parts", "certificates", "embedded"], None, id="parts-list"),
        pytest.param(
            # The bounds check's walk caps refuse a float k too.
            "beta1", _set("extras", "k", 2.5), ["witness", "bounds", "embedded"],
            "walk product: k must be an integer, got 2.5",
            id="k-float",
        ),
        pytest.param(
            # The bounds check's walk caps refuse a float d too.
            "beta1", _set("extras", "d", 4.0), ["witness", "bounds", "embedded"],
            "walk product: d must be an integer, got 4.0",
            id="d-float",
        ),
        pytest.param(
            "beta1", _set("extras", "seed", 1.5), ["witness", "bounds", "embedded"],
            "walk product: seed must be a non-negative integer, got 1.5",
            id="seed-float",
        ),
        pytest.param(
            "beta1", _set("extras", "seed", -1), ["witness", "embedded"],
            "walk product: seed must be a non-negative integer, got -1",
            id="seed-negative",
        ),
        pytest.param(
            "beta1", _set("extras", "k", 2000), ["witness", "bounds", "embedded"],
            "walk product: walk product would have 5*4^1999 vertices (cap 200000)",
            id="k-overflows-float",
        ),
        pytest.param(
            # Refused by the walk caps before 4^(10^12 - 1) is taken.
            "beta1", _set("extras", "k", 10**12), ["witness", "bounds", "embedded"],
            "walk product: walk product would have 5*4^999999999999 vertices (cap 200000)",
            id="k-huge",
        ),
        pytest.param(
            "beta1", _set("params", "L", 10**8), ["bounds"], "params/L: report 100000000, recomputed 4",
            id="L-forged",
        ),
        pytest.param(
            "sub1", _set("bounds", "g1_bound", float("inf")), ["bounds"],
            "bounds/g1_bound: report inf, recomputed 22.68160918664779", id="bound-inf",
        ),
        pytest.param(
            "sub1", _set("params", "x", float("inf")), ["bounds"], "params/x: report inf, recomputed 0.25",
            id="params-inf",
        ),
        pytest.param(
            "sub1", _set("params", "n", 10), ["bounds"], "params: n is not a recomputed entry", id="params-unknown-key",
        ),
        pytest.param(
            # α moves by far less than the float tolerance.
            "sub1", _set("params", "bumps", 1e-300), ["bounds"], "n_embedded and bumps must be integers",
            id="bumps-float",
        ),
        pytest.param(
            "sub1", _set("params", "n_embedded", 10.0), ["bounds"], "n_embedded and bumps must be integers",
            id="n-embedded-float",
        ),
        pytest.param(
            "beta1", _set("params", "bumps", 28 + 1e-9), ["bounds"], "bumps must be an integer", id="beta1-bumps-float",
        ),
        pytest.param(
            # The independence ratio is_g / n_base is 0 / 0.
            "beta1", _empty_base, ["witness", "bounds", "embedded"],
            "walk product: n_base 0 is not the input's 5 vertices",
            id="empty-base",
        ),
        pytest.param(
            # A bool leaf matches only a bool, though 1 == True in Python.
            "beta1", _set("extras", "expander_passes", 1), ["embedded"],
            "extras/expander_passes: report 1, recomputed True", id="expander-passes-int",
        ),
        pytest.param(
            "beta1", _set("extras", "expander_passes", 1.0), ["embedded"],
            "extras/expander_passes: report 1.0, recomputed True", id="expander-passes-float",
        ),
        pytest.param(
            "beta1", _set("extras", "is_g_optimal", 0), ["bounds"], "is_g_optimal must be a bool",
            id="is-g-optimal-int",
        ),
        pytest.param(
            "sub1", _set("extras", "foo", 1), ["bounds"], "extras: foo is not a recomputed entry",
            id="sub1-extras-unknown-key",
        ),
        pytest.param(
            "beta1", _set("extras", "foo", 1), ["bounds"], "extras: foo is not a recomputed entry",
            id="beta1-extras-unknown-key",
        ),
        pytest.param(
            "beta1", _set("extras", "is_g", 2.0), ["bounds"], "is_g must be integers", id="is-g-float",
        ),
        pytest.param(
            # G1's deficit moved from vertex 57 (degree 2, target 3) to 56
            # (degree 3) everywhere it is declared: the histogram still fits.
            "sub1", _move_deficit, ["conformance"], "deficit vertex 56 does not have degree 2",
            id="deficit-vertex-off-its-degree",
        ),
    ],
)
def test_verify_fails_malformed_report(c5, kind, forge, failed, detail):
    g, doc = _c5_outputs(c5, kind)
    forge(doc)
    res = verify_embedding(g, doc, c5)
    assert not res["ok"]
    assert failing(res["checks"]) == failed
    assert [c["check"] for c in res["checks"]] == _CHECK_ORDER
    if detail is not None:
        assert next(c["detail"] for c in res["checks"] if c["check"] == failed[0]) == detail


@pytest.mark.parametrize("report", [[1, 2], "plg-report/1", 5, None])
def test_verify_fails_report_that_is_not_an_object(c5, report):
    g, _ = embed_sub1(c5, 0.5)
    res = verify_embedding(g, report, c5)
    assert res["checks"] == [{"check": "schema", "ok": False, "detail": "unknown schema"}]


@pytest.mark.parametrize("fault", [InternalError("bug"), AssertionError("bug")])
def test_verify_propagates_program_faults(c5, monkeypatch, fault):
    import plg.verify

    def broken(*args):
        raise fault

    g, rep = embed_sub1(c5, 0.5)
    monkeypatch.setattr(plg.verify, "degree_conformance", broken)
    with pytest.raises(type(fault)):
        verify_embedding(g, rep, c5)


def test_verify_builds_block_source_once(c5, monkeypatch):
    # The witness and embedded checks share one rebuild, a refused one too,
    # and both report the refusal.
    import plg.verify

    calls = []

    def counting(*args):
        calls.append(args)
        return embedded_source(*args)

    embedded_source = plg.verify._embedded_source
    monkeypatch.setattr(plg.verify, "_embedded_source", counting)
    g, doc = _c5_outputs(c5, "beta1")
    assert verify_embedding(g, doc, c5)["ok"] and len(calls) == 1
    doc["extras"]["n_base"] = 6
    res = verify_embedding(g, doc, c5)
    assert len(calls) == 2
    assert failing(res["checks"]) == ["witness", "bounds", "embedded"]
    for c in res["checks"]:
        if c["check"] in ("witness", "embedded"):
            assert c["detail"] == "walk product: n_base 6 is not the input's 5 vertices"


def test_verify_looks_checks_up_at_call_time(c5, monkeypatch):
    # Wrappers installed on the module (as a tracer does) are the ones called.
    import plg.verify

    seen = []
    for name in _CHECK_ORDER:
        check = getattr(plg.verify, f"_check_{name}")
        monkeypatch.setattr(plg.verify, f"_check_{name}", lambda *a, c=check, n=name: seen.append(n) or c(*a))
    g, rep = embed_sub1(c5, 0.5)
    res = verify_embedding(g, rep, c5)
    assert res["ok"] and seen == _CHECK_ORDER


@pytest.mark.parametrize(
    "forge, failed",
    [(_append("witness", 1000000), "witness"), (_delete("params", "g3_cut"), "bounds")],
    ids=["witness-out-of-range", "missing-g3_cut"],
)
def test_cli_verify_fails_malformed_report(tmp_path, capsys, forge, failed):
    write_c5(tmp_path / "c5.plg")
    out, rep = tmp_path / "e.plg", tmp_path / "e.json"
    argv = ["embed-sub1", "--beta", "0.5", "--in", str(tmp_path / "c5.plg"), "--out", str(out), "--report", str(rep)]
    assert main(argv) == 0
    doc = json.loads(rep.read_text())
    forge(doc)
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(rep), "--in", str(tmp_path / "c5.plg")]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    rec = json.loads(captured.out)
    assert not rec["ok"] and failing(rec["checks"]) == [failed]


@pytest.mark.parametrize(
    "text, detail",
    [
        ("p plg 2 1\ne 0 0 4611686018427387904\n", "vertex 0 has a degree of 2^63 or more"),
        ("p plg 2 1\ne 0 1 9007199254740993\n", "degree bucket 1: expected 6, found 0"),
    ],
    ids=["loop-2^62", "2^53+1"],
)
def test_cli_verify_fails_conformance_on_huge_degrees(tmp_path, capsys, text, detail):
    # Degrees are exact integers: one of 2^63 fails conformance with its own
    # detail, not a negative degree cast from a float (the suite's warnings
    # are errors, so the cast's RuntimeWarning would fail here too).
    write_c5(tmp_path / "c5.plg")
    main(["embed-sub1", "--beta", "0.5", "--in", str(tmp_path / "c5.plg"),
          "--out", str(tmp_path / "e.plg"), "--report", str(tmp_path / "e.json")])
    (tmp_path / "e.plg").write_text(text)
    capsys.readouterr()
    code = main(["verify", "--plg", str(tmp_path / "e.plg"),
                 "--report", str(tmp_path / "e.json"), "--in", str(tmp_path / "c5.plg")])
    assert code == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert next(c["detail"] for c in checks if c["check"] == "conformance") == detail


# -- every claim of a report is checked -------------------------------------------


def _bump(*path):
    """A forge that adds 1 to the number at ``path``."""

    def forge(doc):
        for p in path[:-1]:
            doc = doc[p]
        doc[path[-1]] += 1

    return forge


def _floated(*path):
    """A forge that makes the int at ``path`` an equal float."""

    def forge(doc):
        for p in path[:-1]:
            doc = doc[p]
        doc[path[-1]] = float(doc[path[-1]])

    return forge


def _add_empty_part(doc):
    # An empty part at the end of the vertex range, claiming one clique.
    n = max(part["range"][1] for part in doc["parts"].values())
    doc["parts"]["G3"] = {"range": [n, n]}
    doc["is_upper_bounds"]["G3"] = 1.0


@pytest.fixture(scope="module")
def c5_embeddings(tmp_path_factory):
    """(input, output graph, report) paths of embed-sub1 at beta 0.5, of
    embed-beta1 at d = 4, seed 3, k = 2 and of embed-beta1 at d = 4, seed 1,
    k = 1, on C5."""
    root = tmp_path_factory.mktemp("c5")
    write_c5(root / "c5.plg")
    argv = {
        "sub1": ["embed-sub1", "--beta", "0.5"],
        "beta1": ["embed-beta1", "--d", "4", "--seed", "3", "--k", "2"],
        "beta1-k1": ["embed-beta1", "--d", "4", "--seed", "1", "--k", "1"],
    }
    paths = {}
    for kind, embed in argv.items():
        out, rep = root / f"{kind}.plg", root / f"{kind}.json"
        assert main([*embed, "--in", str(root / "c5.plg"), "--out", str(out), "--report", str(rep)]) == 0
        paths[kind] = (root / "c5.plg", out, rep)
    return paths


@pytest.mark.parametrize(
    "kind, forge, failed",
    [
        # Each field schema 2 dropped, written back with the value schema 1
        # gave it on this report, fails the check of the entry that holds it.
        pytest.param(
            "sub1", _set("certificates", "G1", "clique_sizes", [2, 2, 2, 3, 3, 1]), ["certificates"], id="clique_sizes"
        ),
        pytest.param("sub1", _set("certificates", "G2", "p_values", [10, 15, 22, 32]), ["certificates"], id="p_values"),
        pytest.param("sub1", _set("certificates", "G1", "is_upper_bound", 6), ["certificates"], id="is_upper_bound"),
        pytest.param("sub1", _set("certificates", "G1", "parity_deficit", 1), ["certificates"], id="parity_deficit"),
        pytest.param("sub1", _set("parts", "G1", "size", 13), ["parts"], id="part-size"),
        pytest.param(
            "sub1",
            _set("conformance", {"ok": True, "deficits": [[44, 40], [57, 3]], "mismatched_buckets": {}}),
            ["schema"],
            id="conformance",
        ),
        pytest.param("sub1", _set("extras", "log_base", "natural"), ["bounds"], id="log_base"),
        pytest.param(
            "sub1", _set("certificates", "G1", "parity_deficit_vertex", None), ["certificates"], id="deficit-vertex-null"
        ),
        pytest.param(
            "sub1", _bump("certificates", "G1", "parity_deficit_vertex"), ["certificates"], id="deficit-vertex-moved"
        ),
        pytest.param(
            # G2's deficit vertex is declared, but lies outside G1.
            "sub1", _set("certificates", "G1", "parity_deficit_vertex", 44), ["certificates"], id="deficit-vertex-of-G2"
        ),
        pytest.param(
            "sub1", _bump("parity_deficits", 1, 0), ["conformance", "certificates"], id="deficit-undeclared"
        ),
        pytest.param("sub1", _bump("is_upper_bounds", "G1"), ["certificates"], id="is_upper_bounds-part"),
        pytest.param("beta1", _bump("is_upper_bounds", "D"), ["certificates"], id="is_upper_bounds-block"),
        pytest.param("sub1", _add_empty_part, ["certificates"], id="is_upper_bounds-empty-part"),
        pytest.param("beta1", _set("kind", "beta1x"), ["schema"], id="kind"),
        # An integer leaf is a plain int: an equal float fails.
        pytest.param("beta1", _floated("extras", "witness_walk_count"), ["witness"], id="walk-count-float"),
        pytest.param("beta1", _floated("extras", "n_d"), ["embedded"], id="n-d-float"),
        pytest.param("beta1", _floated("extras", "product_max_degree"), ["embedded"], id="max-degree-float"),
        pytest.param("beta1", _floated("extras", "is_g"), ["bounds"], id="is-g-float"),
        # A bool in place of an integer, or an int in place of a bool: the
        # walk product is not rebuilt from seed True or k True, as from a
        # float (seed-float, k-float).
        pytest.param("beta1-k1", _set("extras", "seed", True), ["witness", "bounds", "embedded"], id="seed-bool"),
        pytest.param("beta1-k1", _set("extras", "k", True), ["witness", "bounds", "embedded"], id="k-bool"),
        pytest.param("beta1-k1", _set("extras", "is_g_optimal", 1), ["bounds"], id="is-g-optimal-int"),
    ],
)
def test_cli_verify_fails_forged_claim(c5_embeddings, tmp_path, capsys, kind, forge, failed):
    src, out, rep = c5_embeddings[kind]
    doc = json.loads(rep.read_text())
    forge(doc)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(forged), "--in", str(src)]) == 1
    assert failing(json.loads(capsys.readouterr().out)["checks"]) == failed


@pytest.mark.parametrize("kind", ["sub1", "beta1"])
def test_report_extras_are_the_input_table_and_the_derived_leaves(c5_embeddings, kind):
    # The embedders write exactly their kind's INPUT_EXTRAS, and the leaves
    # derived from the params are the params and the bounds alone, so
    # verify's list of allowed extras is the one the embedders use.
    _, _, rep = c5_embeddings[kind]
    doc = json.loads(rep.read_text())
    assert doc["extras"].keys() == set(INPUT_EXTRAS[kind])
    params = (Sub1Params if kind == "sub1" else Beta1Params).from_dict(doc["params"])
    derived = sub1_leaves(params) if kind == "sub1" else beta1_leaves(params, doc["extras"])
    assert derived == {"params": doc["params"], "bounds": doc["bounds"]}
    with pytest.raises(InternalError, match="sub1 input extras"):
        input_extras("sub1", witness_source_vertices=[0], foo=1)
    with pytest.raises(InternalError, match="beta1 input extras"):
        input_extras("beta1", seed=1)


@pytest.mark.parametrize("kind", ["sub1", "beta1"])
def test_cli_verify_fails_unknown_report_key(c5_embeddings, tmp_path, capsys, kind):
    src, out, rep = c5_embeddings[kind]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps({**json.loads(rep.read_text()), "foo": 1}))
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(forged), "--in", str(src)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "schema": "plg-report/2",
        "ok": False,
        "checks": [{"check": "schema", "ok": False, "detail": "foo is not a report entry"}],
    }


def test_cli_verify_fails_schema_1_report(c5_embeddings, tmp_path, capsys):
    # A report in the schema before this one is not read: it fails with one
    # schema check, whatever else it holds.
    src, out, rep = c5_embeddings["sub1"]
    doc = json.loads(rep.read_text())
    doc["schema"] = "plg-report/1"
    doc["conformance"] = {"ok": True, "deficits": doc["parity_deficits"], "mismatched_buckets": {}}
    forged = tmp_path / "v1.json"
    forged.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(forged), "--in", str(src)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [{"check": "schema", "ok": False, "detail": "unknown schema"}]


@pytest.mark.parametrize("n_d", [1e14, 3e14])
def test_verify_fails_forged_beta1_record_before_exact_sums(c5_embeddings, n_d):
    # A consistent record whose delta passes the output's vertex count leaves
    # some degree class 1..delta empty; it fails before the seconds of exact
    # sums its layered bound would take.
    _, out, rep = c5_embeddings["beta1"]
    doc = json.loads(rep.read_text())
    doc["params"] = Beta1Params(n_d, 0).to_dict()
    plg = read_graph(out.read_bytes())
    start = time.perf_counter()
    record = _check_bounds(plg, doc)
    assert time.perf_counter() - start < 0.5
    want = f"params: delta {Beta1Params(n_d, 0).delta} exceeds the graph's {plg.vertex_count} vertices"
    assert record == {"check": "bounds", "ok": False, "detail": want}


def test_cli_verify_fails_input_with_loop(c5_embeddings, tmp_path, capsys):
    # The sub1 rebuild doubles the input with ``double_graph``, which refuses
    # a self-loop, so the witness and the block fail against C5 plus a loop.
    _, out, rep = c5_embeddings["sub1"]
    looped = MultiGraph(5, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    (tmp_path / "looped.plg").write_text(write_graph(looped))
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(rep), "--in", str(tmp_path / "looped.plg")]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert failing(checks) == ["witness", "embedded"]
    assert {c["detail"] for c in checks if not c["ok"]} == {"embedding requires a simple input graph"}


def _leaves(node, path=()):
    """(path, value) of every scalar, empty list and empty dict in ``node``."""
    if isinstance(node, (dict, list)) and node:
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(value, (*path, key))
    else:
        yield path, node


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return 0
    return [0] if isinstance(value, list) else {"0": 0}


# Report leaves whose value verify still trusts, as path prefixes, with the
# reason.  Their type is checked: a forgery of type alone fails.
_TRUSTED = {
    "sub1": {},
    "beta1": {
        "extras/is_g_optimal": "is_g is not certified against the input, so neither is its optimality flag",
    },
}


@pytest.mark.parametrize("kind", ["sub1", "beta1"])
def test_verify_fails_every_forged_leaf(kind):
    # The golden beta = 0.5 and k = 2 reports: a change to any one leaf
    # outside the trusted list fails a check, and a trusted one changed in
    # value alone passes.  Each leaf is changed in value (``_perturbed``), and
    # each bool and each int 0 or 1 also in type alone: a bool becomes its
    # int, the int its bool.
    from plg import _jsonio, embed_beta1

    if kind == "sub1":
        src = read_graph(_SUB1_INPUT)
        g, rep = embed_sub1(src, 0.5)
    else:
        src = read_graph(_BETA1_INPUT)
        g, rep = embed_beta1(src, 4, 3, 2)
    base = json.loads(_jsonio.dumps(rep))
    assert verify_embedding(g, base, src)["ok"]
    forgeries = [(path, value, _perturbed(value)) for path, value in _leaves(base)]
    forgeries += [
        (path, value, int(value) if type(value) is bool else bool(value))
        for path, value in _leaves(base)
        if type(value) in (bool, int) and value in (0, 1)
    ]
    passed, trusted, used = [], [], set()
    for path, value, forged in forgeries:
        name = "/".join(map(str, path))
        prefix = next((p for p in _TRUSTED[kind] if name == p or name.startswith(p + "/")), None)
        if prefix is not None and type(forged) is type(value):
            trusted.append(name)
            used.add(prefix)
        doc = copy.deepcopy(base)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = forged
        if verify_embedding(g, doc, src)["ok"]:
            passed.append(name)
    assert passed == trusted
    assert used == set(_TRUSTED[kind])  # no entry outlives its leaf
