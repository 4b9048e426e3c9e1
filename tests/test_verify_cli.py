import copy
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from plg import MultiGraph, alon_interval, embed_sub1, read_graph, verify_embedding, write_graph
from plg.cli import main
from plg.errors import InternalError
from plg.model import PowerLawParams, degree_counts
from plg.verify import _check_certificates, _check_conformance


def failing(checks):
    return [c["check"] for c in checks if not c["ok"]]


def test_verify_untampered(c5):
    g, rep = embed_sub1(c5, 0.5)
    res = verify_embedding(g, rep, c5)
    assert res.ok
    assert failing(res.checks) == []


def test_verify_detects_deleted_edge(c5):
    g, rep = embed_sub1(c5, 0.5)
    edges = g.edge_dict()
    key = max(edges)  # drop an edge inside the last fill clique
    del edges[key]
    mutated = MultiGraph(g.vertex_count, edges, g.labels)
    res = verify_embedding(mutated, rep, c5)
    assert not res.ok
    bad = failing(res.checks)
    assert "conformance" in bad
    detail = next(c["detail"] for c in res.checks if c["check"] == "conformance")
    assert "degree bucket" in detail


def test_verify_detects_bad_witness(c5):
    g, rep = embed_sub1(c5, 0.5)
    doc = rep.to_dict()
    doc["witness"] = [0, 2]  # adjacent pair copies of adjacent C5 vertices
    res = verify_embedding(g, doc, c5)
    assert not res.ok
    assert "witness" in failing(res.checks)


def test_verify_detects_tampered_bound(c5):
    g, rep = embed_sub1(c5, 0.5)
    doc = rep.to_dict()
    doc["bounds"]["g3_bound"] += 0.5
    res = verify_embedding(g, doc, c5)
    assert not res.ok
    assert "bounds" in failing(res.checks)


def test_verify_detects_broken_certificate(c5):
    g, rep = embed_sub1(c5, 0.5)
    doc = copy.deepcopy(rep.to_dict())
    doc["certificates"]["G2"]["cliques"][0][1] += 1  # clique overlaps its neighbour
    res = verify_embedding(g, doc, c5)
    assert not res.ok
    assert "certificates" in failing(res.checks)


def test_verify_detects_unjoined_pair(c5):
    g, rep = embed_sub1(c5, 0.5)
    edges = g.edge_dict()
    del edges[(0, 1)]
    res = verify_embedding(MultiGraph(g.vertex_count, edges, g.labels), rep, c5)
    assert not res.ok
    detail = next(c["detail"] for c in res.checks if c["check"] == "embedded")
    assert detail == "pair (0,1) not joined"


def test_verify_beta1(c5):
    from plg import embed_beta1

    g, rep = embed_beta1(c5, d=4, seed=3, k_override=2)
    assert verify_embedding(g, rep, c5).ok
    doc = rep.to_dict()
    doc["bounds"]["alon_hi"] *= 2
    assert not verify_embedding(g, doc, c5).ok


# -- CLI ------------------------------------------------------------------------


def write_c5(path):
    g = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    path.write_text(write_graph(g))


def test_cli_dist(capsys):
    assert main(["dist", "--alpha", "2", "--beta", "1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["delta"] == 7
    assert rec["n_exact"] == 16
    assert rec["counts"] == [7, 3, 2, 1, 1, 1, 1]
    assert rec["schema"] == "plg-report/1"


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


def test_cli_realize_roundtrip(tmp_path, capsys):
    out = tmp_path / "r.plg"
    assert main(
        ["realize", "--alpha", "2", "--beta", "1", "--from", "1", "--to", "7",
         "--out", str(out)]
    ) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["is_upper_bound"] == len(cert["clique_sizes"])
    g = read_graph(out.read_text())
    assert g.vertex_count == 16
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
    (tmp_path / "bad.plg").write_text(write_graph(MultiGraph(g.vertex_count, edges, g.labels)))
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
    swapped = MultiGraph(g.vertex_count, edges, g.labels)
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
    # before any per-vertex allocation.  Run apart, under a 2 GiB address
    # space, so that a regression fails with MemoryError, not by taking the
    # machine's memory.
    (tmp_path / "huge.plg").write_text("p plg 68719476736 1\ne 0 7 1\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    limit = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "plg.cli", *argv, "--in", "huge.plg"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
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
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    limit = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "plg.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and "cap" in proc.stderr
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
        if len(cert["cliques"]) != cert["is_upper_bound"]:
            return f"{name}: is_upper_bound does not equal the clique count"
    return ""


def test_certificate_check_matches_pairwise_reference(petersen):
    rng = random.Random(9)
    g, rep = embed_sub1(petersen, 0.5)
    base = rep.to_dict()
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
            doc["certificates"]["G1"]["is_upper_bound"] += 1
        tampered = MultiGraph(g.vertex_count, edges, g.labels)
        got = _check_certificates(tampered, doc)
        assert got["detail"] == reference_check_certificates(tampered, doc)
        assert got["ok"] == (got["detail"] == "")


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
    doc = rep.to_dict()
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


def test_conformance_fails_on_out_of_range_deficit(c5):
    g, rep = embed_sub1(c5, 0.5)
    doc = rep.to_dict()
    delta = doc["params"]["delta"]
    for t in (0, -1, delta + 2, 10**15):
        doc["parity_deficits"] = [[0, t]]
        res = verify_embedding(g, doc, c5)
        assert not res.ok and "conformance" in failing(res.checks)
    doc["parity_deficits"] = [[0, 2.5]]
    assert "conformance" in failing(verify_embedding(g, doc, c5).checks)


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
    rep = {"parts": {"P": {"range": [0, 10]}}, "certificates": {"P": {"cliques": [[0, 10]], "is_upper_bound": 1}}}
    assert _check_certificates(MultiGraph(10, k10), rep)["ok"]
    got = _check_certificates(MultiGraph(10, k10[1:]), rep)
    assert not got["ok"]
    assert got["detail"] == "P: cliques need 45 distinct edges, the graph has 44"


@pytest.mark.parametrize(
    "alpha, beta, error",
    [
        ("800", "1", "overflows"),  # e^800 is not a float
        ("5", "0.005", "overflows"),  # nor is e^1000
        ("36", "1", "floored terms"),  # about 1.3*10^8 terms
        ("12", "0.25", "2^53"),  # delta = e^48
    ],
)
def test_cli_dist_huge_alpha_exits_2(tmp_path, alpha, beta, error):
    # Refused before any work: no traceback, no hang.
    proc = _run_cli_limited(tmp_path, ["dist", "--alpha", alpha, "--beta", beta], timeout=60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and error in proc.stderr
    assert proc.stdout == ""


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
    swapped = MultiGraph(g.vertex_count, edges, g.labels)
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
    swapped = MultiGraph(g.vertex_count, edges, g.labels)
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
    # rewritten to match pass the bounds check; the expander regenerated
    # from the report's seed does not have that spectrum.
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
    detail = next(c["detail"] for c in rec["checks"] if c["check"] == "embedded")
    assert detail.startswith("lambda_1: report 0.1, expander ")


def _embedded_check(g, doc, original):
    return next(c for c in verify_embedding(g, doc, original).checks if c["check"] == "embedded")


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

    g, rep = embed_beta1(c5, d=4, seed=3, k_override=2)
    doc = copy.deepcopy(rep.to_dict())
    assert _embedded_check(g, doc, c5)["ok"]
    doc["extras"][field] = value
    got = _embedded_check(g, doc, c5)
    assert not got["ok"] and got["detail"].startswith(detail)


def test_verify_beta1_block_range(c5):
    from plg import embed_beta1

    g, rep = embed_beta1(c5, d=4, seed=3, k_override=2)
    doc = copy.deepcopy(rep.to_dict())
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

    g, rep = embed_beta1(c5, d=4, seed=3, k_override=2)
    doc = copy.deepcopy(rep.to_dict())
    doc["extras"]["witness_walk_count"] += 1
    res = verify_embedding(g, doc, c5)
    assert failing(res.checks) == ["witness"]


# -- malformed reports fail a check ---------------------------------------------------


_CHECK_ORDER = ["conformance", "parts", "certificates", "witness", "bounds", "embedded"]


def _c5_outputs(c5, kind):
    from plg import embed_beta1

    g, rep = embed_sub1(c5, 0.5) if kind == "sub1" else embed_beta1(c5, d=4, seed=3, k_override=2)
    return g, copy.deepcopy(rep.to_dict())


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


@pytest.mark.parametrize(
    "kind, forge, failed, detail",
    [
        pytest.param(
            "sub1", _delete("params", "g3_cut"), ["bounds"], "report lacks key 'g3_cut'",
            id="del-g3_cut",
        ),
        pytest.param(
            "beta1", _delete("extras", "seed"), ["witness", "embedded"], "report lacks key 'seed'",
            id="del-seed",
        ),
        pytest.param(
            "sub1", _delete("parity_deficits"), ["conformance"], "report lacks key 'parity_deficits'",
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
            "sub1", _set("parity_deficits", [5]), ["conformance"], "'int' object is not iterable",
            id="deficits-int",
        ),
        pytest.param("sub1", _set("certificates", "G1", "cliques", 0, [1]), ["certificates"], None, id="clique-short"),
        pytest.param("sub1", _set("parts", []), ["parts", "certificates", "embedded"], None, id="parts-list"),
        pytest.param(
            "beta1", _set("extras", "k", 2.5), ["witness", "embedded"], "walk product: k must be an integer, got 2.5",
            id="k-float",
        ),
        pytest.param(
            "beta1", _set("extras", "d", 4.0), ["witness", "embedded"], "walk product: d must be an integer, got 4.0",
            id="d-float",
        ),
        pytest.param(
            "beta1", _set("extras", "seed", 1.5), ["witness", "embedded"],
            "walk product: seed must be a non-negative integer, got 1.5",
            id="seed-float",
        ),
        pytest.param(
            "beta1", _set("extras", "seed", -1), ["witness", "embedded"],
            "walk product: seed must be a non-negative integer, got -1",
            id="seed-negative",
        ),
    ],
)
def test_verify_fails_malformed_report(c5, kind, forge, failed, detail):
    g, doc = _c5_outputs(c5, kind)
    forge(doc)
    res = verify_embedding(g, doc, c5)
    assert not res.ok
    assert failing(res.checks) == failed
    assert [c["check"] for c in res.checks] == _CHECK_ORDER
    if detail is not None:
        assert next(c["detail"] for c in res.checks if c["check"] == failed[0]) == detail


@pytest.mark.parametrize("report", [[1, 2], "plg-report/1", 5, None])
def test_verify_fails_report_that_is_not_an_object(c5, report):
    g, _ = embed_sub1(c5, 0.5)
    res = verify_embedding(g, report, c5)
    assert res.to_dict()["checks"] == [{"check": "schema", "ok": False, "detail": "unknown schema"}]


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
    assert verify_embedding(g, doc, c5).ok and len(calls) == 1
    doc["extras"]["n_base"] = 6
    res = verify_embedding(g, doc, c5)
    assert len(calls) == 2
    assert failing(res.checks) == ["witness", "bounds", "embedded"]
    for c in res.checks:
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
    assert res.ok and seen == _CHECK_ORDER


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
