"""Golden digests: fixed CLI calls must keep producing the same bytes.

The determinism test compares two runs of the same code; these digests pin
the output graph, the report and the ``verify`` stdout across code changes,
so a refactor that drifts a single byte fails here.  A change that alters
outputs on purpose must say so and update the digests.
"""

import hashlib
import json

import pytest

from plg import MultiGraph, read_graph, write_graph
from plg.cli import main


def _cycle_with_chords(n: int, chords: list[tuple[int, int]]) -> str:
    edges = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)} | set(chords))
    return "".join([f"p plg {n} {len(edges)}\n", *(f"e {u} {v} 1\n" for u, v in edges)])


_SUB1_INPUT = _cycle_with_chords(7, [(0, 3), (2, 5)])
_BETA1_INPUT = _cycle_with_chords(12, [(0, 6), (1, 4), (3, 9), (5, 11), (7, 10)])

# Every call verifies clean, so all share one verify stdout.
_VERIFY_OK = "c59f7d4a07853f2d9c4ee70bcce49f87e8ac5eb395be6f87a06407ed8fc63499"

# (embed argv, input text) -> sha256 of (graph file, report file, verify stdout)
GOLDEN = {
    "sub1-0.3": (
        ["embed-sub1", "--beta", "0.3"],
        _SUB1_INPUT,
        (
            "9c83de50797014e9dda6700b5c2f92ee905c6a92455a632098106fa83a55c58c",
            "d484cd134809526339d17078c6c475c42ee3af0d6bb404f44198ea6575ceac7a",
            _VERIFY_OK,
        ),
    ),
    "sub1-0.5": (
        ["embed-sub1", "--beta", "0.5"],
        _SUB1_INPUT,
        (
            "6d6879dd7d00a25f8e1219a634157ce389a841651911d5fcd1e82cf93f4753f8",
            "1684bfb9fb87fa36471abfe5ad775303378f3dead2a7ad16e2d048fd63aa6a84",
            _VERIFY_OK,
        ),
    ),
    "sub1-0.8": (
        ["embed-sub1", "--beta", "0.8"],
        _SUB1_INPUT,
        (
            "3781b2bc42ae9cfa6606b8f90d9cad15b53f2abb42e4ef799cd294d5a8a76a7e",
            "1e200def50437224e29c2d414b5787e05f312d2361a79f5442bbe09ffe4fbaef",
            _VERIFY_OK,
        ),
    ),
    "beta1-k1": (
        ["embed-beta1", "--d", "4", "--seed", "3", "--k", "1"],
        _BETA1_INPUT,
        (
            "1aa03eb4ebc3ea4b3d1a3771d18ed0a3b5c5658f2910c5d592a9d7317dc3fe7d",
            "46cd72b438b1d2d451f505724004bb9f66cd127d4317039d0ac9cba898a8f39a",
            _VERIFY_OK,
        ),
    ),
    "beta1-k2": (
        ["embed-beta1", "--d", "4", "--seed", "3", "--k", "2"],
        _BETA1_INPUT,
        (
            "fa3aa455f8fc8322c0e2a996044813b4c0c90283eb7a87242b8a154e247dfb44",
            "957858d6a2cc04553bb423e934ed829ccfb04a41075edefbd36c15dc3a75d513",
            _VERIFY_OK,
        ),
    ),
    "beta1-k3": (
        ["embed-beta1", "--d", "4", "--seed", "3", "--k", "3"],
        _BETA1_INPUT,
        (
            "a5ed6a5459c3321ba662ee2e08a7e644bffb6bb316fa7d2081b68f12dde06760",
            # alon_lo is 0: its base r + lambda_min*(1 - r) is negative, so it
            # is clamped at 0 before the even power k - 1 = 2.
            "dc12026e8a74b8d78b790fa9ec8574bc2825d93cb8d8387793a96dac677f0366",
            _VERIFY_OK,
        ),
    ),
}

# --k defaults to 2: the same bytes as the explicit call.
GOLDEN["beta1-k-default"] = (["embed-beta1", "--d", "4", "--seed", "3"], _BETA1_INPUT, GOLDEN["beta1-k2"][2])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(tmp_path, capsys, name):
    argv, text, want = GOLDEN[name]
    src, out, rep = tmp_path / "in.plg", tmp_path / "out.plg", tmp_path / "rep.json"
    src.write_text(text)
    assert main([*argv, "--in", str(src), "--out", str(out), "--report", str(rep)]) == 0
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(rep), "--in", str(src)]) == 0
    got = (_sha(out.read_bytes()), _sha(rep.read_bytes()), _sha(capsys.readouterr().out.encode()))
    assert got == want


def _last_clique_edge(rep: dict) -> tuple[int, int]:
    """The first pair of the last certificate clique with two or more members."""
    certs = rep["certificates"]
    start = [s for name in sorted(certs) for s, t in certs[name]["cliques"] if t - s >= 2][-1]
    return start, start + 1


# Tampered copies of golden outputs, each missing one edge: (embed argv,
# input text, the edge to drop from the report) -> sha256 of the verify
# stdout, which exits 1.
GOLDEN_TAMPERED = {
    "sub1-0.5-clique-edge": (
        ["embed-sub1", "--beta", "0.5"], _SUB1_INPUT, _last_clique_edge,
        "ebd8f260573d3e1c143138ed7b6d323eae1892746ff81c885707ed2975a3f1de",
    ),
    "beta1-k2-pair-edge": (
        ["embed-beta1", "--d", "4", "--seed", "3", "--k", "2"], _BETA1_INPUT, lambda rep: (0, 1),
        "7f1fad32ea42ae89c85470f0fcafe932dc7a7762a9ca11e517708b8547941659",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TAMPERED))
def test_golden_tampered_verify(tmp_path, capsys, name):
    argv, text, edge, want = GOLDEN_TAMPERED[name]
    src, out, rep = tmp_path / "in.plg", tmp_path / "out.plg", tmp_path / "rep.json"
    src.write_text(text)
    assert main([*argv, "--in", str(src), "--out", str(out), "--report", str(rep)]) == 0
    g = read_graph(out.read_bytes())
    edges = g.edge_dict()
    del edges[edge(json.loads(rep.read_text()))]
    out.write_text(write_graph(MultiGraph(g.vertex_count, edges)))
    capsys.readouterr()
    assert main(["verify", "--plg", str(out), "--report", str(rep), "--in", str(src)]) == 1
    assert _sha(capsys.readouterr().out.encode()) == want


# realize argv -> sha256 of (graph file, --cert JSON).  The first interval
# has 221 vertices and its parity deficit at vertex 220, so its last clique's
# fill starts from residuals not sorted by id; the second has 24,308 vertices.
GOLDEN_REALIZE = {
    "alpha5.67-14-29": (
        ["--alpha", "5.67", "--beta", "1", "--from", "14", "--to", "29"],
        (
            "9968ec6e9e8f41dfd66ed1829c34f6435ce59d771baf83e8c8db5c7a196d17bf",
            "aa4690e86b82e1b13c8fd85fb41d9ce90328a358e13c77413610ed7d383168d4",
        ),
    ),
    "alpha8-1-2980": (
        ["--alpha", "8", "--beta", "1", "--from", "1", "--to", "2980"],
        (
            "c5843adca9f5c78bf5fe6aa0d07b3a5582246b649ad9f68bcc570fdc66a0e6dc",
            "77d50e8382e9b4f073073465ee3c4307d1be3c9f435c147920f16c604e32e545",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REALIZE))
def test_golden_realize(tmp_path, name):
    argv, want = GOLDEN_REALIZE[name]
    out, cert = tmp_path / "out.plg", tmp_path / "cert.json"
    assert main(["realize", *argv, "--out", str(out), "--cert", str(cert)]) == 0
    assert (_sha(out.read_bytes()), _sha(cert.read_bytes())) == want


# Graph command argv -> sha256 of its stdout.  Alpha 12 puts delta at
# 162,754, past the counts limit, so the first prints no counts; delta is
# 5,284 in the second, so its counts are printed.
GOLDEN_STDOUT = {
    "dist-interval": (
        ["dist", "--alpha", "12", "--beta", "1", "--interval", "0.1", "0.5"],
        "261b7cfe93a3e407d5eed43eaa2a88aa22945750570f4030f21a6c81df0f784b",
    ),
    "dist-counts": (
        ["dist", "--alpha", "6", "--beta", "0.7"],
        "3e935840071d93dbf5082853d9bee777fbdb46287dc6db10498b702ea6e2a884",
    ),
    "expander": (
        ["expander", "--n", "20", "--d", "4", "--seed", "7"],
        "2e5a79e19dfbc1f71a88cf83aba05dd4c055a5b54c25f29bfeab667cd8f45829",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, name):
    argv, want = GOLDEN_STDOUT[name]
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out.encode()) == want


def test_golden_walkprod(tmp_path, capsys):
    src, out = tmp_path / "in.plg", tmp_path / "out.plg"
    src.write_text(_BETA1_INPUT)
    assert main(["walkprod", "--in", str(src), "--d", "4", "--k", "2", "--seed", "1", "--out", str(out)]) == 0
    assert (_sha(out.read_bytes()), _sha(capsys.readouterr().out.encode())) == (
        "8adcfbfe46cf7c070e0b728aee364bebfb4dd0c49e9e7af0a5d6838b8e86f3ea",
        "7318d7bbf37fb4b54e58c068e8dc5115dc1575a4206d84e6b7600bc184561d09",
    )
