"""Golden digests: fixed CLI calls must keep producing the same bytes.

The determinism test compares two runs of the same code; these digests pin
the output graph, the report and the ``verify`` stdout across code changes,
so a refactor that drifts a single byte fails here.  A change that alters
outputs on purpose must say so and update the digests.
"""

import hashlib

import pytest

from plg.cli import main


def _cycle_with_chords(n: int, chords: list[tuple[int, int]]) -> str:
    edges = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)} | set(chords))
    return "".join([f"p plg {n} {len(edges)}\n", *(f"e {u} {v} 1\n" for u, v in edges)])


_SUB1_INPUT = _cycle_with_chords(7, [(0, 3), (2, 5)])
_BETA1_INPUT = _cycle_with_chords(12, [(0, 6), (1, 4), (3, 9), (5, 11), (7, 10)])

# Every call verifies clean, so all share one verify stdout.
_VERIFY_OK = "9e350530833392a742b9e934eb779cfb81cab4ecbd5ee0bcfd3d735dac88c480"

# (embed argv, input text) -> sha256 of (graph file, report file, verify stdout)
GOLDEN = {
    "sub1-0.3": (
        ["embed-sub1", "--beta", "0.3"],
        _SUB1_INPUT,
        (
            "e1a9ab916252e42b73ea6d6cd95ac9fe88449d0e226cf644b24568ab0ab543bc",
            "8fe59a9fcf41a5b05649c58db3d4bb0b91bfee5a77cec1ac8ff292dea47acbf2",
            _VERIFY_OK,
        ),
    ),
    "sub1-0.5": (
        ["embed-sub1", "--beta", "0.5"],
        _SUB1_INPUT,
        (
            "bb8e50784a45466cde5725c58f53d1428f6ec6a2408878a935ed0c5f309eb962",
            "9e0fb3950fd7d5969e09170fb87066fa4542234f853fb63f8a3fbaf2b7c3cb72",
            _VERIFY_OK,
        ),
    ),
    "sub1-0.8": (
        ["embed-sub1", "--beta", "0.8"],
        _SUB1_INPUT,
        (
            "2d5b71c6cee06a34b89235d824e0ebeb1c5d0ceb1db3153022510b65bfa45df6",
            "88ac168bc420918dc8a12049a373902da31f5eb6503f101fd107730b8171765e",
            _VERIFY_OK,
        ),
    ),
    "beta1-k1": (
        ["embed-beta1", "--d", "4", "--seed", "3", "--k", "1"],
        _BETA1_INPUT,
        (
            "8e25f9e9f002df15dfa9e7cb00b8fe144919f98338378d58a05e7c04b79ef47b",
            "7e664668472f44c6f6f4de110bbd4d74078a00a540159d5afd236ed7ba1618af",
            _VERIFY_OK,
        ),
    ),
    "beta1-k2": (
        ["embed-beta1", "--d", "4", "--seed", "3", "--k", "2"],
        _BETA1_INPUT,
        (
            "9b639c6e7ef3433ca868cd49b49638de8074d4a2f049877b6441b417a5b46ae4",
            "fa677bf40bff1dccffcc074212da5a290213c0dd017c0ddba27aeed7a31febfd",
            _VERIFY_OK,
        ),
    ),
    "beta1-k3": (
        ["embed-beta1", "--d", "4", "--seed", "3", "--k", "3"],
        _BETA1_INPUT,
        (
            "758ebd7419b0a00335b413ab0ee830fc05e03509324c283c4290aba8223df907",
            # alon_lo is 0: its base r + lambda_min*(1 - r) is negative, so it
            # is clamped at 0 before the even power k - 1 = 2.
            "0c0f2c1e79babf67708a8f50d9a9d02edf8b83eb6ad06be0527a5b4f052af0a1",
            _VERIFY_OK,
        ),
    ),
}


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


# realize argv -> sha256 of (graph file, --cert JSON).  The first interval
# has 221 vertices and its parity deficit at vertex 220, so its last clique's
# fill starts from residuals not sorted by id; the second has 24,308 vertices.
GOLDEN_REALIZE = {
    "alpha5.67-14-29": (
        ["--alpha", "5.67", "--beta", "1", "--from", "14", "--to", "29"],
        (
            "9968ec6e9e8f41dfd66ed1829c34f6435ce59d771baf83e8c8db5c7a196d17bf",
            "f70fbd274808faf76579aff52c644aebfe9c9393da8f3895a90b4a9a44345467",
        ),
    ),
    "alpha8-1-2980": (
        ["--alpha", "8", "--beta", "1", "--from", "1", "--to", "2980"],
        (
            "c5843adca9f5c78bf5fe6aa0d07b3a5582246b649ad9f68bcc570fdc66a0e6dc",
            "584420a3276306b9073982837ec59d26ed52683cbe98b46e84ca9efd6cf69cef",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REALIZE))
def test_golden_realize(tmp_path, name):
    argv, want = GOLDEN_REALIZE[name]
    out, cert = tmp_path / "out.plg", tmp_path / "cert.json"
    assert main(["realize", *argv, "--out", str(out), "--cert", str(cert)]) == 0
    assert (_sha(out.read_bytes()), _sha(cert.read_bytes())) == want
