"""Seeded inputs and operation lists of the workloads.

Every operation is one ``plg`` command line.  A workload is a fixed round of
operations that the timed phase repeats whole, so each run attempts the same
mix and the share of expected failures is the same in every run.  ``embed``
is the round of ``embed-sub1`` followed by that of ``embed-beta1``, on the
same inputs as those two; ``embed`` and ``verify`` are the benchmark's
workloads, and the others can be run by hand.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks

# dist: alpha near 11.5 puts e^alpha ~ 1e5 levels in each exact sum, for
# either beta, so both operations take about as long; at beta = 1 delta stays
# under the 100000 at which plg stops listing the counts.
DIST_ALPHA, DIST_BETAS = 11.5, (1.0, 0.75)
# embed-sub1: 20 input vertices at beta = 0.8 give ~4.5k output vertices and
# ~380k distinct edges, whatever the edges are.
SUB1_N, SUB1_M, SUB1_BETA, SUB1_INPUTS = 20, 38, 0.8, 2
# embed-beta1: k = 2 walks over a 4-regular expander on 64 vertices.  Cost
# depends on the input's structure, so a round holds four inputs.
BETA1_N, BETA1_M, BETA1_D, BETA1_K, BETA1_INPUTS = 64, 128, 4, 2, 4
# verify: embed-sub1 outputs of 12-vertex inputs (~1.9 MB, whatever the
# edges) are larger than any embed-beta1 output here, so they set the peak
# memory, and as four of the five operations they hold the median.
VERIFY_SUB1_N, VERIFY_SUB1_M = 12, 22
# The 2-swap copy comes from a fixed input, so its known fault does not
# depend on the seed.
SWAP_INPUT_SEED = 2015


@dataclass
class Op:
    """One CLI call; ``check`` validates its first occurrence's outputs."""

    key: str
    argv: list[str]
    outputs: list[Path] = field(default_factory=list)
    expect_rc: int = 0
    check: object = None  # callable(rc, stdout, output texts) -> None
    precheck: object = None  # callable() -> None, run once after set-up


def random_graph(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """m distinct edges on n vertices, uniformly at random, sorted."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, m))


def write_input(path: Path, n: int, edges) -> None:
    lines = [f"p plg {n} {len(edges)}"] + [f"e {u} {v} 1" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(int.from_bytes(hashlib.sha256(f"{name}:{seed}".encode()).digest()[:8], "big"))


def dist_ops(seed: int, tmp: Path) -> list[Op]:
    rng = _rng(seed, "dist")
    ops = []
    for beta in DIST_BETAS:
        alpha = round(DIST_ALPHA + rng.uniform(0, 0.01), 4)
        x = round(rng.uniform(0.05, 0.5), 3)
        y = 1.0 if beta != 1 else round(rng.uniform(x + 0.1, 1.0), 3)
        argv = ["dist", "--alpha", str(alpha), "--beta", str(beta), "--interval", str(x), str(y)]

        def check(rc, stdout, texts, alpha=alpha, beta=beta, x=x, y=y):
            checks.check_dist(alpha, beta, (x, y), stdout)

        ops.append(Op(f"dist-{beta}", argv, check=check))
    return ops


def _sub1_op(key: str, tmp: Path, n: int, edges, beta: float) -> Op:
    src, out, rep = tmp / f"{key}.in", tmp / f"{key}.plg", tmp / f"{key}.json"
    write_input(src, n, edges)
    argv = ["embed-sub1", "--beta", str(beta), "--in", str(src), "--out", str(out), "--report", str(rep)]

    def check(rc, stdout, texts):
        checks.check_sub1(edges, beta, texts[0], texts[1])

    return Op(key, argv, [out, rep], check=check)


def _beta1_op(key: str, tmp: Path, edges, seed: int) -> Op:
    src, out, rep = tmp / f"{key}.in", tmp / f"{key}.plg", tmp / f"{key}.json"
    write_input(src, BETA1_N, edges)
    argv = ["embed-beta1", "--in", str(src), "--d", str(BETA1_D), "--k", str(BETA1_K), "--seed", str(seed)]
    argv += ["--out", str(out), "--report", str(rep)]

    def check(rc, stdout, texts):
        from plg import random_regular_expander

        checks.check_beta1(edges, BETA1_N, texts[0], texts[1], random_regular_expander)

    return Op(key, argv, [out, rep], check=check)


def sub1_ops(seed: int, tmp: Path) -> list[Op]:
    rng = _rng(seed, "embed-sub1")
    return [
        _sub1_op(f"sub1-{i}", tmp, SUB1_N, random_graph(SUB1_N, SUB1_M, rng), SUB1_BETA)
        for i in range(SUB1_INPUTS)
    ]


def beta1_ops(seed: int, tmp: Path) -> list[Op]:
    rng = _rng(seed, "embed-beta1")
    return [
        _beta1_op(f"beta1-{i}", tmp, random_graph(BETA1_N, BETA1_M, rng), rng.randrange(1 << 16))
        for i in range(BETA1_INPUTS)
    ]


def embed_ops(seed: int, tmp: Path) -> list[Op]:
    """Both embedders in one round: the two embed-sub1 operations take about
    two thirds of its time and the four embed-beta1 operations the rest."""
    return sub1_ops(seed, tmp) + beta1_ops(seed, tmp)


def verify_sources(seed: int, tmp: Path) -> list[Op]:
    """The embed operations whose outputs the verify workload reads."""
    rng = _rng(seed, "verify")
    fixed = _rng(SWAP_INPUT_SEED, "verify-swap")
    vn, vm = VERIFY_SUB1_N, VERIFY_SUB1_M
    return [
        _sub1_op("v-sub1-0", tmp, vn, random_graph(vn, vm, rng), SUB1_BETA),
        _sub1_op("v-sub1-1", tmp, vn, random_graph(vn, vm, rng), SUB1_BETA),
        _beta1_op("v-beta1", tmp, random_graph(BETA1_N, BETA1_M, rng), rng.randrange(1 << 16)),
        _sub1_op("v-swap", tmp, vn, random_graph(vn, vm, fixed), SUB1_BETA),
    ]


def delete_clique_edge(text: str, report: dict) -> str:
    """Drop one edge of the last certificate clique with two or more members,
    so that verifying the copy walks every other clique first."""
    g = checks.parse_graph(text)
    start, _stop = [
        (s, t) for name in sorted(report["certificates"]) for s, t in report["certificates"][name]["cliques"] if t - s >= 2
    ][-1]
    keep = g.keys != start * g.n + start + 1
    return checks.format_graph(checks.with_edges(g, g.u[keep], g.v[keep], g.m[keep]))


def two_swap(text: str, report: dict) -> str:
    """A degree-preserving 2-swap (a,b),(c,d) -> (a,c),(b,d) inside the embedded
    block that changes the subgraph induced on {2i} and keeps the witness
    independent, so only a check of the whole embedded block can see it."""
    g = checks.parse_graph(text)
    lo, hi = report["parts"]["Gprime"]["range"]
    witness = set(report["witness"])
    present = set(zip(g.u.tolist(), g.v.tolist()))
    block = [
        (a, b)
        for a, b, m in zip(g.u.tolist(), g.v.tolist(), g.m.tolist())
        if lo <= a and b < hi and a // 2 != b // 2 and m == 1
    ]
    for i, (a, b) in enumerate(block):
        for c, d in block[i + 1 :]:
            if len({a, b, c, d}) < 4 or (a % 2 or b % 2) and (c % 2 or d % 2):
                continue
            new = [(min(a, c), max(a, c)), (min(b, d), max(b, d))]
            if any(e in present or e[0] // 2 == e[1] // 2 for e in new):
                continue
            if any(e[0] in witness and e[1] in witness for e in new):
                continue
            keep = (g.keys != a * g.n + b) & (g.keys != c * g.n + d)
            u = g.u[keep].tolist() + [e[0] for e in new]
            v = g.v[keep].tolist() + [e[1] for e in new]
            m = g.m[keep].tolist() + [1, 1]
            return checks.format_graph(checks.with_edges(g, u, v, m))
    raise checks.CheckError("no 2-swap found in the embedded block")


def prepare_verify(seed: int, tmp: Path) -> None:
    """Make the verify workload's files: embed with the CLI, then tamper.

    Runs in its own process so the verify workload's peak memory is that of
    verification alone.
    """
    import json

    from plg import cli

    for op in verify_sources(seed, tmp):
        if cli.main(op.argv) != 0:
            raise SystemExit(f"set-up command failed: plg {' '.join(op.argv)}")
    for src, name, tamper in (("v-sub1-0", "v-cut", delete_clique_edge), ("v-swap", "v-swap", two_swap)):
        report = json.loads((tmp / f"{src}.json").read_text())
        (tmp / f"{name}.plg").write_text(tamper((tmp / f"{src}.plg").read_text(), report))
        if name != src:
            (tmp / f"{name}.json").write_text((tmp / f"{src}.json").read_text())
            (tmp / f"{name}.in").write_text((tmp / f"{src}.in").read_text())


def verify_ops(seed: int, tmp: Path, root: Path) -> list[Op]:
    """Genuine outputs of both embedders, one copy missing a clique edge, and
    one 2-swapped copy.  Both tampered copies must be rejected (exit 1); the
    2-swap is accepted today, so that operation fails in every round."""
    worker = Path(__file__).resolve().parent / "worker.py"
    cmd = [sys.executable, str(worker), "--prepare-verify", str(tmp), "--seed", str(seed)]
    if subprocess.run(cmd, cwd=root, timeout=120).returncode != 0:
        raise SystemExit("verify set-up failed")
    sources = {op.key: op for op in verify_sources(seed, tmp)}
    ops = []
    for name, src, ok in (
        ("v-sub1-0", "v-sub1-0", True),
        ("v-beta1", "v-beta1", True),
        ("v-sub1-1", "v-sub1-1", True),
        ("v-cut", "v-sub1-0", False),
        ("v-swap", "v-swap", False),
    ):
        files = [tmp / f"{name}.plg", tmp / f"{name}.json", tmp / f"{name}.in"]
        argv = ["verify", "--plg", str(files[0]), "--report", str(files[1]), "--in", str(files[2])]

        def check(rc, stdout, texts, ok=ok):
            checks.check_verify(ok, rc, stdout)

        def precheck(files=files, embed_check=sources[src].check, ok=ok):
            """The file is what it claims to be: genuine ones pass the
            independent checks, tampered ones fail them."""
            try:
                embed_check(0, "", [files[0].read_text(), files[1].read_text()])
            except checks.CheckError:
                checks.require(not ok, f"{files[0].name}: genuine output fails its check")
            else:
                checks.require(ok, f"{files[0].name}: tampered copy passes the checks")

        ops.append(Op(name, argv, expect_rc=0 if ok else 1, check=check, precheck=precheck))
    return ops


def build(workload: str, seed: int, tmp: Path, root: Path) -> list[Op]:
    if workload == "dist":
        return dist_ops(seed, tmp)
    if workload == "embed-sub1":
        return sub1_ops(seed, tmp)
    if workload == "embed-beta1":
        return beta1_ops(seed, tmp)
    if workload == "embed":
        return embed_ops(seed, tmp)
    if workload == "verify":
        return verify_ops(seed, tmp, root)
    raise SystemExit(f"unknown workload {workload!r}")


WORKLOADS = ("dist", "embed-sub1", "embed-beta1", "embed", "verify")
