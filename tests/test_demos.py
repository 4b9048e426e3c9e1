"""Every narrative demo runs to completion against this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


def test_trace_targets_resolve(monkeypatch):
    # The benchmark's tracer wraps each (module, attribute) it lists and
    # fails at install on one that is gone, so a rename must fail here too.
    import importlib

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    for module, attr, _span, _count in tracing.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)
    # The graph layer's work counts read its results and one private field.
    from plg import MultiGraph, read_graph, write_graph

    count = {span: fn for _module, _attr, span, fn in tracing.TARGETS}
    g = MultiGraph(3, [(0, 1), (1, 2)], {0: "a"})
    text = write_graph(g)
    assert count["graph.build"]((g, 3), {}, None) == {"graph.build_edges": 2}
    assert count["graph.write"]((g,), {}, text) == {"graph.write_bytes": len(text)}
    assert count["graph.read"]((text,), {}, read_graph(text)) == {"graph.read_edges": 2}
