"""The package's public names resolve."""

import plg


def test_every_exported_name_resolves():
    assert [name for name in plg.__all__ if not hasattr(plg, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from plg import *", namespace)
    assert set(plg.__all__) <= namespace.keys()
