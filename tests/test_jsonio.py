import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plg import _jsonio


def _generic_dumps(obj) -> str:
    """``_jsonio.dumps`` before lists of ints had their own path: every item
    emitted on its own."""

    def emit(obj, out):
        if obj is None or obj is True or obj is False:
            out.append("null" if obj is None else ("true" if obj else "false"))
        elif isinstance(obj, (np.integer, int)):
            out.append(str(int(obj)))
        elif isinstance(obj, (np.floating, float)):
            out.append(_jsonio._fmt_float(float(obj)))
        elif isinstance(obj, str):
            out.append(json.dumps(obj, ensure_ascii=True))
        elif isinstance(obj, dict):
            out.append("{")
            for i, k in enumerate(sorted(obj, key=str)):
                if i:
                    out.append(", ")
                out.append(json.dumps(k, ensure_ascii=True))
                out.append(": ")
                emit(obj[k], out)
            out.append("}")
        else:
            out.append("[")
            for i, item in enumerate(obj):
                if i:
                    out.append(", ")
                emit(item, out)
            out.append("]")

    out: list[str] = []
    emit(obj, out)
    return "".join(out) + "\n"


_scalars = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
)
_documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
@example([1, 2, 3])
@example([True, 1, False])  # bools in an int list stay true/false
@example(([], (), [[]], [0, -1]))
@example({"a": [1, 2.5], "b": (3, 4), "c": [np.int64(5)]})
def test_dumps_matches_generic_emitter(doc):
    assert _jsonio.dumps(doc) == _generic_dumps(doc)
