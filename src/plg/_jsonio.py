"""Deterministic JSON: sorted keys, floats at 17 significant digits."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields

import numpy as np


class Record:
    """Dataclass mixin for records that round-trip through reports:
    ``to_dict`` is ``asdict``, and ``from_dict`` its inverse, which reads
    only the ``init`` fields, those that define the record: a frozen record
    derives the others in ``__post_init__`` with ``_set_derived``."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.init})

    def _set_derived(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)


def _fmt_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise ValueError("reports must not contain NaN or infinity")
    return format(v, ".17g")


def _emit(obj, out: list[str]) -> None:
    if type(obj) in (list, tuple) and all(type(x) is int for x in obj):
        # Plain ints (not bools) print as str does: one join for the list.
        out.append("[" + ", ".join(map(str, obj)) + "]")
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, (np.integer, int)):
        out.append(str(int(obj)))
    elif isinstance(obj, (np.floating, float)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        keys = sorted(obj, key=str)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(": ")
            _emit(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed float format, trailing newline."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out) + "\n"
