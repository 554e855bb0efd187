"""Spans around lexseg's public functions, recorded from outside the package.

Tracer.install wraps every public function, method, property and
constructor defined in the traced modules, and rebinds each wrapped
function wherever another lexseg module imported it.  A wrapper records a
span (name, start, end, parent) only when the call crosses into its module
from another module or from the benchmark; a call inside the module is part
of the caller's span.  Names passed as `always` get a span on every call,
which is how the oracle's per-property breakdown is measured.

Spans stay in memory as parallel arrays until write() saves them.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import FunctionType, ModuleType
from typing import Iterable


def _public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.modules: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name(self, name: str, module: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.modules.append(module)
        return self._ids[name]

    def wrap(self, fn, name: str, module: str, always: bool = False):
        nid = self._name(name, module)
        stack, ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )

        def traced(*args, **kwargs):
            if not always and stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            stack.append((idx, module))
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type, short: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__":
                name = f"{short}.{cls.__name__}"
            elif _public(attr):
                name = f"{short}.{cls.__name__}.{attr}"
            else:
                continue
            if isinstance(obj, FunctionType):
                new = self.wrap(obj, name, short)
            elif isinstance(obj, property) and obj.fget is not None:
                new = property(self.wrap(obj.fget, name, short), obj.fset, obj.fdel, obj.__doc__)
            elif isinstance(obj, classmethod):
                new = classmethod(self.wrap(obj.__func__, name, short))
            elif isinstance(obj, staticmethod):
                new = staticmethod(self.wrap(obj.__func__, name, short))
            else:
                continue
            self._set(cls, attr, new)

    def install(
        self,
        modules: dict[str, ModuleType],
        namespaces: Iterable[ModuleType],
        always: dict[str, Iterable[str]] | None = None,
    ) -> list[str]:
        """Wrap the modules' public callables; returns `always` names not found."""
        always = {short: set(names) for short, names in (always or {}).items()}
        missing = [
            f"{short}.{attr}"
            for short, names in always.items()
            for attr in sorted(names)
            if not isinstance(getattr(modules[short], attr, None), FunctionType)
        ]
        replacements: dict[int, tuple[object, object]] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                forced = attr in always.get(short, ())
                if isinstance(obj, FunctionType) and (_public(attr) or forced):
                    wrapped = self.wrap(obj, f"{short}.{attr}", short, always=forced)
                    replacements[id(obj)] = (obj, wrapped)
                elif isinstance(obj, type) and _public(attr):
                    self._wrap_class(obj, short)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(ns, attr, hit[1])
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_id)

    def self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += durations[i]
        return [d - c for d, c in zip(durations, children)]

    def by_name(self) -> dict[str, tuple[int, float]]:
        """name -> (spans, total self seconds)."""
        counts = [0] * len(self.names)
        totals = [0.0] * len(self.names)
        for nid, own in zip(self.name_id, self.self_times()):
            counts[nid] += 1
            totals[nid] += own
        return {name: (counts[k], totals[k]) for k, name in enumerate(self.names)}

    def by_module(self) -> dict[str, tuple[int, float]]:
        """module -> (calls entering it from outside, total self seconds)."""
        calls: dict[str, int] = {}
        totals: dict[str, float] = {}
        mods = [self.modules[nid] for nid in self.name_id]
        for i, own in enumerate(self.self_times()):
            mod = mods[i]
            p = self.parent[i]
            if p < 0 or mods[p] != mod:
                calls[mod] = calls.get(mod, 0) + 1
            totals[mod] = totals.get(mod, 0.0) + own
        return {mod: (calls.get(mod, 0), totals[mod]) for mod in totals}

    def write(self, path: Path) -> None:
        """One JSON header line, then the raw name_id, parent, start and end arrays.

        The header gives the span count, the name and module of each name id,
        and the array order and type codes; read_spans() loads the file back.
        """
        header = {
            "count": len(self.name_id),
            "names": self.names,
            "modules": self.modules,
            "arrays": [[key, getattr(self, key).typecode] for key in SPAN_ARRAYS],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for key in SPAN_ARRAYS:
                getattr(self, key).tofile(out)


SPAN_ARRAYS = ("name_id", "parent", "start", "end")


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """(header, arrays) of a file written by Tracer.write."""
    with path.open("rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for key, code in header["arrays"]:
            arrays[key] = array(code)
            arrays[key].fromfile(f, header["count"])
    return header, arrays


def lexseg_namespaces() -> list[ModuleType]:
    """Every loaded lexseg module, where imported names must be rebound."""
    return [mod for key, mod in sys.modules.items() if key == "lexseg" or key.startswith("lexseg.")]
