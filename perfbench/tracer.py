"""In-memory span tracer that times calls into the public functions of `dlh`.

Each public function named in a module's ``__all__`` is wrapped, and the
wrapper is bound under every name the package looks it up by: the module
that defines it and every sibling module that imported it (for example
``dlh.holonomy.unitary_exp_i`` as well as ``dlh._linalg.unitary_exp_i``).
Nothing in the package itself changes; :meth:`Tracer.uninstall` restores the
original bindings.

A span is (name, start, end, parent). Spans live in flat arrays while the
run goes on and are written out once, at the end. The traced code runs in
one thread, so child spans never overlap and a span's self time is its
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# module -> layer name used as the metric prefix
LAYERS = {
    "dlh.cli": "cli",
    "dlh.holonomy": "holonomy",
    "dlh.oracle": "oracle",
    "dlh.displaced": "displaced",
    "dlh.connection": "connection",
    "dlh.fock": "fock",
    "dlh.params": "params",
    "dlh._linalg": "linalg",
}

def _record_steps(tracer: "Tracer", args, result) -> None:
    tracer.count("holonomy.steps", result.steps)


def _record_links(tracer: "Tracer", args, result) -> None:
    tracer.count("oracle.links", result.points)
    tracer.lowest("oracle.wilson.min_singular", result.smallest_overlap_singular)


def _record_dim(tracer: "Tracer", args, result) -> None:
    tracer.highest("displaced.max_dim", args[1].size)


# counters read off a call's arguments and result, keyed by span name
HOOKS = {
    "holonomy.holonomy_path_ordered": _record_steps,
    "oracle.wilson_loop_oracle": _record_links,
    "displaced.displacement_matrix": _record_dim,
}


class Tracer:
    """Records spans around wrapped calls and around harness tasks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def lowest(self, key: str, value: float) -> None:
        self.counters[key] = min(self.counters.get(key, value), value)

    def highest(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and rebind it wherever it is looked up."""
        modules = {name: importlib.import_module(name) for name in LAYERS}
        wrappers = {}
        for mod_name, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod_name:
                    wrappers[id(fn)] = self._wrap(fn, f"{LAYERS[mod_name]}.{attr}")
        lookups = list(modules.values()) + [sys.modules["dlh"]]
        for mod in lookups:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ---------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        """Spans as arrays: name id, parent, start, end, duration, self time, root."""
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[has_parent], dur[has_parent])
        # pointer jumping: follow parent links until every span points at its root
        root = np.where(has_parent, parent, np.arange(len(dur)))
        while True:
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": parent,
            "start": start,
            "end": end,
            "duration": dur,
            "self": dur - covered,
            "root": root,
        }

    def save(self, path: Path) -> None:
        t = self.table()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=t["name_id"],
            parent=t["parent"],
            start=t["start"],
            end=t["end"],
        )
