"""Span tracer that wraps the public functions and methods of epidiffuse.

``Tracer.install`` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent span, operation) and
rebinds the wrapper wherever a module looks the original up: in the module
that defines it and in every module that imported it by name.  Public methods
of the classes those modules define are wrapped on the class.  ``uninstall``
restores every original, so the program runs unmodified when tracing is off.

Spans stay in memory until ``write`` saves them; ``summary`` aggregates them
into per-name call counts, inclusive time and self time (inclusive time minus
the time covered by child spans).  For the functions named in ``SIZED``, the
largest result seen, in bytes of its numpy arrays, is kept in ``result_bytes``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

import numpy as np

TRACED_MODULES = ("cli_io", "grid", "models", "objective", "solver_cn", "solver_fem", "estimate")
# the forward run stores the trajectory an adjoint sweep reads
SIZED = ("solver_cn.run_from_state",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, t0, t1, parent, op_id]
        self._stack: list[int] = []
        self.ops: list[str] = ["-"]
        self._op = 0
        self._patches: list[tuple[object, str, object]] = []
        self.result_bytes: dict[str, int] = {}
        self._cache = None

    # -- recording -----------------------------------------------------------

    def begin_op(self, label: str) -> None:
        """Tag the spans that follow with one operation label."""
        self.ops.append(label)
        self._op = len(self.ops) - 1

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, clock(), 0.0, stack[-1] if stack else -1, tracer._op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        if name not in SIZED:
            return traced
        sizes = self.result_bytes
        sizes.setdefault(name, 0)

        @functools.wraps(fn)
        def sized(*args, **kwargs):
            out = traced(*args, **kwargs)
            nbytes = sum(v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray))
            sizes[name] = max(sizes[name], nbytes)
            return out

        return sized

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public API of the traced modules of ``package``."""
        modules = [getattr(package, short) for short in TRACED_MODULES]
        wrappers: dict[int, object] = {}
        for short, mod in zip(TRACED_MODULES, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def _arrays(self):
        if self._cache is not None and self._cache[0] == len(self.spans):
            return self._cache[1]
        self._cache = (len(self.spans), self._build_arrays())
        return self._cache[1]

    def _build_arrays(self):
        if not self.spans:
            empty = np.zeros(0)
            return empty.astype(int), empty, empty.astype(int), empty.astype(int)
        arr = np.array(self.spans, dtype=float)
        name = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        op = arr[:, 4].astype(int)
        return name, dur, parent, op

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        name, dur, parent, _ = self._arrays()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
            }
        return out

    def calls_in_op(self, span_name: str, op_label: str) -> int:
        """How many spans named ``span_name`` were recorded under ``op_label``."""
        if span_name not in self._name_ids:
            return 0
        name, _, _, op = self._arrays()
        op_ids = [i for i, label in enumerate(self.ops) if label == op_label]
        return int(((name == self._name_ids[span_name]) & np.isin(op, op_ids)).sum())

    def write(self, path: Path) -> None:
        """Save every span (npz) next to a JSON index of names and operations."""
        name, dur, parent, op = self._arrays()
        start = np.array([s[1] for s in self.spans]) if self.spans else np.zeros(0)
        np.savez_compressed(path.with_suffix(".npz"), name=name, start=start,
                            duration=dur, parent=parent, op=op)
        path.with_suffix(".json").write_text(
            json.dumps({"names": self.names, "ops": self.ops}, indent=1) + "\n"
        )
