"""In-memory span tracing of the dualbern layers, from outside the library.

Every public function defined in ``dualbern.{ratmat,bernstein,subspace,
symmetric,operators,cli}`` is wrapped, and the wrapper is installed under
every name that binds the function in any ``dualbern`` module namespace: the
modules import each other with ``from .x import y``, so patching only the
defining module would miss most calls.  ``ratmat.binomial`` is left alone: it
is a scalar helper called per matrix entry, and wrapping it would multiply
its cost; its time stays in its callers' self time.

A span is ``(id, parent, job, name, t0, t1)``; spans are kept in memory up
to ``MAX_SPANS`` and written as JSON lines by :meth:`Tracer.write`.  Call
counts and self times (span time minus the time of its child spans) are
accumulated for every call, so they stay exact when spans are dropped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("ratmat", "bernstein", "subspace", "symmetric", "operators", "cli")
UNTRACED = {"ratmat.binomial"}
MAX_SPANS = 50_000  # about 5 MB of JSON lines


def traced_functions() -> dict:
    """``{"module.name": function}`` for every function the tracer wraps."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"dualbern.{layer}")
        for name, obj in vars(mod).items():
            qual = f"{layer}.{name}"
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
                and qual not in UNTRACED
            ):
                out[qual] = obj
    return out


def _max_bits(mat) -> int:
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in mat.entries)


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.mat_inv_dim_cubed = 0
        self.mat_inv_max_bits = 0
        self._next_id = 0
        self._stack = []  # open spans: [id, t0, time covered by children]
        self._job = None
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, t1, t_end):
        """Close ``frame``; [t0, t1] is the span, [t1, t_end] tracer
        bookkeeping that the parent must not count as its own time."""
        self._stack.pop()
        sid, t0, child = frame
        self.calls[name] += 1
        self.self_s[name] += (t1 - t0) - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += t_end - t0
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent[0] if parent else None, self._job, name, t0, t1))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def job(self, job_id: int, name: str):
        """The root span of one benchmark job; library spans inside carry its id."""
        self._job = job_id
        frame = self._open()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._close(frame, name, t1, t1)
            self._job = None

    def _wrap(self, name, fn):
        is_inv = name == "ratmat.mat_inv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                if is_inv and ok:
                    self.mat_inv_dim_cubed += result.rows**3
                    self.mat_inv_max_bits = max(self.mat_inv_max_bits, _max_bits(result))
                self._close(frame, name, t1, perf_counter())

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in traced_functions().items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "dualbern" and not modname.startswith("dualbern."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------------

    def layer_self_s(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix + "."))

    def write(self, path, header: dict):
        """JSON lines: one header object, then one object per kept span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for sid, parent, job, name, t0, t1 in self.spans:
                span = {"id": sid, "parent": parent, "job": job, "name": name, "t0": t0, "t1": t1}
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
