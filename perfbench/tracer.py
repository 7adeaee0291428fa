"""Span tracing of rankdec from outside the package.

The tracer replaces public functions of the layer modules with timing
wrappers.  A function is replaced wherever a caller looks it up: in its
defining module and in every other rankdec module (or the package
namespace) that bound the same object at import time, for example
``codes.weight_counts``.  Functions imported at call time (detection
imports the ``systems`` functions inside its body) resolve to the
module attribute and so see the wrapper too.  Methods are replaced on
their class.

Scalar field arithmetic (``FieldContext.mul``/``add``/``inv``/...) is
never wrapped: per-element calls would measure the tracer, so that work
shows up as the self time of whichever traced function called it.

Spans (id, parent, name, start, end, self time, error kind, instance)
are kept in compact arrays in memory and written out once at the end.
Self time is the duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import threading
import time
from array import array
from contextlib import contextmanager

#: the layer modules, in the order they are reported
LAYERS = ("fields", "subspaces", "codes", "enumeration", "systems", "linalg",
          "analysis")

#: public functions that are per-element helpers or generators; wrapping
#: them would time the tracer or only the generator's creation
SKIP = {
    "fields.divisors",
    "enumeration.message_from_index",
    "enumeration.index_of_message",
}

#: public methods worth a span (never the scalar arithmetic)
METHODS = {
    "fields": {"FieldContext": ("__init__", "elements_of_degree",
                                "find_element_of_degree", "q_tables",
                                "fp_basis_of_subfield", "subfield_elements",
                                "minimal_polynomial")},
    "codes": {"RankCode": ("with_decomposition", "relabeled")},
    "systems": {"System": ("__init__",)},
    "linalg": {"RowSpace": ("__init__", "sum")},
}

ERR_NONE, ERR_OTHER, ERR_CAP = 0, 1, 2


class Tracer:
    """Installs wrappers on the rankdec layer modules and records spans."""

    def __init__(self, extras=None, cpu_names=()):
        # extras: span name -> callable(args, kwargs) -> dict of numbers
        # recorded with the span (computed from sizes, not measured);
        # cpu_names: spans that also record process CPU time
        self._extras = extras or {}
        self._cpu_names = frozenset(cpu_names)
        self._local = threading.local()
        self._names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self.cpus = array("d")
        self.errors = array("b")
        self.instances = array("q")
        self.extra: dict[int, dict] = {}
        self._next_id = 0
        # (holder, attribute, original, wrapper)
        self._plan: list[tuple[object, str, object, object]] = []
        self.instance_id = -1
        self._cap_error = ()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, package):
        """Plan the wrappers for the public functions and selected
        methods of each layer; :meth:`enable` applies them."""
        from rankdec.errors import CapExceededError

        self._cap_error = CapExceededError
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                        or f"{layer}.{attr}" in SKIP):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._plan.append((holder, hattr, fn, wrapper))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    label = cls_name if meth == "__init__" else f"{cls_name}.{meth}"
                    self._plan.append((cls, meth, fn,
                                       self._wrap(f"{layer}.{label}", fn)))

    def enable(self):
        for obj, attr, _, wrapper in self._plan:
            setattr(obj, attr, wrapper)

    def disable(self):
        for obj, attr, original, _ in self._plan:
            setattr(obj, attr, original)

    def _wrap(self, name, fn):
        tracer = self
        extras = self._extras.get(name)
        cpu = name in self._cpu_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(cpu)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame, name, tracer.error_kind(exc))
                raise
            tracer.exit(frame, name, ERR_NONE,
                        extras(args, kwargs) if extras is not None else None)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def error_kind(self, exc) -> int:
        return ERR_CAP if isinstance(exc, self._cap_error) else ERR_OTHER

    def enter(self, cpu=False):
        """Open a span; returns the frame to pass to :meth:`exit`."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else None
        # id, time covered by children, parent frame, cpu start, start
        frame = [sid, 0.0, parent, time.process_time() if cpu else None, 0.0]
        stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def exit(self, frame, name, err=ERR_NONE, extra=None):
        t1 = time.perf_counter()
        self._local.stack.pop()
        sid, covered, parent, c0, t0 = frame
        dur = t1 - t0
        if parent is not None:
            parent[1] += dur
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self._names)
            self._names.append(name)
        self.ids.append(sid)
        self.parents.append(parent[0] if parent is not None else -1)
        self.name_ids.append(idx)
        self.starts.append(t0)
        self.ends.append(t1)
        self.selfs.append(dur - covered)
        self.cpus.append(time.process_time() - c0 if c0 is not None else 0.0)
        self.errors.append(err)
        self.instances.append(self.instance_id)
        if extra:
            self.extra[sid] = extra

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (setup, one instance)."""
        frame = self.enter()
        try:
            yield
        except BaseException as exc:
            self.exit(frame, name, self.error_kind(exc))
            raise
        self.exit(frame, name)

    def __len__(self):
        return len(self.ids)

    def name(self, i: int) -> str:
        return self._names[self.name_ids[i]]

    def write(self, path):
        """Spans as gzip JSON lines: id, parent, name, start, end, self,
        error kind, instance, extras."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.ids)):
                rec = [self.ids[i], self.parents[i], self.name(i),
                       round(self.starts[i], 7), round(self.ends[i], 7),
                       round(self.selfs[i], 7), self.errors[i],
                       self.instances[i]]
                ex = self.extra.get(self.ids[i])
                if ex:
                    rec.append(ex)
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
