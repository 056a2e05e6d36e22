"""In-memory spans around the engine's public functions, added from outside.

``Tracer`` replaces each traced function by a wrapper under every name
that binds it in a loaded ``sembox`` module (``harness`` imports
``rhs_element_contributions`` by name, ``dynamics`` calls its own
``flux`` and ``pressure`` through module globals, and so on), and wraps
methods on their class.  A span records its name, thread, parent span,
start and end; self time is the span's duration minus its children's.
Leaving the ``with`` block restores every original.
"""

from dataclasses import dataclass
import functools
import importlib
import os
import sys
import threading
import time

# (module, function): span name is "<layer>.<function>"
FUNCTIONS = (
    ("sembox.harness", "build_discretization"),
    ("sembox.harness", "init_bubble"),
    ("sembox.mesh", "build_box_mesh"),
    ("sembox.mesh", "compute_metrics"),
    ("sembox.mesh", "build_cg_numbering"),
    ("sembox.mesh", "partition_columns"),
    ("sembox.dynamics", "rhs_element_contributions"),
    ("sembox.dynamics", "flux"),
    ("sembox.dynamics", "pressure"),
    ("sembox.dynamics", "filter_element"),
    ("sembox.storage", "write_snapshot"),
    ("sembox.time_integration", "compute_dt"),
    ("sembox.time_integration", "rk_step"),
)
# (module, class, method): span name is "<layer>.<class>.<method>"
METHODS = (
    ("sembox.reference_element", "ReferenceElement", "create"),
    ("sembox.storage", "PartitionLayout", "__init__"),
    ("sembox.storage", "PartitionLayout", "accumulate_own"),
    ("sembox.storage", "PartitionLayout", "serialize_shared"),
    ("sembox.storage", "PartitionLayout", "outgoing"),
    ("sembox.storage", "PartitionLayout", "fold_shared"),
)


@dataclass
class Span:
    name: str
    thread: int
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    count: int = 0       # items produced: halo messages
    nbytes: int = 0      # bytes produced: halo payload, snapshot file

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _count_messages(span, args, result):
    span.count = len(result)
    span.nbytes = sum(int(msg.nbytes) for msg in result.values())


def _count_file(span, args, result):
    span.nbytes = os.path.getsize(args[0])


PROBES = {
    "storage.PartitionLayout.outgoing": _count_messages,
    "storage.write_snapshot": _count_file,
}


class Tracer:
    """Context manager that wraps the traced functions while it is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []   # traced names the engine lacks
        self._local = threading.local()
        self._undo = []

    def take(self) -> list[Span]:
        """The spans recorded so far; recording continues into a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, threading.get_ident(), stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if probe is not None:
                probe(span, args, result)
            return result

        return traced

    def __enter__(self):
        self.spans, self.missing = [], []
        engine = [m for n, m in list(sys.modules.items())
                  if n == "sembox" or n.startswith("sembox.")]
        for modname, fname in FUNCTIONS:
            name = f"{modname.split('.')[1]}.{fname}"
            orig = getattr(importlib.import_module(modname), fname, None)
            if orig is None:
                self.missing.append(name)
                continue
            traced = self._wrap(name, orig)
            for mod in engine:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, orig))
        for modname, clsname, meth in METHODS:
            name = f"{modname.split('.')[1]}.{clsname}.{meth}"
            cls = getattr(importlib.import_module(modname), clsname, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is None:
                self.missing.append(name)
                continue
            if isinstance(orig, classmethod):
                traced = classmethod(self._wrap(name, orig.__func__))
            else:
                traced = self._wrap(name, orig)
            setattr(cls, meth, traced)
            self._undo.append((cls, meth, orig))
        return self

    def __exit__(self, *exc):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()
        return False
