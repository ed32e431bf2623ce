"""In-memory span recorder that times calls into helmmg from the outside.

A traced run rebinds module-level names (``helmmg.mg.cycle``,
``helmmg.certificate.spectral_norm``, ...) to timing wrappers and restores
the originals afterwards.  Callers inside helmmg look those names up as
module globals at call time, so the wrappers see every call, including
each recursive ``cycle`` visit.  Nothing in helmmg is edited.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One timed call: name, interval, causing span and operation id."""

    id: int
    name: str
    start: float
    parent: int  # -1 for a root span
    run: int  # operation id shared by a root span and its descendants
    root: str  # name of the root span, e.g. "solve" or "row.conv1"
    level: int = -1  # multigrid level, inherited from the enclosing cycle
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class SpanRecorder:
    """Collects spans; ``install`` wraps module attributes while active."""

    def __init__(self):
        self.spans = []
        self.absent = []  # "module.attr" names that no longer exist
        self.results = {}  # span name -> return values, for keep_result targets
        self._stack = []
        self._runs = 0

    def _open(self, name, level=None):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._runs += 1
        s = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            parent=parent.id if parent else -1,
            run=self._runs,
            root=parent.root if parent else name,
            level=level if level is not None else (parent.level if parent else -1),
        )
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self, s):
        s.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += s.duration

    @contextmanager
    def span(self, name):
        """Time a block as one span (used around the benchmark's own calls)."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrapper(self, orig, name, level_arg, keep_result):
        def timed(*args, **kwargs):
            level = args[level_arg] if level_arg is not None else None
            s = self._open(name, level)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(s)
            if keep_result:
                self.results.setdefault(name, []).append(out)
            return out

        return timed

    @contextmanager
    def install(self, targets):
        """Rebind each ``(module, attr, level_arg, keep_result)`` to a wrapper.

        Spans and kept results are named by ``attr``; ``level_arg`` is the
        index of the positional argument holding the multigrid level.

        A target whose attribute is missing is recorded in ``absent`` and
        skipped, so a later refactor that renames it does not stop the run.
        """
        saved = []
        try:
            for module, attr, level_arg, keep in targets:
                orig = getattr(module, attr, None)
                if not callable(orig):
                    self.absent.append(f"{module.__name__}.{attr}")
                    continue
                setattr(module, attr, self._wrapper(orig, attr, level_arg, keep))
                saved.append((module, attr, orig))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for s in self.spans:
                row = asdict(s)
                row.pop("child_s")
                f.write(json.dumps(row) + "\n")
