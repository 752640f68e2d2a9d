"""Spans around designkit's layer boundaries, recorded from outside the package.

The tracer rebinds, for the duration of a traced pass, every designkit
function that ``designkit.cli`` imports, plus the names that ``quantum`` and
``cpmaps`` call across modules.  Each call becomes a span (name, start, end,
parent span, request id, raised) kept in memory; the layer table is derived
from the spans when the run ends.  No file under src/designkit changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

# Names that one designkit module calls in another, beyond what the CLI imports.
INNER = {
    "designkit.quantum": ("classify_quantum", "validate", "split_by_projector"),
    "designkit.cpmaps": ("choi", "classify", "verify_hom"),
}
MODULES = ("cli", "catalog", "classical", "quantum", "linalg", "cpmaps")

# Exact counts gathered at the boundary: span name -> [(counter, f(args, result))].
COUNTERS = {
    "catalog.loads": [("catalog.loads.bytes", lambda a, out: len(a[0]))],
    "catalog.dumps": [("catalog.render.bytes", lambda a, out: len(out))],
    "catalog.canonical_json": [("catalog.render.bytes", lambda a, out: len(out))],
    "classical.classify": [("classical.classify.cells", lambda a, out: a[0].v * a[0].b)],
    "classical.search_designs": [("classical.search_designs.found", lambda a, out: len(out))],
    "quantum.classify_quantum": [
        ("quantum.classify_quantum.pairs", lambda a, out: a[0].v * (a[0].v - 1) // 2)],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.passes = 0
        self._stack: list[int] = []
        self._request = -1

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            raised = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._request, raised)
            for counter, measure in counters:
                self.counts[counter] += measure(args, out)
            return out
        return traced

    @contextlib.contextmanager
    def active(self, cli_module, rid: int):
        """Trace request ``rid``: rebind the boundary names, and restore them after."""
        self._request = rid
        saved = []
        targets = [(cli_module, attr, fn) for attr, fn in vars(cli_module).items()
                   if inspect.isfunction(fn) and fn.__module__.startswith("designkit.")
                   and fn.__module__ != cli_module.__name__]
        for modname, attrs in INNER.items():
            mod = sys.modules[modname]
            targets += [(mod, attr, getattr(mod, attr)) for attr in attrs]
        try:
            for mod, attr, fn in targets:
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{fn.__module__.split('.')[-1]}.{fn.__name__}", fn))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def request(self, main, argv):
        """Run one request under a root span ``cli.main``."""
        return self._wrap("cli.main", main)(argv)

    def table(self, src: Path) -> dict[str, float]:
        """Per-layer metrics per traced pass: busy and self time, calls, counts, source lines."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        module_self: dict[str, float] = defaultdict(float)
        raised: dict[str, int] = defaultdict(int)
        for idx, (name, start, end, _, _, err) in enumerate(self.spans):
            module = name.split(".")[0]
            module_self[module] += end - start - child[idx]
            raised[module] += err
        per = max(self.passes, 1)
        out: dict[str, float] = {}
        for name in busy:
            out[f"{name}.busy_s"] = busy[name] / per
            out[f"{name}.calls"] = calls[name] / per
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module] / per
            out[f"{module}.raised"] = raised[module] / per
        for counter, value in self.counts.items():
            out[counter] = value / per
        out["catalog.render.busy_s"] = (busy["catalog.dumps"] + busy["catalog.canonical_json"]) / per
        total = 0
        for path in sorted((src / "designkit").rglob("*.py")):
            lines = len(path.read_text(encoding="utf-8").splitlines())
            total += lines
            if path.stem in MODULES:
                out[f"{path.stem}.src_lines"] = lines
        out["src.lines"] = total
        return out
