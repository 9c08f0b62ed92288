"""Spans around calls into rbakit, recorded from the benchmark's side.

``Tracer.installed()`` replaces every public rbakit function (the functions
in ``rbakit.__all__``, plus ``RBA.from_text`` and ``AnalysisReport.to_json``)
in every rbakit module namespace that binds it, so calls between modules
(``report.analyze`` -> ``report.validate``, ``quaternion.symbol`` ->
``quaternion.character_table``) are spans too. Nothing under ``src/``
changes; leaving the context restores the originals.

A span records its name, start, end, parent and input id, the number of
``ToleranceConfig.rng`` calls made while it was the innermost open span
(each is one attempt of a seeded retry loop), whether it returned, and in
memory mode the tracemalloc peak of the heavy spans above what was live at
their entry. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
import tracemalloc

# span fields
NAME, START, END, PARENT, INPUT, RNG, OK, PEAK, CHILD, ID = range(10)
FIELDS = ("name", "start", "end", "parent", "input", "rng_calls", "ok", "peak_bytes",
          "child_s", "id")

# spans that get a tracemalloc peak in memory mode
HEAVY = frozenset({
    "core.from_text", "ingest.from_group", "ingest.from_scheme", "core.validate",
    "core.degree_map", "core.standardize", "decomp.center_basis",
    "decomp.central_idempotents", "decomp.character_table", "decomp.star_rep_extract",
    "report.analyze",
})


def _validate_work(counters, args, result):
    # computed from the rank: the two associativity contractions are r^5
    # multiply-adds each and each materialises an r^4 array of 8-byte items
    r = args[0].rank
    counters["core.validate.assoc_madds"] = counters.get("core.validate.assoc_madds", 0) + 2 * r**5
    counters["core.validate.assoc_bytes"] = max(counters.get("core.validate.assoc_bytes", 0),
                                                2 * 8 * r**4)


def _json_size(counters, args, result):
    counters["report.json_bytes"] = counters.get("report.json_bytes", 0) + len(result.encode())


HOOKS = {"core.validate": _validate_work, "report.to_json": _json_size}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.input_id = None
        self.memory = False
        self._stack = []
        self._heavy = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent[ID] if parent else -1, self.input_id, 0, False, 0, 0.0,
                len(self.spans)]
        self.spans.append(span)
        self._stack.append(span)
        if self.memory and name in HEAVY:
            current, peak = tracemalloc.get_traced_memory()
            if self._heavy:
                self._heavy[-1][1] = max(self._heavy[-1][1], peak)
            tracemalloc.reset_peak()
            self._heavy.append([current, current])
        span[START] = time.perf_counter()
        return span

    def _close(self, span, ok):
        end = time.perf_counter()
        span[END] = end
        span[OK] = ok
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD] += end - span[START]
        if self.memory and span[NAME] in HEAVY:
            base, peak = self._heavy.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            span[PEAK] = peak - base
            if self._heavy:
                self._heavy[-1][1] = max(self._heavy[-1][1], peak)
            tracemalloc.reset_peak()
        # a closed span becomes a tuple of atoms, which the garbage collector
        # stops tracking, so a long trace does not slow later collections
        self.spans[span[ID]] = tuple(span)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(span, ok)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch rbakit for the duration of the block."""
        import rbakit
        import rbakit.cli  # noqa: F401  (imports every module, so all namespaces exist)
        from rbakit.core import RBA, ToleranceConfig
        from rbakit.report import AnalysisReport

        wrappers = {}
        for name in rbakit.__all__:
            fn = getattr(rbakit, name)
            if inspect.isfunction(fn):
                home = fn.__module__.rsplit(".", 1)[-1]
                wrappers[fn] = self._wrap(f"{home}.{fn.__name__}", fn)
        saved = []
        modules = [m for n, m in sys.modules.items() if n == "rbakit" or n.startswith("rbakit.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

        from_text = RBA.__dict__["from_text"]
        to_json = AnalysisReport.__dict__["to_json"]
        rng = ToleranceConfig.__dict__["rng"]
        stack = self._stack

        def counted_rng(tol, attempt=0):
            if stack:
                stack[-1][RNG] += 1
            return rng(tol, attempt)

        saved += [(RBA, "from_text", from_text), (AnalysisReport, "to_json", to_json),
                  (ToleranceConfig, "rng", rng)]
        RBA.from_text = classmethod(self._wrap("core.from_text", from_text.__func__))
        AnalysisReport.to_json = self._wrap("report.to_json", to_json)
        ToleranceConfig.rng = counted_rng
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    @contextlib.contextmanager
    def memory_mode(self):
        """Record tracemalloc peaks of the heavy spans inside the block."""
        tracemalloc.start()
        self.memory = True
        try:
            yield self
        finally:
            self.memory = False
            tracemalloc.stop()


def summarize(spans) -> dict:
    """Per span name: calls, returns, self seconds, rng attempts and peak bytes."""
    out = {}
    for s in spans:
        row = out.setdefault(s[NAME], {"calls": 0, "returned": 0, "self_s": 0.0,
                                       "attempts": 0, "peak_bytes": 0})
        row["calls"] += 1
        row["returned"] += s[OK]
        row["self_s"] += s[END] - s[START] - s[CHILD]
        row["attempts"] += s[RNG]
        row["peak_bytes"] = max(row["peak_bytes"], s[PEAK])
    return out


def median_summary(per_pass: list) -> dict:
    """Median over passes of calls, self seconds and attempts (0 where a pass
    lacks a name)."""
    names = sorted({n for summary in per_pass for n in summary})
    out = {}
    for n in names:
        rows = [summary.get(n, {}) for summary in per_pass]
        out[n] = {k: statistics.median(r.get(k, 0) for r in rows)
                  for k in ("calls", "self_s", "attempts")}
    return out
