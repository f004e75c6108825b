"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the ``dfinite``
modules (plus ``Poly.rational_roots`` and ``sympy.resultant``) by a
wrapper that records a span around the call.  ``from .linalg import
kernel_rank_mod_p`` copies the function object into the importing
module, so each replacement is rebound under every module attribute
that holds the same object; a wrapper bound only in the defining
module would silently read zero calls.

Spans are kept as per-layer aggregates in memory: calls, inclusive time
(outermost activation only, so recursion is not counted twice), self
time (inclusive time minus the time covered by child spans) and exact
work counters.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# Leaf helpers that are not pipeline layers: the rational number type
# (``QQ`` and friends run on every coefficient, so wrapping them would
# swamp the trace with overhead) and the exception classes.
SKIPPED_MODULES = ("dfinite.rationals", "dfinite.errors")


def _cells(args, kwargs, result) -> Dict[str, int]:
    rows = args[0] if args else kwargs["rows"]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def _terms(args, kwargs, result) -> Dict[str, int]:
    init = args[1] if len(args) > 1 else kwargs["init"]
    return {"terms": result.trunc_order - init.trunc_order}


# Work counters: layer -> function of (args, kwargs, result) giving counts.
WORK: Dict[str, Callable] = {
    "linalg.kernel_rank_mod_p": _cells,
    "linalg.kernel_vector_exact": _cells,
    "series.unroll": _terms,
}


class LayerStats:
    __slots__ = ("calls", "s", "self_s", "depth", "work")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.work: Dict[str, int] = {}


class Tracer:
    """Wraps the program's public functions and aggregates their spans."""

    def __init__(self):
        self.stats: Dict[str, LayerStats] = {}
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, Tuple[str, Callable]] = {}

    # -- installation -----------------------------------------------------

    def _targets(self) -> List[Tuple[str, object, str, Callable]]:
        """(layer name, owner, attribute, original function) to wrap."""
        out = []
        for modname in sorted(sys.modules):
            if not modname.startswith("dfinite.") or modname in SKIPPED_MODULES:
                continue
            mod = sys.modules[modname]
            short = modname[len("dfinite."):]
            for attr, value in sorted(vars(mod).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == modname):
                    out.append(("%s.%s" % (short, attr), mod, attr, value))
        polys = sys.modules["dfinite.polys"]
        out.append(("polys.Poly.rational_roots", polys.Poly, "rational_roots",
                    polys.Poly.__dict__["rational_roots"]))
        import sympy

        out.append(("sympy.resultant", sympy, "resultant", sympy.resultant))
        return out

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        replacements: Dict[int, Callable] = {}
        for name, owner, attr, fn in self._targets():
            replacements[id(fn)] = self._wrap(name, fn)
            self._originals[id(fn)] = (name, fn)
            self._rebind(owner, attr, replacements[id(fn)])
        # every alias of a wrapped function in any dfinite namespace
        for owner in self._namespaces():
            for attr, value in list(vars(owner).items()):
                if id(value) in replacements:
                    self._rebind(owner, attr, replacements[id(value)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self._originals.clear()

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _namespaces() -> List[object]:
        out = []
        for modname in sorted(sys.modules):
            if modname == "dfinite" or modname.startswith("dfinite."):
                mod = sys.modules[modname]
                out.append(mod)
                out.extend(v for v in vars(mod).values()
                           if inspect.isclass(v) and v.__module__ == modname)
        return out

    def unwrapped_aliases(self) -> List[str]:
        """Names in dfinite namespaces (and one level of containers in
        them) that still reach an original function: should be empty."""
        found = []
        for owner in self._namespaces():
            for attr, value in vars(owner).items():
                values = [value]
                if isinstance(value, dict):
                    values = list(value.values())
                elif isinstance(value, (list, tuple)):
                    values = list(value)
                for v in values:
                    orig = self._originals.get(id(v))
                    if orig is not None and orig[1] is v:
                        found.append("%s.%s -> %s" % (
                            getattr(owner, "__name__", owner), attr, orig[0]))
        return found

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, LayerStats())
        work = WORK.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            stats.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats.depth -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.self_s += dt - frame[0]
                if stats.depth == 0:
                    stats.s += dt
            if work is not None:
                for key, n in work(args, kwargs, result).items():
                    stats.work[key] = stats.work.get(key, 0) + n
            return result

        return traced

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """{layer: {"s", "self_s", "calls", work counters...}} for called layers."""
        out = {}
        for name, st in sorted(self.stats.items()):
            if st.calls:
                row = {"s": st.s, "self_s": st.self_s, "calls": st.calls}
                row.update(st.work)
                out[name] = row
        return out


def counters(snapshot: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, int]]:
    """The exact (timing-free) part of a snapshot."""
    return {name: {k: v for k, v in row.items() if k not in ("s", "self_s")}
            for name, row in snapshot.items()}


def format_table(snapshot: Dict[str, Dict[str, float]], wall: Optional[float] = None) -> str:
    """Per-layer table sorted by self time: inclusive s, self s, calls, work."""
    lines = ["%-40s %10s %10s %9s  %s" % ("layer", "incl_s", "self_s", "calls", "work")]
    rows = sorted(snapshot.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        work = " ".join("%s=%d" % (k, v) for k, v in sorted(row.items())
                        if k not in ("s", "self_s", "calls"))
        lines.append("%-40s %10.4f %10.4f %9d  %s" % (
            name, row["s"], row["self_s"], row["calls"], work))
    if wall is not None:
        covered = sum(row["self_s"] for row in snapshot.values())
        lines.append("%-40s %10.4f %10.4f %9s  %s" % (
            "(outside traced layers)", wall - covered, wall - covered, "-", ""))
    return "\n".join(lines)
