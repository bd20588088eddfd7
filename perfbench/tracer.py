"""Span tracing of pcreduce's layers, from outside the package.

While a Tracer is active, every public function defined in a layer module
(core, indicators, gradients, descent, matrixio, repro, cli) is replaced by
a wrapper that records one span per call: name, start, end and parent.  The
wrapper is installed at every module binding the program calls through, so
``pcreduce.gradients.kii`` and ``pcreduce.descent.kii`` both record spans.
The matrix constructors are traced through their ``__post_init__``, the
validation every MultiplicativePCMatrix / AdditivePCMatrix runs, as
``core.matrix_new``.

Cached lookup tables (``lru_cache`` objects such as ``triad_slots``) are not
functions and are left alone: after warm-up each call is a dict hit, and
wrapping them would roughly double the span count of a repro pass.

Spans are kept in flat arrays while the program runs, turned into per-group
call counts and self times afterwards, and written out by write_spans.
Self time is a span's duration minus the time its child spans cover.  The program runs on one
thread, so spans nest strictly and nothing waits in a queue.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("core", "indicators", "gradients", "descent", "matrixio", "repro", "cli")
MATRIX_CLASSES = ("MultiplicativePCMatrix", "AdditivePCMatrix")

#: metric group -> span names it covers; a name ending in "." covers a prefix.
#: ``calls`` counts entries into a group from outside it, ``self_s`` sums the
#: self time of all its spans.
GROUPS = {
    "core.matrix_new": ("core.matrix_new",),
    "core.to_additive": ("core.to_additive",),
    "core.all_defects": ("core.all_defects",),
    "indicators.kii": ("indicators.kii",),
    "gradients.difference": (
        "gradients.difference_priority_vector",
        "gradients.difference_gradient",
    ),
    "gradients.analytic": (
        "gradients.instant_pv_np",
        "gradients.instant_pv3_mult",
        "gradients.instant_pv3_add",
    ),
    "descent.step": ("descent.step_multiplicative", "descent.step_additive"),
    "descent.run": ("descent.run",),
    "matrixio.format_trace": ("matrixio.format_trace",),
    "matrixio.write": ("matrixio.write_trace_file", "matrixio.write_matrix_file"),
    "matrixio.parse_matrix_text": (
        "matrixio.parse_matrix_text",
        "matrixio.read_matrix_file",
    ),
    "repro.write_summary_csv": ("repro.write_summary_csv",),
    "cli.main": ("cli.",),
}


def _count_triads(counters, result):
    counters["core.triads_evaluated"] += len(result)


def _count_clamps(counters, result):
    events = result.trace.clamp_events
    counters["descent.clamp_events"] += len(events)
    counters["descent.clamped_steps"] += len({e.iteration for e in events})


#: span name -> hook called with the counters and the traced call's result
HOOKS = {
    "core.all_defects": _count_triads,
    "descent.run": _count_clamps,
}


class Tracer:
    """Context manager that traces pcreduce's layers while it is active."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = dict.fromkeys(
            ("core.triads_evaluated", "descent.clamp_events", "descent.clamped_steps"), 0
        )
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"pcreduce.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        core = sys.modules["pcreduce.core"]
        for cls_name in MATRIX_CLASSES:
            cls = getattr(core, cls_name)
            self._set(cls, "__post_init__", self._wrap("core.matrix_new", cls.__post_init__))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pcreduce" and not mod_name.startswith("pcreduce."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        sid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter
        hook = HOOKS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return span

    def group_totals(self) -> dict[str, tuple[int, float]]:
        """Per GROUPS entry: (calls entering the group, summed self time in s)."""
        group_of = []
        for name in self.names:
            match = -1
            for g, members in enumerate(GROUPS.values()):
                if any(name == m or (m.endswith(".") and name.startswith(m)) for m in members):
                    match = g
                    break
            group_of.append(match)
        durations = array("d", (e - s for s, e in zip(self.starts, self.ends)))
        covered = array("d", bytes(8 * len(durations)))
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
        calls = [0] * len(GROUPS)
        self_s = [0.0] * len(GROUPS)
        name_ids, parents = self.name_ids, self.parents
        for i, sid in enumerate(name_ids):
            g = group_of[sid]
            if g < 0:
                continue
            self_s[g] += durations[i] - covered[i]
            parent = parents[i]
            if parent < 0 or group_of[name_ids[parent]] != g:
                calls[g] += 1
        return {name: (calls[g], self_s[g]) for g, name in enumerate(GROUPS)}

    def write_spans(self, directory) -> None:
        """Dump the spans to directory as flat native-endian arrays.

        names.txt holds one span name per line (line k is name id k);
        name_ids.i32, parents.i32 (-1 for a root span), starts.f64 and
        ends.f64 (perf_counter seconds) hold one entry per span, in start
        order.  ``array.fromfile`` or ``numpy.fromfile`` read them back.
        """
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "names.txt").write_text("\n".join(self.names) + "\n", encoding="utf-8")
        for field in ("name_ids", "parents", "starts", "ends"):
            suffix = "i32" if field in ("name_ids", "parents") else "f64"
            with open(directory / f"{field}.{suffix}", "wb") as f:
                getattr(self, field).tofile(f)
