"""Traced runs: spans around the package's public functions, installed from
the benchmark's files.

``Tracer.install`` replaces every public function of the layer modules
(and ``ArovParameters.pieces`` on its class) with a wrapper that records a
span: name, start, end, parent span, thread and the subcommand of the
operation that caused it.  The parent is tracked per thread, because
``disks --threads 2`` calls into the package from worker threads: a span
that opens on a thread with no open span is a child of the span open on the
thread that installed the tracer (the one running ``cli.main``, which waits
on the pool).  Self time is span time minus the union of the intervals its
children cover, on its own thread and on worker threads.  The same
function object imported under another module's name is replaced there too,
so calls made through either name are seen.  ``mat2`` is not wrapped: it is
called at 2x2 granularity from everywhere, and its cost stays in its
callers' self time.

Aggregates (calls, busy time, self time) are kept for every span; span
records themselves are kept in memory up to ``KEEP_SPANS`` and written out
when the run ends.  A function named in ``REQUIRED`` that the package no longer has is
reported as missing and its metrics read 0.
"""

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

PACKAGE = "arvcanon"
LAYERS = ("coefficients", "propagate", "weyl", "riccati", "spectral", "cli")

#: span records kept for the spans file (aggregates cover every span)
KEEP_SPANS = 20_000

#: functions the per-layer metrics are read from, as layer.function
REQUIRED = (
    "coefficients.load_parameters", "coefficients.pieces",
    "propagate.expm_tracefree_scaled", "propagate.transfer_scaled",
    "propagate.transfer_general_scaled", "propagate.transfer_prefix",
    "propagate.transfer_family", "propagate.to_arov_gauge",
    "propagate.to_pdb_gauge", "propagate.recover_parameters",
    "weyl.weyl_disk_at", "weyl.schur_plus",
    "riccati.integrate_riccati", "riccati.riccati_rhs",
    "spectral.reflectionless_ladder", "spectral.bp_defect",
    "spectral.harmonic_measure", "spectral.type_report",
    "cli.main",
)

#: subcommands whose cells are the base of propagate.propagators_per_cell
CELL_COMMANDS = ("transfer", "disks", "gauge")

#: per-piece and per-step leaves, counted without a span: a span costs
#: about a microsecond, which on these would more than double their time.
#: Their time stays in their caller's self time.
COUNT_ONLY = ("propagate.generator", "propagate.general_generator",
              "propagate.expm_tracefree", "riccati.riccati_rhs")


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "root")

# fields of an open span on a thread's stack
NAME, COVERED, ID, KIDS, FOREIGN, BASE = range(6)


def covered_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Stat:
    __slots__ = ("calls", "busy", "self_time", "items", "in_cells", "in_schur",
                 "busy_by_root", "self_by_root")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.items = 0.0
        self.in_cells = 0
        self.in_schur = 0
        self.busy_by_root = defaultdict(float)
        self.self_by_root = defaultdict(float)


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stats = defaultdict(Stat)
        self.root = None
        self.missing = []
        self._patches = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = None

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions; the calling thread is the one
        whose open span adopts spans started on worker threads."""
        self._main = self._stack()
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        everywhere = [importlib.import_module(PACKAGE)] + list(modules.values())
        found = set()
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn)
                for owner in everywhere:
                    if vars(owner).get(attr) is fn:
                        self._patch(owner, attr, fn, wrapped)
                found.add(name)
        cls = getattr(modules["coefficients"], "ArovParameters", None)
        pieces = getattr(cls, "pieces", None)
        if inspect.isfunction(pieces):
            self._patch(cls, "pieces", pieces, self._wrap("coefficients.pieces", pieces))
            found.add("coefficients.pieces")
        self.missing = [n for n in REQUIRED if n not in found]
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    # -- recording ----------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._wrap_count(name, fn)
        tracer = self
        count_items = name == "coefficients.pieces"
        measure = name == "riccati.integrate_riccati"
        transfer = name == "propagate.transfer_scaled"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stack()
            host, main = None, tracer._main
            if st:
                parent, base = st[-1][ID], st[0][BASE]
            elif main and st is not main:
                # a worker thread: adopted by the span that submitted it
                host = main[-1]
                parent, base = host[ID], tuple(f[NAME] for f in main)
            else:
                parent, base = 0, ()
            outer = name not in base and all(f[NAME] != name for f in st)
            frame = [name, 0.0, next(tracer._ids), [], None, base]
            st.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
                dur = t1 - t0
                if st:
                    st[-1][COVERED] += dur
                    st[-1][KIDS].append((t0, t1))
                elif host is not None:
                    tracer._adopt(host, t0, t1)
            covered = frame[COVERED]
            if frame[FOREIGN] is not None:
                covered = covered_length(frame[KIDS] + frame[FOREIGN], t0, t1)
            items = 0.0
            if count_items and outer:
                items = len(result)
            elif measure:
                items = result.mu
            in_schur = transfer and ("weyl.schur_plus" in base or
                                     any(f[NAME] == "weyl.schur_plus" for f in st))
            tracer._record(name, frame[ID], parent, t0, t1, dur, dur - covered,
                           outer, items, in_schur)
            return result

        return wrapper

    def _adopt(self, host, t0, t1):
        """Count a worker thread's outermost span in the self time of the
        span open on the installing thread."""
        with self._lock:
            if host[FOREIGN] is None:
                host[FOREIGN] = []
            host[FOREIGN].append((t0, t1))

    def _wrap_count(self, name, fn):
        stat, lock = self.stats[name], self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record(self, name, sid, parent, t0, t1, dur, self_time, outer, items,
                in_schur):
        root = self.root
        with self._lock:
            s = self.stats[name]
            s.calls += 1
            s.self_time += self_time
            s.self_by_root[root] += self_time
            if outer:
                s.busy += dur
                s.busy_by_root[root] += dur
            s.items += items
            s.in_schur += in_schur
            s.in_cells += root in CELL_COMMANDS
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((sid, name, t0, t1, parent,
                                   threading.get_ident(), root))
            else:
                self.dropped += 1

    def write_spans(self, path):
        """Kept spans as JSON lines: a header naming the fields, then one
        array per span; times in seconds from the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "dropped": self.dropped}) + "\n")
            for sid, name, start, end, parent, thread, root in self.spans:
                fh.write(json.dumps([sid, name, round(start - t0, 7), round(end - t0, 7),
                                     parent, thread, root]) + "\n")

    # -- metrics ------------------------------------------------------------

    def by_subcommand(self, rounds):
        """Busy and self seconds per traced round of each function, split by
        the subcommand that caused it (kept in the run record)."""
        return {name: {"busy_s": {r: v / rounds for r, v in s.busy_by_root.items()},
                       "self_s": {r: v / rounds for r, v in s.self_by_root.items()}}
                for name, s in sorted(self.stats.items()) if s.busy_by_root}

    def layer_metrics(self, rounds, rows_by_command, bytes_written, overhead_s):
        """Per-layer metrics per traced round, by name: (value, unit)."""
        st = self.stats

        def get(name):
            return st[name] if name in st else Stat()

        out = {}
        for name in REQUIRED:
            s = get(name)
            out[f"{name}.calls"] = (s.calls / rounds, "count")
            out[f"{name}.busy_s"] = (s.busy / rounds, "s")
        out["coefficients.pieces.items"] = (get("coefficients.pieces").items / rounds,
                                            "pieces")
        for layer in LAYERS:
            total = sum(s.self_time for n, s in st.items() if n.startswith(layer + "."))
            out[f"{layer}.self_s"] = (total / rounds, "s")
        cells = sum(rows_by_command.get(c, 0.0) for c in CELL_COMMANDS)
        built = get("propagate.expm_tracefree_scaled").in_cells
        out["propagate.propagators_per_cell"] = (built / cells if cells else 0.0, "ratio")
        schur = get("weyl.schur_plus").calls
        inside = get("propagate.transfer_scaled").in_schur
        out["weyl.transfers_per_schur_value"] = (inside / schur if schur else 0.0, "ratio")
        samples = rows_by_command.get("riccati", 0.0)
        mu = get("riccati.integrate_riccati").items
        out["riccati.measure_per_sample"] = (mu / samples if samples else 0.0,
                                             "mu/sample")
        out["cli.rows_written"] = (sum(rows_by_command.values()) / rounds, "rows")
        out["cli.bytes_written"] = (bytes_written / rounds, "bytes")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out


def span_cost():
    """Seconds a span adds to the traced time of its caller and itself: a
    wrapped no-op against the bare one, called inside an open span (the
    lesser of five differences over 20 000 calls each)."""
    calls = 20_000
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("calibration.noop", noop)

    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    outer = tracer._wrap("calibration.outer",
                         lambda: min(loop(wrapped) - loop(noop) for _ in range(5)))
    return outer() / calls
