"""Measurement core of the qrank benchmark.

A workload is a module with ``NAME``, ``SEGMENTS``, ``PASS_SECONDS``
(the run seconds one pass stands for: a run makes round(seconds /
PASS_SECONDS) passes, at least one) and a ``setup(seed, passes, smoke)``
function returning a ``State``; the same seed gives the same query list.
The harness runs that list in one closed loop: each query is issued
only after the previous one has finished and been checked against its
oracle.  Checks run outside the timed region.  The list is cut into
``SEGMENTS`` consecutive slices and each slice runs on a fresh set-up,
so the set-up samples are spread over the whole run, as the queries
are, and only one state is alive at a time.

Tracing is a separate mode.  ``Tracer.install`` swaps the public entry
points of every layer for timing wrappers, at every module-level
binding (the package uses ``from`` imports) and on the classes that own
the hot methods.  Wrappers keep a call count and cumulative time per
metric group; the coarse ones also record spans (name, shape key,
start, end, parent, query id) in memory.  Nothing inside ``src/`` is
edited: every layer is measured from outside.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

perf = time.perf_counter


class Mismatch(Exception):
    """A query's output disagrees with its oracle."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


@dataclass
class Query:
    label: str
    run: object          # () -> output
    check: object        # (output) -> None, raises Mismatch


@dataclass
class State:
    queries: list
    extra: dict = field(default_factory=dict)
    close: object = None   # () -> None, releases files the set-up wrote

    def release(self):
        if self.close is not None:
            self.close()
            self.close = None


# -- statistics ------------------------------------------------------------

TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 75.0


def tail_latency(latencies):
    """(value, percentile, beyond) for the tail latency.

    The tail is the highest percentile with at least TAIL_BEYOND queries
    beyond it: with the latencies sorted, the value at 1-based rank
    N - TAIL_BEYOND, which is percentile 100 * (N - TAIL_BEYOND) / N.
    Below TAIL_MIN_PERCENTILE (N < 40) that rank is no tail at all (at
    N = 20 it is the median), so the maximum is reported instead, as
    percentile 100 with 0 queries beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    rank = n - TAIL_BEYOND
    if 100.0 * rank / n < TAIL_MIN_PERCENTILE:
        return xs[-1], 100.0, 0
    return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def self_times(spans):
    """Per-span self time: duration minus the time its direct children
    cover.  Spans nest properly on one thread, so direct children never
    overlap and grandchildren lie inside their parents."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


# -- tracing ---------------------------------------------------------------

@dataclass
class Span:
    name: str
    key: object
    start: float
    end: float
    parent: object
    qid: object


class _Group:
    __slots__ = ("calls", "seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


def shape(args):
    """'(q,n)' of the lattice an entry point works on, when visible."""
    for a in args[:2]:
        lat = getattr(a, "lattice", a)
        if hasattr(lat, "size") and hasattr(lat, "q") and hasattr(lat, "n"):
            return f"({lat.q},{lat.n})"
    if len(args) >= 2 and isinstance(args[0], int) and isinstance(args[1], int):
        return f"({args[0]},{args[1]})"
    return None


class NullTracer:
    """Tracing off: the query loop's hooks are null contexts."""

    _null = contextlib.nullcontext()

    def query(self, qid):
        return self._null

    def paused(self):
        return self._null


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.qid = None
        self.groups = {}
        self.counts = {}
        self.samples = {}
        self.active = True
        self._restore = []

    # spans ---------------------------------------------------------------

    def _open(self, name, key):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, key, perf(), 0.0, parent, self.qid))
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()].end = perf()

    @contextlib.contextmanager
    def span(self, name, key=None):
        self._open(name, key)
        try:
            yield
        finally:
            self._close()

    @contextlib.contextmanager
    def query(self, qid):
        self.qid = qid
        try:
            with self.span("query", qid):
                yield
        finally:
            self.qid = None

    @contextlib.contextmanager
    def paused(self):
        """Oracle checks run through here: their calls into qrank are not
        the workload's, so the wrappers pass them straight through."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def group(self, name):
        return self.groups.setdefault(name, _Group())

    # wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, group, with_span, counter):
        g = self.group(group)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            g.calls += 1
            outer = g.depth == 0
            g.depth += 1
            if with_span:
                tracer._open(name, shape(args))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                g.depth -= 1
                if outer:
                    g.seconds += dt
                if with_span:
                    tracer._close()
            if counter is not None:
                counter(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, entries):
        """Wrap each entry point; see layers.ENTRY_POINTS for the format."""
        for target, *_ in entries:
            importlib.import_module(target.partition(":")[0])
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "qrank" or n.startswith("qrank."))]
        for target, group, with_span, counter in entries:
            modname, _, attr = target.rpartition(":")
            mod = sys.modules[modname]
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                fn = owner.__dict__[meth]
                setattr(owner, meth,
                        self._wrap(fn, f"{modname.split('.')[-1]}.{attr}",
                                   group, with_span, counter))
                self._restore.append((owner, meth, fn))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(fn, f"{modname.split('.')[-1]}.{attr}",
                                 group, with_span, counter)
            for m in mods:
                for binding, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, binding, wrapper)
                        self._restore.append((m, binding, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [[s.name, s.key, s.start, s.end, s.parent, s.qid]
                                 for s in self.spans],
                       "counts": self.counts,
                       "groups": {k: [g.calls, g.seconds]
                                  for k, g in self.groups.items()}}, fh)


# -- running ---------------------------------------------------------------

@dataclass
class Outcome:
    latencies: list
    wall: float
    failures: list


def run_queries(queries, tracer, first_qid=0):
    """Closed loop over the query list; a failure is recorded and the loop
    goes on.  The batch wall time is the sum of the query latencies: the
    oracle checks between queries are the benchmark's work, not qrank's."""
    latencies = []
    failures = []
    for qid, q in enumerate(queries, first_qid):
        t0 = perf()
        try:
            with tracer.query(qid):
                out = q.run()
        except Exception as exc:  # a query that raises counts as failed
            latencies.append(perf() - t0)
            failures.append({"query": qid, "label": q.label,
                             "error": f"{type(exc).__name__}: {exc}",
                             "trace": traceback.format_exc(limit=3)})
            continue
        latencies.append(perf() - t0)
        try:
            with tracer.paused():
                q.check(out)
        except Mismatch as exc:
            failures.append({"query": qid, "label": q.label,
                             "error": f"mismatch: {exc}"})
        except Exception as exc:
            failures.append({"query": qid, "label": q.label,
                             "error": f"oracle raised {type(exc).__name__}: {exc}"})
    return Outcome(latencies, sum(latencies), failures)


def run_paired(queries, tracer, entries):
    """Run every query twice, untraced and traced, alternating which goes
    first, so that warm caches favour neither side.  The wrappers are
    installed only around the traced run.  Returns (untraced, traced)."""
    sides = {False: Outcome([], 0.0, []), True: Outcome([], 0.0, [])}
    null = NullTracer()
    for qid, q in enumerate(queries):
        for traced in ((False, True) if qid % 2 == 0 else (True, False)):
            if traced:
                tracer.install(entries)
                try:
                    o = run_queries([q], tracer, qid)
                finally:
                    tracer.uninstall()
            else:
                o = run_queries([q], null, qid)
            side = sides[traced]
            side.latencies.extend(o.latencies)
            side.failures.extend(o.failures)
            side.wall += o.wall
    return sides[False], sides[True]


def run_segments(workload, seed, passes, smoke, segments):
    """Run the query list in `segments` consecutive slices, each on a
    fresh set-up from the same seed.  Returns the merged outcome and the
    time of every set-up."""
    times = []
    merged = Outcome([], 0.0, [])
    lo = 0
    for i in range(segments):
        gc.collect()
        t0 = perf()
        state = workload.setup(seed, passes, smoke)
        times.append(perf() - t0)
        try:
            hi = len(state.queries) * (i + 1) // segments
            o = run_queries(state.queries[lo:hi], NullTracer(), lo)
        finally:
            state.release()
        merged.latencies += o.latencies
        merged.failures += o.failures
        merged.wall += o.wall
        lo = hi
        del state
    return merged, times


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted(Path(src, "qrank").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    """Commit of the checkout when it is a git work tree, read without
    starting a process; None otherwise.  Follows a `gitdir:` file (a
    linked work tree or a submodule) and falls back to packed-refs."""
    git = Path(root, ".git")
    try:
        if git.is_file():
            line = git.read_text().strip()
            if not line.startswith("gitdir: "):
                return None
            git = Path(root, line[len("gitdir: "):])
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        for gitdir in (git, _common_dir(git)):
            loose = gitdir / ref
            if loose.is_file():
                return loose.read_text().strip()
            packed = gitdir / "packed-refs"
            if packed.is_file():
                for line in packed.read_text().splitlines():
                    sha, _, name = line.partition(" ")
                    if name == ref:
                        return sha
    except OSError:
        pass
    return None


def _common_dir(gitdir):
    """Where a linked work tree keeps the shared refs."""
    common = gitdir / "commondir"
    if common.is_file():
        return (gitdir / common.read_text().strip()).resolve()
    return gitdir


def provenance(root, seed, workload, n_queries, passes, tail):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "src_sha256": source_digest(Path(root, "src")),
        "seed": seed,
        "workload": workload,
        "queries": n_queries,
        "passes": passes,
        "tail_percentile": tail[1],
        "tail_beyond": tail[2],
    }


def end_to_end(outcome, setup_times, rss_mb):
    tail = tail_latency(outcome.latencies)
    n = len(outcome.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (outcome.wall, "s"),
        "query_p50_s": (statistics.median(outcome.latencies), "s"),
        "query_tail_s": (tail[0], "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "success_frac": ((n - len(outcome.failures)) / n, "ratio"),
    }
    return metrics, tail
