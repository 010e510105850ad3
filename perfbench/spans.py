"""Spans around igafin's layers, recorded from the benchmark's own files.

``instrument(tracer)`` swaps the public functions listed in ``LAYERS`` for
wrappers that open and close a span, and puts the originals back on exit;
nothing under ``src/`` changes.  A module-level function is replaced in every
``igafin`` module that imported it by name, so calls through
``from .basis import eval_spline_many`` are traced too.

Self time with threads.  ``converge`` runs its rungs on pool threads, so each
thread keeps its own span stack.  A span opened on a thread with an empty
stack takes as parent the innermost open span of the thread that created the
tracer (the caller blocked in the pool).  At every instant the wall time is
shared among the open spans with no open child, one per busy thread, in
proportion to the share of a processor each span's thread got while the span
ran (its own CPU time over its own wall time, children excluded).  A thread
waiting for the interpreter lock thus takes little of the wall time it
spends waiting.  A span's self time is its share; its total time adds its
descendants' totals.  On one thread this is the usual duration minus the
time its children cover; with several threads the shares still add up to the
root span's duration, so the self times of all spans sum to it by
construction; ``Tracer.check`` tests the tree itself.

Spans are kept in memory per thread, without locks, and turned into times
by ``Tracer.ledger`` once the traced work is over.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict


class _Open:
    __slots__ = ("name", "parent", "weight", "children", "self_s",
                 "child_total_s")

    def __init__(self, name, parent, weight):
        self.name = name
        self.parent = parent
        self.weight = weight
        self.children = 0
        self.self_s = 0.0
        self.child_total_s = 0.0


class Ledger:
    """Self and total wall time per span name, from open and close events.

    Feed events in time order.
    """

    def __init__(self):
        self._open: dict[int, _Open] = {}
        self._leaves: set[int] = set()
        self._t: float | None = None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)

    def _advance(self, t: float) -> None:
        if len(self._leaves) == 1:
            for sid in self._leaves:
                self._open[sid].self_s += t - self._t
        elif self._leaves:
            spans = [self._open[sid] for sid in self._leaves]
            weights = sum(span.weight for span in spans)
            for span in spans:
                span.self_s += (t - self._t) * (
                    span.weight / weights if weights > 0 else 1 / len(spans))
        self._t = t

    def open(self, sid: int, parent: int | None, name: str, t: float,
             weight: float = 1.0) -> None:
        """``weight``: the span's claim on wall time shared with others."""
        self._advance(t)
        up = self._open.get(parent)
        if up is not None:
            up.children += 1
            self._leaves.discard(parent)
        self._open[sid] = _Open(name, parent, weight)
        self._leaves.add(sid)
        self.calls[name] += 1

    def close(self, sid: int, t: float) -> None:
        self._advance(t)
        span = self._open.pop(sid)
        self._leaves.discard(sid)
        total = span.self_s + span.child_total_s
        self.self_s[span.name] += span.self_s
        self.total_s[span.name] += total
        up = self._open.get(span.parent)
        if up is not None:
            up.child_total_s += total
            up.children -= 1
            if up.children == 0:
                self._leaves.add(span.parent)


class Tracer:
    """Records spans and counters per thread, without locks.

    Each thread appends finished spans to its own list; ``ledger`` merges
    them in time order once the traced work is over.
    """

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._seq = itertools.count(1)
        self._threads: list[tuple[list, list, Counter]] = []
        self._main_stack = self._state()[0]

    def _state(self) -> tuple[list, list, Counter]:
        """This thread's (open span stack, finished spans, counters)."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], [], Counter())
            self._threads.append(state)
            return state

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` -> counters."""
        clock, cpu, seq, state, main = (self._clock, self._cpu_clock, self._seq,
                                        self._state, self._main_stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, done, counts = state()
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(seq)
            stack.append(sid)
            c0 = cpu()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu()
                done.append((sid, parent, name, t0, t1, c1 - c0, next(seq)))
                stack.pop()
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result
        return traced

    def counts(self) -> Counter:
        out = Counter()
        for _, _, counts in self._threads:
            out.update(counts)
        return out

    def check(self) -> list[str]:
        """How the recorded spans fail to form one tree; empty if they do.

        The ledger's self times add up to the root span's duration by
        construction, so what can go wrong is the tree: a span left open, a
        second root (a pool span opened with nothing open on the creating
        thread), or a span that outlives its parent.
        """
        recs = {rec[0]: rec for _, done, _ in self._threads for rec in done}
        problems = []
        roots = sum(1 for rec in recs.values() if rec[1] is None)
        if roots != 1:
            problems.append(f"{roots} root spans, expected one")
        still_open = sum(len(stack) for stack, _, _ in self._threads)
        if still_open:
            problems.append(f"{still_open} spans never closed")
        outside = Counter()
        for _, parent, name, t0, t1, _, _ in recs.values():
            up = recs.get(parent)
            if parent is not None and (up is None or t0 < up[3] or t1 > up[4]):
                outside[name] += 1
        problems += [f"{n} {name} spans outside their parent span"
                     for name, n in outside.items()]
        return problems

    def ledger(self) -> Ledger:
        """Replay every finished span, all threads merged in time order."""
        thread_of = {rec[0]: tid for tid, (_, done, _) in
                     enumerate(self._threads) for rec in done}
        child_wall, child_cpu = defaultdict(float), defaultdict(float)
        for tid, (_, done, _) in enumerate(self._threads):
            for _, parent, _, t0, t1, cpu_s, _ in done:
                if thread_of.get(parent) == tid:
                    child_wall[parent] += t1 - t0
                    child_cpu[parent] += cpu_s
        events = []
        for _, done, _ in self._threads:
            for sid, parent, name, t0, t1, cpu_s, close_seq in done:
                wall = t1 - t0 - child_wall[sid]
                busy = (cpu_s - child_cpu[sid]) / wall if wall > 0 else 1.0
                events.append((t0, sid, parent, name, min(max(busy, 0.0), 1.0)))
                events.append((t1, close_seq, sid))
        events.sort()
        led = Ledger()
        for ev in events:
            if len(ev) == 5:
                led.open(ev[1], ev[2], ev[3], ev[0], ev[4])
            else:
                led.close(ev[2], ev[0])
        return led


def _count_points(args, kwargs, result):
    return {"basis.eval_points": len(result)}


def _count_levels(args, kwargs, result):
    scheme = args[2] if len(args) > 2 else kwargs["scheme"]
    return {"stepper.levels": scheme.n_steps}


def _count_newton(args, kwargs, result):
    return {"stepper.newton_iters": result[1]}


# (module, attribute, span name, counter).  Which end-to-end metric each span
# should move, on which workload, is recorded in perfbench/run.py.
LAYERS = (
    ("basis", "eval_spline_many", "basis.eval", _count_points),
    ("stepper", "run_leland", "stepper.march", _count_levels),
    ("stepper", "run_afv", "stepper.march", _count_levels),
    ("stepper", "newton_solve_U", "stepper.newton", _count_newton),
    ("stepper", "build_discretization", "assembly.build", None),
    ("assembly", "assemble", "assembly.assemble", None),
    ("assembly", "Collocation.__init__", "assembly.collocation", None),
    ("linsolve", "BandedLU.__init__", "linsolve.factor", None),
    ("linsolve", "BandedLU.solve", "linsolve.solve", None),
    ("linsolve", "BandedMatrix.matvec", "linsolve.matvec", None),
    ("reference", "p1fem_solve", "reference.p1", None),
    ("greeks", "greeks_table", "greeks.table", None),
    ("greeks", "write_greeks_csv", "greeks.write", None),
    ("cli", "_write_csv", "cli.csv", None),
    ("models", "constraint_state", "models.constraint", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every entry of ``LAYERS`` while the block runs."""
    importlib.import_module("igafin.cli")
    mods = [mod for name, mod in list(sys.modules.items())
            if name == "igafin" or name.startswith("igafin.")]
    undo = []
    try:
        for mod_name, attr, span, count in LAYERS:
            owner = importlib.import_module(f"igafin.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, tracer.wrap(span, orig, count))
                continue
            orig = getattr(owner, attr)
            traced = tracer.wrap(span, orig, count)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, traced)
        yield tracer
    finally:
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)
