"""Outside-in layer tracing: wrap module attributes of the program, record spans.

The program's modules call each other through module globals
(``spectrum.energy``, ``nu.solve``, ``quadrature.integrate`` ...), so replacing
an attribute on its module also catches the internal calls.  Nothing under
``src/`` is edited; the originals are put back by :meth:`Tracer.uninstall`.

A span is (id, parent id, name, start, end, size).  Spans opened on a thread
with no open span of its own, such as the program's pool threads, take the
open span of the main thread (the op's entry point) as their parent.  Spans
stay in memory; :func:`layer_stats` aggregates them once the run is over.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

from ringcoulomb import cli, nu, oracle, quadrature, spectrum, wavefunctions

# (owner, attribute, span name, size of the result or None).  ``special`` has
# no entry the workloads call directly; its time counts as wavefunctions time.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "decay_cutoff", "quadrature.decay_cutoff", None),
    (quadrature, "decay_cutoff", "quadrature.decay_cutoff", None),
    (quadrature, "integrate", "quadrature.integrate", None),
    (spectrum, "energy", "spectrum.energy", None),
    (nu, "quantize_epsilon", "nu.quantize_epsilon", None),
    (nu, "quantize_epsilon_bisect", "nu.quantize_epsilon_bisect", None),
    (nu, "solve", "nu.solve", None),
    (wavefunctions, "bound_state", "wavefunctions.bound_state", None),
    (wavefunctions, "radial_state", "wavefunctions.radial_state", None),
    (wavefunctions, "angular_state", "wavefunctions.angular_state", None),
    (wavefunctions.BoundState, "density", "wavefunctions.density", np.size),
    (oracle, "verify_state", "oracle.verify_state", None),
    (oracle, "angular_eigen", "oracle.angular_eigen", None),
    (oracle, "radial_eigen", "oracle.radial_eigen", None),
    (oracle, "radial_ode_residual", "oracle.ode_residual", None),
    (oracle, "angular_ode_residual", "oracle.ode_residual", None),
)


class Tracer:
    """Records spans around the wrapped attributes while ``active`` is true."""

    def __init__(self):
        self.records = []
        self.active = False
        self.missing = []          # targets the program no longer has
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._installed = []

    def install(self) -> None:
        for owner, attr, name, size in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append("%s.%s" % (owner.__name__, attr))
                continue
            setattr(owner, attr, self._wrap(original, name, size))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            is_root = not stack and threading.current_thread() is threading.main_thread()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            if is_root:
                tracer._root = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
            # list.append is atomic, so pool threads need no lock here
            tracer.records.append((sid, parent, name, start, end,
                                   size(result) if size else 0))
            return result

        return traced


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_stats(records) -> dict:
    """Per span name: calls, busy_s (summed duration), self_s and size.

    Self time is a span's duration minus the union of its children's
    intervals, so overlapping children on pool threads are not counted twice.
    """
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in records:
        if parent is not None:
            children[parent].append((start, end))
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0})
    for sid, _, name, start, end, size in records:
        entry = stats[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - _covered(children.get(sid, ()), start, end)
        entry["size"] += size
    return dict(stats)
