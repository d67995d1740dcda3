"""In-memory span recorder and the call-site wrappers of the traced run.

A span is (name, start, end, parent, op) plus a dict of attributes.  Spans
stay in memory and are written out only when the run ends.  Wrappers are
installed on the names the caller modules imported, so the package itself
is never edited; ``Tracer.uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and plain counters for one run (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        sp = Span(name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self.op, attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def parent_name(self, sp: Span) -> str | None:
        return None if sp.parent is None else self.spans[sp.parent].name

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": sp.name, "start": sp.start,
                                     "end": sp.end, "parent": sp.parent,
                                     "op": sp.op, "attrs": sp.attrs},
                                    default=float) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(sp.duration - covered)
    return out


class Tracer:
    """Installs span and counting wrappers; restores the originals on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def spanned(self, owner, attr: str, name: str, describe=None):
        """Wrap owner.attr in a span; describe(args, kwargs, result) adds attrs."""
        rec = self.rec

        def make(fn):
            def wrapper(*args, **kwargs):
                with rec.span(name) as sp:
                    try:
                        result = fn(*args, **kwargs)
                    except Exception as exc:
                        sp.attrs["error"] = type(exc).__name__
                        raise
                    if describe is not None:
                        sp.attrs.update(describe(args, kwargs, result))
                    return result
            return wrapper

        self._patch(owner, attr, make)

    def counted(self, owner, attr: str, name: str):
        """Count calls of owner.attr and the points in its first argument."""
        counters = self.rec.counters
        calls, points = name + ".calls", name + ".points"

        def make(fn):
            def wrapper(self_, rr, *args, **kwargs):
                counters[calls] = counters.get(calls, 0) + 1
                counters[points] = counters.get(points, 0) + int(np.size(rr))
                return fn(self_, rr, *args, **kwargs)
            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _propagate_attrs(args, kwargs, result):
    u = args[0]
    n_steps = kwargs.get("n_steps", args[2] if len(args) > 2 else 0)
    return {"steps": int(n_steps), "points": int(u.values.size)}


def _snapshot_bytes(u) -> int:
    """Header of four doubles plus interleaved re/im doubles."""
    return 8 * (4 + 2 * int(u.values.size))


def _decompose_attrs(args, kwargs, result):
    return {"newton_iters": int(result.newton_iters)}


def install(rec: Recorder) -> Tracer:
    """Wrap every public call into a package module that a workload makes.

    The names are those the callers imported: experiments' own references,
    reduced_dynamics' force, and the module attributes the benchmark calls.
    """
    from twobubble import (ansatz, experiments, groundstate, modulation_fit,
                           nls_core, reduced_dynamics)

    tr = Tracer(rec)
    for owner in (experiments, nls_core):
        tr.spanned(owner, "propagate", "nls_core.propagate", _propagate_attrs)
        tr.spanned(owner, "observables", "nls_core.observables")
    for owner in (experiments, modulation_fit):
        tr.spanned(owner, "decompose", "modulation_fit.decompose", _decompose_attrs)
        tr.spanned(owner, "energy_functional", "modulation_fit.energy_functional")
    for owner in (experiments, ansatz):
        tr.spanned(owner, "build_two_bubble", "ansatz.build_two_bubble")
    for owner in (experiments, reduced_dynamics, ansatz):
        tr.spanned(owner, "interaction_force_H", "ansatz.interaction_force_H")
    tr.spanned(experiments, "bisect_zeta", "experiments.bisect_zeta")
    tr.spanned(reduced_dynamics, "integrate_reduced",
               "reduced_dynamics.integrate_reduced")
    tr.spanned(nls_core, "write_snapshot", "nls_core.snapshot_io",
               lambda args, kwargs, result: {"bytes": _snapshot_bytes(args[1])})
    tr.spanned(nls_core, "read_snapshot", "nls_core.snapshot_io",
               lambda args, kwargs, result: {"bytes": _snapshot_bytes(result[0])})
    tr.spanned(groundstate, "solve_profile", "groundstate.solve_profile")
    tr.spanned(groundstate, "structure_constants", "groundstate.structure_constants")
    tr.counted(groundstate.GroundState, "q_at", "groundstate.profile_evals")
    tr.counted(groundstate.GroundState, "dq_at", "groundstate.profile_evals")
    return tr
