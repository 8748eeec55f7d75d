"""Span tracer wrapped around jdisk's module seams from outside the package.

For the duration of a traced run, ``Seams.install`` replaces the names each
jdisk module resolves at call time (and three methods) with wrappers that
record one span per call: name, start, end, parent span and op id.  Spans
stay in memory and are written once when the run ends.  A span's self time
is its duration minus its children's.

Layer spans are named after the module that owns the code
(``structure.q_field``).  The op's root span and the spans of the public
entry points the workloads call (``entry.*``) belong to no layer: their self
time is the part of the op that no layer span covers, so work that slips
out of the seams shows up as unattributed time rather than as a layer's.

If a wrapped name no longer exists the install fails with ``SeamMissing``,
so a refactor cannot silently drop a layer from the trace; a traced run
whose layer spans cover too little of its op time fails with
``SeamCoverage``, so neither can a refactor that moves work past a seam.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

ROOT = "op"
ENTRY = "entry."


class SeamMissing(RuntimeError):
    """A module attribute or method the tracer wraps does not exist."""


class SeamCoverage(RuntimeError):
    """Too much of the traced op time lies outside every layer span."""


def _points(args, kwargs, out):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    return len(pts)


def _newton_steps(args, kwargs, out):
    return out.newton_steps if out is not None else 0


# (module, attribute, span name, work measure called with the call's
# arguments and result, or None when it raised).  Module functions are
# wrapped in the namespace of the module that calls them, because each
# module binds its imports at import time and resolves them there.  The
# ``entry.*`` rows are the functions the workloads call; they are wrapped
# for their counts only.
FUNCTION_SEAMS = [
    ("jdisk.solver", "q_field", "structure.q_field", _points),
    ("jdisk.solver", "d_dz", "diskgrid.wirtinger", None),
    ("jdisk.solver", "d_dzbar", "diskgrid.wirtinger", None),
    ("jdisk.solver", "cg_build", "cauchygreen.cg_build", None),
    ("jdisk.solver", "cg_apply", "cauchygreen.apply", None),
    ("jdisk.solver", "eval_interp", "diskgrid.interp", None),
    ("jdisk.solver", "cr_residual", "solver.cr_residual", None),
    ("jdisk.solver", "picard_solve", "solver.picard", None),
    ("jdisk.solver", "two_point_disk", "entry.two_point_disk", _newton_steps),
    ("jdisk.kobayashi", "two_point_disk", "solver.solve", _newton_steps),
    ("jdisk.kobayashi", "derivative_disk", "solver.solve", _newton_steps),
    ("jdisk.kobayashi", "make_grid", "diskgrid.make_grid", None),
    ("jdisk.kobayashi", "estimate_distance", "entry.estimate_distance", None),
    ("jdisk.brody", "scaling_sup", "brody.scan", None),
    ("jdisk.brody", "brody_reparametrize", "brody.reparam", None),
    ("jdisk.brody", "rescale_step", "brody.rescale", None),
    ("jdisk.brody", "resample", "diskgrid.resample", None),
    ("jdisk.brody", "sup_poincare_derivative", "diskgrid.sup_derivative", None),
    ("jdisk.brody", "cr_residual", "solver.cr_residual", None),
    ("jdisk.brody", "extract_line", "entry.extract_line", None),
]

# (module, class, method, span name)
METHOD_SEAMS = [
    ("jdisk.structure", "StructureField", "eval", "structure.eval"),
    ("jdisk.cauchygreen", "CGOperator", "__init__", "cauchygreen.build"),
    ("jdisk.diskgrid", "DiskMap", "__post_init__", "diskgrid.diskmap"),
]


class Tracer:
    """Spans in parallel lists; recording only inside ``run_op``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.op: list = []
        self.failed: list = []
        self.work: list = []
        self._stack: list = []
        self._op_id = None

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.failed.append(False)
        self.work.append(0)
        self.end.append(None)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int, failed: bool, work: int = 0) -> None:
        self.end[idx] = self.clock()
        self.failed[idx] = failed
        self.work[idx] = work
        self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True, measure(args, kwargs, None) if measure else 0)
                raise
            tracer._close(idx, False, measure(args, kwargs, out) if measure else 0)
            return out

        return traced

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` under a root span for op ``op_id``."""
        self._op_id = op_id
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx, False)
            self._op_id = None

    def self_times(self) -> list:
        """Duration minus the durations of direct children, per span."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"name": self.name, "start": self.start, "end": self.end,
                       "parent": self.parent, "op": self.op,
                       "failed": self.failed, "work": self.work}, fh)


class Seams:
    """Installs tracer wrappers on every seam and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []

    def install(self) -> None:
        """Check every seam, then wrap them all; a missing seam raises
        ``SeamMissing`` before anything is wrapped."""
        targets = []
        for mod_name, attr, span, measure in FUNCTION_SEAMS:
            mod = importlib.import_module(mod_name)
            if not callable(getattr(mod, attr, None)):
                raise SeamMissing(f"{mod_name}.{attr} no longer exists")
            targets.append((mod, attr, span, measure))
        for mod_name, cls_name, meth, span in METHOD_SEAMS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            if cls is None or not callable(cls.__dict__.get(meth)):
                raise SeamMissing(f"{mod_name}.{cls_name}.{meth} no longer exists")
            targets.append((cls, meth, span, None))
        for owner, attr, span, measure in targets:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.tracer.wrap(span, orig, measure))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self.tracer

    def __exit__(self, *exc):
        self.restore()
        return False


def aggregate(tracer: Tracer, scale: dict) -> dict:
    """Sum the spans of the ops in ``scale``.

    ``by_name`` gives, per span name, the call count, failed calls, summed
    work and self seconds multiplied by the op's calibration factor
    ``scale[op]``.  ``children`` counts calls per (parent name, name) pair.
    ``roots`` gives, per op, the scaled root duration and, as ``self_s``,
    the summed self time of the root and entry spans: the part of the op
    that no layer span covers.
    """
    selfs = tracer.self_times()
    names = tracer.name
    by_name: dict = defaultdict(lambda: {"calls": 0, "failed": 0, "work": 0, "self_s": 0.0})
    children: dict = defaultdict(int)
    roots: dict = {}
    unattributed: dict = defaultdict(float)
    for i, name in enumerate(names):
        op = tracer.op[i]
        if op not in scale:
            continue
        f = scale[op]
        if name == ROOT:
            roots[op] = {"total_s": (tracer.end[i] - tracer.start[i]) * f,
                         "self_s": selfs[i] * f}
            continue
        if name.startswith(ENTRY):
            unattributed[op] += selfs[i] * f
        row = by_name[name]
        row["calls"] += 1
        row["failed"] += int(tracer.failed[i])
        row["work"] += tracer.work[i]
        row["self_s"] += selfs[i] * f
        children[(names[tracer.parent[i]], name)] += 1
    for op, extra in unattributed.items():
        roots[op]["self_s"] += extra
    return {"by_name": dict(by_name), "children": dict(children), "roots": roots}
