"""Timed and traced runs of one workload.

A timed run first times ``SETUP_REPEATS`` cold set-ups, each in a fresh
process after ``import jdisk``: its own, which it keeps for the loop, and
the others in child processes started one after another.  A set-up ends
with a warm-up op, whose time counts toward set-up.  The run then runs ops
in a closed loop with one client for the requested number of seconds.
Every interval is bracketed by runs of the reference kernel and converted
to reference seconds (see refkernel).

A set-up that raises ends the run.  An op that raises or fails its check is
counted as failed and the loop goes on.

A traced run sets up once with the seam tracer installed, then runs a fixed
number of ops, each once untraced and once traced on the same inputs; the
fixed count makes every counter repeat exactly for a seed, and the pairs give
the tracing overhead.  Its metrics are the per-layer ones.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from refkernel import ReferenceKernel, to_reference
from spans import SeamCoverage, Seams, Tracer, aggregate

SETUP_REPEATS = 3
SETUP_KERNELS = 3
BLOCK = 8
# Modules with layer spans.  kobayashi's own code is the chain search in
# estimate_distance, the workload's entry point, so its self time is
# unattributed; its seams give the link counts.
LAYERS = ("structure", "diskgrid", "cauchygreen", "solver", "brody")
# Largest share of traced op time that may lie outside every layer span.
MAX_UNATTRIBUTED = 0.10

END_TO_END = [
    ("op_s_p50", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _calls(agg, name):
    return agg["by_name"].get(name, {}).get("calls", 0)


def _field(agg, names, field):
    return sum(agg["by_name"].get(name, {}).get(field, 0) for name in names)


# Two-point and derivative solves: link solves inside estimate_distance and
# the op itself on disk_n129.
SOLVES = ("solver.solve", "entry.two_point_disk")


def _self_per_op(agg, name):
    return agg["by_name"].get(name, {}).get("self_s", 0.0) / len(agg["roots"])


def _layer_self_per_op(agg, layer):
    total = sum(row["self_s"] for name, row in agg["by_name"].items()
                if name.split(".")[0] == layer)
    return total / len(agg["roots"])


# (name, unit, better, value from (agg, run)); counts are totals over the
# traced ops, seconds are reference seconds per traced op.
PER_LAYER = [
    ("structure.q_field.calls", "count", "lower", lambda a, r: _calls(a, "structure.q_field")),
    ("structure.q_field.points", "count", "lower",
     lambda a, r: a["by_name"].get("structure.q_field", {}).get("work", 0)),
    ("structure.q_field.self_s", "s", "lower", lambda a, r: _self_per_op(a, "structure.q_field")),
    ("structure.eval.self_s", "s", "lower", lambda a, r: _self_per_op(a, "structure.eval")),
    ("cauchygreen.build.count", "count", "lower", lambda a, r: _calls(a, "cauchygreen.build")),
    ("cauchygreen.cg_build.calls", "count", "lower",
     lambda a, r: _calls(a, "cauchygreen.cg_build")),
    ("cauchygreen.build.self_s", "s", "lower", lambda a, r: _self_per_op(a, "cauchygreen.build")),
    ("cauchygreen.build.setup_s", "s", "lower", lambda a, r: r["setup_build_s"]),
    ("cauchygreen.apply.calls", "count", "lower", lambda a, r: _calls(a, "cauchygreen.apply")),
    ("cauchygreen.apply.self_s", "s", "lower", lambda a, r: _self_per_op(a, "cauchygreen.apply")),
    ("diskgrid.diskmap.count", "count", "lower", lambda a, r: _calls(a, "diskgrid.diskmap")),
    ("diskgrid.diskmap.self_s", "s", "lower", lambda a, r: _self_per_op(a, "diskgrid.diskmap")),
    ("diskgrid.wirtinger.self_s", "s", "lower", lambda a, r: _self_per_op(a, "diskgrid.wirtinger")),
    ("diskgrid.resample.self_s", "s", "lower", lambda a, r: _self_per_op(a, "diskgrid.resample")),
    ("solver.picard.calls", "count", "lower", lambda a, r: _calls(a, "solver.picard")),
    ("solver.picard.iters", "count", "lower",
     lambda a, r: a["children"].get(("solver.picard", "structure.q_field"), 0)),
    ("solver.picard.failed", "count", "lower",
     lambda a, r: a["by_name"].get("solver.picard", {}).get("failed", 0)),
    ("solver.picard.self_s", "s", "lower", lambda a, r: _self_per_op(a, "solver.picard")),
    ("solver.newton.steps", "count", "lower", lambda a, r: _field(a, SOLVES, "work")),
    ("solver.solve.calls", "count", "lower", lambda a, r: _field(a, SOLVES, "calls")),
    ("solver.solve.failed", "count", "lower", lambda a, r: _field(a, SOLVES, "failed")),
    ("solver.cr_residual.self_s", "s", "lower", lambda a, r: _self_per_op(a, "solver.cr_residual")),
    ("kobayashi.link.attempts", "count", "lower",
     lambda a, r: a["children"].get(("entry.estimate_distance", "solver.solve"), 0)),
    ("kobayashi.link.rejected", "count", "lower",
     lambda a, r: r["counters"].get("kobayashi.link.rejected", 0)),
    ("brody.scaling_sup.calls", "count", "lower", lambda a, r: _calls(a, "brody.scan")),
    ("brody.scan.self_s", "s", "lower", lambda a, r: _self_per_op(a, "brody.scan")),
    ("brody.reparam.calls", "count", "lower", lambda a, r: _calls(a, "brody.reparam")),
    ("brody.reparam.self_s", "s", "lower", lambda a, r: _self_per_op(a, "brody.reparam")),
    ("brody.steps", "count", "lower", lambda a, r: r["counters"].get("brody.steps", 0)),
] + [
    (f"layer.{layer}.self_s", "s", "lower",
     lambda a, r, layer=layer: _layer_self_per_op(a, layer)) for layer in LAYERS
] + [
    ("trace.op_s", "s", "lower",
     lambda a, r: sum(x["total_s"] for x in a["roots"].values()) / len(a["roots"])),
    ("trace.unattributed_s", "s", "lower",
     lambda a, r: sum(x["self_s"] for x in a["roots"].values()) / len(a["roots"])),
    ("trace.unattributed_share", "ratio", "lower",
     lambda a, r: (sum(x["self_s"] for x in a["roots"].values())
                   / sum(x["total_s"] for x in a["roots"].values()))),
    ("trace.overhead_ratio", "ratio", "lower", lambda a, r: r["overhead_ratio"]),
    ("host.ref_s", "s", "lower", lambda a, r: r["ref_s"]),
    ("host.raw_op_s_p50", "s", "lower", lambda a, r: r["raw_op_s_p50"]),
    ("host.raw_setup_s", "s", "lower", lambda a, r: r["raw_setup_s"]),
]


class Ledger:
    """Ops attempted, per-op check failures and output quality figures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list = []
        self.quality: dict = {}
        self.counters: dict = {}

    def record(self, op_id, errs: list, out=None) -> None:
        """Count one op with its check failures ``errs``; an ``out`` adds
        its quality figures and counters to the run's."""
        self.attempted += 1
        if errs:
            self.failures.append([op_id, "; ".join(errs)])
        if out is None:
            return
        for key, val in self.wl.quality(out).items():
            self.quality.setdefault(key, []).append(val)
        for key, val in self.wl.counters(out).items():
            self.counters[key] = self.counters.get(key, 0) + val

    def summary(self) -> dict:
        out = {"attempted": self.attempted, "failed": len(self.failures),
               "fail_ratio": len(self.failures) / self.attempted,
               "failures": self.failures}
        if "cr_residual" in self.quality:
            out["cr_residual_max"] = max(self.quality["cr_residual"])
        if "upper" in self.quality:
            out["upper_mean"] = statistics.fmean(self.quality["upper"])
        return out


def draw_inputs(wl, seed: int):
    """Endless op inputs for a seed, uniform on the workload's box.

    Inputs come in Latin-hypercube blocks of ``BLOCK``: each coordinate's
    range is cut into ``BLOCK`` strata and every stratum is used once per
    block.  Op cost depends on the inputs (a two-point solve takes 3 to 5
    Picard solves), and the blocks give every run nearly the same mix of
    cheap and costly ops, so per-run figures swing less with the seed.
    """
    rng = np.random.default_rng(seed)
    lo, hi = np.array(wl.ranges, dtype=float).T
    while True:
        strata = np.argsort(rng.random((BLOCK, lo.size)), axis=0)
        u = (strata + rng.random((BLOCK, lo.size))) / BLOCK
        for row in lo + (hi - lo) * u:
            yield wl.make(row)


def check(wl, state, inp, out, exc) -> list:
    """The op's check failures, or the exception it raised."""
    if exc is not None:
        return [f"{type(exc).__name__}: {exc}"]
    return wl.check(state, inp, out)


def _call(fn, *args):
    """Run ``fn`` and time it; an exception is returned, not raised, so
    the closed loop records it as a failed op and goes on."""
    t0 = time.perf_counter()
    try:
        out, exc = fn(*args), None
    except Exception as err:  # noqa: BLE001 - counted as a failed op
        out, exc = None, err
    return out, exc, time.perf_counter() - t0


def warm_kernel(wl) -> ReferenceKernel:
    kernel = ReferenceKernel(wl.name)
    for _ in range(3):
        kernel.run()
    return kernel


def _setup_op(wl, warm_inp):
    state = wl.setup()
    return state, wl.op(state, warm_inp)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_setup(wl, kernel) -> dict:
    """Time one set-up with its warm-up op, bracketed by kernel runs."""
    warm_inp = wl.make(wl.warmup)
    k0 = statistics.fmean(kernel.run() for _ in range(SETUP_KERNELS))
    t0 = time.perf_counter()
    state, out = _setup_op(wl, warm_inp)
    raw = time.perf_counter() - t0
    k1 = statistics.fmean(kernel.run() for _ in range(SETUP_KERNELS))
    return {"raw": raw, "ref": to_reference(raw, k0, k1), "kernel": [k0, k1],
            "errs": check(wl, state, warm_inp, out, None), "state": state}


def _child_setup(cmd: list) -> dict:
    """Run ``cmd``, a fresh benchmark process that times one cold set-up
    and prints it as JSON on its last line."""
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(wl, seed: int, seconds: float, setup_cmd: list) -> tuple:
    """End-to-end metrics of a closed loop running for ``seconds``;
    ``setup_cmd`` starts a process that times one cold set-up."""
    inputs = draw_inputs(wl, seed)
    kernel = warm_kernel(wl)
    ledger = Ledger(wl)
    own = cold_setup(wl, kernel)
    state = own.pop("state")
    setups = [own] + [_child_setup(setup_cmd) for _ in range(SETUP_REPEATS - 1)]
    refs = []
    for i, setup in enumerate(setups):
        refs += setup["kernel"]
        ledger.record(f"setup{i}", setup["errs"])

    op_raw, op_ref = [], []
    k_prev = kernel.run()
    refs.append(k_prev)
    deadline = time.perf_counter() + seconds
    op_id = 0
    while time.perf_counter() < deadline:
        op_id += 1
        inp = next(inputs)
        out, exc, raw = _call(wl.op, state, inp)
        k = kernel.run()
        refs.append(k)
        op_raw.append(raw)
        op_ref.append(to_reference(raw, k_prev, k))
        k_prev = k
        ledger.record(op_id, check(wl, state, inp, out, exc), out)
        out = None                        # free it before the next op

    values = {"op_s_p50": statistics.median(op_ref),
              "ops_per_s": len(op_ref) / sum(op_ref),
              "setup_s": statistics.median(s["ref"] for s in setups),
              "peak_rss_mb": peak_rss_mb()}
    metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    report = dict(ledger.summary(), ops=len(op_ref), setups=len(setups))
    report["setup_ref_s"] = [s["ref"] for s in setups]
    report["host.ref_s"] = statistics.median(refs)
    report["host.raw_op_s_p50"] = statistics.median(op_raw)
    report["host.raw_setup_s"] = statistics.median(s["raw"] for s in setups)
    return metrics, report


def traced_run(wl, seed: int, n_ops: int, out_dir: Path | None = None) -> tuple:
    """Per-layer metrics over ``n_ops`` traced ops (plus a traced set-up)."""
    inputs = draw_inputs(wl, seed)
    warm_inp = wl.make(wl.warmup)
    kernel = warm_kernel(wl)
    ledger = Ledger(wl)
    tracer = Tracer()
    refs = []

    k0 = kernel.run()
    t0 = time.perf_counter()
    with Seams(tracer):
        state, out = tracer.run_op("setup", _setup_op, wl, warm_inp)
    setup_raw = time.perf_counter() - t0
    k1 = kernel.run()
    refs += [k0, k1]
    ledger.record("setup", check(wl, state, warm_inp, out, None))
    scale_setup = {"setup": to_reference(1.0, k0, k1)}

    untraced_raw, untraced_ref, traced_ref, scale = [], [], [], {}
    k_prev = k1
    for op_id in range(1, n_ops + 1):
        inp = next(inputs)
        out, exc, raw = _call(wl.op, state, inp)
        k_mid = kernel.run()
        ledger.record(f"{op_id}-untraced", check(wl, state, inp, out, exc))
        untraced_raw.append(raw)
        untraced_ref.append(to_reference(raw, k_prev, k_mid))
        with Seams(tracer):
            out, exc, raw = _call(tracer.run_op, op_id, wl.op, state, inp)
        k_prev = kernel.run()
        refs += [k_mid, k_prev]
        scale[op_id] = to_reference(1.0, k_mid, k_prev)
        traced_ref.append(raw * scale[op_id])
        ledger.record(op_id, check(wl, state, inp, out, exc), out)

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"{wl.name}-seed{seed}.json")

    agg = aggregate(tracer, scale)
    setup_agg = aggregate(tracer, scale_setup)
    run = {
        "counters": ledger.counters,
        "setup_build_s": setup_agg["by_name"].get("cauchygreen.build", {}).get("self_s", 0.0),
        "overhead_ratio": sum(traced_ref) / sum(untraced_ref) - 1.0,
        "ref_s": statistics.median(refs),
        "raw_op_s_p50": statistics.median(untraced_raw),
        "raw_setup_s": setup_raw,
    }
    metrics = {name: (fn(agg, run), unit) for name, unit, _, fn in PER_LAYER}
    share = metrics["trace.unattributed_share"][0]
    if share > MAX_UNATTRIBUTED:
        raise SeamCoverage(f"{share:.1%} of traced op time lies outside every layer span "
                           f"(at most {MAX_UNATTRIBUTED:.0%} allowed)")
    report = dict(ledger.summary(), traced_ops=n_ops)
    calls = _calls(agg, "cauchygreen.cg_build")
    if calls:
        report["cauchygreen.build.hit_ratio"] = 1.0 - _calls(agg, "cauchygreen.build") / calls
    attempts = metrics["kobayashi.link.attempts"][0]
    if attempts:
        report["kobayashi.link.accept_ratio"] = (
            1.0 - metrics["kobayashi.link.rejected"][0] / attempts)
    return metrics, report
