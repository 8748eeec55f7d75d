"""Tests of the benchmark's own machinery: span self-time arithmetic, the
host calibration, the seam guards, and counter determinism of traced runs."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jdisk.brody  # noqa: E402
import jdisk.solver  # noqa: E402
import harness  # noqa: E402
import refkernel  # noqa: E402
import spans  # noqa: E402
from spans import ROOT, SeamCoverage, Seams, SeamMissing, Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS, LineN129  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_children():
    # op [0, 10] > a [1, 7] > b [2, 5]; op > c [8, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5, 7, 8, 9, 10]))
    a = tracer.wrap("solver.a", lambda: b())
    b = tracer.wrap("diskgrid.b", lambda: None)
    c = tracer.wrap("solver.c", lambda: None)
    tracer.run_op(1, lambda: (a(), c()))
    assert tracer.self_times() == [10 - 6 - 1, 6 - 3, 3, 1]
    agg = aggregate(tracer, {1: 2.0})
    assert agg["roots"][1] == {"total_s": 20.0, "self_s": 6.0}
    assert agg["by_name"]["solver.a"]["self_s"] == 6.0
    assert agg["by_name"]["diskgrid.b"]["self_s"] == 6.0
    assert agg["children"] == {(ROOT, "solver.a"): 1, ("solver.a", "diskgrid.b"): 1,
                               (ROOT, "solver.c"): 1}
    layers = sum(row["self_s"] for row in agg["by_name"].values())
    assert layers + agg["roots"][1]["self_s"] == agg["roots"][1]["total_s"]


def test_entry_span_self_time_is_unattributed():
    # op [0, 10] > entry.e [1, 9] > solver.a [2, 5]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5, 9, 10]))
    a = tracer.wrap("solver.a", lambda: None)
    e = tracer.wrap("entry.e", lambda: a())
    tracer.run_op(1, e)
    agg = aggregate(tracer, {1: 1.0})
    assert agg["roots"][1] == {"total_s": 10, "self_s": 2 + 5}
    assert agg["by_name"]["entry.e"]["calls"] == 1
    assert agg["by_name"]["solver.a"]["self_s"] == 3


def test_failed_call_is_recorded_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("solver.boom", boom)
    with pytest.raises(ValueError):
        tracer.run_op(1, wrapped)
    assert tracer.failed == [False, True]
    assert tracer._stack == [] and tracer._op_id is None


def test_calibration_cancels_a_uniform_host_slowdown():
    r0 = refkernel.R0
    assert refkernel.to_reference(1.5, r0, r0) == pytest.approx(1.5)
    base = refkernel.to_reference(1.5, 0.05, 0.07)
    assert base == pytest.approx(1.5 * r0 / 0.06)
    for slow in (0.5, 1.9):
        assert refkernel.to_reference(1.5 * slow, 0.05 * slow, 0.07 * slow) == pytest.approx(base)


def test_seams_are_restored():
    before = (jdisk.solver.q_field, jdisk.brody.scaling_sup)
    with Seams(Tracer()):
        assert jdisk.solver.q_field is not before[0]
    assert (jdisk.solver.q_field, jdisk.brody.scaling_sup) == before


def test_seam_guard_aborts_on_a_missing_name(monkeypatch):
    monkeypatch.delattr(jdisk.brody, "scaling_sup")
    q_field = jdisk.solver.q_field
    with pytest.raises(SeamMissing, match="scaling_sup"):
        with Seams(Tracer()):
            pass
    assert jdisk.solver.q_field is q_field


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counters_repeat_for_a_seed(name):
    wl = WORKLOADS[name]()
    runs = [harness.traced_run(wl, seed=3, n_ops=1) for _ in range(2)]
    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m, _ in runs]
    assert counts[0] == counts[1]
    metrics, report = runs[0]
    assert report["failed"] == 0
    layers = sum(metrics[f"layer.{layer}.self_s"][0] for layer in harness.LAYERS)
    assert layers + metrics["trace.unattributed_s"][0] == pytest.approx(metrics["trace.op_s"][0])
    assert metrics["trace.unattributed_share"][0] <= harness.MAX_UNATTRIBUTED


def test_coverage_guard_aborts_when_seams_stop_catching_work(monkeypatch):
    # The reparametrization and its scaling scan are most of line_n129.
    # Without their seams that time is no layer's, as if extract_line
    # reached them by a path no seam covers, and the traced run must fail
    # rather than report it.
    dropped = ("brody_reparametrize", "scaling_sup")
    seams = [row for row in spans.FUNCTION_SEAMS if row[1] not in dropped]
    monkeypatch.setattr(spans, "FUNCTION_SEAMS", seams)
    with pytest.raises(SeamCoverage):
        harness.traced_run(LineN129(), seed=3, n_ops=1)


def test_benchmark_json_and_spec_match_the_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [row[:3] for row in harness.PER_LAYER]
    spec = json.loads((HERE / "spec.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        refkernel.ReferenceKernel(name)       # every mix names real components
