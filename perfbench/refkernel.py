"""Reference kernel that calibrates every timed interval against the host.

The host this benchmark runs on slows down and speeds up by up to 2x over
minutes while CPU time stays close to wall time, so raw seconds from two
processes are not comparable.  Each timed interval is therefore multiplied
by ``R0 / R``: R is the wall time of the workload's kernel run in the same
process right next to the interval, and ``R0`` its nominal time.  A host
slowdown stretches both the interval and R, and cancels in the product.

The kernel's components, their inputs, ``R0`` and each workload's mix of
components are defined in ``reference_kernel`` of ``spec.json``, which this
module reads.  Different kinds of host contention slow the components by
different amounts, so each workload runs them in the proportions of its own
traced profile; such a mix tracked its workload's slowdowns about twice as
closely as one mix shared by all.  The kernel uses numpy, scipy and the
standard library only and never imports jdisk, so no change to the program
under test can speed it up.  Its FFT shape is one no benchmark grid pads to,
so it does not warm the program's FFT plans.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.fft import fft2, ifft2

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())["reference_kernel"]

# Nominal wall time of one kernel run in seconds; each workload's mix is
# sized to take about this long.  Calibrated timings are in "reference
# seconds": seconds on a host where the kernel takes exactly R0.
R0 = SPEC["r0_s"]


class ReferenceKernel:
    """Fixed work on fixed inputs; ``run()`` executes each component the
    number of times the workload's mix gives and returns the wall time."""

    def __init__(self, workload: str):
        mix = SPEC["mix"][workload]
        unknown = [name for name in mix if not hasattr(self, "_" + name)]
        if unknown:
            raise ValueError(f"unknown kernel components {unknown}")
        rng = np.random.default_rng(12345)
        m = 8000
        self.a = 2.0 * np.eye(2) + 0.3 * rng.standard_normal((m, 2, 2))
        self.b = rng.standard_normal((m, 2, 2))
        self.f = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        n = 129 * 129
        offsets = (-129, -1, 0, 1, 129)
        self.s = sp.diags([rng.standard_normal(n - abs(k)) for k in offsets],
                          offsets, format="csr")
        self.v = rng.standard_normal((n, 2))
        self.keys = [rng.standard_normal(6000) for _ in range(4)]
        self._steps = [(getattr(self, "_" + name), count) for name, count in mix.items()]

    def _batched_2x2(self) -> None:
        np.linalg.cond(self.a)
        np.linalg.solve(self.a, self.b)

    def _fft(self) -> None:
        ifft2(fft2(self.f))

    def _csr(self) -> None:
        for _ in range(10):
            self.s @ self.v

    def _lexsort(self) -> None:
        np.lexsort(self.keys)
        np.lexsort(self.keys[::-1])

    def _python_loop(self) -> None:
        acc = 0.0
        for i in range(30000):
            acc += (i % 7) * 0.5

    def run(self) -> float:
        t0 = time.perf_counter()
        for step, count in self._steps:
            for _ in range(count):
                step()
        return time.perf_counter() - t0


def to_reference(raw_s: float, ref_before: float, ref_after: float) -> float:
    """Raw seconds of an interval bracketed by two kernel runs, in
    reference seconds."""
    return raw_s * R0 / (0.5 * (ref_before + ref_after))
