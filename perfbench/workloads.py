"""The benchmark's three closed-loop workloads against the public jdisk API.

Each workload names the box its random inputs are uniform on (``ranges``)
and turns one point of that box into an op's input (``make``); ``warmup`` is
the fixed input of the warm-up op that ends every set-up.  It builds its
state once (``setup``), runs one op (``op``) and checks the op's output at
the library's own acceptance gates (``check``).  Ops call the library
through module attributes (``solver.two_point_disk`` and so on) so that a
traced run sees them through its seam wrappers.
"""

from __future__ import annotations

import numpy as np

from jdisk import brody, kobayashi, solver
from jdisk import (InvalidChain, KobayashiOptions, SolverConfig, chain_cost,
                   dilation_family, eval_interp, gallery, make_grid,
                   validate_chain)


class DiskN129:
    """Certified two-point disks on one prebuilt N = 129 grid."""

    name = "disk_n129"
    traced_ops = 3
    N = 129
    # p ~ U[-0.2, 0.2]^2, q - p ~ U[-0.15, 0.15]^2, t = 0.5
    ranges = ((-0.2, 0.2), (-0.2, 0.2), (-0.15, 0.15), (-0.15, 0.15))
    warmup = (0.0, 0.0, 0.1, 0.05)

    def make(self, x):
        p = np.array(x[:2], dtype=float)
        return p, p + np.array(x[2:], dtype=float), 0.5

    def setup(self):
        return {"J": gallery("conjugated", epsilon=0.1),
                "grid": make_grid(1.0, self.N),
                "cfg": SolverConfig(epsilon=0.05)}

    def op(self, state, inp):
        p, q, t = inp
        return solver.two_point_disk(state["J"], p, q, t, state["cfg"], state["grid"])

    def check(self, state, inp, sol) -> list:
        p, q, t = inp
        errs = []
        e0 = float(np.max(np.abs(sol.v.value_at_center() - p)))
        et = float(np.max(np.abs(eval_interp(sol.v, complex(t, 0.0)) - q)))
        if not (e0 < 1e-6 and et < 1e-6):
            errs.append(f"endpoint error {max(e0, et):.3e} >= 1e-6")
        if not sol.residual < 1e-3:
            errs.append(f"residual {sol.residual:.3e} >= 1e-3")
        return errs

    def quality(self, sol) -> dict:
        return {"cr_residual": sol.residual}

    def counters(self, sol) -> dict:
        return {}


class DistanceN33:
    """Chain upper bounds from ``estimate_distance`` with default options."""

    name = "distance_n33"
    traced_ops = 3
    # p ~ U[-0.3, 0.3]^2 and q = p + 0.3 (cos a, sin a) with a ~ U[0, 2 pi).
    # The search cost is set by |q - p|: a longer gap fails more link
    # attempts at small t (6, 7 or 10 attempts per op over |q - p| < 0.57).
    # At a fixed 0.3 every op makes 7 attempts and throws 1 away after a
    # full solve, so per-op cost is steady and run medians do not swing
    # with the seed's mix of gaps.
    ranges = ((-0.3, 0.3), (-0.3, 0.3), (0.0, 2.0 * np.pi))
    warmup = (0.0, 0.0, 0.25 * np.pi)
    gap = 0.3

    def make(self, x):
        p = np.array(x[:2], dtype=float)
        return p, p + self.gap * np.array([np.cos(x[2]), np.sin(x[2])])

    def setup(self):
        return {"J": gallery("conjugated", epsilon=0.2),
                "opts": KobayashiOptions()}

    def op(self, state, inp):
        p, q = inp
        return kobayashi.estimate_distance(state["J"], p, q, state["opts"])

    def check(self, state, inp, est) -> list:
        errs = []
        chain = est.best_chain
        try:
            validate_chain(chain, 1e-6)
        except InvalidChain as exc:
            errs.append(f"validate_chain: {exc}")
        cap = state["opts"].residual_cap
        worst = max(link.disk.residual for link in chain.links)
        if worst > cap:
            errs.append(f"accepted link residual {worst:.3e} > cap {cap:.1e}")
        if est.upper != chain_cost(chain):
            errs.append(f"upper {est.upper!r} != chain cost {chain_cost(chain)!r}")
        return errs

    def quality(self, est) -> dict:
        return {"cr_residual": max(link.disk.residual for link in est.best_chain.links),
                "upper": est.upper}

    def counters(self, est) -> dict:
        return {"kobayashi.link.rejected":
                sum(1 for _, _, cost in est.search_log if cost == float("inf"))}


class LineN129:
    """Brody rescaling of dilation families on the flat torus."""

    name = "line_n129"
    traced_ops = 6
    N = 129
    # base ~ U[3, 6]
    ranges = ((3.0, 6.0),)
    warmup = (4.5,)

    def make(self, x):
        return float(x[0])

    def setup(self):
        return {"J": gallery("torus-flat"), "grid": make_grid(1.0, self.N)}

    def op(self, state, base):
        family = dilation_family(state["grid"], base=base, factor=2.0)
        return brody.extract_line(state["J"], family, R=2.0, tol=1e-10, n_max=6)

    def check(self, state, base, rep) -> list:
        if not rep.converged:
            return [f"no convergence: {rep.message}"]
        errs = []
        d0 = rep.final.derivative_at_0
        if not abs(d0 - 1.0) < 1e-6:
            errs.append(f"|f'(0) - 1| = {abs(d0 - 1.0):.3e} >= 1e-6")
        if not rep.final.cr_residual < 1e-10:
            errs.append(f"cr_residual {rep.final.cr_residual:.3e} >= 1e-10")
        return errs

    def quality(self, rep) -> dict:
        return {}

    def counters(self, rep) -> dict:
        return {"brody.steps": len(rep.steps)}


WORKLOADS = {wl.name: wl for wl in (DiskN129, DistanceN33, LineN129)}
