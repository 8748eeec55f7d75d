"""Chain-based estimation of the holomorphic pseudo-distance.

A chain joins two points through waypoints, each consecutive pair realized
by a solved disk evaluated at source parameter 0 and target parameter
b = t.  Every disk is solved on the unit disk, so a link's cost is the
hyperbolic distance between the parameters there, arctanh(t), and the
total cost of any certified chain is an upper bound on the pseudo-distance
by definition (Kobayashi, Hyperbolic Complex Spaces, 1998).  The search
explores waypoints equally spaced along the chart segment (shortest
lattice representative on a torus) and sweeps the interpolation node t per
link, keeping the cheapest chain found.  Every link costs at least
arctanh(t_min), so a k-link chain costs at least k arctanh(t_min);
the search solves links best first on this bound (A*, Hart, Nilsson and
Raphael, IEEE Trans. SSC 4 (1968) 100), never solves one whose bound is
above the optimum, and returns the chain the full search would.  The returned
bound is monotone: enlarging ``k_max`` or refining ``t_grid`` can only grow
the candidate set.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .diskgrid import DiskGrid, DiskMap, eval_interp, make_grid, poincare_distance
from .errors import (Diverged, InvalidChain, InvalidParams, NoChainFound,
                     NotHolomorphicMap, Singular)
from .solver import (_RESIDUAL_CAP, DiskSolution, SolverConfig, _point, check_node,
                     cr_residual, derivative_disk, two_point_disk)
from .structure import DomainDescriptor, StructureField

_ENDPOINT_TOL = 1e-8     # largest accepted gap between a link's end and its target


@dataclass
class ChainLink:
    """A disk joining ``src`` at parameter 0 to ``dst`` at parameter ``b``."""

    disk: DiskSolution
    b: complex
    src: np.ndarray
    dst: np.ndarray

    @property
    def cost(self) -> float:
        """Hyperbolic distance from 0 to ``b`` = t in the unit disk, arctanh(t)."""
        return poincare_distance(0, self.b)


@dataclass
class Chain:
    links: list
    domain: DomainDescriptor

    @property
    def total_cost(self) -> float:
        return float(sum(link.cost for link in self.links))


@dataclass
class DistanceEstimate:
    """``estimate_distance``'s result.  ``search_log`` holds one (k, t, cost)
    triple per link solve, in the order the best-first search made them, so
    the entries of different k interleave; ``pruned`` holds one
    (k, i, t, lower) entry per k the search started and left unfinished."""

    best_chain: Chain
    search_log: list
    pruned: list = field(default_factory=list)

    @property
    def upper(self) -> float:
        """The cost of ``best_chain``."""
        return self.best_chain.total_cost


@dataclass
class BoundProbe:
    """One ``derivative_bound`` solve at scale ``lam``: whether it was
    ``feasible``, its disk's ``residual`` (None when the solve raised) and,
    for an infeasible probe, the ``gate`` that decided it (``_attempt``).
    A solve rejected early, once sure to miss the cap (``picard_solve``),
    carries the residual of its last iterate; it may be one whose full solve
    would have raised ``Diverged``, and is infeasible either way."""

    lam: float
    feasible: bool
    residual: float | None
    gate: str | None


@dataclass
class BoundReport:
    lambda_lower: float
    lambda_max: float
    unbounded_suspected: bool
    probes: list


@dataclass
class KobayashiOptions:
    """``estimate_distance``'s search: at most ``k_max`` links, each tried at
    the distinct ``t_grid`` nodes and solved with ``cfg`` on the unit disk
    ``make_grid(1.0, grid_n)``.  ``residual_cap``, the constant
    ``solver._RESIDUAL_CAP``, stays only for the benchmark's distance check
    (``perfbench/workloads.py``)."""

    k_max: int = 3
    t_grid: tuple = (0.05, 0.1, 0.25, 0.5)
    cfg: SolverConfig = field(default_factory=SolverConfig)
    grid_n: int = 33
    residual_cap = _RESIDUAL_CAP

    def __post_init__(self):
        if not self.k_max >= 1:
            raise InvalidParams(f"k_max must be at least 1, got {self.k_max}")
        if len(self.t_grid) == 0:
            raise InvalidParams("t_grid must hold at least one node")


def chain_cost(chain: Chain, tol: float = 1e-8) -> float:
    """Total cost after checking that consecutive links share endpoints."""
    dom = chain.domain
    prev_dst = None
    for i, link in enumerate(chain.links):
        if prev_dst is not None and dom.point_gap(prev_dst, link.src) > tol:
            raise InvalidChain(f"links {i - 1} and {i} do not share an endpoint")
        prev_dst = link.dst
    return chain.total_cost


def validate_chain(chain: Chain, tol_endpoint: float = 1e-6) -> None:
    """Certify every link: declared endpoints are hit by the stored disk."""
    dom = chain.domain
    for i, link in enumerate(chain.links):
        va = link.disk.v.value_at_center()
        vb = eval_interp(link.disk.v, link.b)
        if dom.point_gap(va, link.src) > tol_endpoint:
            raise InvalidChain(f"link {i} misses its source point")
        if dom.point_gap(vb, link.dst) > tol_endpoint:
            raise InvalidChain(f"link {i} misses its target point")
    chain_cost(chain, tol=tol_endpoint)


def _attempt(solve, dom: DomainDescriptor, at=None):
    """``(sol, gate)`` for the capped solve ``solve(_RESIDUAL_CAP)``: gate
    None for an accepted disk, else the first gate it fails, in order:

    - "Diverged" or "Singular": the solve raised it, and sol is None;
    - "residual": sol's ``cr_residual``, a sup over grid nodes, is above
      ``solver._RESIDUAL_CAP`` (1e-2); an uncertified disk's image says
      nothing, so this decides first;
    - "containment": a grid node of sol's image lies outside ``dom``;
    - "endpoint": given ``at = (b, target)``, a link's disk read at b by
      ``eval_interp`` is more than ``_ENDPOINT_TOL`` (1e-8) from its target.
    """
    try:
        sol = solve(_RESIDUAL_CAP)
    except (Diverged, Singular) as exc:
        return None, type(exc).__name__
    if not sol.residual <= _RESIDUAL_CAP:
        return sol, "residual"
    if not dom.contains(sol.v.values[sol.v.grid.mask]):
        return sol, "containment"
    if at is not None and dom.point_gap(eval_interp(sol.v, at[0]), at[1]) > _ENDPOINT_TOL:
        return sol, "endpoint"
    return sol, None


def estimate_distance(J: StructureField, p, q, opts: KobayashiOptions | None = None) -> DistanceEstimate:
    """Cheapest certified chain joining p and q.

    ``upper`` is the cost of the returned chain, whatever the search
    pruned; a link accepted at node t costs arctanh(t), its hyperbolic
    length in the unit disk the search solves on.  What is
    certified is the chain of *discretized* disks: every accepted link
    passes the gates of ``_attempt``, which read its residual and image at
    the grid nodes and its target endpoint by bilinear interpolation at t.
    A link's disk is the Picard iterate at which its solve stopped, not the
    fixed point itself: its distance to the fixed point is at most about
    ``solver._THETA`` (1e-3) times its residual (see ``picard_solve``).  A
    link that will miss the residual cap stops once its miss is sure, at an
    iterate above the cap, so it is rejected as the fully iterated one
    would be.  Nothing is checked between nodes, and a t below the grid
    step falls inside the first cell, so ``upper`` bounds the
    pseudo-distance only up to the discretization error.  The search log
    records one (k, t, cost) triple per link solve, in the order made, with
    infinite cost for rejected attempts; a node repeated in ``t_grid`` is
    tried once.

    The search is an exact best-first branch and bound.  Each k-link chain
    is built link by link, each link at the smallest node whose disk
    passes, and its next solve, link i at node t, has the lower bound
    ``lower``: the accepted links' costs, t's cost and k - i - 1 copies of
    f = arctanh(t_min), the least cost of a link, summed in the order of
    ``Chain.total_cost``.  No chain completed from there costs less.  One
    such state per k waits in a heap keyed by (lower, k); each step solves
    the smallest state's link and pushes its successor, and k + 1 starts
    when k's first link is tried.  Keys only grow, so the first chain
    completed is the cheapest, ties going to the smaller k, and every state
    still waiting has lower above its cost, or equal to it with a larger k.
    ``pruned`` records those states as (k, i, t, lower), one per unfinished
    k, in key order.  The result is the chain the unpruned search returns,
    from a subset of its solves.  A ``t_grid`` node that ``check_node``
    rejects on the search grid raises ``InvalidParams`` before any solve.
    """
    opts = opts or KobayashiOptions()
    p, q = _point(J, "p", p), _point(J, "q", q)
    dom = J.domain
    if dom.point_gap(p, q) == 0.0:
        return DistanceEstimate(Chain([], dom), [])

    grid = make_grid(1.0, opts.grid_n)
    for t in opts.t_grid:
        check_node(t, grid)
    t_values = sorted(set(opts.t_grid))
    delta = dom.shortest_delta(p, q)

    # a link accepted at node t costs cost_t, the same float ChainLink.cost
    # gives, and no link costs less than f, the cost of the smallest node
    costs = [poincare_distance(0, complex(t, 0.0)) for t in t_values]
    f = costs[0]

    def lower(k, i, j, prefix):
        # summed in the order of Chain.total_cost, so no chain completed
        # from link i of k at node j costs less
        total = prefix + costs[j]
        for _ in range(k - i - 1):
            total += f
        return total

    # one frontier state per k, (lower, k, link i, node index j, prefix cost,
    # links); (lower, k) is unique, so the heap never compares the rest
    heap = [(lower(1, 0, 0, 0), 1, 0, 0, 0, [])]
    best: Chain | None = None
    log: list = []
    while heap and best is None:
        _, k, i, j, prefix, links = heapq.heappop(heap)
        if i == j == 0 and k < opts.k_max:
            heapq.heappush(heap, (lower(k + 1, 0, 0, 0), k + 1, 0, 0, 0, []))
        t = t_values[j]
        src, dst = p + (i / k) * delta, p + ((i + 1) / k) * delta
        b = complex(t, 0.0)
        sol, gate = _attempt(lambda cap: two_point_disk(J, src, dst, t, opts.cfg, grid, cap=cap),
                             dom, at=(b, dst))
        link = ChainLink(sol, b, src, dst) if gate is None else None
        log.append((k, t, math.inf if link is None else link.cost))
        if link is not None:
            i, j, prefix, links = i + 1, 0, prefix + link.cost, links + [link]
            if i == k:
                best = Chain(links, dom)
                continue
        elif j + 1 < len(t_values):
            j += 1
        else:
            continue   # link i has no node, so k has no chain
        heapq.heappush(heap, (lower(k, i, j, prefix), k, i, j, prefix, links))
    if best is None:
        raise NoChainFound(
            f"no (k <= {opts.k_max}, t in {tuple(t_values)}) chain joins the points")
    # every state left has a larger (lower, k) than the best chain's (cost, k)
    pruned = [(k, i, t_values[j], bound) for bound, k, i, j, _, _ in sorted(heap)]
    return DistanceEstimate(best, log, pruned)


def pushforward_chain(chain: Chain, f, J_target: StructureField,
                      residual_tol: float = 1e-3) -> Chain:
    """Compose every link disk with a map between domains.

    Source and target parameters are untouched, so the cost is preserved
    exactly.  Each composed disk is re-certified against the target
    structure; failure raises ``NotHolomorphicMap``.
    """
    new_links = []
    for i, link in enumerate(chain.links):
        vals = np.asarray(f(link.disk.v.values.reshape(-1, link.disk.v.values.shape[-1])))
        vals = vals.reshape(link.disk.v.values.shape[:2] + (vals.shape[-1],))
        v_new = DiskMap(link.disk.v.grid, vals)
        resid = cr_residual(J_target, v_new)
        if resid > residual_tol:
            raise NotHolomorphicMap(
                f"composed link {i} has residual {resid:.3e} > {residual_tol:.1e}")
        sol = DiskSolution(v_new, resid, link.disk.step_deltas)
        src = np.asarray(f(link.src[None, :]))[0]
        dst = np.asarray(f(link.dst[None, :]))[0]
        new_links.append(ChainLink(sol, link.b, src, dst))
    return Chain(new_links, J_target.domain)


def derivative_bound(J: StructureField, p, nu, lambda_max: float,
                     cfg: SolverConfig | None = None, grid: DiskGrid | None = None,
                     bisect_tol: float = 0.01) -> BoundReport:
    """Largest derivative scale at which a certified disk through p with
    prescribed derivative exists and stays inside the domain.

    Bisection on the scale; the result is a lower bound for the derivative
    supremum over all disks.  A scale is feasible when its disk passes the
    gates of ``_attempt`` (the distance search's, but the endpoint); each
    probe is recorded as a ``BoundProbe`` with its residual and the gate
    that rejected it.  Feasibility at ``lambda_max`` itself is flagged as
    ``unbounded_suspected`` (the scan cannot certify an actual supremum).
    ``lambda_max`` and ``bisect_tol`` must be positive and finite; the
    bisection also stops once it reaches adjacent floats.
    """
    for name, value in (("lambda_max", lambda_max), ("bisect_tol", bisect_tol)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidParams(f"{name} must be positive and finite, got {value}")
    cfg = cfg or SolverConfig()
    grid = grid or make_grid(1.0, 33)
    p, nu = _point(J, "p", p), _point(J, "nu", nu)
    if not np.any(nu):
        raise InvalidParams("direction must be nonzero")
    nu = nu / np.max(np.abs(nu))
    nu = nu / np.linalg.norm(nu)
    dom = J.domain
    probes: list = []

    def feasible(lam: float) -> bool:
        sol, gate = _attempt(lambda cap: derivative_disk(J, p, lam * nu, cfg, grid, cap=cap), dom)
        probes.append(BoundProbe(lam, gate is None, None if sol is None else sol.residual, gate))
        return gate is None

    if feasible(lambda_max):
        return BoundReport(lambda_max, lambda_max, True, probes)
    lo, hi = 0.0, lambda_max
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return BoundReport(lo, lambda_max, False, probes)
