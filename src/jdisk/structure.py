"""Almost complex structures on chart domains and flat tori.

A structure is a point-dependent real ``2n x 2n`` matrix field ``J`` with
``J(p)^2 = -Id``.  The module fixes the identification of C^n with R^{2n}
(interleaved coordinates), validates structure fields, and computes the
complex-dilatation matrix

    q(v) = (Jst + J(v))^{-1} (Jst - J(v)),

which measures the deviation of ``J`` from the constant standard structure
``Jst`` at the point ``v``.  ``q`` vanishes exactly where ``J = Jst``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, Singular, UnknownName

_LATTICE_AXIS = 5            # validation lattice points per axis
_LATTICE_MOST = 5 ** 6       # validation points at most (the whole n = 3 lattice)
_CONTAINS_SLACK = 1e-9       # distance beyond a chart-ball radius still inside it


class ComplexConvention:
    """Identification of C^n with R^{2n} in interleaved order (x1, y1, ..., xn, yn).

    ``jst_f`` is the block-diagonal matrix with 2x2 blocks ``[[0, -1], [1, 0]]``;
    multiplying a real vector by ``jst_f`` equals multiplying the
    corresponding complex vector by ``i``.  ``mul_i`` reads n off the last
    axis of its input, so it needs no instance.
    """

    def __init__(self, n: int):
        n = int(n)
        if n < 1:
            raise InvalidParams(f"complex dimension must be >= 1, got {n}")
        self.n = n
        self.dim = 2 * n
        jst = np.zeros((self.dim, self.dim))
        for k in range(n):
            jst[2 * k, 2 * k + 1] = -1.0
            jst[2 * k + 1, 2 * k] = 1.0
        self.jst_f = jst

    @staticmethod
    def mul_i(v: np.ndarray) -> np.ndarray:
        """Multiply real-represented vectors (..., 2n) by i."""
        v = np.asarray(v, dtype=np.float64)
        out = np.empty_like(v)
        out[..., 0::2] = -v[..., 1::2]
        out[..., 1::2] = v[..., 0::2]
        return out

    def __repr__(self):
        return f"ComplexConvention(n={self.n})"


@dataclass
class DomainDescriptor:
    """Where a structure field lives.

    ``chart-ball``: the Euclidean ball ``|p| <= radius`` about the origin of
    R^{2n} (radius may be ``inf`` for a full chart).  ``flat-torus``: R^{2n}
    modulo the unit lattice Z^{2n}; maps are carried in the universal cover
    and point comparison reduces modulo the lattice.
    """

    kind: str
    radius: float = math.inf

    def __post_init__(self):
        if self.kind not in ("chart-ball", "flat-torus"):
            raise InvalidParams(f"unknown domain kind {self.kind!r}")
        if not self.radius > 0:
            raise InvalidParams("chart-ball radius must be positive")

    @property
    def is_torus(self) -> bool:
        return self.kind == "flat-torus"

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """Reduce cover points to the fundamental domain [0,1)^{2n} (torus only)."""
        points = np.asarray(points, dtype=np.float64)
        if not self.is_torus:
            return points
        return points - np.floor(points)

    def shortest_delta(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Difference b - a, reduced to the shortest lattice representative on a torus."""
        d = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64)
        if self.is_torus:
            d = d - np.round(d)
        return d

    def point_gap(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two points (modulo the lattice on a torus)."""
        with np.errstate(over="ignore"):     # a huge gap is inf
            return float(np.linalg.norm(self.shortest_delta(a, b)))

    def contains(self, points: np.ndarray) -> bool:
        """Whether every point lies in the domain, to ``_CONTAINS_SLACK`` (always on a torus)."""
        if self.is_torus or not math.isfinite(self.radius):
            return True
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        with np.errstate(over="ignore"):     # a huge point is at distance inf
            dist = np.linalg.norm(points, axis=-1)
        return bool(np.all(dist <= self.radius + _CONTAINS_SLACK))


@dataclass
class StructureField:
    """A point-dependent matrix field J with J^2 = -Id on its domain.

    ``eval_fn`` maps an (m, 2n) array of points to an (m, 2n, 2n) array of
    matrices.  On a torus the points are wrapped to the fundamental domain
    before evaluation, so lattice translates produce bit-identical values.
    """

    convention: ComplexConvention
    domain: DomainDescriptor
    eval_fn: object
    name: str = "custom"
    cond_cap: float = 1e8

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate J at one point (2n,) or a batch (m, 2n)."""
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != self.convention.dim:
            raise InvalidParams(
                f"points have dimension {pts.shape[-1]}, expected {self.convention.dim}")
        pts = self.domain.wrap(pts)
        out = np.asarray(self.eval_fn(pts), dtype=np.float64)
        if out.shape != (pts.shape[0], self.convention.dim, self.convention.dim):
            raise InvalidParams("structure evaluation returned a wrong shape")
        return out[0] if single else out


@dataclass
class ValidationReport:
    max_residual: float
    tol: float
    passed: bool
    cond_max: float
    n_samples: int
    invalid_samples: list


def validate_structure(J: StructureField, samples: np.ndarray, tol: float = 1e-10) -> ValidationReport:
    """Check ``J(p)^2 + Id ~ 0`` over sample points.

    Reports the worst residual (max absolute entry of ``J^2 + Id``) and the
    worst condition number of ``Jst + J(p)``, which predicts where the
    dilatation matrix is computable.  Evaluation failures at individual
    samples are collected instead of raised.  An empty sample set raises
    ``InvalidParams``: no sample can pass or fail.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.size == 0:
        raise InvalidParams("validation needs at least one sample point")
    eye = np.eye(J.convention.dim)
    invalid: list = []
    try:
        mats = J.eval(samples)
    except Exception:
        rows = []
        for i, p in enumerate(samples):
            try:
                rows.append(J.eval(p))
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                invalid.append((i, str(exc)))
        mats = np.array(rows) if rows else np.zeros((0, J.convention.dim, J.convention.dim))

    if mats.shape[0]:
        resid = np.max(np.abs(np.einsum("mij,mjk->mik", mats, mats) + eye))
        cond_max = float(np.max(_cond_numbers(J.convention.jst_f + mats)))
    else:
        resid, cond_max = math.inf, math.inf
    passed = (not invalid) and resid <= tol
    return ValidationReport(float(resid), float(tol), bool(passed), cond_max,
                            samples.shape[0], invalid)


def _cond_numbers(m: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack (m, 2n, 2n) of ``Jst + J``, nan
    for a matrix with a non-finite entry; for n = 1, s_max^2 / |det| with
    s_max = (sqrt(F + 2|det|) + sqrt(F - 2|det|)) / 2, F = a^2 + b^2 + c^2
    + d^2, the exact one ``np.linalg.cond`` gives.  For n > 1 only the
    finite matrices reach LAPACK, whose SVD fails on a NaN or inf."""
    if m.shape[-1] > 2:
        finite = np.isfinite(m).all(axis=(1, 2))
        conds = np.full(m.shape[0], np.nan)
        conds[finite] = np.linalg.cond(m[finite])
        return conds
    a, b, c, d = m.reshape(-1, 4).T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det, frob2 = a * d - b * c, a * a + b * b + c * c + d * d
        two_det = 2.0 * np.abs(det)
        # F - 2|det| = (s_max - s_min)^2 >= 0 up to rounding
        s_max = 0.5 * (np.sqrt(frob2 + two_det) + np.sqrt(np.maximum(frob2 - two_det, 0.0)))
        return np.where(det == 0, np.inf, s_max * s_max / np.abs(det))


_SCREEN_BOUND = 2.0 ** 1000     # the condition screen's largest F and cap


def _dilatation(J: StructureField, mats: np.ndarray):
    """``(q, None)``, q the dilatations ``(Jst + J)^{-1} (Jst - J)`` over a
    stack (m, 2n, 2n) of values of J, or ``(None, conds)`` with the
    condition numbers of ``Jst + J`` when one is non-finite or above the cap.

    For n = 1, q is the adjugate over the determinant, formed from J's
    entries by the sums ``jst +- mats`` make, so to the bit theirs.  As
    cond = s_max^2 / |det| <= F / |det|, F < cond_cap (1 - 1e-12) |det| at
    every node passes the exact test: the margin covers rounding, and
    F <= _SCREEN_BOUND (a cap above it screens as it) keeps F + 2|det| and
    cond finite.  Only a stack failing this screen, as NaN, inf and det = 0
    (J = -Jst) do, forms the exact condition numbers."""
    jst, screened = J.convention.jst_f, False
    if J.convention.n == 1:
        j00, j01, j10, j11 = mats.reshape(-1, 4).T
        a, b, c, d = 0.0 + j00, j01 - 1.0, 1.0 + j10, 0.0 + j11            # Jst + J
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det, frob2 = a * d - b * c, a * a + b * b + c * c + d * d
            cap = min(J.cond_cap, _SCREEN_BOUND) * (1.0 - 1e-12)
            screened = (frob2 < cap * np.abs(det)).all() and frob2.max() <= _SCREEN_BOUND
    if not screened:
        m = jst + mats
        conds = _cond_numbers(m)
        worst = np.max(conds)   # nan wherever a condition number is nan
        if not (np.isfinite(worst) and worst <= J.cond_cap):
            return None, conds
        if J.convention.n > 1:
            return np.linalg.solve(m, jst - mats), None
    r00, r01, r10, r11 = 0.0 - j00, -1.0 - j01, 1.0 - j10, 0.0 - j11       # Jst - J
    q = np.empty(mats.shape)
    q00, q01, q10, q11 = q.reshape(-1, 4).T
    np.divide(d * r00 - b * r10, det, out=q00)
    np.divide(d * r01 - b * r11, det, out=q01)
    np.divide(a * r10 - c * r00, det, out=q10)
    np.divide(a * r11 - c * r01, det, out=q11)
    return q, None


def q_matrix(J: StructureField, v: np.ndarray) -> np.ndarray:
    """Complex-dilatation matrix (Jst + J(v))^{-1} (Jst - J(v)) at one point.

    Raises ``Singular`` when ``Jst + J(v)`` is not reliably invertible,
    which signals that ``v`` lies outside the region where the structure can
    be treated as a perturbation of the standard one.
    """
    return q_field(J, np.asarray(v, dtype=np.float64)[None])[0]


def q_field(J: StructureField, points: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
    """Batched dilatation matrices at (m, 2n) points.

    Raises ``Singular`` when the condition number of ``Jst + J`` at some
    point is non-finite or above ``J.cond_cap``; its ``where`` is the label
    of that point when ``labels`` (same leading length) is given.  For
    n = 1 it needs no square root unless the cap is near (``_dilatation``).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    q, conds = _dilatation(J, J.eval(points))
    if q is None:
        worst = int(np.argmax(conds))
        where = np.asarray(labels[worst] if labels is not None else points[worst]).tolist()
        raise Singular(f"Jst + J ill conditioned (cond={conds[worst]:.3e}) at {where}", where)
    return q


def _named_shape(name: str, periodic: bool):
    if name != "sin":
        raise UnknownName(f"unknown perturbation shape {name!r}")
    freq = 2.0 * math.pi if periodic else 1.0

    def sigma(points: np.ndarray) -> np.ndarray:
        return np.sin(freq * points[..., 0])

    return sigma


def _conjugation_eval(conv: ComplexConvention, epsilon: float, b_field):
    """``eval_fn`` of J(p) = S Jst S^{-1}, S = Id + eps*B(p); raises
    ``Singular`` where S is singular or J is not finite."""
    eye = np.eye(conv.dim)

    def eval_fn(points: np.ndarray) -> np.ndarray:
        b = np.asarray(b_field(points), dtype=np.float64)
        if conv.n > 1:
            s = eye + epsilon * b
            try:
                out = s @ conv.jst_f @ np.linalg.inv(s)
            except np.linalg.LinAlgError:
                where = points[int(np.argmin(np.abs(np.linalg.det(s))))].tolist()
                raise Singular(f"S = Id + eps*B is singular at {where}", where) from None
        else:
            # S Jst adj(S) / det(S), Jst = [[0, -1], [1, 0]], S = eye + eps B
            s00, s01, s10, s11 = eye.reshape(4, 1) + epsilon * b.reshape(-1, 4).T
            det = s00 * s11 - s01 * s10
            out = np.empty_like(b)
            with np.errstate(divide="ignore", invalid="ignore"):
                out[:, 0, 0] = (s00 * s10 + s01 * s11) / det
                out[:, 0, 1] = -(s00 * s00 + s01 * s01) / det
                out[:, 1, 0] = (s10 * s10 + s11 * s11) / det
            out[:, 1, 1] = -out[:, 0, 0]
        if not np.isfinite(out).all():
            where = points[int(np.argmin(np.isfinite(out).all(axis=(1, 2))))].tolist()
            raise Singular(f"S = Id + eps*B is singular or J is not finite at {where}", where)
        return out

    return eval_fn


def gallery(name: str, n: int = 1, epsilon: float = 0.1, perturbation="sin",
            radius: float = math.inf) -> StructureField:
    """Build one of the named example structures.

    ``standard``        constant Jst on a chart ball.
    ``conjugated``      J(p) = S(p) Jst S(p)^{-1} with S(p) = Id + eps*B(p);
                        the conjugation preserves J^2 = -Id by construction.
    ``torus-flat``      constant Jst on the unit flat torus.
    ``torus-perturbed`` the conjugated construction with a 1-periodic B.

    ``perturbation`` is either the name of a builtin scalar shape ("sin",
    vanishing at the origin and at lattice points) applied to the elementary
    matrix E_00, or a callable mapping (m, 2n) points to (m, 2n, 2n) bounded
    matrices B(p).
    """
    names = ("standard", "conjugated", "torus-flat", "torus-perturbed")
    if name not in names:
        raise UnknownName(f"unknown gallery structure {name!r}; choose from {names}")
    conv = ComplexConvention(n)
    periodic = name.startswith("torus")
    if periodic:
        domain = DomainDescriptor("flat-torus")
    else:
        domain = DomainDescriptor("chart-ball", radius=radius)

    if name in ("standard", "torus-flat"):
        jst = conv.jst_f

        def eval_fn(points: np.ndarray) -> np.ndarray:
            return np.broadcast_to(jst, (points.shape[0],) + jst.shape).copy()

        fld = StructureField(conv, domain, eval_fn, name=name)
    else:
        if not 0.0 <= epsilon < 1.0:
            raise InvalidParams(f"epsilon must lie in [0, 1), got {epsilon}")
        if callable(perturbation):
            b_field = perturbation
        else:
            sigma = _named_shape(perturbation, periodic)

            def b_field(points: np.ndarray) -> np.ndarray:
                b = np.zeros((points.shape[0], conv.dim, conv.dim))
                b[:, 0, 0] = sigma(points)
                return b

        fld = StructureField(conv, domain, _conjugation_eval(conv, epsilon, b_field),
                             name=name)

    report = validate_structure(fld, _validation_lattice(domain, conv.dim))
    if not report.passed:
        raise InvalidParams(
            f"gallery {name!r} failed validation: max residual "
            f"{report.max_residual:.3e}, {len(report.invalid_samples)} invalid samples")
    return fld


def _validation_lattice(domain: DomainDescriptor, dim: int) -> np.ndarray:
    """Points of the ``_LATTICE_AXIS ** dim`` lattice over the domain in
    row-major order; above ``_LATTICE_MOST`` points, that many of them at
    evenly spaced flat indices from the first to the last, so the set stays
    small for every dimension and is the whole lattice up to n = 3."""
    if domain.is_torus:
        axis = np.linspace(0.0, 1.0, _LATTICE_AXIS, endpoint=False)
    else:
        b = 1.0 if not math.isfinite(domain.radius) else 0.9 * domain.radius
        axis = np.linspace(-b, b, _LATTICE_AXIS)
    total = _LATTICE_AXIS ** dim
    count = min(total, _LATTICE_MOST)
    flat = np.arange(count) * (total - 1) // (count - 1)
    return axis[np.stack(np.unravel_index(flat, (_LATTICE_AXIS,) * dim), axis=-1)]
