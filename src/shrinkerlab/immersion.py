"""Immersed submanifolds X: M^n -> R^{n+m} probed pointwise from chart jets.

Everything here is built from the first and second parameter-derivatives of
the position map: orthonormal frames, the second fundamental form, the
contraction residual H + X_normal/2 that vanishes exactly on self-shrinking
surfaces of mean curvature flow, the Gaussian-weighted measure
rho = exp(-|X|^2/4), the drift-Laplacian L = Laplace - (1/2)<X, grad .>, the
tangent-plane (Gauss) map with its weighted tension field, weighted
quadrature over patch meshes, the closed-surface stability identity, and a
first-variation check for weighted map energies.  A small catalog of exact
surfaces (planes, round spheres, shrinking cylinders, graphs) supplies
analytic jets; user surfaces fall back to high-order finite differences.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import grassmann, sphere
from .grassmann import OrientedFrame, TangentCoeffs

_FRAME_TOL = 1e-10
# 4th-order first-derivative stencil, offset -> coefficient (divide by step)
_D4 = ((-2, 1.0 / 12.0), (-1, -2.0 / 3.0), (1, 2.0 / 3.0), (2, -1.0 / 12.0))
# 4th-order second-derivative stencil (divide by step^2)
_D4_2 = ((-2, -1.0 / 12.0), (-1, 4.0 / 3.0), (0, -5.0 / 2.0), (1, 4.0 / 3.0), (2, -1.0 / 12.0))


class ChartError(ValueError):
    """A parameter point or finite-difference stencil left the chart box."""


# ---------------------------------------------------------------------------
# immersions


class ParametricImmersion:
    """Chart-based immersion supplying position, first and second jets.

    The evaluator returns (X, dX, ddX) with dX[k] the derivative of X along
    parameter k and ddX[k][l] the second derivative.  fd_step is the stencil
    step (per parameter) used by every derived finite-difference layer.
    """

    def __init__(self, n, m, chart, jet, fd_step=None, label="custom"):
        self.n = int(n)
        self.m = int(m)
        self.chart = np.asarray(chart, dtype=float).reshape(self.n, 2)
        if np.any(self.chart[:, 1] <= self.chart[:, 0]):
            raise ValueError("chart box must have positive extent")
        self._jet = jet
        span = self.chart[:, 1] - self.chart[:, 0]
        self.fd_step = (
            np.asarray(fd_step, dtype=float)
            if fd_step is not None
            else span * 1e-3
        )
        self.label = label

    @classmethod
    def from_positions(cls, func, n, m, chart, label="custom"):
        """Wrap a position-only map; jets come from 4th-order differences."""
        chart = np.asarray(chart, dtype=float).reshape(n, 2)
        step = (chart[:, 1] - chart[:, 0]) * 1e-3
        return cls(
            n, m, chart, lambda param: _fd_jets(func, param, step),
            fd_step=step, label=label,
        )

    def contains(self, param, slack=1e-12):
        p = np.asarray(param, dtype=float)
        return bool(
            np.all(p >= self.chart[:, 0] - slack)
            and np.all(p <= self.chart[:, 1] + slack)
        )

    def jet(self, param):
        p = np.asarray(param, dtype=float)
        if p.shape != (self.n,):
            raise ValueError("parameter dimension mismatch")
        if not self.contains(p):
            raise ChartError(f"parameter {p} outside the chart")
        x, dX, ddX = self._jet(p)
        return (
            np.asarray(x, dtype=float),
            np.asarray(dX, dtype=float),
            np.asarray(ddX, dtype=float),
        )


@dataclass(frozen=True, eq=False)
class PointFrame:
    """Pointwise geometric data of an immersion in orthonormal frames."""

    position: np.ndarray
    tangent: np.ndarray  # n rows
    normal: np.ndarray  # m rows
    h: np.ndarray  # h[alpha, i, j], second fundamental form
    mean: np.ndarray  # H_alpha = trace h_alpha
    rho: float

    def __post_init__(self):
        frame = np.vstack([self.tangent, self.normal])
        amb = self.position.size
        if np.max(np.abs(frame @ frame.T - np.eye(amb))) > _FRAME_TOL:
            raise ValueError("tangent and normal rows are not orthonormal")
        if np.max(np.abs(self.h - np.swapaxes(self.h, 1, 2))) > 1e-9:
            raise ValueError("second fundamental form must be symmetric")
        tr = np.trace(self.h, axis1=1, axis2=2)
        if np.max(np.abs(tr - self.mean)) > 1e-9:
            raise ValueError("mean curvature must be the trace of h")
        expected = math.exp(-float(self.position @ self.position) / 4.0)
        if abs(self.rho - expected) > 1e-12 * max(1.0, expected):
            raise ValueError("weight must equal exp(-|X|^2/4)")

    @property
    def n(self):
        return self.tangent.shape[0]

    @property
    def m(self):
        return self.normal.shape[0]

    @property
    def x_normal(self):
        """Components <X, nu_alpha> of the normal part of the position."""
        return self.normal @ self.position

    @property
    def second_form_sq(self):
        """|B|^2, the squared norm of the second fundamental form."""
        return float(np.sum(self.h * self.h))


def _whiten(dX):
    n = dX.shape[0]
    g = dX @ dX.T
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise ValueError(
            "degenerate induced metric "
            f"(condition estimate {np.linalg.cond(g):.3e})"
        ) from None
    S = np.linalg.solve(L, np.eye(n))  # rows map param derivatives to frames
    return g, L, S


def _metric_data(dX, ddX):
    g, L, S = _whiten(dX)
    ginv = S.T @ S
    # dg[k, i, j] = d g_ij / d param_k, assembled from the second jets
    dg = np.einsum("kia,ja->kij", ddX, dX)
    dg = dg + np.swapaxes(dg, 1, 2)
    combo = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("kl,ijl->ijk", ginv, combo)
    return g, L, S, ginv, gamma


def _frame_from_jets(x, dX, ddX, n, S):
    tangent = S @ dX
    q = np.linalg.qr(dX.T, mode="complete")[0]
    normal = q[:, n:].T
    b = np.einsum("ija,ka->kij", ddX, normal)  # b[alpha, i, j] in param basis
    h = np.einsum("pi,kij,qj->kpq", S, b, S)
    h = 0.5 * (h + np.swapaxes(h, 1, 2))
    mean = np.trace(h, axis1=1, axis2=2)
    rho = math.exp(-float(x @ x) / 4.0)
    return PointFrame(
        position=x, tangent=tangent, normal=normal, h=h, mean=mean, rho=rho
    )


def point_frame(imm: ParametricImmersion, param) -> PointFrame:
    """Frames, curvature, and Gaussian weight of an immersion at one point."""
    x, dX, ddX = imm.jet(param)
    _, _, S = _whiten(dX)
    return _frame_from_jets(x, dX, ddX, imm.n, S)


def shrinker_residual(pf: PointFrame) -> np.ndarray:
    """Per normal direction, H_alpha + <X, nu_alpha>/2; zero on shrinkers."""
    return pf.mean + 0.5 * pf.x_normal


def gauss_map(pf: PointFrame) -> OrientedFrame:
    """Tangent plane at the point, oriented by the chart."""
    return OrientedFrame(pf.tangent)


def gauss_pushforward(imm: ParametricImmersion, param):
    """Coefficient matrices of the plane-map differential along each frame row.

    Entry [i][j, alpha] is the speed at which tangent row j turns toward
    normal alpha when moving along frame direction i; numerically it equals
    h[alpha, i, j].
    """
    pf = point_frame(imm, param)
    frame = OrientedFrame(pf.tangent)
    out = []
    for i in range(pf.n):
        om = pf.h[:, i, :].T  # (j, alpha)
        out.append(TangentCoeffs(omega=om, frame=frame))
    return out


def _shrinker_field(imm, param):
    # ambient vector H + X_normal/2, independent of the frame choice
    pf = point_frame(imm, param)
    hvec = pf.mean @ pf.normal
    xnorm = pf.position - (pf.tangent @ pf.position) @ pf.tangent
    return hvec + 0.5 * xnorm


def weighted_tension(imm: ParametricImmersion, param) -> np.ndarray:
    """Coefficients T[alpha, j] of the weighted tension of the plane map.

    Differentiates the ambient field H + X_normal/2 along each frame row and
    projects onto the normal directions at the center point.  Vanishes on
    self-shrinkers.
    """
    p = np.asarray(param, dtype=float)
    x, dX, ddX = imm.jet(p)
    _, _, S = _whiten(dX)
    pf = _frame_from_jets(x, dX, ddX, imm.n, S)
    _, dV, _ = _fd_jets(
        lambda q: _shrinker_field(imm, q), p, imm.fd_step, second=False
    )
    along_frame = S @ dV  # row j: derivative along frame row j
    return pf.normal @ along_frame.T  # (alpha, j)


def drift_laplacian(imm: ParametricImmersion, param, f) -> float:
    """Laplace-Beltrami of f minus (1/2)<X, grad f>, from parameter jets.

    f(param) must return (value, gradient, hessian) with respect to the
    chart parameters.
    """
    x, dX, ddX = imm.jet(param)
    _, _, _, ginv, gamma = _metric_data(dX, ddX)
    _, df, ddf = f(np.asarray(param, dtype=float))
    df = np.asarray(df, dtype=float)
    ddf = np.asarray(ddf, dtype=float)
    lap = float(np.sum(ginv * (ddf - np.einsum("ijk,k->ij", gamma, df))))
    drift = 0.5 * float(df @ ginv @ (dX @ x))
    return lap - drift


def _fd_jets(func, center, steps, second=True):
    """(value, first, second) jets of func at center by 4th-order differences.

    func may return a scalar or an array; first[k] and second[k, l] are its
    partial derivatives along parameters k and l.  The centre is evaluated
    once.  With second=False only the first-derivative stencil runs and the
    value and second jet come back as None.
    """
    c = np.asarray(center, dtype=float)
    steps = np.asarray(steps, dtype=float)
    n = c.size

    def at(*offsets):  # func at c shifted by off * steps[k] along each (k, off)
        q = c.copy()
        for k, off in offsets:
            q[k] += off * steps[k]
        return np.asarray(func(q), dtype=float)

    first = np.stack(
        [sum(w * at((k, off)) for off, w in _D4) / steps[k] for k in range(n)]
    )
    if not second:
        return None, first, None
    value = at()
    jets2 = np.zeros((n,) + first.shape)
    for k in range(n):
        jets2[k, k] = sum(
            w * (value if off == 0 else at((k, off))) for off, w in _D4_2
        ) / steps[k] ** 2
        for l in range(k + 1, n):
            jets2[k, l] = jets2[l, k] = sum(
                wk * wl * at((k, ok), (l, ol)) for ok, wk in _D4 for ol, wl in _D4
            ) / (steps[k] * steps[l])
    return value, first, jets2


def fd_scalar_jets(func, center, steps):
    """(value, grad, hess) of a black-box scalar by 4th-order differences."""
    value, grad, hess = _fd_jets(func, center, steps)
    return float(value), grad, hess


# ---------------------------------------------------------------------------
# target functions for composition checks


def _orientation_sign(pf: PointFrame) -> float:
    # sign making (tangent rows, normal) positively oriented; hypersurfaces only
    return float(np.sign(np.linalg.det(np.vstack([pf.tangent, pf.normal]))))


def oriented_normal(pf: PointFrame) -> np.ndarray:
    """Unit normal of a hypersurface, oriented to follow the chart."""
    if pf.m != 1:
        raise ValueError("oriented normal needs codimension one")
    return _orientation_sign(pf) * pf.normal[0]


class _HypersurfaceTarget:
    """Scalar on the unit sphere composed with the oriented normal map."""

    def _point(self, pf):
        s = _orientation_sign(pf)
        return s * pf.normal[0], s

    def scalar(self, pf):
        y, _ = self._point(pf)
        return self._value(y)

    def hess_sum(self, pf):
        y, s = self._point(pf)
        total = 0.0
        for i in range(pf.n):
            u = -s * pf.h[0, i, :] @ pf.tangent  # image of frame row i
            total += self._hess(y, u)
        return total

    def tension_term(self, pf, T):
        y, s = self._point(pf)
        u = -s * T[0] @ pf.tangent
        return self._d(y, u)


class HeightTarget(_HypersurfaceTarget):
    """F = 1 - <., a> on the unit sphere, composed with the normal map."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def _value(self, y):
        return sphere.height_value(y / np.linalg.norm(y), self.a)

    def _hess(self, y, u):
        return float(y @ self.a) * float(u @ u)

    def _d(self, y, u):
        return -float(u @ self.a)


class ThetaTarget(_HypersurfaceTarget):
    """Longitude angle of the normal map; defined away from the cut locus."""

    def _value(self, y):
        return sphere.longitude_coords(y / np.linalg.norm(y))[1]

    @staticmethod
    def _dr_dt(y, u):
        r2 = y[0] ** 2 + y[1] ** 2
        r = math.sqrt(r2)
        dr = (y[0] * u[0] + y[1] * u[1]) / r
        dt = (-y[1] * u[0] + y[0] * u[1]) / r2
        return r, dr, dt

    def _hess(self, y, u):
        r, dr, dt = self._dr_dt(y, u)
        return -2.0 * dr * dt / r

    def _d(self, y, u):
        return self._dr_dt(y, u)[2]


class _OverlapTarget:
    """Reciprocal-overlap functions of the tangent plane against a reference."""

    def __init__(self, reference: OrientedFrame):
        self.reference = reference

    def _spec(self, pf):
        return grassmann.jordan_spectrum(OrientedFrame(pf.tangent), self.reference)

    @staticmethod
    def _coeffs(spec, om, pf):
        return grassmann.express_in_adapted_frame(spec, om, pf.tangent, pf.normal)

    def hess_sum(self, pf):
        spec = self._spec(pf)
        total = 0.0
        for i in range(pf.n):
            Z = self._coeffs(spec, pf.h[:, i, :].T, pf)
            total += self._hess(spec, Z)
        return total

    def tension_term(self, pf, T):
        spec = self._spec(pf)
        Z = self._coeffs(spec, T.T, pf)
        return self._d(spec, Z)


class VTarget(_OverlapTarget):
    """F = v, the product of principal-angle secants against the reference."""

    def scalar(self, pf):
        return grassmann.v_value(self._spec(pf))

    def _hess(self, spec, Z):
        return grassmann.hess_v_form(spec, Z)

    def _d(self, spec, Z):
        return grassmann.v_value(spec) * grassmann.dlogv_form(spec, Z)


class LogVTarget(_OverlapTarget):
    """F = log v against the reference plane."""

    def scalar(self, pf):
        return math.log(grassmann.v_value(self._spec(pf)))

    def _hess(self, spec, Z):
        return grassmann.hess_logv_form(spec, Z)

    def _d(self, spec, Z):
        return grassmann.dlogv_form(spec, Z)


def composition_check(imm: ParametricImmersion, param, target) -> float:
    """Residual of the chain rule for target functions of the plane map.

    Computes L(F o gamma) by differences of the composed scalar and
    subtracts the closed-form Hessian sum over the plane-map images plus the
    pairing of dF with the weighted tension.  Near zero on any immersion.
    """
    p = np.asarray(param, dtype=float)
    pf = point_frame(imm, p)

    def scal(q):
        return target.scalar(point_frame(imm, q))

    jets = fd_scalar_jets(scal, p, imm.fd_step)
    lhs = drift_laplacian(imm, p, lambda _q: jets)
    T = weighted_tension(imm, p)
    rhs = target.hess_sum(pf) + target.tension_term(pf, T)
    return lhs - rhs


# ---------------------------------------------------------------------------
# meshes and quadrature


@dataclass(frozen=True, eq=False)
class WeightedPatchMesh:
    """Midpoint quadrature nodes with per-node frames and area weights.

    weights hold the unweighted area element (cell volume times sqrt det g);
    the Gaussian factor enters through each frame's rho.
    """

    immersion: ParametricImmersion
    params: np.ndarray
    weights: np.ndarray
    frames: tuple
    closed: bool = False

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if len(self.frames) != self.params.shape[0]:
            raise ValueError("frame count must match node count")

    @property
    def node_count(self):
        return self.params.shape[0]


def patch_mesh(imm: ParametricImmersion, shape, bounds=None, closed=False):
    """Tensor-product midpoint mesh over the chart (or a sub-box)."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != imm.n:
        raise ValueError("need one resolution per parameter")
    box = imm.chart if bounds is None else np.asarray(bounds, dtype=float)
    axes = []
    cell = 1.0
    for k, cnt in enumerate(shape):
        lo, hi = box[k]
        step = (hi - lo) / cnt
        axes.append(lo + step * (np.arange(cnt) + 0.5))
        cell *= step
    grids = np.meshgrid(*axes, indexing="ij")
    params = np.stack([g.ravel() for g in grids], axis=1)
    frames = []
    weights = np.zeros(params.shape[0])
    for idx in range(params.shape[0]):
        x, dX, ddX = imm.jet(params[idx])
        _, L, S = _whiten(dX)
        weights[idx] = cell * float(np.prod(np.diagonal(L)))
        frames.append(_frame_from_jets(x, dX, ddX, imm.n, S))
    return WeightedPatchMesh(
        immersion=imm,
        params=params,
        weights=weights,
        frames=tuple(frames),
        closed=closed,
    )


def sphere_mesh(R, shape, n=2, c1=0.0):
    """Closed lat-long mesh of the round n-sphere of radius R."""
    imm = catalog_immersion(f"sphere:n={n},R={R},c1={c1}")
    return patch_mesh(imm, shape, closed=True)


@dataclass(frozen=True, eq=False)
class ScalarFieldOnPatch:
    """Per-node scalar samples, optionally with ambient tangential gradients."""

    values: np.ndarray
    gradients: Optional[np.ndarray] = None

    @classmethod
    def from_function(cls, mesh, func):
        vals = np.array([func(pf) for pf in mesh.frames], dtype=float)
        return cls(values=vals)


def weighted_integral(mesh: WeightedPatchMesh, f) -> float:
    """Quadrature of f against the Gaussian-weighted area measure."""
    vals = f.values if isinstance(f, ScalarFieldOnPatch) else np.asarray(f, float)
    if vals.shape != (mesh.node_count,):
        raise ValueError("field node count does not match the mesh")
    rho = np.array([pf.rho for pf in mesh.frames])
    return float(np.sum(vals * rho * mesh.weights))


def height_field(mesh: WeightedPatchMesh, a) -> ScalarFieldOnPatch:
    """Samples of 1 - <normal map, a> with its ambient tangential gradient."""
    a = np.asarray(a, dtype=float)
    vals = np.zeros(mesh.node_count)
    grads = np.zeros((mesh.node_count, a.size))
    for idx, pf in enumerate(mesh.frames):
        s = _orientation_sign(pf)
        nu = s * pf.normal[0]
        vals[idx] = 1.0 - float(nu @ a)
        coeffs = s * (pf.h[0] @ (pf.tangent @ a))  # e_j(f) per frame row
        grads[idx] = coeffs @ pf.tangent
    return ScalarFieldOnPatch(values=vals, gradients=grads)


class StabilityReport(NamedTuple):
    lhs: float
    rhs: float
    residual: float


def stability_identity_check(mesh: WeightedPatchMesh, a=None, field=None):
    """Closed-surface identity: int f(1-f)|B|^2 rho = -int |grad f|^2 rho.

    f is the height of the normal map against the pole a (or an injected
    field with gradients).  Requires a closed mesh; open patches would need
    boundary terms that are not modeled.
    """
    if not mesh.closed:
        raise ValueError("stability identity requires a closed mesh")
    if field is None:
        if a is None:
            raise ValueError("supply a pole or an explicit field")
        field = height_field(mesh, a)
    if field.gradients is None:
        raise ValueError("field gradients are required")
    b2 = np.array([pf.second_form_sq for pf in mesh.frames])
    f = field.values
    lhs = weighted_integral(mesh, f * (1.0 - f) * b2)
    grad_sq = np.sum(field.gradients * field.gradients, axis=1)
    rhs = -weighted_integral(mesh, grad_sq)
    return StabilityReport(lhs=lhs, rhs=rhs, residual=lhs - rhs)


# ---------------------------------------------------------------------------
# weighted map energy and its first variation


@dataclass(frozen=True, eq=False)
class WeightField:
    """Per-node weight values and ambient tangential gradients of log w."""

    values: np.ndarray
    grad_log: np.ndarray


def gaussian_weight(mesh: WeightedPatchMesh) -> WeightField:
    """The shrinker weight rho with grad log rho = -(tangential X)/2."""
    vals = np.array([pf.rho for pf in mesh.frames])
    grads = np.zeros((mesh.node_count, mesh.frames[0].position.size))
    for idx, pf in enumerate(mesh.frames):
        xt = (pf.tangent @ pf.position) @ pf.tangent
        grads[idx] = -0.5 * xt
    return WeightField(values=vals, grad_log=grads)


def unit_weight(mesh: WeightedPatchMesh) -> WeightField:
    return WeightField(
        values=np.ones(mesh.node_count),
        grad_log=np.zeros((mesh.node_count, mesh.frames[0].position.size)),
    )


def weighted_energy(mesh: WeightedPatchMesh, map_fn, weight: WeightField) -> float:
    """Integral of (1/2)|d map|^2 w over the mesh (map valued in R^k)."""
    imm = mesh.immersion
    total = 0.0
    for idx in range(mesh.node_count):
        p = mesh.params[idx]
        _, _, S = _whiten(imm.jet(p)[1])
        _, dy, _ = _fd_jets(map_fn, p, imm.fd_step, second=False)
        push = S @ dy  # rows: map differential along frame rows
        total += 0.5 * float(np.sum(push * push)) * weight.values[idx] * mesh.weights[idx]
    return total


class FirstVariationReport(NamedTuple):
    derivative: float
    pairing: float
    residual: float


def sphere_map_tension(imm: ParametricImmersion, param, map_fn, grad_log_w):
    """Weighted tension of a unit-sphere-valued map at one point (ambient)."""
    p = np.asarray(param, dtype=float)
    _, dX, ddX = imm.jet(p)
    _, _, S, ginv, gamma = _metric_data(dX, ddX)
    y, dy, ddy = _fd_jets(map_fn, p, imm.fd_step)
    lap = np.einsum(
        "ij,ija->a", ginv, ddy - np.einsum("ijk,ka->ija", gamma, dy)
    )
    push = S @ dy
    energy_density = float(np.sum(push * push))
    tension = lap + energy_density * y
    # weight term: push the tangential gradient of log w through the map
    coeffs = (S @ dX) @ grad_log_w
    tension = tension + coeffs @ push
    return tension


def first_variation_check(
    mesh: WeightedPatchMesh,
    family,
    weight_of,
    dt=1e-3,
    boundary_probe=True,
) -> FirstVariationReport:
    """Compare d/dt of the weighted energy with the tension pairing.

    family(t) returns the map at time t; weight_of(mesh) builds the weight
    field.  The pairing side is -int <d/dt map, tension> w.  A variation
    reaching the patch boundary triggers a warning since boundary terms are
    dropped.
    """
    imm = mesh.immersion
    w = weight_of(mesh) if callable(weight_of) else weight_of
    f0 = family(0.0)
    fp = family(dt)
    fm = family(-dt)
    e_p = weighted_energy(mesh, fp, w)
    e_m = weighted_energy(mesh, fm, w)
    derivative = (e_p - e_m) / (2.0 * dt)
    total = 0.0
    amp = 0.0
    for idx in range(mesh.node_count):
        p = mesh.params[idx]
        vdot = (np.asarray(fp(p), float) - np.asarray(fm(p), float)) / (2.0 * dt)
        amp = max(amp, float(np.max(np.abs(vdot))))
        tau = sphere_map_tension(imm, p, f0, w.grad_log[idx])
        total += -float(vdot @ tau) * w.values[idx] * mesh.weights[idx]
    if boundary_probe and not mesh.closed:
        edge = 0.0
        for k in range(imm.n):
            for side in (0, 1):
                q = np.array(
                    [0.5 * (imm.chart[j, 0] + imm.chart[j, 1]) for j in range(imm.n)]
                )
                q[k] = imm.chart[k, side]
                vdot = (np.asarray(fp(q), float) - np.asarray(fm(q), float)) / (
                    2.0 * dt
                )
                edge = max(edge, float(np.max(np.abs(vdot))))
        if edge > 1e-8 * max(amp, 1e-30):
            warnings.warn(
                "variation is not compactly supported; boundary terms dropped",
                stacklevel=2,
            )
    return FirstVariationReport(
        derivative=derivative, pairing=total, residual=derivative - total
    )


# ---------------------------------------------------------------------------
# catalog of exact surfaces


def _unit_sphere_jets(angles):
    # embedding of the unit n-sphere by iterated polar angles; returns the
    # position with first and second derivatives in the angles
    t = np.asarray(angles, dtype=float)
    n = t.size
    sin = np.sin(t)
    cos = np.cos(t)
    amb = n + 1
    x = np.zeros(amb)
    dx = np.zeros((n, amb))
    ddx = np.zeros((n, n, amb))
    for c in range(amb):
        # factors over angles: sin for j < c, cos at j = c (if c < n)
        active = list(range(min(c, n)))
        factors = np.ones(n)
        dfac = np.zeros(n)
        for j in active:
            factors[j] = sin[j]
            dfac[j] = cos[j]
        if c < n:
            factors[c] = cos[c]
            dfac[c] = -sin[c]
            active = active + [c]
        x[c] = float(np.prod(factors))
        for a in active:
            rest = np.prod(np.delete(factors, a))
            dx[a, c] = dfac[a] * rest
            ddx[a, a, c] = -factors[a] * rest
            for b in active:
                if b <= a:
                    continue
                rest2 = np.prod(np.delete(factors, [a, b]))
                val = dfac[a] * dfac[b] * rest2
                ddx[a, b, c] = val
                ddx[b, a, c] = val
    return x, dx, ddx


def _sphere_immersion(n, R, c1=0.0):
    center = np.zeros(n + 1)
    center[0] = c1
    chart = [(0.0, math.pi)] * (n - 1) + [(-math.pi, math.pi)]

    def jet(param):
        x, dx, ddx = _unit_sphere_jets(param)
        return center + R * x, R * dx, R * ddx

    return ParametricImmersion(
        n, 1, chart, jet, label=f"sphere:n={n},R={R:g},c1={c1:g}"
    )


def _plane_immersion(n, m):
    chart = [(-3.0, 3.0)] * n

    def jet(param):
        amb = n + m
        x = np.zeros(amb)
        x[:n] = param
        dX = np.zeros((n, amb))
        dX[:, :n] = np.eye(n)
        return x, dX, np.zeros((n, n, amb))

    return ParametricImmersion(n, m, chart, jet, label=f"plane:n={n},m={m}")


def _cylinder_immersion(k, n):
    # S^k(sqrt(2k)) x R^{n-k} in R^{n+1}
    R = math.sqrt(2.0 * k)
    chart = [(0.0, math.pi)] * (k - 1) + [(-math.pi, math.pi)] + [(-3.0, 3.0)] * (
        n - k
    )

    def jet(param):
        param = np.asarray(param, dtype=float)
        xs, dxs, ddxs = _unit_sphere_jets(param[:k])
        amb = n + 1
        x = np.zeros(amb)
        x[: k + 1] = R * xs
        x[k + 1 :] = param[k:]
        dX = np.zeros((n, amb))
        dX[:k, : k + 1] = R * dxs
        dX[k:, k + 1 :] = np.eye(n - k)
        ddX = np.zeros((n, n, amb))
        ddX[:k, :k, : k + 1] = R * ddxs
        return x, dX, ddX

    return ParametricImmersion(n, 1, chart, jet, label=f"cylinder:k={k},n={n}")


def graph_immersion(u, n, m, chart, jets=None, label="graph"):
    """Immersion x -> (x, u(x)) of a height map with m components.

    jets, if given, must return (u, du, ddu) with du[k] the k-th partial of
    the heights; otherwise jets come from 4th-order differences of u.
    """
    chart = np.asarray(chart, dtype=float).reshape(n, 2)
    if jets is not None:

        def jet(param):
            val, du, ddu = jets(np.asarray(param, dtype=float))
            val = np.atleast_1d(np.asarray(val, dtype=float))
            du = np.asarray(du, dtype=float).reshape(n, m)
            ddu = np.asarray(ddu, dtype=float).reshape(n, n, m)
            amb = n + m
            x = np.zeros(amb)
            x[:n] = param
            x[n:] = val
            dX = np.zeros((n, amb))
            dX[:, :n] = np.eye(n)
            dX[:, n:] = du
            ddX = np.zeros((n, n, amb))
            ddX[:, :, n:] = ddu
            return x, dX, ddX

        return ParametricImmersion(n, m, chart, jet, label=label)

    def position(param):
        x = np.zeros(n + m)
        x[:n] = param
        x[n:] = np.atleast_1d(np.asarray(u(param), dtype=float))
        return x

    return ParametricImmersion.from_positions(position, n, m, chart, label=label)


def _parse_args(text):
    out = {}
    if text:
        for piece in text.split(","):
            key, _, val = piece.partition("=")
            if not _ or key.strip() == "":
                raise ValueError(f"malformed catalog argument {piece!r}")
            out[key.strip()] = float(val)
    return out


def catalog_immersion(name: str) -> ParametricImmersion:
    """Build a surface from a registry string, e.g. "sphere:n=2,R=2".

    Known kinds: plane:n=..,m=..; sphere:n=..,R=..[,c1=..] (c1 shifts the
    center along the first axis); cylinder:k=..,n=.. (round factor of radius
    sqrt(2k)).
    """
    kind, _, rest = name.partition(":")
    args = _parse_args(rest)

    def take(key, default=None):
        if key in args:
            return args.pop(key)
        if default is None:
            raise ValueError(f"catalog {kind!r} needs argument {key!r}")
        return default

    if kind == "plane":
        imm = _plane_immersion(int(take("n")), int(take("m")))
    elif kind == "sphere":
        imm = _sphere_immersion(int(take("n")), take("R"), take("c1", 0.0))
    elif kind == "cylinder":
        imm = _cylinder_immersion(int(take("k")), int(take("n")))
    else:
        raise ValueError(f"unknown catalog kind {kind!r}")
    if args:
        raise ValueError(f"unused catalog arguments {sorted(args)}")
    return imm


def probe_rows(imm: ParametricImmersion, params):
    """CSV-ready rows (param, X, |B|^2, residual norm, rho) at given probes."""
    header = (
        [f"param{k}" for k in range(imm.n)]
        + [f"x{c}" for c in range(imm.n + imm.m)]
        + ["b2", "residual", "rho"]
    )
    rows = []
    for p in params:
        pf = point_frame(imm, p)
        res = float(np.linalg.norm(shrinker_residual(pf)))
        rows.append(
            list(np.asarray(p, dtype=float))
            + list(pf.position)
            + [pf.second_form_sq, res, pf.rho]
        )
    return header, rows


def probes_to_csv(imm: ParametricImmersion, params) -> str:
    header, rows = probe_rows(imm, params)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{val:.17g}" for val in row))
    return "\n".join(lines) + "\n"
