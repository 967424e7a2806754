"""Immersed submanifolds X: M^n -> R^{n+m} probed pointwise from chart jets.

Everything here is built from the first and second parameter-derivatives of
the position map: orthonormal frames, the second fundamental form, the
contraction residual H + X_normal/2 that vanishes exactly on self-shrinking
surfaces of mean curvature flow, the Gaussian-weighted measure
rho = exp(-|X|^2/4), the drift-Laplacian L = Laplace - (1/2)<X, grad .>, the
tangent-plane (Gauss) map with its weighted tension field, the chain rule
for the paper's three target functions of that map (the height on the
sphere, v and log v on the Grassmannian), weighted quadrature over patch
meshes, the closed-surface stability identity, and a first-variation check
for weighted map energies.  A small catalog of exact surfaces (planes, round
spheres, shrinking cylinders, graphs) supplies analytic jets; position-only
maps get theirs from high-order finite differences.  Every function the
module evaluates (jets, positions, heights, maps) takes points over leading
axes and is called once per batch, or a fixed number of times per block of
_NODE_BLOCK nodes where a mesh is read.  Frames are one record, PointFrame,
over leading axes, checked in blocks of points: point_frame,
weighted_tension and composition_checks take parameters (..., n) with one
kernel call per batch, and composition_checks builds its rows in one pass,
from one overlap_values call on the stencil planes and one jordan_spectrum
call on the centres.  A patch mesh holds only its grid and is read one way,
block by block: the stability identity and the first variation each fill
their weighted integrands in one such read (_integrals).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import grassmann, sphere
from .grassmann import OrientedFrame, TangentCoeffs

# Central differences of orders 2 and 4: (shift, weight) terms in summation
# order, and the factor c of the divisor, c h for first and c h h for second
# differences.
_D1 = {2: (((1, 1.0), (-1, -1.0)), 2.0),
       4: (((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0)), 12.0)}
_D2 = {2: (((1, 1.0), (0, -2.0), (-1, 1.0)), 1.0),
       4: (((2, -1.0), (1, 16.0), (0, -30.0), (-1, 16.0), (-2, -1.0)), 12.0)}
# the 4th-order rows as (shift, coefficient) in shift order -2 .. 2, to be
# divided by step (_D4) or step^2 (_D4_2)
_D4, _D4_2 = (tuple((s, w / c) for s, w in reversed(terms)) for terms, c in (_D1[4], _D2[4]))

# points per pass of a mesh read and a frame check.  At 1 024 a block's
# temporaries take about 1.0 MB (3.7 MB at 4 096), so the stability check of a
# 128 x 256 sphere mesh peaks at 1.5 MB, its two 0.25 MB integrands included,
# about as fast as in one batch
_NODE_BLOCK = 1 << 10


def _blocks(lead):
    """Slices of the first of the leading axes lead, each covering about
    _NODE_BLOCK points; the index () of the whole for one point."""
    if not lead:
        return [()]
    rows = max(1, _NODE_BLOCK // max(1, math.prod(lead[1:])))
    return [slice(lo, lo + rows) for lo in range(0, lead[0], rows)]


class ChartError(ValueError):
    """A parameter point or finite-difference stencil left the chart box."""


# ---------------------------------------------------------------------------
# immersions


class ParametricImmersion:
    """Chart-based immersion supplying position, first and second jets.

    The evaluator takes parameters (B, n) and returns the jets (X, dX, ddX)
    over the batch axis: X (B, amb), dX (B, n, amb) with dX[:, k] the
    derivative of X along parameter k, and ddX (B, n, n, amb) the second
    derivatives, amb = n + m.  fd_step is the stencil step (per parameter)
    used by every derived finite-difference layer.
    """

    def __init__(self, n, m, chart, jet, fd_step=None):
        self.n = int(n)
        self.m = int(m)
        self.chart = np.asarray(chart, dtype=float).reshape(self.n, 2)
        if np.any(self.chart[:, 1] <= self.chart[:, 0]):
            raise ValueError("chart box must have positive extent")
        self._jet = jet
        span = self.chart[:, 1] - self.chart[:, 0]
        self.fd_step = span * 1e-3 if fd_step is None else np.asarray(fd_step, float)

    @classmethod
    def from_positions(cls, func, n, m, chart):
        """Wrap a position-only map, func (..., n) -> (..., n + m); jets come
        from 4th-order differences, one func call per batch."""
        chart = np.asarray(chart, dtype=float).reshape(n, 2)
        step = (chart[:, 1] - chart[:, 0]) * 1e-3

        def jet(q):
            x, dX, ddX = _fd_jets(func, q, step)
            # the derivative axes behind the batch axis
            return x, np.moveaxis(dX, 0, 1), np.moveaxis(ddX, (0, 1), (1, 2))

        return cls(n, m, chart, jet, step)

    def jets(self, params):
        """Jets at (B, n) parameters: (B, amb), (B, n, amb) and (B, n, n, amb)."""
        p = np.asarray(params, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.n:
            raise ValueError("parameter dimension mismatch")
        lo, hi = self.chart.T
        inside = ((p >= lo - 1e-12) & (p <= hi + 1e-12)).all(axis=-1)
        if not inside.all():
            raise ChartError(f"parameter {p[np.argmin(inside)]} outside the chart")
        B, n, amb = len(p), self.n, self.n + self.m
        want = ((B, amb), (B, n, amb), (B, n, n, amb))
        contract = f"jets of ({B}, {n}) parameters must have shapes {want}"
        try:
            jets = tuple(np.asarray(a, dtype=float) for a in self._jet(p))
        except ChartError:
            raise
        except (ValueError, TypeError, IndexError) as err:  # e.g. a one-point evaluator
            raise ValueError(f"{contract}; the evaluator failed: {err}") from err
        if tuple(a.shape for a in jets) != want:
            raise ValueError(f"{contract}, got {tuple(a.shape for a in jets)}")
        return jets


@dataclass(frozen=True, eq=False)
class PointFrame:
    """Geometric data of an immersion in orthonormal frames at points over
    leading axes: one point has none, a batch (probes, a stencil, the nodes
    of a mesh) stacks every field over the same leading axes.

    S = L^-1, with L the Cholesky factor of the induced metric, maps
    parameter derivatives to frame rows; frames from the frame kernel carry
    it, frames built by hand may leave it out.  Construction checks the
    frame: orthonormal rows, symmetric h, mean = trace h and
    rho = exp(-|X|^2/4), each over blocks of the points in turn.
    """

    position: np.ndarray  # (..., amb)
    tangent: np.ndarray  # (..., n, amb)
    normal: np.ndarray  # (..., m, amb)
    h: np.ndarray  # h[..., alpha, i, j], second fundamental form
    mean: np.ndarray  # H_alpha = trace h_alpha
    rho: np.ndarray  # (...)
    S: Optional[np.ndarray] = None  # (..., n, n)

    def __post_init__(self):
        x, tangent, normal, h, mean, rho = (
            np.asarray(a) for a in (self.position, self.tangent, self.normal, self.h,
                                    self.mean, self.rho))

        def weight_holds(b):
            # expected <= 1, so the bound 1e-12 * max(1, expected) is 1e-12
            expected = np.exp(-np.einsum("...a,...a->...", x[b], x[b]) / 4.0)
            return np.abs(rho[b] - expected).max() <= 1e-12

        checks = (
            (lambda b: grassmann._orthonormal(np.concatenate([tangent[b], normal[b]], axis=-2)),
             "tangent and normal rows are not orthonormal"),
            (lambda b: np.abs(h[b] - h[b].swapaxes(-1, -2)).max() <= 1e-9,
             "second fundamental form must be symmetric"),
            (lambda b: np.abs(h[b].trace(axis1=-2, axis2=-1) - mean[b]).max() <= 1e-9,
             "mean curvature must be the trace of h"),
            (weight_holds, "weight must equal exp(-|X|^2/4)"),
        )
        blocks = _blocks(x.shape[:-1])
        for holds, message in checks:
            if not all(holds(b) for b in blocks):
                raise ValueError(message)

    def __getitem__(self, index):
        """The frames at index of the leading axes."""
        return PointFrame(**{k: None if a is None else a[index] for k, a in vars(self).items()})

    @property
    def n(self):
        return self.tangent.shape[-2]

    @property
    def m(self):
        return self.normal.shape[-2]

    @property
    def x_normal(self):
        """Components <X, nu_alpha> of the normal part of the position."""
        return (self.normal @ self.position[..., None])[..., 0]

    @property
    def second_form_sq(self):
        """|B|^2, the squared norm of the second fundamental form."""
        return _second_form_sq(self.h)


def _second_form_sq(h):
    # |B|^2 over the leading axes of h (..., m, n, n)
    return np.sum(h * h, axis=(-3, -2, -1))


def _degenerate_metric(g, params):
    # the error naming the first point whose metric has no Cholesky factor
    n = g.shape[-1]
    for gi, pi in zip(g.reshape(-1, n, n), np.reshape(params, (-1, n))):
        try:
            np.linalg.cholesky(gi)
        except np.linalg.LinAlgError:
            cond = f"condition estimate {np.linalg.cond(gi):.3e}"
            return ValueError(f"degenerate induced metric at parameter {pi} ({cond})")
    return ValueError("degenerate induced metric")


def _frame_kernel(x, dX, ddX, params):
    """Frames, curvature and Gaussian weight from jets over leading axes.

    x (..., amb), dX (..., n, amb) and ddX (..., n, n, amb) are the jets at
    params (..., n).  The tangent rows whiten dX by the Cholesky factor L of
    g = dX dX^T, the normals complete a QR basis, and h[alpha, i, j] is ddX
    paired with the normals in frame coordinates.  Returns L and the
    PointFrame fields, unchecked: callers build the record once the jets
    are no longer needed.
    """
    g = dX @ dX.swapaxes(-1, -2)
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise _degenerate_metric(g, params) from None
    S = np.linalg.inv(L)
    tangent = S @ dX
    normal = grassmann.complement(dX)
    b = np.einsum("...ija,...ka->...kij", ddX, normal)  # in the param basis
    h = np.einsum("...pi,...kij,...qj->...kpq", S, b, S)
    h = 0.5 * (h + h.swapaxes(-1, -2))
    mean = h.trace(axis1=-2, axis2=-1)
    rho = np.exp(-(x[..., None, :] @ x[..., :, None])[..., 0, 0] / 4.0)
    return L, dict(position=x, tangent=tangent, normal=normal, h=h, mean=mean, rho=rho, S=S)


def _params(imm, params):
    p = np.asarray(params, dtype=float)
    if p.ndim == 0 or p.shape[-1] != imm.n:
        raise ValueError("parameter dimension mismatch")
    return p


def _metric_data(S, dX, ddX):
    """Inverse metric and Christoffel symbols gamma[..., i, j, k] from S and
    the jets, over leading axes."""
    ginv = S.swapaxes(-1, -2) @ S
    # dg[..., k, i, j] = d g_ij / d param_k, assembled from the second jets
    dg = np.einsum("...kia,...ja->...kij", ddX, dX)
    dg = dg + dg.swapaxes(-1, -2)
    combo = dg + dg.swapaxes(-3, -2) - np.moveaxis(dg, -3, -1)
    gamma = 0.5 * np.einsum("...kl,...ijl->...ijk", ginv, combo)
    return ginv, gamma


def _laplace_beltrami(ginv, gamma, df, ddf):
    """g^ij (f_ij - gamma^k_ij f_k) over leading axes, from the jets
    df (..., n) and ddf (..., n, n) of f; a vector-valued f takes its
    components on a leading axis."""
    term = ddf - np.einsum("...ijk,...k->...ij", gamma, df)
    return np.sum(ginv * term, axis=(-2, -1))


def point_frame(imm: ParametricImmersion, params) -> PointFrame:
    """Frames, curvature, and Gaussian weight at parameters (..., n).

    One kernel call covers every point, and its jets die before the frame
    check; one point (shape (n,)) gives a PointFrame with no leading axis.
    """
    p = _params(imm, params)
    flat = p.reshape(-1, imm.n)
    f = _frame_kernel(*imm.jets(flat), flat)[1]
    lead = p.shape[:-1]
    # [()] turns the 0-d rho of one point into a scalar
    return PointFrame(**{k: a.reshape(lead + a.shape[1:])[()] for k, a in f.items()})


def shrinker_residual(pf: PointFrame) -> np.ndarray:
    """Per normal direction, H_alpha + <X, nu_alpha>/2; zero on shrinkers."""
    return pf.mean + 0.5 * pf.x_normal


def gauss_map(pf: PointFrame) -> OrientedFrame:
    """Tangent planes at the points over pf's leading axes, oriented by the chart."""
    return OrientedFrame(pf.tangent)


def _tension(f, first):
    """T[..., alpha, j] from frames with the stencil on their first axis: the
    centres in row 0 and, in rows 1 to 4n, the axis points of the
    first-order stencils whose combine is first."""
    rows = slice(1, 1 + 4 * f.S.shape[-1])
    x, tangent, normal, mean = f.position[rows], f.tangent[rows], f.normal[rows], f.mean[rows]
    # the ambient field H + X_normal/2, independent of the frame choice
    xt = (tangent @ x[..., None])[..., 0]
    V = (mean[..., None, :] @ normal)[..., 0, :] + 0.5 * (x - (xt[..., None, :] @ tangent)[..., 0, :])
    _, dV, _ = first(V)
    # row j: derivative along frame row j
    along_frame = f.S[0] @ np.ascontiguousarray(np.moveaxis(dV, 0, -2))
    return f.normal[0] @ along_frame.swapaxes(-1, -2)  # (..., alpha, j)


def weighted_tension(imm: ParametricImmersion, params) -> np.ndarray:
    """Coefficients T[..., alpha, j] of the weighted tension of the plane map
    at parameters (..., n).

    Differentiates the ambient field H + X_normal/2 along each frame row and
    projects onto the normal directions at the center point.  Vanishes on
    self-shrinkers.  One frame-kernel call covers every centre and its
    first-order stencil.
    """
    return _centre_tension(imm, params)[1]


def _centre_tension(imm, params):
    """(frames at the centres (..., n), weighted_tension's T) from one
    frame-kernel call over the centres and their first-order stencils."""
    p = _params(imm, params)
    points, first = _stencil(p, imm.fd_step, second=False)
    f = point_frame(imm, np.concatenate([p[None], points]))
    return f[0], _tension(f, first)


def _drift_laplacian(x, dX, ddX, S, df, ddf):
    # the operator over leading axes from the jets, the whitening S and the
    # jets df (..., n), ddf (..., n, n) of f
    ginv, gamma = _metric_data(S, dX, ddX)
    lap = _laplace_beltrami(ginv, gamma, df, ddf)
    drift = 0.5 * (df[..., None, :] @ ginv @ (dX @ x[..., None]))[..., 0, 0]
    return lap - drift


def _stencil(center, steps, second=True):
    """The 4th-order difference stencils at centers (..., n), each point
    listed once.

    Returns (points, combine).  points (S, ..., n) holds, per centre, the 4
    points of each parameter axis, axis by axis in the offset order of _D4;
    with second=True the centre comes first (so the axis points are rows 1
    to 4n) and the 16 mixed points of each axis pair k < l come last.
    combine(values) takes func's values at the points, stacked along the
    first axis, and returns the (value, first, second) jets of _fd_jets.
    """
    c = np.asarray(center, dtype=float)
    steps = np.asarray(steps, dtype=float)
    n = c.shape[-1]
    # a point is its shift from c: pairs (k, off) moving it off * steps[k]
    shifts = [((k, off),) for k in range(n) for off, _ in _D4]
    if second:
        shifts = [()] + shifts + [((k, ok), (l, ol)) for k in range(n)
                                  for l in range(k + 1, n) for ok, _ in _D4 for ol, _ in _D4]
    row = {shift: i for i, shift in enumerate(shifts)}
    points = np.repeat(c[None], len(shifts), axis=0)
    for q, shift in zip(points, shifts):
        for k, off in shift:
            q[..., k] += off * steps[k]

    def combine(values):
        def at(*shift):  # func at c shifted by off * steps[k] along each (k, off)
            return values[row[shift]]

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

    return points, combine


def _fd_jets(func, center, steps, second=True):
    """(value, first, second) jets of func at centers (..., n) by 4th-order
    differences.

    func takes points (..., n) and returns a scalar or an array per point,
    over the same leading axes; it is called once, on every stencil point
    stacked.  first[k] and second[k, l] are its partial derivatives along
    parameters k and l, over the leading axes of center.  With second=False
    only the first-derivative stencil runs and the value and second jet come
    back as None.
    """
    points, combine = _stencil(center, steps, second)
    values = np.asarray(func(points), dtype=float)
    lead = points.shape[:-1]
    if values.shape[:len(lead)] != lead:
        raise ValueError(f"func of points {points.shape} must return values over the "
                         f"leading axes {lead}, got shape {values.shape}")
    return combine(values)


# ---------------------------------------------------------------------------
# the composition formula on the paper's target functions


def _signed_normal(tangent, normal):
    # (s, y) over the leading axes: the sign s making (tangent rows, normal)
    # positively oriented and the oriented normal y = s nu; hypersurfaces only
    s = np.sign(np.linalg.det(np.concatenate([tangent, normal], axis=-2)))
    return s, s[..., None] * normal[..., 0, :]


def oriented_normal(pf: PointFrame) -> np.ndarray:
    """Unit normal of a hypersurface, oriented to follow the chart."""
    if pf.m != 1:
        raise ValueError("oriented normal needs codimension one")
    return _signed_normal(pf.tangent, pf.normal)[1]


def _normal_images(tangent, s, coeffs):
    """dnu of the frame rows with coefficients coeffs (..., k, n) at frames
    with tangent rows tangent and orientation signs s: the ambient vectors
    (-s) coeffs @ tangent."""
    return ((-s)[..., None, None] * coeffs) @ tangent


def composition_checks(imm: ParametricImmersion, params, reference: OrientedFrame,
                       pole=None) -> np.ndarray:
    """Chain-rule residuals of the paper's target functions F of the plane
    map gamma at centres (..., n): the rows height (only with a pole), v and
    log v over the leading axes.

    Each is L(F o gamma), by differences of the composed scalar, minus the
    closed-form Hessian sum over the plane-map images and dF paired with the
    weighted tension; near zero on any immersion.  F is the height
    1 - <nu, pole> of the oriented unit normal on the sphere (hypersurfaces
    only), and v and log v against the reference plane.  One frame-kernel
    call covers the stencils of every centre, one overlap_values call gives
    v on them and one jordan_spectrum call the spectra of the centres.
    """
    p = _params(imm, params)
    points, combine = _stencil(p, imm.fd_step)
    f = point_frame(imm, points)
    x, dX, ddX = (a.reshape(p.shape[:-1] + a.shape[1:]) for a in imm.jets(p.reshape(-1, imm.n)))
    # rows 1 to 4n hold the first-order stencil, in its own order
    T = _tension(f, _stencil(p, imm.fd_step, second=False)[1])
    pf = f[0]
    rows = []  # (F at the stencil points, closed-form terms at the centres)
    if pole is not None:
        y = oriented_normal(f)
        s, yc = _signed_normal(pf.tangent, pf.normal)
        images = _normal_images(pf.tangent, s, pf.h[..., 0, :, :])
        tension = _normal_images(pf.tangent, s, T)[..., 0, :]
        rows.append((sphere.height_value(y / np.sqrt(sphere._dot(y, y))[..., None], pole),
                     sphere.height_hessian(yc[..., None, :], pole, images, images).sum(axis=-1)
                     + sphere.height_differential(yc, pole, tension)))
    v = grassmann.v_values(grassmann.overlap_values(gauss_map(f), reference))
    spec = grassmann.jordan_spectrum(gauss_map(pf), reference)
    # coefficients [j, alpha] of the plane-map images of the n frame rows and
    # of the tension, image axis first, rewritten in the adapted frames at once
    om = np.concatenate([np.moveaxis(pf.h, (-3, -2), (-1, 0)), np.swapaxes(T, -1, -2)[None]])
    om = grassmann.express_in_adapted_frame(spec, om, pf.tangent, pf.normal).omega
    images, tension = (TangentCoeffs(z, spec.tangent_frame) for z in (om[:-1], om[-1]))
    dlogv = grassmann.dlogv_form(spec, tension)
    rows.append((v, np.sum(grassmann.hess_v_form(spec, images), axis=0)
                 + grassmann.v_values(spec.mu) * dlogv))
    rows.append((np.log(v), np.sum(grassmann.hess_logv_form(spec, images), axis=0) + dlogv))
    out = []
    for values, centre_sum in rows:
        _, grad, hess = combine(values)
        # the derivative axes from first to last
        grad, hess = np.moveaxis(grad, 0, -1), np.moveaxis(hess, (0, 1), (-2, -1))
        out.append(_drift_laplacian(x, dX, ddX, pf.S, grad, hess) - centre_sum)
    return np.array(out)


# ---------------------------------------------------------------------------
# meshes and quadrature


@dataclass(frozen=True, eq=False)
class WeightedPatchMesh:
    """Midpoint quadrature over a tensor-product grid of the chart.

    A mesh holds its grid only: the immersion, shape (one resolution per
    parameter) and whether it is closed.  Its nodes, in the order of
    np.meshgrid(..., indexing="ij"), are read in one way, _node_blocks: one
    block of _NODE_BLOCK nodes at a time with one jets call and one
    frame-kernel call each, and each block's frames and weights checked as
    it is built, so a bad node raises at the first read, not in patch_mesh.
    Nothing is kept between reads.  The weights are the unweighted area
    element (cell volume times sqrt det g); the Gaussian factor enters
    through frames.rho.
    """

    immersion: ParametricImmersion
    shape: tuple
    closed: bool = False

    @property
    def node_count(self):
        return math.prod(self.shape)

    def _node_blocks(self):
        """(slice, params, weights, frames) of each block of nodes in turn.

        The first failing block raises what a build over every node would
        raise, naming the same first failing node; its temporaries die with
        the block.
        """
        imm, count = self.immersion, self.node_count
        steps = [(hi - lo) / cnt for (lo, hi), cnt in zip(imm.chart, self.shape)]
        axes = [lo + st * (np.arange(c) + 0.5) for (lo, _), st, c in zip(imm.chart, steps, self.shape)]
        cell = math.prod(steps)
        for b in _blocks((count,)):
            nodes = np.unravel_index(np.arange(b.start, min(b.stop, count)), self.shape)
            params = np.stack([axis[i] for axis, i in zip(axes, nodes)], axis=1)
            L, fields = _frame_kernel(*imm.jets(params), params)
            weights = cell * np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1)
            frames = PointFrame(**fields)
            if np.any(weights <= 0.0):
                raise ValueError("quadrature weights must be positive")
            yield b, params, weights, frames


def patch_mesh(imm: ParametricImmersion, shape, closed=False):
    """Tensor-product midpoint mesh over the chart, shape nodes per
    parameter: the grid only, whose nodes are computed and checked block by
    block when they are read (see WeightedPatchMesh)."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != imm.n or min(shape) < 1:
        raise ValueError("need one positive resolution per parameter")
    return WeightedPatchMesh(imm, shape, closed=closed)


def sphere_mesh(R, shape):
    """Closed lat-long mesh of the centred round 2-sphere of radius R."""
    imm = catalog_immersion(f"sphere:n=2,R={R},c1=0.0")
    return patch_mesh(imm, shape, closed=True)


def _integrals(mesh: WeightedPatchMesh, integrands):
    """Quadrature of several per-node fields in one streamed read of mesh.

    integrands(params, frames) returns k rows of per-node terms for one
    block of nodes; each is multiplied by the block's area element, and
    each row of the (k, nodes) terms is summed once over every node.
    """
    terms = None
    for b, params, weights, frames in mesh._node_blocks():
        rows = np.asarray(integrands(params, frames)) * weights
        if terms is None:
            terms = np.empty((len(rows), mesh.node_count))
        terms[:, b] = rows
    return [float(np.sum(row)) for row in terms]


class StabilityReport(NamedTuple):
    lhs: float
    rhs: float
    residual: float


def stability_identity_check(mesh: WeightedPatchMesh, a):
    """Closed-surface identity: int f(1-f)|B|^2 rho = -int |grad f|^2 rho.

    f is the height of the normal map against the unit pole a.  The two
    weighted integrands are filled block by block in one streamed read of
    the mesh (_integrals).  Requires a closed mesh; open patches would need
    boundary terms that are not modeled.
    """
    if not mesh.closed:
        raise ValueError("stability identity requires a closed mesh")

    def integrands(_, f):
        sign, y = _signed_normal(f.tangent, f.normal)
        vals = sphere.height_value(y, a)
        # e_j(f) per frame row, then grad f in ambient coordinates
        images = _normal_images(f.tangent, sign, f.h[:, 0])
        coeffs = sphere.height_differential(y[:, None], a, images)
        grads = (coeffs[:, None, :] @ f.tangent)[:, 0]
        return (vals * (1.0 - vals) * _second_form_sq(f.h) * f.rho,
                np.sum(grads * grads, axis=1) * f.rho)

    lhs, grad_sq = _integrals(mesh, integrands)
    rhs = -grad_sq
    return StabilityReport(lhs=lhs, rhs=rhs, residual=lhs - rhs)


# ---------------------------------------------------------------------------
# weighted map energy and its first variation


@dataclass(frozen=True, eq=False)
class WeightField:
    """Per-node weight values and ambient tangential gradients of log w."""

    values: np.ndarray
    grad_log: np.ndarray


def gaussian_weight(frames: PointFrame) -> WeightField:
    """The shrinker weight rho at frames, with grad log rho = -(tangential X)/2."""
    xt = (frames.tangent @ frames.position[..., None]).swapaxes(-1, -2) @ frames.tangent
    return WeightField(values=frames.rho, grad_log=-0.5 * xt[:, 0])


def unit_weight(frames: PointFrame) -> WeightField:
    """The weight 1 at frames."""
    return WeightField(np.ones(frames.rho.shape), np.zeros(frames.position.shape))


def _energy_density(imm, params, frames, map_fn):
    # (1/2)|d map|^2 at nodes params with frames (map valued in R^k)
    _, dy, _ = _fd_jets(map_fn, params, imm.fd_step, second=False)
    push = frames.S @ dy.swapaxes(0, 1)  # rows: map differential along frame rows
    return 0.5 * np.sum(push * push, axis=(-2, -1))


class FirstVariationReport(NamedTuple):
    derivative: float
    pairing: float
    residual: float


def _sphere_map_tension(imm, params, frames, map_fn, grad_log_w):
    # weighted tension (N, k) of a unit-sphere-valued map at nodes params
    # with frames (ambient), with grad_log_w (N, amb) the tangential
    # gradients of log w
    _, dX, ddX = imm.jets(params)
    ginv, gamma = _metric_data(frames.S, dX, ddX)
    y, dy, ddy = _fd_jets(map_fn, params, imm.fd_step)
    # the map's components on a leading axis: (k, N, n) and (k, N, n, n)
    lap = _laplace_beltrami(ginv, gamma, dy.transpose(2, 1, 0), ddy.transpose(3, 2, 0, 1)).T
    push = frames.S @ dy.swapaxes(0, 1)  # (N, n, k)
    energy_density = np.sum(push * push, axis=(-2, -1))
    # weight term: push the tangential gradient of log w through the map
    drift = ((frames.tangent @ grad_log_w[..., None]).swapaxes(-1, -2) @ push)[:, 0]
    return lap + energy_density[:, None] * y + drift


def first_variation_check(mesh: WeightedPatchMesh, family, weight_of) -> FirstVariationReport:
    """Compare d/dt of the weighted energy with the tension pairing.

    family(t) returns the map at time t, a function of points (..., n)
    with values (..., k); weight_of(frames) builds the weight field at one
    block's frames.  The pairing side is -int <d/dt map, tension> w, with
    d/dt a central difference of step 1e-3.  The energies at +-dt and the
    pairing are filled block by block in one streamed read of the mesh
    (_integrals), so each map is called a fixed number of times per block.
    A variation reaching the boundary of an open patch triggers a warning
    since boundary terms are dropped.
    """
    dt = 1e-3
    imm = mesh.immersion
    f0, fp, fm = family(0.0), family(dt), family(-dt)

    def rate(q):  # d/dt of the map at the points q (..., n)
        return (fp(q) - fm(q)) / (2.0 * dt)

    peak = 0.0  # max |d/dt map| over the nodes

    def integrands(params, frames):
        nonlocal peak
        w = weight_of(frames)
        vdot = rate(params)
        peak = max(peak, float(np.max(np.abs(vdot))))
        tau = _sphere_map_tension(imm, params, frames, f0, w.grad_log)
        return (_energy_density(imm, params, frames, fp) * w.values,
                _energy_density(imm, params, frames, fm) * w.values,
                np.sum(vdot * tau, axis=-1) * w.values)

    e_p, e_m, pairing = _integrals(mesh, integrands)
    derivative = (e_p - e_m) / (2.0 * dt)
    total = -pairing
    if not mesh.closed:
        # the midpoints of the faces of the chart box
        faces = np.repeat(0.5 * imm.chart.sum(axis=1)[None], 2 * imm.n, axis=0)
        faces[np.arange(2 * imm.n), np.repeat(np.arange(imm.n), 2)] = imm.chart.ravel()
        if np.max(np.abs(rate(faces))) > 1e-8 * max(peak, 1e-30):
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
    """Unit n-sphere by iterated polar angles over leading axes (..., n).

    X_c = sin t_0 ... sin t_{c-1} cos t_c (no cosine factor for c = n);
    returns X (..., n+1) with its first (..., n, n+1) and second
    (..., n, n, n+1) derivatives in the angles.  Products run in index order.
    """
    t = np.asarray(angles, dtype=float)
    lead, n = t.shape[:-1], t.shape[-1]
    sin, cos = np.sin(t), np.cos(t)
    sin = [sin[..., j] for j in range(n)]
    cos = [cos[..., j] for j in range(n)]
    x = np.zeros(lead + (n + 1,))
    dx = np.zeros(lead + (n, n + 1))
    ddx = np.zeros(lead + (n, n, n + 1))
    for c in range(n + 1):
        # factors of X_c and their derivatives, indexed by angle
        fac = sin[:c] + cos[c:c + 1]
        dfac = cos[:c] + [-v for v in sin[c:c + 1]]
        idx = range(len(fac))

        def prod(*skip):
            return math.prod((fac[j] for j in idx if j not in skip), start=1.0)

        x[..., c] = prod()
        for a in idx:
            rest = prod(a)
            dx[..., a, c] = dfac[a] * rest
            ddx[..., a, a, c] = -fac[a] * rest
            for b in idx[a + 1:]:
                ddx[..., a, b, c] = ddx[..., b, a, c] = dfac[a] * dfac[b] * prod(a, b)
    return x, dx, ddx


def _sphere_immersion(n, R, c1=0.0):
    center = np.zeros(n + 1)
    center[0] = c1
    chart = [(0.0, math.pi)] * (n - 1) + [(-math.pi, math.pi)]

    def jet(param):
        x, dx, ddx = _unit_sphere_jets(param)
        return center + R * x, R * dx, R * ddx

    return ParametricImmersion(n, 1, chart, jet)


def _plane_immersion(n, m):
    chart = [(-3.0, 3.0)] * n

    def jet(param):
        lead = param.shape[:-1]
        x = np.zeros(lead + (n + m,))
        x[..., :n] = param
        dX = np.zeros(lead + (n, n + m))
        dX[..., :n] = np.eye(n)
        return x, dX, np.zeros(lead + (n, n, n + m))

    return ParametricImmersion(n, m, chart, jet)


def _cylinder_immersion(k, n):
    # S^k(sqrt(2k)) x R^{n-k} in R^{n+1}
    R = math.sqrt(2.0 * k)
    chart = [(0.0, math.pi)] * (k - 1) + [(-math.pi, math.pi)] + [(-3.0, 3.0)] * (n - k)

    def jet(param):
        xs, dxs, ddxs = _unit_sphere_jets(param[..., :k])
        lead = param.shape[:-1]
        x = np.zeros(lead + (n + 1,))
        x[..., : k + 1] = R * xs
        x[..., k + 1 :] = param[..., k:]
        dX = np.zeros(lead + (n, n + 1))
        dX[..., :k, : k + 1] = R * dxs
        dX[..., k:, k + 1 :] = np.eye(n - k)
        ddX = np.zeros(lead + (n, n, n + 1))
        ddX[..., :k, :k, : k + 1] = R * ddxs
        return x, dX, ddX

    return ParametricImmersion(n, 1, chart, jet)


def _graph_jets(param, u, du, ddu):
    """Jets x = (param, u), dX = [I | du] and ddX = [0 | ddu] of a graph over
    leading axes, from parameters (..., n), heights u (..., m) and their jets
    du (..., n, m), ddu (..., n, n, m)."""
    *lead, n, m = np.shape(du)
    x = np.concatenate([param, u], axis=-1)
    dX = np.zeros((*lead, n, n + m))
    dX[..., :n] = np.eye(n)
    dX[..., n:] = du
    ddX = np.zeros((*lead, n, n, n + m))
    ddX[..., n:] = ddu
    return x, dX, ddX


def graph_immersion(u, n, m, chart, jets=None):
    """Immersion x -> (x, u(x)) of a height map with m components.

    u takes parameters (..., n) and returns heights (..., m).  jets, if
    given, takes (B, n) parameters and returns (u, du, ddu) of shapes
    (B, m), (B, n, m) and (B, n, n, m), du[:, k] the k-th partial of the
    heights; otherwise jets come from 4th-order differences of u.
    """
    if jets is not None:
        return ParametricImmersion(n, m, chart, lambda p: _graph_jets(p, *jets(p)))
    return ParametricImmersion.from_positions(
        lambda p: np.concatenate([p, u(p)], axis=-1), n, m, chart)


def _parse_args(text):
    out = {}
    if text:
        for piece in text.split(","):
            key, _, val = piece.partition("=")
            key = key.strip()
            if not _ or key == "":
                raise ValueError(f"malformed catalog argument {piece!r}")
            if key in out:
                raise ValueError(f"repeated catalog argument {key!r}")
            out[key] = float(val)
    return out


def catalog_immersion(name: str) -> ParametricImmersion:
    """Build a surface from a registry string, e.g. "sphere:n=2,R=2".

    Known kinds: plane:n=..,m=..; sphere:n=..,R=..[,c1=..] (c1 shifts the
    center along the first axis); cylinder:k=..,n=.. (round factor of radius
    sqrt(2k)).  Dimensions must be positive integers, with k <= n, R
    positive and finite, and c1 finite.
    """
    kind, _, rest = name.partition(":")
    args = _parse_args(rest)

    def take(key, default=None, valid=math.isfinite, need="a finite number"):
        if key in args:
            val = args.pop(key)
        elif default is None:
            raise ValueError(f"catalog {kind!r} needs argument {key!r}")
        else:
            val = default
        if not valid(val):
            raise ValueError(f"catalog {kind!r} needs {need} {key!r}, got {val!r}")
        return val

    def dim(key):
        return int(take(key, valid=lambda x: 1 <= x < math.inf and x == int(x),
                        need="a positive integer"))

    if kind == "plane":
        imm = _plane_immersion(dim("n"), dim("m"))
    elif kind == "sphere":
        R = take("R", valid=lambda x: 0.0 < x < math.inf, need="a positive finite number")
        imm = _sphere_immersion(dim("n"), R, take("c1", 0.0))
    elif kind == "cylinder":
        k, n = dim("k"), dim("n")
        if k > n:
            raise ValueError(f"catalog {kind!r} needs k <= n, got k={k}, n={n}")
        imm = _cylinder_immersion(k, n)
    else:
        raise ValueError(f"unknown catalog kind {kind!r}")
    if args:
        raise ValueError(f"unused catalog arguments {sorted(args)}")
    return imm
