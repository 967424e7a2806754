"""Bounded-grid solver for the graphic self-shrinker system.

A multi-component height field u on the box [-L, L]^n describes the graph
surface (x, u(x)).  The elliptic system for self-shrinking graphs,

    sum_ij g^ij u^a_ij = (x . Du^a - u^a) / 2,   g_ij = delta_ij + u^a_i u^a_j,

is discretized with central differences on a uniform grid; an explicit
parabolic relaxation du/dt = (elliptic) - (drift) flows fields toward
solutions with Dirichlet data pinned on the boundary.  Slope, curvature, and
Gauss-image telemetry are recorded along runs, and grid fields interoperate
with the immersion layer through jets evaluated at grid nodes.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

import numpy as np

from . import sphere
from .grassmann import OrientedFrame
from .immersion import _D1, _D2, ChartError, ParametricImmersion, _graph_jets


class DivergenceError(RuntimeError):
    """Relaxation blow-up; carries the telemetry collected so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class GridField:
    """Height samples u: real[m] on the uniform grid of [-L, L]^n.

    Boundary data is either an affine map (A, b) whose values the perimeter
    must match, or "frozen" (whatever the perimeter samples are is held
    fixed by the solvers).
    """

    L: float
    values: np.ndarray  # shape (*resolution, m)
    boundary: str = "frozen"  # "affine" or "frozen"
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim < 2:
            raise ValueError("values must have shape (*resolution, m)")
        # before the comparisons below, which are all False for NaN
        if not all(np.all(np.isfinite(x)) for x in (self.L, self.values, self.A, self.b)
                   if x is not None):
            raise ValueError("field holds non-finite values")
        if self.L <= 0:
            raise ValueError("box half-width must be positive")
        if any(s < 5 for s in self.shape):
            raise ValueError("resolution must be at least 5 per axis")
        if self.boundary == "affine":
            self.A = np.zeros((self.m, self.n)) if self.A is None else np.asarray(self.A, float)
            self.b = np.zeros(self.m) if self.b is None else np.asarray(self.b, float)
            if self.A.shape != (self.m, self.n) or self.b.shape != (self.m,):
                raise ValueError(f"affine data must be A {(self.m, self.n)} and b {(self.m,)}, "
                                 f"not {self.A.shape} and {self.b.shape}")
            aff = self.affine_values()
            mask = _perimeter_mask(self.shape)
            gap = np.max(np.abs(self.values[mask] - aff[mask]))
            if gap > 1e-10:
                raise ValueError(
                    f"perimeter samples deviate from the affine data by {gap:.3e}"
                )
        elif self.boundary != "frozen":
            raise ValueError("boundary must be 'affine' or 'frozen'")

    @property
    def shape(self):
        return self.values.shape[:-1]

    @property
    def n(self):
        return self.values.ndim - 1

    @property
    def m(self):
        return self.values.shape[-1]

    @property
    def spacing(self):
        return np.array([2.0 * self.L / (s - 1) for s in self.shape])

    def axis_coords(self, k):
        return _axes(self.L, self.shape)[k]

    def coords(self):
        return _coords(self.L, self.shape)

    def affine_values(self):
        if self.A is None or self.b is None:
            raise ValueError("no affine data attached")
        return self.coords() @ self.A.T + self.b

    @classmethod
    def from_function(cls, func, L, resolution, m, boundary="frozen", A=None, b=None):
        resolution = tuple(int(s) for s in resolution)
        flat = _coords(L, resolution).reshape(-1, len(resolution))
        vals = np.array([np.atleast_1d(func(x)) for x in flat], dtype=float)
        vals = vals.reshape(*resolution, m)
        return cls(L=L, values=vals, boundary=boundary, A=A, b=b)


def _axes(L, shape):
    """Node coordinates along each axis of the uniform grid of [-L, L]^n."""
    return [np.linspace(-L, L, s) for s in shape]


def _coords(L, shape):
    """Node coordinates of the grid, shape (*shape, n)."""
    return np.stack(np.meshgrid(*_axes(L, shape), indexing="ij"), axis=-1)


def _perimeter_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    for k in range(len(shape)):
        idx = [slice(None)] * len(shape)
        idx[k] = 0
        mask[tuple(idx)] = True
        idx[k] = shape[k] - 1
        mask[tuple(idx)] = True
    return mask


def _margin(order):
    if order not in (2, 4):
        raise ValueError("stencil order must be 2 or 4")
    return order // 2


def interior(field: GridField, order=2):
    """Slices selecting the nodes where all order-wide stencils fit."""
    g = _margin(order)
    return tuple(slice(g, s - g) for s in field.shape)


class _Plan(NamedTuple):
    """What a geometry pass needs from the grid alone.

    box selects the interior; X is the open grid of interior coordinates
    (n read-only arrays with a trailing component axis, broadcasting against
    (*interior, m)).  Each difference is (terms, divisor) with terms the
    (weight, slices) pairs of _apply: d1[k] and d2[k] run along axis k on
    the field values, and mixed holds (k, l, inner, outer) for k < l, the
    first difference along k on values kept whole along l, then along l.
    """

    box: tuple
    X: tuple
    d1: tuple
    d2: tuple
    mixed: tuple


@functools.lru_cache(maxsize=8)
def _plan(shape, L, order):
    g = _margin(order)
    n = len(shape)
    box = tuple(slice(g, s - g) for s in shape)
    h = [2.0 * L / (s - 1) for s in shape]

    def diff(table, k, rest):
        # along axis k; rest slices every other axis of the input
        weights, c = table[order]
        div = c * h[k] if table is _D1 else c * h[k] * h[k]
        terms = tuple(
            (w, tuple(slice(g + s, shape[k] - g + s) if j == k else rest[j]
                      for j in range(n)))
            for s, w in weights
        )
        return terms, div

    mixed = tuple(
        (k, l, diff(_D1, k, box[:l] + (slice(None),) + box[l + 1:]),
         diff(_D1, l, (slice(None),) * n))
        for k in range(n) for l in range(k + 1, n)
    )
    axes = [a[b] for a, b in zip(_axes(L, shape), box)]
    X = tuple(x[..., None] for x in np.meshgrid(*axes, indexing="ij", sparse=True))
    for x in X:
        x.setflags(write=False)
    return _Plan(box, X, tuple(diff(_D1, k, box) for k in range(n)),
                 tuple(diff(_D2, k, box) for k in range(n)), mixed)


def _apply(v, terms, div):
    """Sum of weight * v[slices] over terms, in their order, over div.

    The first weight is +-1; the first sum allocates the result and every
    later step writes into it.
    """
    (w, idx), *rest = terms
    acc, out = (v[idx] if w > 0 else -v[idx]), None
    for w, idx in rest:
        t = v[idx] if abs(w) == 1.0 else abs(w) * v[idx]
        acc = out = (np.add if w > 0 else np.subtract)(acc, t, out=out)
    return np.divide(acc, div, out=acc)


def _interior_jets(field: GridField, order):
    """du[k] and ddu[k][l] (*interior, m), ddu[l][k] the same array.

    The plan's differences run on the values trimmed to the interior on
    every axis they do not differentiate along, so no node off the interior
    is computed.
    """
    plan = _plan(field.shape, field.L, order)
    v = field.values
    n = len(plan.d1)
    du = [_apply(v, *d) for d in plan.d1]
    ddu = [[None] * n for _ in range(n)]
    for k, d in enumerate(plan.d2):
        ddu[k][k] = _apply(v, *d)
    for k, l, inner, outer in plan.mixed:
        ddu[k][l] = ddu[l][k] = _apply(_apply(v, *inner), *outer)
    return du, ddu


def field_jets(field: GridField, order=2):
    """du (*shape, n, m) and ddu (*shape, n, n, m); zero off the interior."""
    box = interior(field, order)
    du_i, ddu_i = _interior_jets(field, order)
    n, m = field.n, field.m
    du = np.zeros(field.shape + (n, m))
    ddu = np.zeros(field.shape + (n, n, m))
    du[box] = np.moveaxis(np.array(du_i), 0, -2)
    ddu[box] = np.moveaxis(np.array(ddu_i), (0, 1), (-3, -2))
    return du, ddu


def _spd_inverse(g):
    """Inverse and determinant of g, symmetric with eigenvalues >= 1 at each
    node and read as g[i][j] over the nodes; the inverse is nested lists.

    Gauss-Jordan elimination vectorized over the nodes: every pivot is a
    Schur complement of a matrix >= identity, so it is >= 1 and no pivoting
    is needed.  The determinant is the product of the pivots.  Step k only
    touches live entries: columns > k of the reduced matrix (the others are
    never read again) and columns <= k of the inverse (the others still
    hold the identity).
    """
    n = len(g)
    a = [list(row) for row in g]
    inv = [[float(i == j) for j in range(n)] for i in range(n)]
    det = np.ones(np.shape(g[0][0]))
    for k in range(n):
        det *= a[k][k]
        p = 1.0 / a[k][k]
        for j in range(k + 1, n):
            a[k][j] = a[k][j] * p
        for j in range(k + 1):
            inv[k][j] = inv[k][j] * p
        for i in range(n):
            if i != k:
                f = a[i][k]
                for j in range(k + 1, n):
                    t = f * a[k][j]
                    a[i][j] = np.subtract(a[i][j], t, out=t)
                for j in range(k + 1):
                    t = f * inv[k][j]
                    inv[i][j] = np.subtract(inv[i][j], t, out=t)
    return inv, det


@dataclass(frozen=True)
class _Geometry:
    """Interior geometry of one field state, entry by entry (n <= 3).

    X is the plan's open grid of interior coordinates, u (*interior, m),
    du[i] and ddu[i][j] (*interior, m), ginv[i][j] the inverse of the graph
    metric g = I + du du^T and det g, both (*interior).
    """

    X: tuple
    u: np.ndarray
    du: list
    ddu: list
    ginv: list
    det: np.ndarray

    @classmethod
    def of(cls, field: GridField, order):
        plan = _plan(field.shape, field.L, order)
        du, ddu = _interior_jets(field, order)
        n = len(du)
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = np.einsum("...a,...a->...", du[i], du[j])
            g[i][i] += 1.0
        return cls(plan.X, field.values[plan.box], du, ddu, *_spd_inverse(g))

    def residual(self, parts=False):
        # sums from 0, the elliptic one over (i, j) in row-major order as
        # einsum contracts; each writes into its own result, since on large
        # grids every fresh array costs page faults
        n = len(self.du)
        elliptic = np.zeros_like(self.u)
        for i in range(n):
            for j in range(n):
                elliptic += self.ginv[i][j][..., None] * self.ddu[i][j]
        drift = np.zeros_like(self.u)
        for x, d in zip(self.X, self.du):
            drift += x * d
        drift -= self.u
        drift *= 0.5
        res = elliptic - drift
        if parts:
            return res, elliptic, drift
        return res

    def slope(self):
        return np.sqrt(self.det)

    def second_form_sq(self):
        """|B|^2 = tr(Q H_a Q H_a) - Q_pq tr(Q W_p Q W_q) with Q = g^-1,
        H_a = ddu^a and W_p = du_p . ddu, by pairwise contractions."""
        Q = np.array(self.ginv)
        QH = np.einsum("ik...,kj...m->ij...m", Q, np.array(self.ddu))
        QW = np.einsum("p...m,ij...m->pij...", np.array(self.du), QH)  # Q W_p = du_p . Q H
        full = np.einsum("ij...m,ji...m->...", QH, QH)
        tang = np.einsum("pq...,pq...->...", Q, np.einsum("pij...,qji...->pq...", QW, QW))
        return full - tang


def system_residual(field: GridField, order=2, parts=False):
    """Per-interior-node defect of the graphic shrinker system, per component.

    Returns elliptic - drift with elliptic = g^ij u_ij and
    drift = (x . Du - u)/2; with parts=True the two pieces come back too.
    """
    return _Geometry.of(field, order).residual(parts)


def slope_field(field: GridField, order=2):
    """sqrt(det g) at interior nodes; equals the graph's volume distortion."""
    return _Geometry.of(field, order).slope()


def second_form_sq_field(field: GridField, order=2):
    """|B|^2 at interior nodes from the graph representation."""
    return _Geometry.of(field, order).second_form_sq()


@dataclass(frozen=True)
class SolverConfig:
    """Explicit-relaxation policy: stepping, stopping, telemetry cadence."""

    dt: Optional[float] = None  # None: CFL-scaled 0.45 h^2 / (2 n)
    max_steps: int = 200_000
    threshold: float = 1e-8
    order: int = 2
    sample_interval: int = 50
    blowup: float = 1e6

    def __post_init__(self):
        # before the comparisons below, which are all False for NaN
        reals = (self.threshold, self.blowup) + (() if self.dt is None else (self.dt,))
        if not all(map(math.isfinite, reals)):
            raise ValueError("solver parameters must be finite")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.threshold <= 0:
            raise ValueError("convergence threshold must be positive")
        if self.max_steps <= 0 or self.sample_interval <= 0 or self.blowup <= 0:
            raise ValueError("solver parameters must be positive")
        _margin(self.order)


@dataclass
class FlowTrace:
    """Telemetry rows sampled along a relaxation run."""

    steps: list = dc_field(default_factory=list)
    times: list = dc_field(default_factory=list)
    sup_slope: list = dc_field(default_factory=list)
    sup_residual: list = dc_field(default_factory=list)
    sup_b2: list = dc_field(default_factory=list)
    min_w: list = dc_field(default_factory=list)
    converged: bool = False

    def record(self, step, time, field, order):
        if self.times and time <= self.times[-1]:
            raise ValueError("trace times must be strictly increasing")
        geo = _Geometry.of(field, order)
        sl = geo.slope()
        self.steps.append(step)
        self.times.append(time)
        self.sup_slope.append(float(np.max(sl)))
        self.sup_residual.append(float(np.max(np.abs(geo.residual()))))
        self.sup_b2.append(float(np.max(geo.second_form_sq())))
        self.min_w.append(float(np.min(1.0 / sl)))


def relax_flow(u0: GridField, cfg: SolverConfig = SolverConfig()):
    """Explicit parabolic relaxation toward the graphic shrinker system.

    Interior nodes move by the residual; boundary samples never change.  The
    default step is 0.45 h^2 / (2 n), which satisfies the stability bound
    since the largest eigenvalue of g^ij is at most one (g >= identity).
    Stops when sup |residual| drops below the threshold or max_steps is hit;
    blow-up beyond cfg.blowup raises DivergenceError with the trace attached.
    A non-finite initial field raises ValueError before any step.
    """
    h = float(np.min(u0.spacing))
    dt = cfg.dt if cfg.dt is not None else 0.45 * h * h / (2.0 * u0.n)
    box = interior(u0, cfg.order)
    current = GridField(
        L=u0.L, values=u0.values.copy(), boundary=u0.boundary, A=u0.A, b=u0.b
    )
    trace = FlowTrace()
    trace.record(0, 0.0, current, cfg.order)
    step = 0
    while step < cfg.max_steps:
        res = system_residual(current, cfg.order)
        if float(np.max(np.abs(res))) < cfg.threshold:
            break
        current.values[box] += dt * res
        step += 1
        sup_val = float(np.max(np.abs(current.values)))
        if not math.isfinite(sup_val) or sup_val > cfg.blowup:
            if math.isfinite(sup_val) and trace.steps[-1] != step:
                trace.record(step, step * dt, current, cfg.order)
            raise DivergenceError(
                f"field magnitude {sup_val:.3e} exceeded the blow-up bound", trace
            )
        if step % cfg.sample_interval == 0:
            trace.record(step, step * dt, current, cfg.order)
    if trace.steps[-1] != step:
        trace.record(step, step * dt, current, cfg.order)
    trace.converged = trace.sup_residual[-1] < cfg.threshold
    return current, trace


# ---------------------------------------------------------------------------
# Gauss-image reporting


@dataclass(frozen=True)
class GaussImageReport:
    max_v: float
    min_w: float
    v_below_3: bool
    min_pole_ip: Optional[float]
    region_counts: Optional[dict]
    open_hemisphere: Optional[bool]
    closed_hemisphere: Optional[bool]


def gauss_image_report(field: GridField, reference: Optional[OrientedFrame] = None,
                       pole=None, order=2) -> GaussImageReport:
    """Summary of the tangent-plane image over the interior nodes.

    max_v is the largest slope (the v-function against the horizontal
    plane); min_w is the smallest w-product against the reference (the
    horizontal plane when none is given).  With a pole and m = 1 the unit
    normals are classified through the sphere-region machinery and the
    hemisphere hypotheses are flagged.
    """
    geo = _Geometry.of(field, order)
    sl = geo.slope()
    max_v = float(np.max(sl))
    if reference is None:
        min_w = float(np.min(1.0 / sl))
    else:
        # w = det(dX ref^T) / sqrt(det g) with dX = [I | du] at each node
        ref = reference.vectors
        n = field.n
        proj = np.einsum("i...a,ja->...ij", np.array(geo.du), ref[:, n:]) + ref[:, :n].T
        min_w = float(np.min(np.linalg.det(proj) / sl))
    min_ip = None
    counts = None
    open_h = None
    closed_h = None
    if field.m == 1 and pole is not None:
        pole = np.asarray(pole, dtype=float)
        flat_du = np.array(geo.du).reshape(field.n, -1).T
        denom = np.sqrt(1.0 + np.sum(flat_du * flat_du, axis=1))
        normals = np.concatenate(
            [-flat_du, np.ones((flat_du.shape[0], 1))], axis=1
        ) / denom[:, None]
        ips = normals @ pole
        min_ip = float(np.min(ips))
        counts = {}
        for row in normals:
            region = sphere.region_membership(row, pole)
            counts[region] = counts.get(region, 0) + 1
        open_h = min_ip > sphere.REGION_TOL
        closed_h = min_ip >= -sphere.REGION_TOL
    return GaussImageReport(
        max_v=max_v,
        min_w=min_w,
        v_below_3=max_v < 3.0,
        min_pole_ip=min_ip,
        region_counts=counts,
        open_hemisphere=open_h,
        closed_hemisphere=closed_h,
    )


# ---------------------------------------------------------------------------
# immersion-layer interop


def field_immersion(field: GridField, order=4) -> ParametricImmersion:
    """Wrap a grid field as an immersion with jets at interior grid nodes.

    Parameters must land on interior nodes (within 1e-8 of the spacing);
    jets are the grid stencils of the stated order, so downstream frame and
    curvature computations agree with the grid operators exactly.
    """
    du, ddu = field_jets(field, order)
    g = _margin(order)
    h = field.spacing
    lo = np.array([-field.L + g * h[k] for k in range(field.n)])
    hi = np.array([field.L - g * h[k] for k in range(field.n)])
    n, m = field.n, field.m

    def jet(param):
        idx = []
        for k in range(n):
            f = (param[k] + field.L) / h[k]
            i = int(round(f))
            if abs(f - i) > 1e-8:
                raise ChartError("parameter does not land on a grid node")
            if i < g or i > field.shape[k] - 1 - g:
                raise ChartError("grid node too close to the boundary")
            idx.append(i)
        idx = tuple(idx)
        return _graph_jets(param, field.values[idx], du[idx], ddu[idx])

    return ParametricImmersion(
        n, m, np.stack([lo, hi], axis=1), jet, fd_step=h, label="graph:field"
    )


def interior_nodes(field: GridField, order=4):
    """Coordinates of the nodes where field_immersion accepts parameters."""
    return field.coords()[interior(field, order)].reshape(-1, field.n)


# ---------------------------------------------------------------------------
# files and plots


def field_to_csv(field: GridField) -> str:
    """Loss-free text form: meta line, boundary line, then one row per node."""
    out = io.StringIO()
    res = "x".join(str(s) for s in field.shape)
    out.write("n,m,L,res,boundary\n")
    out.write(f"{field.n},{field.m},{field.L:.17g},{res},{field.boundary}\n")
    if field.boundary == "affine":
        flat = list(field.A.ravel()) + list(field.b)
        out.write(",".join(f"{v:.17g}" for v in flat) + "\n")
    cols = (
        [f"i{k}" for k in range(field.n)]
        + [f"x{k}" for k in range(field.n)]
        + [f"u{a}" for a in range(field.m)]
    )
    out.write(",".join(cols) + "\n")
    coords = field.coords()
    for idx in np.ndindex(*field.shape):
        row = list(map(str, idx)) + [
            f"{c:.17g}" for c in coords[idx]
        ] + [f"{v:.17g}" for v in field.values[idx]]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def field_from_csv(text: str) -> GridField:
    """Inverse of field_to_csv; a missing, duplicate, out-of-range or
    non-finite entry raises ValueError instead of being filled in."""
    lines = text.strip().split("\n")
    if lines[0] != "n,m,L,res,boundary":
        raise ValueError("unrecognized field file header")
    n_s, m_s, L_s, res_s, boundary = lines[1].split(",")
    n, m, L = int(n_s), int(m_s), float(L_s)
    shape = tuple(int(t) for t in res_s.split("x"))
    cursor = 2
    A = b = None
    if boundary == "affine":
        flat = [float(t) for t in lines[cursor].split(",")]
        if len(flat) != m * n + m:
            raise ValueError(f"affine line {cursor + 1} holds {len(flat)} values, "
                             f"A and b need {m * n + m}")
        A = np.array(flat[: m * n]).reshape(m, n)
        b = np.array(flat[m * n :])
        cursor += 1
    cursor += 1  # column header
    rows = lines[cursor:]
    if len(rows) != math.prod(shape):
        raise ValueError(
            f"field file has {len(rows)} node rows, the {res_s} grid needs "
            f"{math.prod(shape)}"
        )
    values = np.zeros(shape + (m,))
    seen = np.zeros(shape, dtype=bool)
    for line in rows:
        toks = line.split(",")
        if len(toks) != 2 * n + m:
            raise ValueError(f"node row {line!r} does not have {2 * n + m} columns")
        idx = tuple(int(t) for t in toks[:n])
        if not all(0 <= i < s for i, s in zip(idx, shape)):
            raise ValueError(f"node index {idx} outside the {res_s} grid")
        if seen[idx]:
            raise ValueError(f"duplicate node index {idx}")
        seen[idx] = True
        values[idx] = [float(t) for t in toks[2 * n :]]
    return GridField(L=L, values=values, boundary=boundary, A=A, b=b)


def trace_to_csv(trace: FlowTrace) -> str:
    out = ["step,time,sup_slope,sup_residual,sup_B2,min_w"]
    for i in range(len(trace.steps)):
        out.append(
            f"{trace.steps[i]},{trace.times[i]:.17g},{trace.sup_slope[i]:.17g},"
            f"{trace.sup_residual[i]:.17g},{trace.sup_b2[i]:.17g},{trace.min_w[i]:.17g}"
        )
    return "\n".join(out) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728")  # one per series of trace_svg


def trace_svg(trace: FlowTrace) -> str:
    """Hand-rolled SVG line plot of log10 sup_residual and sup_slope against time."""
    width, height = 640, 360
    pad = 48.0
    t = np.asarray(trace.times, dtype=float)
    if t.size < 2:
        t = np.array([0.0, 1.0] if t.size == 0 else [t[0], t[0] + 1.0])
    residual = np.abs(np.asarray(trace.sup_residual, dtype=float))
    series = [
        ("log10 sup_residual", np.log10(np.maximum(residual, 1e-300))),
        ("sup_slope", np.asarray(trace.sup_slope, dtype=float)),
    ]
    ymin = min(float(np.min(y)) for _, y in series)
    ymax = max(float(np.max(y)) for _, y in series)
    if ymax - ymin < 1e-12:
        ymax = ymin + 1.0
    tmin, tmax = float(t[0]), float(t[-1])
    if tmax - tmin < 1e-12:
        tmax = tmin + 1.0

    def sx(tv):
        return pad + (tv - tmin) / (tmax - tmin) * (width - 2 * pad)

    def sy(yv):
        return height - pad - (yv - ymin) / (ymax - ymin) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width/2}" y="{height-12}" text-anchor="middle" '
        'font-size="12">time</text>',
    ]
    for pos, (label, y) in enumerate(series):
        color = _SVG_COLORS[pos]
        n_pts = min(len(t), len(y))
        pts = " ".join(
            f"{sx(t[i]):.2f},{sy(y[i]):.2f}" for i in range(n_pts)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width-pad}" y="{pad + 16*pos}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
