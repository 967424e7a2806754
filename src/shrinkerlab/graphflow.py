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


def _box(shape, order):
    """Slices selecting the nodes where all order-wide stencils fit."""
    g = _margin(order)
    return tuple(slice(g, s - g) for s in shape)


def interior(field: GridField, order=2):
    """Slices selecting the nodes where all order-wide stencils fit."""
    return _box(field.shape, order)


class _Plan(NamedTuple):
    """What a geometry pass needs from the grid alone.

    box selects the interior; X is the open grid of interior coordinates
    (n read-only arrays with a trailing component axis, broadcasting against
    (*interior, m)).  Each difference is (terms, divisor) with terms the
    (weight, slices) pairs of _diff_calls: d1[k] and d2[k] run along axis k on
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
    box = _box(shape, order)
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


def _diff_calls(v, terms, div, out, tmp):
    """Ufunc calls that write the sum of weight * v[slices] over div into out.

    The terms are summed in their order: the first weight is +-1, every
    later term is scaled by |weight| unless that is 1, then added or
    subtracted, and the sum is divided last.  A scaled term goes to out
    while out does not yet hold the sum, else to tmp (out's shape; only the
    4th-order rows need it).
    """
    (w, idx), *rest = terms
    calls = [] if w > 0 else [(np.negative, (v[idx], out))]
    acc = v[idx] if w > 0 else out
    for w, idx in rest:
        t = v[idx]
        if abs(w) != 1.0:
            t = tmp if acc is out else out
            calls.append((np.multiply, (v[idx], abs(w), t)))
        calls.append((np.add if w > 0 else np.subtract, (acc, t, out)))
        acc = out
    calls.append((np.divide, (out, div, out)))
    return calls


def _run(calls):
    for f, args in calls:
        f(*args)


def _interior_jets(field: GridField, order):
    """Stacked jets du (n, *interior, m) and ddu (n, n, *interior, m) of the
    field, and the calls that fill them from its values.

    The plan's differences run on the values trimmed to the interior on
    every axis they do not differentiate along, so no node off the interior
    is computed; ddu[l, k] is a copy of the mixed difference ddu[k, l].
    Running the calls again refills the same buffers from whatever
    field.values holds then.
    """
    plan = _plan(field.shape, field.L, order)
    v = field.values
    n = field.n
    shape = v[plan.box].shape
    du = np.empty((n,) + shape)
    ddu = np.empty((n, n) + shape)
    tmp = np.empty(shape) if order == 4 else None
    calls = []
    for k, d in enumerate(plan.d1):
        calls += _diff_calls(v, *d, du[k], tmp)
    for k, d in enumerate(plan.d2):
        calls += _diff_calls(v, *d, ddu[k, k], tmp)
    for k, l, inner, outer in plan.mixed:
        (_, idx), *_ = inner[0]
        dk = np.empty(v[idx].shape)
        calls += _diff_calls(v, *inner, dk, np.empty(dk.shape) if order == 4 else None)
        calls += _diff_calls(dk, *outer, ddu[k, l], tmp)
        calls.append((np.copyto, (ddu[l, k], ddu[k, l])))
    return du, ddu, calls


def _spd_inverse(g, det, tmp):
    """Calls that overwrite g (n, n, *nodes), symmetric with eigenvalues >= 1
    at each node, with its inverse, and det (*nodes) with its determinant.

    Gauss-Jordan elimination vectorized over the nodes: every pivot is a
    Schur complement of a matrix >= identity, so it is >= 1 and no pivoting
    is needed.  The determinant is the product of the pivots.  After step k
    the columns <= k of g hold the inverse and the columns > k the reduced
    matrix: the inverse's other columns still hold the identity and the
    reduced matrix's others are never read again.  tmp (*nodes) holds one
    product at a time.
    """
    n = len(g)
    calls = []
    for k in range(n):
        p = g[k, k]
        # det is a product from 1.0; 1.0 / pivot is also the inverse's 1.0 * p
        calls += [(np.multiply, (p, 1.0, det) if k == 0 else (det, p, det)),
                  (np.divide, (1.0, p, p))]
        calls += [(np.multiply, (g[k, j], p, g[k, j])) for j in range(n) if j != k]
        for i in range(n):
            if i == k:
                continue
            f = g[i, k]
            for j in range(n):
                if j != k:
                    calls += [(np.multiply, (f, g[k, j], tmp)),
                              (np.subtract, (g[i, j], tmp, g[i, j]))]
            # the inverse's column k held 0.0 off the diagonal
            calls += [(np.multiply, (f, p, f)), (np.subtract, (0.0, f, f))]
    return calls


def _sum_calls(pairs, out, tmp):
    """Calls that write 0.0 + a b + ... over the (a, b) pairs into out, in
    their order; 0.0 + x differs from x at x = -0.0."""
    (a, b), *rest = pairs
    calls = [(np.multiply, (a, b, out)), (np.add, (out, 0.0, out))]
    for a, b in rest:
        calls += [(np.multiply, (a, b, tmp)), (np.add, (out, tmp, out))]
    return calls


def _carve(block, *shapes):
    """Consecutive views of the flat block, one per shape, from its start."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(block[start:stop].reshape(shape))
        start = stop
    return views


class _Workspace:
    """The interior geometry of one grid field, in buffers built once, and
    the calls that refill it.

    values is the field's values array and u views its interior nodes
    (*interior, m); du (n, *interior, m) and ddu (n, n, *interior, m) are
    the stacked jets; ginv (n, n, *interior) first holds the metric
    g = I + du du^T, then its inverse; det is det g; res, elliptic and drift
    are the residual and its two parts.  fill() recomputes all of them from
    whatever values holds, with the arithmetic of the stacked definitions,
    so a run builds one workspace and fills it once per state.  One scratch
    block serves, in turn, the inverse's products, the residual's terms, a
    sample's reductions and the second form's contractions; elliptic and
    drift live there, so they hold until the next sample or fill only.
    """

    def __init__(self, field: GridField, order):
        plan = _plan(field.shape, field.L, order)
        self.values = field.values
        self.u = u = field.values[plan.box]
        self.du, self.ddu, jets = _interior_jets(field, order)
        n, m = field.n, field.m
        nodes = u.shape[:-1]
        self.ginv = g = np.empty((n, n) + nodes)
        self.det = np.empty(nodes)
        self.res = np.empty(u.shape)
        size = math.prod(nodes)
        block = np.empty(max(3 * m, n * n * m + n ** 3 + 1) * size)
        (self._node_tmp,) = _carve(block, nodes)
        self.elliptic, self.drift, self._tmp = _carve(block, u.shape, u.shape, u.shape)
        # the second form: (p, q) products go where QH was, the tangential
        # trace where QW was, once each is read for the last time
        self._qh, self._qw, self._b2 = _carve(block, (n, n) + u.shape, (n, n, n) + nodes,
                                              nodes)
        (self._pq,) = _carve(block, (n, n) + nodes)
        self._tang = self._qw[(0,) * 3]

        metric = [
            (functools.partial(np.einsum, "...a,...a->...", out=g[i, j]),
             (self.du[i], self.du[j]))
            for i in range(n) for j in range(i, n)
        ]
        metric += [(np.add, (g[i, i], 1.0, g[i, i])) for i in range(n)]
        metric += [(np.copyto, (g[j, i], g[i, j])) for i in range(n) for j in range(i + 1, n)]
        # the elliptic sum over (i, j) in row-major order, as einsum contracts
        residual = _sum_calls([(g[i, j][..., None], self.ddu[i, j])
                               for i, j in np.ndindex(n, n)], self.elliptic, self._tmp)
        residual += _sum_calls(list(zip(plan.X, self.du)), self.drift, self._tmp)
        residual += [(np.subtract, (self.drift, u, self.drift)),
                     (np.multiply, (self.drift, 0.5, self.drift)),
                     (np.subtract, (self.elliptic, self.drift, self.res))]
        self._calls = jets + metric + _spd_inverse(g, self.det, self._node_tmp) + residual

    def fill(self):
        _run(self._calls)
        return self

    def sup_residual(self):
        return float(np.abs(self.res, out=self._tmp).max())

    def advance(self, dt):
        """Move the interior nodes by dt times the residual; returns their sup |u|."""
        np.multiply(self.res, dt, out=self._tmp)
        np.add(self.u, self._tmp, out=self.u)
        return float(np.abs(self.u, out=self._tmp).max())

    def second_form_sq(self):
        """|B|^2 = tr(Q H_a Q H_a) - Q_pq tr(Q W_p Q W_q) with Q = g^-1,
        H_a = ddu^a and W_p = du_p . ddu, by pairwise contractions."""
        Q = self.ginv
        QH = np.einsum("ik...,kj...m->ij...m", Q, self.ddu, out=self._qh)
        QW = np.einsum("p...m,ij...m->pij...", self.du, QH, out=self._qw)  # Q W_p = du_p . Q H
        full = np.einsum("ij...m,ji...m->...", QH, QH, out=self._b2)
        pq = np.einsum("pij...,qji...->pq...", QW, QW, out=self._pq)
        tang = np.einsum("pq...,pq...->...", Q, pq, out=self._tang)
        return np.subtract(full, tang, out=full)

    def sample(self):
        """sup slope, sup |residual|, sup |B|^2 and min w = min 1 / slope."""
        sl = np.sqrt(self.det, out=self._node_tmp)
        sup_slope = float(sl.max())
        min_w = float(np.divide(1.0, sl, out=sl).min())
        return sup_slope, self.sup_residual(), float(self.second_form_sq().max()), min_w


def system_residual(field: GridField, order=2, parts=False):
    """Per-interior-node defect of the graphic shrinker system, per component.

    Returns elliptic - drift with elliptic = g^ij u_ij and
    drift = (x . Du - u)/2; with parts=True the two pieces come back too.
    """
    ws = _Workspace(field, order).fill()
    if parts:
        return ws.res, ws.elliptic.copy(), ws.drift.copy()
    return ws.res


def slope_field(field: GridField, order=2):
    """sqrt(det g) at interior nodes; equals the graph's volume distortion."""
    return np.sqrt(_Workspace(field, order).fill().det)


def second_form_sq_field(field: GridField, order=2):
    """|B|^2 at interior nodes from the graph representation."""
    return _Workspace(field, order).fill().second_form_sq().copy()


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
        """Append the row of one field state.  field is a GridField, whose
        geometry is computed here, or the filled workspace of a run."""
        if self.times and time <= self.times[-1]:
            raise ValueError("trace times must be strictly increasing")
        ws = field if isinstance(field, _Workspace) else _Workspace(field, order).fill()
        sup_slope, sup_residual, sup_b2, min_w = ws.sample()
        self.steps.append(step)
        self.times.append(time)
        self.sup_slope.append(sup_slope)
        self.sup_residual.append(sup_residual)
        self.sup_b2.append(sup_b2)
        self.min_w.append(min_w)


def relax_flow(u0: GridField, cfg: SolverConfig = SolverConfig()):
    """Explicit parabolic relaxation toward the graphic shrinker system.

    Interior nodes move by the residual; boundary samples never change.  The
    default step is 0.45 h^2 / (2 n), which satisfies the stability bound
    since the largest eigenvalue of g^ij is at most one (g >= identity).
    Stops when sup |residual| drops below the threshold or max_steps is hit;
    blow-up beyond cfg.blowup raises DivergenceError with the trace attached.
    A non-finite initial field raises ValueError before any step.  The run
    builds one workspace and fills it once per field state.
    """
    h = float(np.min(u0.spacing))
    dt = cfg.dt if cfg.dt is not None else 0.45 * h * h / (2.0 * u0.n)
    current = GridField(
        L=u0.L, values=u0.values.copy(), boundary=u0.boundary, A=u0.A, b=u0.b
    )
    # the nodes off the interior never move: their sup |u| is taken once
    fixed = np.ones(current.shape, dtype=bool)
    fixed[interior(current, cfg.order)] = False
    fixed_sup = float(np.max(np.abs(current.values[fixed])))
    ws = _Workspace(current, cfg.order).fill()
    trace = FlowTrace()
    trace.record(0, 0.0, ws, cfg.order)
    step = 0
    while step < cfg.max_steps:
        if ws.sup_residual() < cfg.threshold:
            break
        # max keeps its first argument when the second is not larger, so a
        # NaN among the interior nodes comes through
        sup_val = max(ws.advance(dt), fixed_sup)
        step += 1
        if not math.isfinite(sup_val) or sup_val > cfg.blowup:
            if math.isfinite(sup_val) and trace.steps[-1] != step:
                trace.record(step, step * dt, ws.fill(), cfg.order)
            raise DivergenceError(
                f"field magnitude {sup_val:.3e} exceeded the blow-up bound", trace
            )
        ws.fill()
        if step % cfg.sample_interval == 0:
            trace.record(step, step * dt, ws, cfg.order)
    if trace.steps[-1] != step:
        trace.record(step, step * dt, ws, cfg.order)
    trace.converged = trace.sup_residual[-1] < cfg.threshold
    return current, trace


# ---------------------------------------------------------------------------
# Gauss-image reporting


@dataclass(frozen=True)
class GaussImageReport:
    max_v: float
    min_w: float
    min_pole_ip: Optional[float]


def gauss_image_report(field: GridField, pole=None, order=2) -> GaussImageReport:
    """Summary of the tangent-plane image over the interior nodes.

    max_v is the largest slope and min_w = 1 / max_v the smallest w-product,
    both against the horizontal plane.  With a pole and m = 1, min_pole_ip
    is the smallest inner product of the upward unit normals with the pole,
    positive when the image lies in the open hemisphere about it.  The w-product
    against another plane is grassmann.w_product on the gauss_map of the
    point_frame batch of field_immersion at interior_nodes.
    """
    ws = _Workspace(field, order).fill()
    max_v = float(np.max(np.sqrt(ws.det)))
    min_ip = None
    if field.m == 1 and pole is not None:
        flat_du = ws.du.reshape(field.n, -1).T
        denom = np.sqrt(1.0 + np.sum(flat_du * flat_du, axis=1))
        normals = np.concatenate(
            [-flat_du, np.ones((flat_du.shape[0], 1))], axis=1
        ) / denom[:, None]
        min_ip = float(np.min(normals @ np.asarray(pole, dtype=float)))
    # the reciprocal is monotone in floating point too: min(1 / slope)
    return GaussImageReport(max_v=max_v, min_w=1.0 / max_v, min_pole_ip=min_ip)


# ---------------------------------------------------------------------------
# immersion-layer interop


def field_immersion(field: GridField, order=4) -> ParametricImmersion:
    """Wrap a grid field as a batched immersion with jets at interior grid nodes.

    Parameters (B, n) must all land on interior nodes (within 1e-8 of the
    spacing); the chart is the interior box.  Jets are the grid stencils of
    the stated order, gathered from one run of the geometry pass's jets, so
    downstream frame and curvature computations agree with the grid
    operators exactly.
    """
    du, ddu, calls = _interior_jets(field, order)
    _run(calls)
    u = field.values[interior(field, order)]
    nodes = u.shape[:-1]
    n, m = field.n, field.m
    # one row per interior node, in row-major order
    u = u.reshape(-1, m)
    du = np.moveaxis(du, 0, -2).reshape(-1, n, m)
    ddu = np.moveaxis(ddu, (0, 1), (-3, -2)).reshape(-1, n, n, m)
    g = _margin(order)
    h = field.spacing

    def jets(params):
        f = (params + field.L) / h
        idx = np.rint(f)
        if np.any(np.abs(f - idx) > 1e-8):
            raise ChartError("parameter does not land on a grid node")
        row = np.ravel_multi_index(idx.astype(np.intp).T - g, nodes)
        return _graph_jets(params, u[row], du[row], ddu[row])

    chart = np.stack([-field.L + g * h, field.L - g * h], axis=1)
    return ParametricImmersion(n, m, chart, jets, fd_step=h, label="graph:field",
                               vectorized=True)


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
