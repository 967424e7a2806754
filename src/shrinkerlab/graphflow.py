"""Bounded-grid solver for the graphic self-shrinker system.

A multi-component height field u on the box [-L, L]^n describes the graph
surface (x, u(x)).  The elliptic system for self-shrinking graphs,

    sum_ij g^ij u^a_ij = (x . Du^a - u^a) / 2,   g_ij = delta_ij + u^a_i u^a_j,

is discretized with central differences on a uniform grid; an explicit
parabolic relaxation du/dt = (elliptic) - (drift) on order-2 stencils flows
fields toward solutions with Dirichlet data pinned on the boundary.  Slope,
curvature, and Gauss-image telemetry are recorded along runs, and grid
fields interoperate with the immersion layer through jets at grid nodes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

import numpy as np

from .immersion import _D1, _D2, ChartError, ParametricImmersion, _blocks, _graph_jets


BLOWUP = 1e6  # relax_flow raises DivergenceError once sup |u| passes it


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
    fixed by the solvers).  Construction raises ValueError on non-finite
    data, on m < 1, on fewer than 5 nodes along an axis and on affine data
    of the wrong shape or that the perimeter does not match.
    """

    L: float
    values: np.ndarray  # shape (*resolution, m)
    boundary: str = "frozen"  # "affine" or "frozen"
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None

    def __post_init__(self):
        # C order, so the geometry pass's slab views alias the values
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.ndim < 2 or self.values.shape[-1] < 1:
            raise ValueError("values must have shape (*resolution, m) with m >= 1")
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

    def coords(self):
        return _coords(self.L, self.shape)

    def affine_values(self):
        if self.A is None or self.b is None:
            raise ValueError("no affine data attached")
        return self.coords() @ self.A.T + self.b

    @classmethod
    def from_function(cls, func, L, resolution, m, boundary="frozen", A=None, b=None):
        """The field of func at the grid nodes, filled node by node into one
        array: func takes a node's coordinates (n,) and returns m values."""
        resolution = tuple(int(s) for s in resolution)
        flat = _coords(L, resolution).reshape(-1, len(resolution))
        vals = np.empty((len(flat), m))
        for row, x in zip(vals, flat):
            v = np.asarray(func(x), dtype=float)
            if v.size != m:
                raise ValueError(f"func must return {m} values per node, got {v.size} at {x}")
            row[:] = v.reshape(m)
        return cls(L=L, values=vals.reshape(*resolution, m), boundary=boundary, A=A, b=b)


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


def _const(x):
    """x as a read-only float64 array; a ufunc takes a 0-d one faster than a float."""
    a = np.asarray(x, dtype=float)
    a.setflags(write=False)
    return a


_NEG_ZERO, _ZERO, _HALF, _ONE = map(_const, (-0.0, 0.0, 0.5, 1.0))


class _Plan(NamedTuple):
    """What a geometry pass needs from the grid alone.

    box selects the interior.  The slab is the run of the flat values array
    from the first interior row along axis 0 to the last, boundary columns
    included: values.reshape(-1)[start:start + size].  A shift by s along
    axis k is the flat offset s * strides[k], so every stencil term is a
    contiguous run of size entries; no term leaves the array, and the slots
    on boundary columns are computed and never read.  rows is the node grid
    of the slab, inner selects the interior nodes in it and m is the
    component count (see _inside).  X (n, size) holds each slab slot's
    coordinate along each axis, a node's coordinates repeated m times, so
    that the drift's products take one call.  groups pairs the axes (0, 1),
    (2, 3), ..., as (axes, d1, d2) with the first and second differences'
    divisors, one row per axis (one 0-d array if the axes share a step); mixed
    holds (k, l, div) for k < l.
    """

    box: tuple
    start: int
    size: int
    strides: tuple
    rows: tuple
    inner: tuple
    m: int
    X: np.ndarray
    groups: tuple
    mixed: tuple


def _plan(field: GridField, order):
    """The plan of the field's grid, built once per workspace or immersion."""
    g = _margin(order)
    L, grid, m, n = field.L, field.shape, field.m, field.n
    box = interior(field, order)
    h = [2.0 * L / (s - 1) for s in grid]
    strides = tuple(m * math.prod(grid[k + 1:]) for k in range(n))
    rows = (grid[0] - 2 * g,) + grid[1:]
    X = np.moveaxis(_coords(L, grid)[g:grid[0] - g], -1, 0).reshape(n, -1)
    X = _const(np.repeat(X, m, axis=1))
    c1, c2 = _D1[order][1], _D2[order][1]

    def divisors(c, p, axes):
        # a scalar when the axes share a step (it divides faster)
        d = [c * h[k] if p == 1 else c * h[k] * h[k] for k in axes]
        return _const(d[0] if len(set(d)) == 1 else np.array(d)[:, None])

    groups = tuple(
        (axes, divisors(c1, 1, axes), divisors(c2, 2, axes))
        for axes in (tuple(range(k, min(k + 2, n))) for k in range(0, n, 2))
    )
    mixed = tuple((k, l, _const(c1 * h[l])) for k in range(n) for l in range(k + 1, n))
    return _Plan(box, g * strides[0], rows[0] * strides[0], strides, rows,
                 (slice(None),) + box[1:], m, X, groups, mixed)


def _inside(plan, a, per_node=False):
    """The interior nodes of a slab array: a (..., size) as (..., *interior, m),
    or with per_node a (..., size // m) as (..., *interior); a view."""
    tail = () if per_node else (plan.m,)
    grid = a.reshape(a.shape[:-1] + plan.rows + tail)
    return grid[(Ellipsis,) + plan.inner + (slice(None),) * len(tail)]


def _diff_calls(terms, div, out, tmp):
    """Ufunc calls that write the sum of weight * term over the (weight, term)
    pairs, over div, into out.

    The terms are summed in their order: the first weight is +-1, every
    later term is scaled by |weight| unless that is 1, then added or
    subtracted, and the sum is divided last, or multiplied by 1 / div when
    every divisor is a power of two (see _exact_reciprocal).  A scaled term
    goes to out while out does not yet hold the sum, else to tmp (out's
    shape; only the 4th-order rows need it).
    """
    (w, t), *rest = terms
    calls = [] if w > 0 else [(np.negative, (t, out))]
    acc = t if w > 0 else out
    for w, t in rest:
        if abs(w) != 1.0:
            scaled = tmp if acc is out else out
            calls.append((np.multiply, (t, _const(abs(w)), scaled)))
            t = scaled
        calls.append((np.add if w > 0 else np.subtract, (acc, t, out)))
        acc = out
    inverse = _exact_reciprocal(div)
    calls.append((np.divide, (out, div, out)) if inverse is None else
                 (np.multiply, (out, inverse, out)))
    return calls


def _exact_reciprocal(div):
    """1 / div as a read-only array when every entry of div is +-2^k with a
    finite reciprocal, else None.  Then 1 / div is exact, x * (1 / div) and
    x / div round the same real number, so they agree bit for bit,
    subnormal results included, and a multiply is the cheaper call."""
    with np.errstate(all="ignore"):
        inverse = 1.0 / np.asarray(div, dtype=float)
    exact = all(np.all(np.frexp(np.abs(a))[0] == 0.5) for a in (div, inverse))
    return _const(inverse) if exact else None


def _run(calls):
    for f, args in calls:
        f(*args)


def _interior_jets(field: GridField, plan, order, scratch=None):
    """Stacked jets du (n, size) and ddu (n, n, size) of the field on the slab
    of its values (plan is its _Plan at this order), and the calls that fill
    them from those values.
    scratch, if given, is a flat buffer of at least 3 * size entries that
    the calls may overwrite (they need size entries at order 2).

    Each group of axes takes one call per stencil term: the term shifted by
    s along both axes is one strided view of the values, since the two
    offsets differ by s times the difference of the strides.  Every second
    difference subtracts one shared centre term |w| u; each mixed
    difference ddu[k, l] is the first difference along l of du[k], over the
    slots whose stencil stays on the slab (the first and last
    margin * strides[l] slots lie on boundary columns, and hold zeros);
    ddu[l, k] stays zero until _mirror copies it.  At every interior node
    the arithmetic is that of the stacked definitions.  Running the calls
    again refills the same buffers from whatever field.values holds then:
    GridField keeps values C-contiguous, so the views alias it.
    """
    n, size, g = field.n, plan.size, _margin(order)
    flat = field.values.reshape(-1)
    du = np.zeros((n, size))
    ddu = np.zeros((n, n, size))
    diag = ddu.reshape(n * n, size)[::n + 1]
    if scratch is None:
        scratch = np.empty((3 if order == 4 else 1) * size)
    centre = scratch[:size]
    tmp = scratch[size:3 * size].reshape(2, size) if order == 4 else None
    d1, d2 = _D1[order][0], _D2[order][0]
    (w0,) = (w for s, w in d2 if s == 0)
    calls = [(np.multiply, (flat[plan.start:plan.start + size], _const(abs(w0)), centre))]

    def shifted(axes, s):
        # one row per axis: the slab shifted by s along it
        first, last = (plan.strides[k] for k in (axes[0], axes[-1]))
        return np.lib.stride_tricks.as_strided(
            flat[plan.start + s * first:], (len(axes), size),
            (s * (last - first) * flat.itemsize, flat.itemsize), writeable=False)

    for axes, div1, div2 in plan.groups:
        rows = slice(axes[0], axes[-1] + 1)
        t = None if tmp is None else tmp[:len(axes)]
        calls += _diff_calls([(w, shifted(axes, s)) for s, w in d1], div1, du[rows], t)
        calls += _diff_calls([(w, shifted(axes, s)) if s else (math.copysign(1.0, w), centre)
                              for s, w in d2], div2, diag[rows], t)
    for k, l, div in plan.mixed:
        step = plan.strides[l]
        run = slice(g * step, size - g * step)
        calls += _diff_calls([(w, du[k, run.start + s * step:run.stop + s * step]) for s, w in d1],
                             div, ddu[k, l, run], None if tmp is None else tmp[0, run])
    return du, ddu, calls


def _mirror(a):
    """Calls that copy the upper triangle of a (n, n, ...) onto the lower."""
    return [(np.copyto, (a[j, i], a[i, j])) for i in range(len(a)) for j in range(i + 1, len(a))]


def _spd_inverse(g, det, tmp):
    """Calls that overwrite g (n, n, *nodes), bitwise symmetric with eigenvalues
    >= 1 at each node, with its inverse, and det (*nodes) with its determinant.

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
        calls += [(np.multiply, (p, _ONE, det) if k == 0 else (det, p, det)),
                  (np.divide, (_ONE, p, p))]
        calls += [(np.multiply, (g[k, j], p, g[k, j])) for j in range(n) if j != k]
        for i in range(n):
            if i == k:
                continue
            f = g[i, k]
            for j in range(n):
                if j != k:
                    calls += [(np.multiply, (f, g[k, j], tmp)),
                              (np.subtract, (g[i, j], tmp, g[i, j]))]
            # the inverse's column k held 0.0 off the diagonal; at k = 0, as g
            # is symmetric, f p is row 0's scaled entry g[0, i]
            calls += ([(np.subtract, (_ZERO, g[0, i], f))] if k == 0 else
                      [(np.multiply, (f, p, f)), (np.subtract, (_ZERO, f, f))])
    return calls


def _sum_calls(pairs, out, tmp):
    """Calls that write 0.0 + a b + ... over the (a, b) pairs into out, in
    their order; 0.0 + x differs from x at x = -0.0.  b, out and tmp are
    (rows, m) and a (rows,): one product call per component, on strided
    views, so no call loops over m; a pair repeating the last one adds tmp."""
    def product(a, b, dst):
        return [(np.multiply, (a, b[:, c], dst[:, c])) for c in range(b.shape[1])]

    calls = product(*pairs[0], out) + [(np.add, (out, _ZERO, out))]
    for last, pair in zip(pairs, pairs[1:]):
        calls += ([] if pair is last else product(*pair, tmp)) + [(np.add, (out, tmp, out))]
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

    Every call runs on the slab of the field's values (see _Plan): the jets
    (n, size) and (n, n, size), the metric g = I + du du^T (n, n, nodes),
    overwritten by its inverse, its determinant, the residual's parts
    elliptic and drift and res = elliptic - drift, which then gets -0.0 in
    the slots off the interior, and one reduction (_sups) to the 0-d
    sup_u = sup |u| over all nodes and sup_res = sup |res|.  du, det,
    elliptic, drift and res view the interior of their slab arrays.  fill()
    recomputes them all from whatever the field's values hold, with the
    arithmetic of the stacked definitions at every interior node.  Given a
    dt, the workspace also holds the relaxation step program (step, else
    None), which first adds dt res to the whole slab, leaving the nodes off
    the interior as they are, then runs the fill up to res's -0.0 copy; the
    sups are left to the caller.  One zeroed scratch block, (n + 2) size
    entries unless the sups need more, serves in turn the jets' centre
    term, the metric's second-component products, the inverse's products,
    the residual's terms, the sups' absolute values and a sample's slopes;
    elliptic and drift live there, so they hold until the next sample or
    step only.  A fill is 43 calls at n = 2, m = 1 and order 2, three of
    them the sups, and the step 42.

    Given a dt and a stage count s, stages holds the s programs of one RKL1
    superstep (see relax_flow), each ending as the step does, without the
    sups: [step] at s = 1.  At s > 1 the first copies the slab into one
    more slab buffer, prev, then runs step; program j = 2 ... s writes
    Y_j = Y_{j-1} + nu_j (Y_{j-2} - Y_{j-1}) + mu_j dt L(Y_{j-1}), with
    nu_j = -(j - 1) / j and mu_j = (2 j - 1) / j, from the slab (Y_{j-1}),
    prev (Y_{j-2}) and res (L(Y_{j-1})) through the step's dead scratch,
    leaves Y_{j-1} in prev, then fills up to res.  Off the interior
    Y_{j-2} - Y_{j-1} is 0.0 and res is -0.0, so those nodes keep their
    bits.
    """

    def __init__(self, field: GridField, order, dt=None, stages=1):
        self._plan = plan = _plan(field, order)
        n, size = field.n, plan.size
        nodes = size // field.m
        self.values = field.values
        values = field.values.reshape(-1)
        slab = values[plan.start:plan.start + size]
        block = np.zeros(max((n + 2) * size, 2 * size + 2 * values.size))
        # the jets' centre term and products are dead once they are filled
        du, ddu, jets = _interior_jets(field, plan, order, block)
        self.du = _inside(plan, du)
        # the jets per slab node: (n, nodes, m) and (n, n, nodes, m)
        self._du, self._ddu = du.reshape(n, nodes, -1), ddu.reshape(n, n, nodes, -1)
        self._g = g = np.zeros((n, n, nodes))
        self._det = np.zeros(nodes)
        self.det = _inside(plan, self._det, per_node=True)
        # res on a slab array padded to the length of values, for the sups
        padded, edge = np.empty(values.size), np.ones(values.size, dtype=bool)
        _inside(plan, edge[:size])[...] = False
        self.res, sups = _inside(plan, padded[:size]), np.zeros(2)
        self.sup_u, self.sup_res = sups[0, ...], sups[1, ...]
        elliptic, drift, prod = _carve(block, (size,), (size,), (n, size))
        self.elliptic, self.drift = _inside(plan, elliptic), _inside(plan, drift)
        # the residual's products are dead once res is written
        tmp = block[2 * size:3 * size]
        absolute = block[2 * size:2 * (size + values.size)].reshape(2, -1)
        (self._node_tmp,) = _carve(block, self.det.shape)

        diag = g.reshape(n * n, nodes)[::n + 1]
        # the sum from 0.0 in component order, one call per component; the
        # diagonal drops the 0.0, as its first term is a square and never
        # -0.0.  The later components' products go to the scratch block,
        # dead from the jets' end to the inverse
        comps = [du[:, a::field.m] for a in range(field.m)]
        second = block[:n * nodes].reshape(n, nodes)
        metric = [(np.multiply, (comps[0], comps[0], diag))]
        metric += [c for x in comps[1:]
                   for c in ((np.multiply, (x, x, second)), (np.add, (diag, second, diag)))]
        for i in range(n):
            for j in range(i + 1, n):
                metric += [(np.multiply, (comps[0][i], comps[0][j], g[i, j])),
                           (np.add, (g[i, j], _ZERO, g[i, j]))]
                metric += [c for x in comps[1:]
                           for c in ((np.multiply, (x[i], x[j], second[0])),
                                     (np.add, (g[i, j], second[0], g[i, j])))]
        metric.append((np.add, (diag, _ONE, diag)))
        # the elliptic sum in row-major (i, j) order, as einsum contracts, on
        # ddu's upper triangle.  At n = 2 (not 3) the inverse's off-diagonals
        # are equal bit for bit, save the sign of a zero where their last
        # product underflows, so the (1, 0) pair repeats the (0, 1) pair
        pairs = [(g[i, j], self._ddu[min(i, j), max(i, j)]) for i, j in np.ndindex(n, n)]
        if n == 2:
            pairs[2] = pairs[1]
        residual = _sum_calls(pairs, elliptic.reshape(nodes, -1), prod[0].reshape(nodes, -1))
        # the drift's products x_k du_k, summed from 0.0 in axis order
        residual += [(np.multiply, (plan.X, du, prod)), (np.add, (prod[0], _ZERO, drift))]
        residual += [(np.add, (drift, p, drift)) for p in prod[1:]]
        residual += [(np.subtract, (drift, slab, drift)), (np.multiply, (drift, _HALF, drift)),
                     (np.subtract, (elliptic, drift, padded[:size])),
                     (np.copyto, (padded, _NEG_ZERO, "same_kind", edge))]
        self._sups = [(np.abs, (values, absolute[0])), (np.abs, (padded, absolute[1])),
                      (np.maximum.reduce, (absolute, 1, None, sups))]
        self._calls = (jets + metric + _mirror(g) + _spd_inverse(g, self._det, block[:nodes])
                       + residual)
        self.step = None if dt is None else [
            (np.multiply, (padded[:size], _const(dt), tmp)), (np.add, (slab, tmp, slab)),
            *self._calls]
        self.stages = [self.step]
        if stages > 1:
            prev = np.empty(size)
            self.stages[0] = [(np.copyto, (prev, slab)), *self.step]
            self.stages += [[(np.subtract, (prev, slab, tmp)), (np.copyto, (prev, slab)),
                             (np.multiply, (tmp, _const(-(j - 1) / j), tmp)),
                             (np.add, (slab, tmp, slab)),
                             (np.multiply, (padded[:size], _const((2 * j - 1) / j * dt), tmp)),
                             (np.add, (slab, tmp, slab)), *self._calls]
                            for j in range(2, stages + 1)]

    def fill(self):
        _run(self._calls)
        _run(self._sups)
        return self

    def second_form_sq(self):
        """|B|^2 = tr(Q H_a Q H_a) - Q_pq tr(Q W_p Q W_q) with Q = g^-1,
        H_a = ddu^a and W_p = du_p . ddu, by pairwise contractions over
        blocks of slab nodes, each on a mirrored copy of its block of ddu;
        returns the interior nodes of a fresh array."""
        b2 = np.empty(len(self._det))
        for b in _blocks(b2.shape):
            # einsum orders a one-node block's (i, j) sums otherwise; only the
            # tail can be one node, the slab's last: off the interior at n > 1
            Q, ddu = self._g[:, :, b], self._ddu[:, :, b].copy()
            _run(_mirror(ddu))
            QH = np.einsum("ik...,kj...m->ij...m", Q, ddu)
            QW = np.einsum("p...m,ij...m->pij...", self._du[:, b], QH)  # Q W_p = du_p . Q H
            full = np.einsum("ij...m,ji...m->...", QH, QH)
            pq = np.einsum("pij...,qji...->pq...", QW, QW)
            np.subtract(full, np.einsum("pq...,pq...->...", Q, pq), out=b2[b])
        return _inside(self._plan, b2, per_node=True)

    def sample(self):
        """sup slope, sup |residual|, sup |B|^2 and min w = min 1 / slope."""
        sl = np.sqrt(self.det, out=self._node_tmp)
        sup_slope = float(sl.max())
        min_w = float(np.divide(_ONE, sl, out=sl).min())
        return sup_slope, float(self.sup_res), float(self.second_form_sq().max()), min_w


def system_residual(field: GridField, order=2):
    """Per-interior-node defect of the graphic shrinker system, per component.

    Returns elliptic - drift with elliptic = g^ij u_ij and
    drift = (x . Du - u)/2.
    """
    return _Workspace(field, order).fill().res


def slope_field(field: GridField, order=2):
    """sqrt(det g) at interior nodes; equals the graph's volume distortion."""
    return np.sqrt(_Workspace(field, order).fill().det)


def second_form_sq_field(field: GridField, order=2):
    """|B|^2 at interior nodes from the graph representation."""
    return _Workspace(field, order).fill().second_form_sq()


@dataclass(frozen=True)
class SolverConfig:
    """Relaxation policy: stepping, stopping, telemetry cadence.

    stages = 1 takes explicit steps, stages = s > 1 RKL1 supersteps of s
    fills (see relax_flow); max_steps and sample_interval count fills.  A
    run diverges once sup |u| passes the module's constant BLOWUP, 1e6.
    """

    dt: Optional[float] = None  # None: CFL-scaled 0.45 h^2 / (2 n)
    max_steps: int = 200_000
    threshold: float = 1e-8
    sample_interval: int = 50
    stages: int = 1

    def __post_init__(self):
        # bool is an int subclass, but True is no count
        for name in ("max_steps", "sample_interval", "stages"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {count!r}")
        # before the comparisons below, which are all False for NaN
        reals = (self.threshold,) + (() if self.dt is None else (self.dt,))
        if not all(map(math.isfinite, reals)):
            raise ValueError("solver parameters must be finite")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.threshold <= 0:
            raise ValueError("convergence threshold must be positive")


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

    def record(self, step, time, field):
        """Append the row of one field state: field is a GridField, measured
        here at order 2, or the filled workspace of a run."""
        if self.times and time <= self.times[-1]:
            raise ValueError("trace times must be strictly increasing")
        ws = field if isinstance(field, _Workspace) else _Workspace(field, 2).fill()
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
    sup |u| beyond BLOWUP (1e6), or not finite, raises DivergenceError with
    the trace attached.  A non-finite initial field raises ValueError before
    any step.  The run builds one order-2 workspace, whose interior is every
    node off the boundary, runs its superstep's programs once per superstep
    and then takes sup |u| and sup |residual| once.

    With cfg.stages = s > 1 the run takes Runge-Kutta-Legendre (RKL1)
    supersteps of s fills (Meyer, Balsara and Aslam, J. Comput. Phys. 257,
    2014), each moving the flow on by dt (s^2 + s) / 2.  They assume a real,
    negative spectrum of the flow's linearization near the state (a stable
    box), and then reach the explicit flow's stationary states; at an
    unstable state, such as c10's, they diverge as the explicit flow does.
    Stage values are not states of the flow, so convergence, blow-up and
    samples are read at superstep ends only, a sample at the first end at or
    after each multiple of sample_interval.  steps counts fills, the last
    superstep shortens to the fills left under max_steps, and the time
    column is flow time.  At s = 1 the run is the explicit one, bit for bit.
    """
    h = float(np.min(u0.spacing))
    dt = cfg.dt if cfg.dt is not None else 0.45 * h * h / (2.0 * u0.n)
    current = GridField(L=u0.L, values=u0.values.copy(), boundary=u0.boundary, A=u0.A, b=u0.b)
    # a superstep never spans more fills than the run may take
    ws = _Workspace(current, 2, dt, min(cfg.stages, cfg.max_steps)).fill()
    # covered counts the explicit steps the supersteps span: time is covered * dt
    trace, step, covered = FlowTrace(), 0, 0
    trace.record(0, 0.0, ws)
    while step < cfg.max_steps and not float(ws.sup_res) < cfg.threshold:
        s = min(cfg.stages, cfg.max_steps - step)
        for program in ws.stages[:s]:
            _run(program)
        _run(ws._sups)
        step += s
        covered += (s * s + s) // 2
        sup_val = float(ws.sup_u)  # NaN if a node is NaN
        if not math.isfinite(sup_val) or sup_val > BLOWUP:
            if math.isfinite(sup_val):
                trace.record(step, covered * dt, ws)
            raise DivergenceError(f"field magnitude {sup_val:.3e} exceeded the blow-up bound",
                                  trace)
        if step // cfg.sample_interval > (step - s) // cfg.sample_interval:
            trace.record(step, covered * dt, ws)
    if trace.steps[-1] != step:
        trace.record(step, covered * dt, ws)
    trace.converged = trace.sup_residual[-1] < cfg.threshold
    return current, trace


# ---------------------------------------------------------------------------
# Gauss-image reporting


def gauss_image_report(field: GridField, pole) -> float:
    """The smallest inner product of the upward unit normals at the interior
    nodes with the pole, from the order-2 jets of a field with m = 1:
    positive when the Gauss image lies in the open hemisphere about it.

    The largest slope, whose reciprocal is the smallest w-product against
    the horizontal plane, is a trace row's sup_slope.  The w-product against
    another plane is grassmann.w_product on the gauss_map of the point_frame
    batch of field_immersion at interior_nodes.
    """
    if field.m != 1:
        raise ValueError(f"a Gauss image on the sphere needs m = 1, got m = {field.m}")
    flat_du = _Workspace(field, 2).fill().du.reshape(field.n, -1).T
    denom = np.sqrt(1.0 + np.sum(flat_du * flat_du, axis=1))
    normals = np.concatenate([-flat_du, np.ones((flat_du.shape[0], 1))], axis=1) / denom[:, None]
    return float(np.min(normals @ np.asarray(pole, dtype=float)))


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
    plan = _plan(field, order)
    du, ddu, calls = _interior_jets(field, plan, order)
    _run(calls + _mirror(ddu))
    u = field.values[plan.box]
    nodes = u.shape[:-1]
    n, m = field.n, field.m
    # one row per interior node, in row-major order
    u = u.reshape(-1, m)
    du = np.moveaxis(_inside(plan, du), 0, -2).reshape(-1, n, m)
    ddu = np.moveaxis(_inside(plan, ddu), (0, 1), (-3, -2)).reshape(-1, n, n, m)
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
    return ParametricImmersion(n, m, chart, jets, fd_step=h)


def interior_nodes(field: GridField, order=4):
    """Coordinates of the nodes where field_immersion accepts parameters."""
    return field.coords()[interior(field, order)].reshape(-1, field.n)


# ---------------------------------------------------------------------------
# files and plots


def _csv_columns(n, m):
    """The column-header line of a field file: index, coordinate, value."""
    return ",".join([f"i{k}" for k in range(n)] + [f"x{k}" for k in range(n)]
                    + [f"u{a}" for a in range(m)])


def field_to_csv(field: GridField) -> str:
    """Loss-free text form: meta line, boundary line, then one row per node,
    in C order: indices, then coordinates and values with 17 digits."""
    out = io.StringIO()
    res = "x".join(str(s) for s in field.shape)
    out.write("n,m,L,res,boundary\n")
    out.write(f"{field.n},{field.m},{field.L:.17g},{res},{field.boundary}\n")
    if field.boundary == "affine":
        flat = list(field.A.ravel()) + list(field.b)
        out.write(",".join(f"{v:.17g}" for v in flat) + "\n")
    out.write(_csv_columns(field.n, field.m) + "\n")
    # one %-format pass over every row: "%.17g" % v is f"{v:.17g}", and the
    # indices, exact in a float, print as integers through %d
    n, nodes = field.n, math.prod(field.shape)
    table = np.concatenate([np.indices(field.shape).reshape(n, nodes).T,
                            field.coords().reshape(nodes, n),
                            field.values.reshape(nodes, field.m)], axis=1)
    row = ",".join(["%d"] * n + ["%.17g"] * (n + field.m)) + "\n"
    out.write(row * nodes % tuple(table.ravel().tolist()))
    return out.getvalue()


def field_from_csv(text: str) -> GridField:
    """Inverse of field_to_csv; a missing, duplicate, out-of-range or
    non-finite entry, a resolution with other than n axes, a column header
    other than the one field_to_csv writes, or node coordinates other than
    the grid's (exactly: they are written with 17 digits) raise ValueError
    instead of being filled in."""
    lines = text.strip().split("\n")
    if lines[0] != "n,m,L,res,boundary":
        raise ValueError("unrecognized field file header")

    def line(k):
        if k >= len(lines):
            raise ValueError(f"field file ends before line {k + 1}")
        return lines[k]

    n_s, m_s, L_s, res_s, boundary = line(1).split(",")
    n, m, L = int(n_s), int(m_s), float(L_s)
    shape = tuple(int(t) for t in res_s.split("x"))
    if len(shape) != n:
        raise ValueError(f"resolution {res_s} has {len(shape)} axes, n = {n}")
    cursor = 2
    A = b = None
    if boundary == "affine":
        flat = [float(t) for t in line(cursor).split(",")]
        if len(flat) != m * n + m:
            raise ValueError(f"affine line {cursor + 1} holds {len(flat)} values, "
                             f"A and b need {m * n + m}")
        A = np.array(flat[: m * n]).reshape(m, n)
        b = np.array(flat[m * n :])
        cursor += 1
    if line(cursor) != _csv_columns(n, m):
        raise ValueError(f"line {cursor + 1} is not the column header {_csv_columns(n, m)}")
    rows = lines[cursor + 1:]
    if len(rows) != math.prod(shape):
        raise ValueError(
            f"field file has {len(rows)} node rows, the {res_s} grid needs "
            f"{math.prod(shape)}"
        )
    values = np.zeros(shape + (m,))
    xs = np.zeros(shape + (n,))
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
        xs[idx] = [float(t) for t in toks[n : 2 * n]]
        values[idx] = [float(t) for t in toks[2 * n :]]
    field = GridField(L=L, values=values, boundary=boundary, A=A, b=b)
    coords = field.coords()
    off = np.argwhere(np.any(xs != coords, axis=-1))
    if len(off):
        idx = tuple(int(i) for i in off[0])
        raise ValueError(f"node {idx} has x = {tuple(map(float, xs[idx]))}, "
                         f"the grid puts it at {tuple(map(float, coords[idx]))}")
    return field


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
