"""Pointwise verification lab for the grouped curvature inequality.

At a point of a submanifold with principal-angle values lam_1..lam_p and
second-fundamental-form coefficients h_{a,ij}, the weighted Laplacian of
log v combines with C1 |grad log v|^2 into a quadratic form in h.  This
module regroups that form by index type (groups I / II / III / IV plus a
pure leftover square), checks the per-group lower bounds, and verifies the
master bound

    total >= (3 - v) |B|^2 / 2      with C1 = 16,

which pins the subcritical slope threshold v < 3.  The scalar side is
the constant itself, sup F <= -1/16 over the constraint set Omega:
`certify_sup_F` proves it exactly, in rational arithmetic, from one cubic
on an interval, and the grid sweep `sup_F_sweep` checks it in floats.  A
grid point belongs to Omega by the sign of F's pole denominator
(`_pole_denominator`, D < 0) and its value is `_F`.  `H1_value` is the
cubic H1 of the factorization F = F2 / (F1 (F2 - F1)), F2 = H1 / H2.

Every entry of the form takes a stack: lam (B, p) and h (B, m, n, n) of
one (n, m) shape, a single sample being a stack of one.  Each group and its
bound are written once, as monomials in a table built and cached per shape
(`_group_table`) and evaluated row by row (`_group_values`); the direct
total and the master margin come from one kernel (`_master_kernel`).  Both
sum each row in a fixed order along that row alone, so a row's numbers never
depend on the rest of its stack.  `group_totals` gives the two routes to the
total and the margin, `master_margin` the margin alone, and `group_bounds`
each group's slack against its bound.  One check converts and validates
every entry's stack: `_check_stack`, or its lambda half `_check_lam` for
the lambda-only `min_margin_over_h`.

The sampled check (`sample_check`) draws its samples with
`draw_group_stacks`, which calls the generator in bulk, a fixed number of
times whatever the count: n, m, the budgets and the exponentials over all
samples, then one h block per shape and pattern (its docstring gives the
order).  lambda is built once per (n, m) shape (`_lam_from`) and h once per
shape and pattern (`_h_from`).  lambda's Dirichlet shares are built from
standard exponentials, which is how numpy's `dirichlet` draws them.  Each
shape then takes one `group_totals` call: one stacked validation, one table
pass and one master-kernel call.

Everything here is plain finite-dimensional algebra: samples are points in
(lambda, h) space and sweeps are grids.  The search draws lambda only: at
fixed lambda margin / |B|^2 is a ratio of quadratic forms in h, so its exact
minimum over h is the smallest eigenvalue of one symmetric form T(lambda)
(`min_margin_over_h`).  T couples the coordinates of h only within fixed
blocks, the same for every lambda, of at most 2p - 1 coordinates for p <= 4
and 9 at (5, 5) (`_margin_form`), so each drawn lambda takes one small
eigenvalue problem per coupled block, solved in one call per block size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import grassmann

C1 = 16.0
DELTA0 = 1.0 / 16.0
MARGIN_TOL = 1e-12


# ---------------------------------------------------------------------------
# scalar side: the proof and the F-sweep over Omega, and H1


def _pole_denominator(tau, r, t):
    """D = 2 tau + t - r t / tau, the second denominator of F.

    With r > tau the t-bound t >= 2 tau / (r / tau - 1) is exactly D <= 0,
    and D = 0 is F's pole.
    """
    return 2.0 * tau + t - r * t / tau


def _F(tau, r, t, denom):
    # F(r, t) = r/(tau + r) + t/D, with D = _pole_denominator(tau, r, t)
    return r / (tau + r) + t / denom


def H1_value(v, theta):
    """H1(v, theta), with F2 = H1 / H2 at theta = r / (v - 1) and
    H2 = theta (v + 1 - theta)."""
    return (
        2.0 * theta**3
        - (v + 5.0) * theta**2
        + (2.0 * v + 2.5) * theta
        + 0.5 * (v + 1.0)
    )


@dataclass(frozen=True)
class SweepReport:
    """Outcome of a grid sweep of F over Omega."""

    v_count: int
    rt_resolution: int
    worst_value: float  # -inf when no grid point lies in Omega
    samples: int


_SWEEP_BLOCK = 1 << 14  # evaluated points per pass of the sweep, in whole v-slices


def sup_F_sweep(v_count=10_000, rt_resolution=10_000) -> SweepReport:
    """Maximize F over a grid of Omega and compare against -1/16.

    The grid has v_count v-slices on the fixed domain
    1 + 1e-6 <= v <= 3 - 1e-6, each parameterized by rt_resolution values
    of r in (tau, v^2 - 1] with t forced onto the hyperbola
    (1+r)(1+t) = v^2; samples failing the t lower bound, and any on F's
    pole, are dropped.  An empty grid raises ValueError.  Every grid point
    is evaluated, one pass per block of whole v-slices of about
    _SWEEP_BLOCK points, and each pass updates a running maximum and a
    member count.  `certify_sup_F` proves the bound this samples.
    """
    if v_count < 1 or rt_resolution < 1:
        raise ValueError(f"need v_count >= 1 and rt_resolution >= 1, got {v_count}, "
                         f"{rt_resolution}")
    v_grid = np.linspace(1.0 + 1e-6, 3.0 - 1e-6, v_count)
    frac = np.arange(1, rt_resolution + 1) / rt_resolution
    rows = max(1, _SWEEP_BLOCK // rt_resolution)
    worst, samples = -np.inf, 0
    for lo in range(0, v_count, rows):
        v = v_grid[lo:lo + rows, None]
        tau = 0.5 * (v - 1.0)
        c = v * v - 1.0
        r = tau + (c - tau) * frac
        t = (c - r) / (1.0 + r)
        denom = _pole_denominator(tau, r, t)
        member = denom < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            F = _F(tau, r, t, denom)
        samples += int(np.count_nonzero(member))
        worst = max(worst, float(np.max(F, where=member, initial=-np.inf)))
    return SweepReport(v_count, rt_resolution, worst, samples)


class SupFProof(NamedTuple):
    cubic: tuple  # p_c's coefficients, highest power first
    boxes: tuple  # (lo, hi, Bernstein coefficients) of each closed box, in order of s
    worst: Fraction  # the largest closed coefficient, or p_c at the counterexample
    counterexample: Fraction | None  # a point of [2, 5] with p_c >= 0, None once proved


def _bernstein(coef, lo, hi):
    """The Bernstein coefficients on [lo, hi] of the polynomial coef, highest power first."""
    n = len(coef) - 1
    a = list(coef)
    for k in range(n):  # synthetic division by s - lo: a[n - k] becomes p^(k)(lo) / k!
        for i in range(1, n + 1 - k):
            a[i] += lo * a[i - 1]
    d = [x * (hi - lo) ** k for k, x in enumerate(reversed(a))]
    return tuple(sum(Fraction(math.comb(j, k), math.comb(n, k)) * d[k] for k in range(j + 1))
                 for j in range(n + 1))


def certify_sup_F(c) -> SupFProof:
    """Prove sup F <= -c over Omega (v in (1, 3)) exactly, or find where it fails.

    In tau = (v - 1) / 2 in (0, 1) and s = r / tau, with q = 4 + 4 tau - s and
    P = (s - 2)(3 + 2 tau - s), tau (1 + r) D = -tau^2 P on the hyperbola
    (1 + r)(1 + t) = v^2, so Omega(tau) = {2 < s < 3 + 2 tau}, where P > 0,
    and F = s / (1 + s) - q / P there.

    The lemma: at fixed s, dF/dtau = 2 (s - 2)^2 / P^2 = 2 / (3 + 2 tau - s)^2
    > 0, and Omega(tau) grows with tau, so F(tau, s) < F(1, s) on Omega and
    the supremum over Omega is that of F(1, s) over s in (2, 5), attained by
    no v < 3.  Multiplying by (1 + s)(s - 2)(5 - s) > 0, F(1, s) <= -c is
    p_c(s) = -(1 + c) s^3 + (8 + 6c) s^2 - (17 + 3c) s - (8 + 10c) <= 0, and
    p_c(2) = p_c(5) = -18 for every c.

    c is taken as the exact rational of its value.  [2, 5] is cut into
    boxes by bisection, each written in the Bernstein basis in `Fraction`:
    a box closes once every coefficient is negative, which bounds p_c on it
    below 0, and an end of a box with p_c >= 0 is returned as an exact
    counterexample.  So the search ends for every rational c: below the
    sharp constant (1.15246996739633) p_c < 0 on [2, 5], and above it p_c > 0
    on an interval, which holds a box end.  No rational c is the sharp one,
    where p_c has a double root, rational for rational c, at the root
    3.78171... of F's critical quartic s^4 - 14 s^3 + 42 s^2 - 32 s + 73,
    which has no rational root.
    """
    c = Fraction(c)
    cubic = (-(1 + c), 8 + 6 * c, -(17 + 3 * c), -(8 + 10 * c))
    todo, boxes = [(Fraction(2), Fraction(5))], []
    while todo:
        lo, hi = todo.pop()
        coef = _bernstein(cubic, lo, hi)
        for end, value in ((lo, coef[0]), (hi, coef[-1])):  # p_c at the box's ends
            if value >= 0:
                return SupFProof(cubic, tuple(boxes), value, end)
        if max(coef) < 0:
            boxes.append((lo, hi, coef))
        else:
            mid = (lo + hi) / 2
            todo += [(mid, hi), (lo, mid)]  # the left half first: boxes stay in order
    return SupFProof(cubic, tuple(boxes), max(max(box[2]) for box in boxes), None)


# ---------------------------------------------------------------------------
# quadratic-form side: stacks and groups


def _check_lam(p, lam):
    """Validate a stack of angle values, lam (B, p); return their slope values.

    The lambda half of `_check_stack`, which the lambda-only entries run alone.
    """
    if lam.ndim != 2 or lam.shape[1:] != (p,):
        raise ValueError(f"need {p} angle values, got shape {lam.shape[1:]}")
    if np.any(lam < 0):
        raise ValueError("angle values must be nonnegative")
    if not np.all(np.isfinite(lam)):
        raise ValueError("angle values must be finite")
    v = _slope(lam)
    if not np.all(np.isfinite(v)):
        raise ValueError("slope value is not finite")
    return v


def _check_stack(n, m, lam, h):
    """Validate a stack of one (n, m) shape; return (lam, h, v) as float arrays.

    lam has shape (B, p) and h (B, m, n, n); v are their slope values, and
    the messages name the shape of one sample.
    """
    lam, h = np.asarray(lam, dtype=float), np.asarray(h, dtype=float)
    v = _check_lam(min(n, m), lam)
    if h.shape != (len(lam), m, n, n):
        raise ValueError(f"h must have shape {(m, n, n)}")
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    if np.any(np.abs(h - np.swapaxes(h, -1, -2)) > 1e-12):
        raise ValueError("h must be symmetric in its last two indices")
    return lam, h, v


def _slope(lam):
    """v = prod sqrt(1 + lam_j^2) over the last axis, as exp(sum log1p(lam^2) / 2)."""
    return np.exp(0.5 * np.sum(np.log1p(lam * lam), axis=-1))


def _master_kernel(lam, h):
    """(total, |B|^2, v) of each row of a stack, in the input dtype.

    lam has shape (B, p) and h (B, m, n, n).
    total = |B|^2 + sum_{i,j,k} lam_j lam_k h_{k,ij} h_{j,ik}
    + C1 sum_i (sum_j lam_j h_{j,ij})^2
    = sum_i [Hess log v(Z_i) + C1 (d log v(Z_i))^2], Z_i[j, a] = h_{a,ij} the
    plane-map image of frame row i in adapted frames: the terms come from
    grassmann's log v forms (`grassmann._logv_terms`).  Each row is built
    from elementwise products and summed along its own last axis, so its
    bits do not depend on the other rows.  The middle sum is accumulated in
    sequence over (i, j, k) in C order: a pairwise sum would move the last
    digits of verify-prop41's regroup_max.
    """
    B, p = lam.shape
    n = h.shape[-1]
    h = np.ascontiguousarray(h)  # |B|^2 sums each row in C order, whatever the layout
    b2 = np.sum(h * h, axis=(-3, -2, -1))
    # om[b, i, j, a] = h_{a,ij}; the helper reads a[b, i, j, k] = h_{k,ij}, k < p
    pair, lin = grassmann._logv_terms(lam[:, None, :], np.moveaxis(h, 1, -1))
    pair = pair.reshape(B, n * p * p)
    coupled = np.cumsum(pair, axis=-1, out=pair)[:, -1]
    sums = np.sum(lin, axis=-1)
    total = b2 + coupled + C1 * np.sum(sums * sums, axis=-1)
    return total, b2, _slope(lam)


def _margins(lam, h):
    """(margin, total, |B|^2, v) from one kernel call; margin = total - (3 - v)|B|^2 / 2."""
    total, b2, v = _master_kernel(lam, h)
    return total - 0.5 * (3.0 - v) * b2, total, b2, v


class _GroupTable(NamedTuple):
    keys: tuple  # (I keys, II keys, III keys, IV keys)
    index: np.ndarray  # rows group, la, lb, ha, hb; one column per value monomial
    const: np.ndarray
    bound_index: np.ndarray  # rows group, x; one column per bound square
    bound_coef: np.ndarray  # rows c0, cv


@functools.lru_cache(maxsize=None)
def _group_table(n, m) -> _GroupTable:
    """Groups I-IV and the leftover square of one (n, m) shape, built once.

    A value monomial adds const lam1[la] lam1[lb] h[ha] h[hb] to its group,
    where lam1 is lam padded with a 1 at index p = min(n, m) and h is
    flattened; a bound square adds (c0 + cv (3 - v)) h[x]^2.  Groups are
    numbered in key order I, II, III, IV; the leftover, with no bound, is
    last.  Indices are 0-based and h[a, i, j] = h_{a,ij}.
    """
    p = min(n, m)
    vals, bnds = [], []

    def at(a, i, j):
        return (a * n + i) * n + j

    def square(g, c, x, cv=None):
        vals.append((g, p, p, x, x, c))
        if cv is not None:
            bnds.append((g, x, 0.0, cv))

    def row(g, i):  # sum_j (2 + lam_j^2 - [j = i]) h_{j,ij}^2 + C1 (sum_j lam_j h_{j,ij})^2
        for j in range(p):
            r = at(j, i, j)
            square(g, 1.0 if j == i else 2.0, r)
            vals.append((g, j, j, r, r, 1.0))
            vals.extend((g, j, k, r, at(k, i, k), C1) for k in range(p))

    keys_I = tuple(range(p, n))
    keys_II = tuple((i, j, k) for i in keys_I for j in range(p) for k in range(j + 1, p))
    keys_III = tuple((i, j, k) for i in range(p) for j in range(i + 1, p)
                     for k in range(j + 1, p))
    keys_IV = tuple(range(p))
    first = np.cumsum([0, len(keys_I), len(keys_II), len(keys_III), len(keys_IV)])
    # I_i = row(i) >= 2 sum_j h_{j,ij}^2
    for g, i in enumerate(keys_I, first[0]):
        row(g, i)
        bnds.extend((g, at(j, i, j), 2.0, 0.0) for j in range(p))
    # II_ijk = 2a^2 + 2b^2 + 2 lam_j lam_k ab >= (3 - v)(a^2 + b^2), a = h_{k,ij}, b = h_{j,ik}
    for g, (i, j, k) in enumerate(keys_II, first[1]):
        a, b = at(k, i, j), at(j, i, k)
        square(g, 2.0, a, 1.0)
        square(g, 2.0, b, 1.0)
        vals.append((g, j, k, a, b, 2.0))
    # III_ijk = 2(a^2 + b^2 + c^2) + 2(lam_i lam_j ab + lam_j lam_k bc + lam_k lam_i ca)
    # >= (3 - v)(a^2 + b^2 + c^2), a = h_{i,jk}, b = h_{j,ki}, c = h_{k,ij}
    for g, (i, j, k) in enumerate(keys_III, first[2]):
        a, b, c = at(i, j, k), at(j, k, i), at(k, i, j)
        for x in (a, b, c):
            square(g, 2.0, x, 1.0)
        vals.extend([(g, i, j, a, b, 2.0), (g, j, k, b, c, 2.0), (g, k, i, c, a, 2.0)])
    # IV_i = row(i) + sum_{j != i} (h_{i,jj}^2 + 2 lam_i lam_j h_{i,jj} h_{j,ij})
    # >= (3 - v)/2 [h_{i,ii}^2 + sum_{j != i} (h_{i,jj}^2 + 2 h_{j,ij}^2)]
    for g, i in enumerate(keys_IV, first[3]):
        row(g, i)
        bnds.append((g, at(i, i, i), 0.0, 0.5))
        for j in [j for j in range(p) if j != i]:
            r, q = at(j, i, j), at(i, j, j)
            square(g, 1.0, q, 0.5)
            vals.append((g, i, j, q, r, 2.0))
            bnds.append((g, r, 0.0, 1.0))
    # leftover = sum of h_{a,ij}^2 over a >= p, or over a < p with i, j >= p
    for a, i, j in np.ndindex(m, n, n):
        if a >= p or min(i, j) >= p:
            square(first[4], 1.0, at(a, i, j))
    vcols, bcols = np.array(vals).T, np.array(bnds).T
    return _GroupTable((keys_I, keys_II, keys_III, keys_IV), vcols[:5].astype(np.intp),
                       vcols[5], bcols[:2].astype(np.intp), bcols[2:])


def _group_values(n, m, lam, h):
    """(table, values (B, groups)): each group's value in key order, the leftover last.

    lam (B, p) and h (B, m, n, n) hold a stack.  One bincount over the ids
    g + groups * row sums every row's monomials in table order, so each
    row's values equal those of the same sample alone, bit for bit.
    """
    t = _group_table(n, m)
    rows = len(lam)
    lam1 = np.concatenate((lam, np.ones((rows, 1))), axis=-1)
    h = h.reshape(rows, m * n * n)
    g, la, lb, ha, hb = t.index
    w = lam1[:, la] * t.const  # const lam1[la] lam1[lb] h[ha] h[hb], in that order
    w *= lam1[:, lb]
    w *= h[:, ha]
    w *= h[:, hb]
    groups = sum(map(len, t.keys)) + 1
    ids = g + groups * np.arange(rows)[:, None]
    # bincount counts as int64 when there are no ids, weights or not
    vals = np.bincount(ids.ravel(), w.ravel(), minlength=groups * rows).astype(float, copy=False)
    return t, vals.reshape(rows, groups)


def master_margin(n, m, lam, h):
    """group_totals(n, m, lam, h).margin, bit for bit, without the grouped table."""
    lam, h, _ = _check_stack(n, m, lam, h)
    return _margins(lam, h)[0]


class GroupTotals(NamedTuple):
    grouped: np.ndarray  # sum of the group values and the leftover
    direct: np.ndarray
    margin: np.ndarray  # direct - (3 - v)|B|^2 / 2
    b2: np.ndarray  # |B|^2


def group_totals(n, m, lam, h) -> GroupTotals:
    """The two routes to the total, the master margin and |B|^2 of a stack.

    lam (B, p) and h (B, m, n, n) hold B samples of one (n, m) shape.  Each
    row has the bits of that sample's stack of one, whatever else the stack
    holds.
    """
    lam, h, _ = _check_stack(n, m, lam, h)
    _, vals = _group_values(n, m, lam, h)
    margin, total, b2, _ = _margins(lam, h)
    return GroupTotals(vals.sum(axis=-1), total, margin, b2)


class GroupBounds(NamedTuple):
    keys: tuple  # (I keys, II keys, III keys, IV keys): the groups in column order
    values: np.ndarray  # (B, groups + 1): each group's value, the leftover last
    slack: np.ndarray  # (B, groups): each group's value minus its proved lower bound


def group_bounds(n, m, lam, h) -> GroupBounds:
    """Each group's value and its slack against the proved bound, per row of a stack.

    lam (B, p) and h (B, m, n, n) hold B samples of one (n, m) shape, every
    one subcritical (v < 3); all slacks should be >= -1e-12.  The bounds are
    one bincount over the table's bound squares, so each row has the bits of
    its stack of one.
    """
    lam, h, v = _check_stack(n, m, lam, h)
    if np.any(v >= 3.0):
        raise ValueError("group bounds require subcritical samples (v < 3)")
    t, vals = _group_values(n, m, lam, h)
    rows, groups = vals.shape[0], vals.shape[1] - 1
    (g, x), (c0, cv) = t.bound_index, t.bound_coef
    squares = (c0 + cv * (3.0 - v)[:, None]) * h.reshape(rows, -1)[:, x] ** 2
    ids = g + groups * np.arange(rows)[:, None]
    bounds = np.bincount(ids.ravel(), squares.ravel(), minlength=groups * rows)
    return GroupBounds(t.keys, vals, vals[:, :-1] - bounds.reshape(rows, groups))


# ---------------------------------------------------------------------------
# sampling and adversarial search


_PATTERNS = ("dense", "diag", "triple", "lowrank", "sparse")


def _lam_from(exps, budget):
    """lam (B, p) from B rows of p standard exponentials and their budgets (B,).

    Each row splits its budget in Dirichlet(1, ..., 1) shares e / sum(e) with
    the bits of numpy's `dirichlet`, which draws each Gamma(1) variate as one
    standard exponential and scales it by 1 / acc, acc summed left to right
    as `cumsum` sums; lam_j = sqrt(expm1(share_j)).
    """
    acc = np.cumsum(exps, axis=-1)[:, -1:]
    return np.sqrt(np.expm1(exps * (1.0 / acc) * budget[:, None]))


def _h_from(n, m, pattern, raw):
    """h (B, m, n, n) of one pattern from B rows of its draws.

    A row of an array pattern holds normals: m n n (dense), p n (diag,
    j-major), p (p - 1) (p - 2) (triple) or m (n + 1) (lowrank).  A row of
    the sparse pattern holds its entries, (entries, 4) of (a, i, j, value).
    """
    p = min(n, m)
    rows = len(raw)
    h = np.zeros((rows, m, n, n))
    if pattern == "dense":
        raw = raw.reshape(rows, m, n, n)
        h = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    elif pattern == "diag":  # h_{j,ij} = h_{j,ji}
        val = raw.reshape(rows, p, n)
        j, i = np.arange(p)[:, None], np.arange(n)
        h[:, j, i, j] = val
        h[:, j, j, i] = val
    elif pattern == "triple":  # h_{i,jk} = h_{i,kj}; one value per distinct (i, j, k), in C order
        i, j, k = np.indices((p, p, p))
        val = np.zeros((rows, p, p, p))
        val[:, (i != j) & (j != k) & (k != i)] = raw
        h[:, :p, :p, :p] = val + np.swapaxes(val, -1, -2)
    elif pattern == "lowrank":  # per component its vector, then its scale
        raw = raw.reshape(rows, m, n + 1)
        vec = raw[..., :n]
        h = vec[..., :, None] * vec[..., None, :] * raw[..., n, None, None]
    else:  # sparse: the entries in order, each added with its mirror where i != j
        a, i, j = np.moveaxis(raw[..., :3].astype(np.intp), -1, 0)
        keep = np.stack([np.full(i.shape, True), i != j], axis=-1)  # (rows, entries, 2)
        r, a, v = (np.broadcast_to(x[..., None], keep.shape)[keep]
                   for x in (np.arange(rows)[:, None], a, raw[..., 3]))
        np.add.at(h, (r, a, np.stack([i, j], -1)[keep], np.stack([j, i], -1)[keep]), v)
    return h


def draw_group_stacks(rng, count):
    """Draw count samples and stack them by (n, m) shape.

    Sample k has n and m uniform in 1..5, lam with v uniform in (1, 3) and
    Dirichlet shares of 2 log v, and h with pattern k mod 5: dense, full
    normal h; diag, only the h_{j,ij} entries the square terms see; triple,
    only fully-distinct index triples within p (group III territory), so
    h = 0 when p < 3; lowrank, rank-one h per component; sparse, max(3, n)
    random entries.  Returns {(n, m): (lam (B, p), h (B, m, n, n))}, shapes
    in order of first draw and samples in order of k; the stacks are not
    checked here.

    The generator is called in bulk, in this order: integers(1, 6, count)
    for every n, then for every m; random(count), each budget 2 log(1 + 2 r);
    standard_exponential((count, 5)), whose first p columns give a sample's
    shares (`_lam_from`).  Then per shape in order of first draw, and per
    pattern in `_PATTERNS` order over that shape's B samples of the pattern,
    one block feeds `_h_from`: normal((B, size)) for an array pattern, and
    for sparse integers((B, e)) below m, n and n, then normal((B, e)), with
    e = max(3, n).  So the calls do not depend on count, at most 4 + 25 * 8.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    ns = rng.integers(1, 6, size=count)
    ms = rng.integers(1, 6, size=count)
    budget = 2.0 * np.log(1.0 + 2.0 * rng.random(count))
    exps = rng.standard_exponential((count, 5))
    shape = 10 * ns + ms
    codes, first = np.unique(shape, return_index=True)
    stacks = {}
    for n, m in (divmod(code, 10) for code in codes[np.argsort(first)].tolist()):
        p = min(n, m)
        rows = np.flatnonzero(shape == 10 * n + m)
        h = np.empty((len(rows), m, n, n))
        sizes = {"dense": m * n * n, "diag": p * n, "triple": p * (p - 1) * (p - 2),
                 "lowrank": m * (n + 1)}
        for q, name in enumerate(_PATTERNS):
            of = rows % len(_PATTERNS) == q
            b = np.count_nonzero(of)
            if name == "sparse":
                e = max(3, n)
                raw = np.stack([*(rng.integers(top, size=(b, e)) for top in (m, n, n)),
                                rng.normal(size=(b, e))], axis=-1)
            else:
                raw = rng.normal(size=(b, sizes[name]))
            h[of] = _h_from(n, m, name, raw)
        stacks[n, m] = _lam_from(exps[rows, :p], budget[rows]), h
    return stacks


class SampleCheck(NamedTuple):
    regroup_max: float  # max |grouped - direct| / max(1, |direct|), 0 with no samples
    min_margin: float  # min master margin / |B|^2 over samples with |B|^2 > 0, else inf
    zero_forms: int  # samples with |B|^2 = 0, whose margin is 0 whatever lam


def sample_check(rng, count) -> SampleCheck:
    """The regrouping identity and the master bound on count random samples.

    The samples come from draw_group_stacks, and each (n, m) stack is
    checked by one group_totals call.  min_margin is the smallest margin /
    |B|^2, which does not scale with h, as `adversarial_margin_search`
    reports it.  Zero forms (the triple pattern draws h = 0 whenever p < 3)
    are counted, not taken into min_margin, where their margin, exactly 0,
    has no ratio.  A NaN defect or margin reaches regroup_max or min_margin.
    """
    regroup, margin, zeros = 0.0, math.inf, 0
    stacks = draw_group_stacks(rng, count)
    while stacks:  # each stack is freed once checked; max and min ignore the order
        (n, m), (lam, h) = stacks.popitem()
        t = group_totals(n, m, lam, h)
        defect = np.abs(t.grouped - t.direct) / np.maximum(1.0, np.abs(t.direct))
        regroup = np.max(defect, initial=regroup)
        zero = t.b2 == 0.0
        zeros += int(np.count_nonzero(zero))
        margin = np.min(t.margin[~zero] / t.b2[~zero], initial=margin)
    return SampleCheck(float(regroup), float(margin), zeros)


V_SCHEDULE = tuple(3.0 - 10.0**-k for k in range(1, 7))


@dataclass(frozen=True)
class SearchReport:
    worst_margin: float
    evaluations: int
    violations: list


class _MarginForm(NamedTuple):
    index: np.ndarray  # rows la, lb, r, c with r >= c; one column per value monomial
    const: np.ndarray
    coords: np.ndarray  # flat h index -> symmetric coordinate
    scale: np.ndarray  # 1 / sqrt(w) per coordinate
    blocks: tuple  # per block size, ascending: (count, size) coordinates of each block
    slot: np.ndarray  # per monomial, its entry in the flat run of blocks


@functools.lru_cache(maxsize=None)
def _margin_form(n, m) -> _MarginForm:
    """The group table on symmetric coordinates, split into its coupled blocks.

    Coordinate r = coords[flat h index] stands for h_{a,ij} = h_{a,ji}, and
    |B|^2 weighs its square by w_r, the number of flat indices it covers (1
    if i = j, else 2); scale = 1 / sqrt(w).  Each value monomial is a column
    (la, lb, r, c) of index with r >= c, its constant scaled by scale[r]
    scale[c] and halved off the diagonal, so in y = sqrt(w) h, |B|^2 = |y|^2
    and the total is y^T T(lam) y, T(lam) being the symmetric matrix whose
    lower triangle holds, at (r, c), the sum of const lam1[la] lam1[lb].

    T couples two coordinates only through a monomial, whatever lam, so its
    blocks are the connected components of the monomials' (r, c) pairs: at
    most 2p - 1 coordinates for p <= 4, 9 at (5, 5).  They are laid out in
    one flat run, by size and then by smallest coordinate, each block a
    row-major k x k matrix with its coordinates in increasing order; blocks
    lists each size's coordinates, and slot is each monomial's entry in the
    run, in the block's lower triangle.
    """
    t = _group_table(n, m)
    flat = np.arange(m * n * n).reshape(m, n, n)
    _, coords = np.unique(np.minimum(flat, np.swapaxes(flat, 1, 2)).ravel(),
                          return_inverse=True)
    scale = np.bincount(coords) ** -0.5
    _, la, lb, ha, hb = t.index
    r, c = np.maximum(coords[ha], coords[hb]), np.minimum(coords[ha], coords[hb])
    const = t.const * scale[r] * scale[c] * np.where(r == c, 1.0, 0.5)
    # each coordinate's label falls to the smallest coordinate of its block
    label = np.arange(len(scale))
    while np.any(label[r] != label[c]):
        low = np.minimum(label[r], label[c])
        np.minimum.at(label, r, low)
        np.minimum.at(label, c, low)
    _, block, sizes = np.unique(label, return_inverse=True, return_counts=True)
    order = np.lexsort((block, sizes[block]))  # by size, then block, then coordinate
    # a plain np.unique would import numpy.ma (its masked-array check), about 1 MB resident
    blocks = tuple(order[sizes[block[order]] == k].reshape(-1, k)
                   for k in np.flatnonzero(np.bincount(sizes)))
    local, start, first = np.empty_like(label), np.empty_like(label), 0
    for members in blocks:
        count, k = members.shape
        local[members] = np.arange(k)
        start[members] = first + k * k * np.arange(count)[:, None]
        first += count * k * k
    slot = start[r] + local[r] * sizes[block[r]] + local[c]
    return _MarginForm(np.stack((la, lb, r, c)), const, coords, scale, blocks, slot)


def min_margin_over_h(n, m, lam):
    """(kappa, h): the minimum of margin / |B|^2 over h at each lam (B, p).

    It is the smallest eigenvalue of T(lam) (`_margin_form`) minus (3 - v) / 2,
    and h (B, m, n, n) is its eigenvector: symmetric, with |B|^2 = 1.  T is
    built straight into its blocks by one bincount and solved by one `eigh`
    call per block size; kappa is the smallest block minimum and h that
    block's eigenvector, the first such block in the run on a tie.  lam is
    checked as `group_totals` checks its angle values.
    """
    lam = np.asarray(lam, dtype=float)
    v = _check_lam(min(n, m), lam)
    f = _margin_form(n, m)
    la, lb = f.index[:2]
    rows, entries = len(lam), [b.size * b.shape[1] for b in f.blocks]
    run = sum(entries)
    lam1 = np.concatenate((lam, np.ones((rows, 1))), axis=-1)
    ids = np.arange(rows)[:, None] * run + f.slot
    form = np.bincount(ids.ravel(), (lam1[:, la] * lam1[:, lb] * f.const).ravel(),
                       minlength=rows * run).reshape(rows, run)
    kappa, y = np.full(rows, np.inf), np.zeros((rows, len(f.scale)))
    for members, part in zip(f.blocks, np.split(form, np.cumsum(entries)[:-1], axis=1)):
        count, k = members.shape
        low, vec = np.linalg.eigh(part.reshape(rows, count, k, k), UPLO="L")
        best = np.argmin(low[..., 0], axis=1)
        low = low[np.arange(rows), best, 0]
        at = np.flatnonzero(low < kappa)  # strictly lower: the first block in the run wins a tie
        kappa[at] = low[at]
        y[at] = 0.0
        y[at[:, None], members[best[at]]] = vec[at, best[at], :, 0]
    h = (y * f.scale)[:, f.coords].reshape(rows, m, n, n)
    return kappa - 0.5 * (3.0 - v), h


def adversarial_margin_search(seed=0, restarts=10_000) -> SearchReport:
    """min_margin_over_h at restarts // 24 random lambda per shape with p <= 4.

    Half the lambda have v uniform in (1, 3), half v from V_SCHEDULE, hard
    against v -> 3 where the bound degenerates.  The minima below tolerance
    are rechecked in extended precision, each at its own h, in one call per
    shape that has any; one still below is recorded with everything needed
    to recompute it.
    """
    rng = np.random.default_rng(seed)
    shapes = [(n, m) for n in range(1, 6) for m in range(1, 6) if min(n, m) <= 4]
    per_shape = max(1, restarts // len(shapes))
    worst = math.inf
    violations = []
    for n, m in shapes:
        p = min(n, m)
        B = per_shape
        v0 = np.where(
            rng.random(B) < 0.5,
            1.0 + 2.0 * rng.random(B),
            np.array(V_SCHEDULE)[rng.integers(len(V_SCHEDULE), size=B)],
        )
        lam = _lam_from(rng.standard_exponential((B, p)), 2.0 * np.log(v0))
        margins, h = min_margin_over_h(n, m, lam)
        worst = np.min(margins, initial=worst)
        flagged = np.nonzero(margins < -MARGIN_TOL)[0]
        if not flagged.size:
            continue
        ld = np.longdouble
        refined = _margins(lam[flagged].astype(ld), h[flagged].astype(ld))[0].astype(float)
        for k, margin, v in zip(flagged, refined.tolist(), _slope(lam[flagged]).tolist()):
            if margin < -MARGIN_TOL:
                sample = {"n": n, "m": m, "lam": lam[k].tolist(), "h": h[k].tolist(),
                          "v": v, "subcritical": v < 3.0}
                violations.append({"sample": sample, "C1": C1, "master_margin": margin})
    return SearchReport(
        worst_margin=float(worst),
        evaluations=per_shape * len(shapes),
        violations=violations,
    )
