"""Pointwise verification lab for the grouped curvature inequality.

At a point of a submanifold with principal-angle values lam_1..lam_p and
second-fundamental-form coefficients h_{a,ij}, the weighted Laplacian of
log v combines with C1 |grad log v|^2 into a quadratic form in h.  This
module regroups that form by index type (groups I / II / III / IV plus a
pure leftover square), checks the per-group lower bounds, and verifies the
master bound

    total >= (3 - v) |B|^2 / 2      with C1 = 16,

which pins the subcritical slope threshold v < 3.  The scalar side is
the sweep `sup_F_sweep`, which certifies sup F <= -1/16 over a grid of the
constraint set Omega, the source of the constant.  A grid point belongs to
Omega by the sign of F's pole denominator (`_pole_denominator`, D < 0) and
its value is `_F`.  On a v-slice, tau (1 + r) D = (r - 2 tau)(r - tau (3 +
2 tau)), so Omega is one interval of r, and F is strictly concave on it
(`sup_F_sweep` gives both proofs).  So the sweep evaluates only bands of
grid points around the interval's two edges and a coarse pass and a window
around F's peak (`_omega_slices`), about 83 of a slice's 1500 points on
verify-prop41's default grid; the points between the bands are counted
without evaluation.  Each slice's count and maximum have the bits of a full
loop over its points.  `H1_value` is the cubic H1 of the factorization F =
F2 / (F1 (F2 - F1)), F2 = H1 / H2.

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
from typing import NamedTuple

import numpy as np

from . import grassmann

C1 = 16.0
DELTA0 = 1.0 / 16.0
MARGIN_TOL = 1e-12


# ---------------------------------------------------------------------------
# scalar side: the F-sweep over Omega and H1


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
    worst_value: float
    samples: int
    empty_slices: int
    worst_per_v: np.ndarray  # per v-slice, -inf on an empty slice

    def certificate(self, seed=None):
        return {
            "bound": -DELTA0,
            "worst_value": self.worst_value,
            "samples": self.samples,
            "seed": seed,
        }


_SWEEP_BLOCK = 1 << 14  # evaluated points per pass of the sweep, in whole v-slices
_BAND = 3  # grid points on either side of an edge of Omega, each band 2 _BAND wide
_COARSE = 16  # stride of the coarse pass over a slice's interior
_ROUNDING = 2.0**-36  # delta: F's rounding wherever F > -32, away from the pole


def _omega_edges(tau, c):
    """(lo, hi): the roots of tau (1 + r) D = r^2 - r (tau + c - 2 tau^2) + 2 tau^2 + tau c.

    tau and c = v^2 - 1 are a slice's floats, so the roots bound Omega for
    the t = (c - r) / (1 + r) that slice computes; with c = 4 tau (1 + tau)
    they are 2 tau and tau (3 + 2 tau).  hi takes the root with the sign of
    b, lo = (product) / hi, so neither subtracts near-equal numbers.
    """
    b = tau + c - 2.0 * tau * tau
    k = 2.0 * tau * tau + tau * c
    hi = 0.5 * (b + np.sqrt(b * b - 4.0 * k))
    return k / hi, hi


def _grid_values(tau, c, span, k, rt_resolution):
    """(member, F) at grid indices k (rows, points) of slices tau, c, span (rows, 1).

    Point k of a slice is r = tau + span k / rt_resolution with span = c - tau,
    t on the hyperbola (1 + r)(1 + t) = v^2, in the operations of the slice's
    full grid, so each value has the bits that grid gives it.  member is D < 0.
    """
    r = tau + span * (k / rt_resolution)
    t = (c - r) / (1.0 + r)
    denom = _pole_denominator(tau, r, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        F = _F(tau, r, t, denom)
    return denom < 0.0, F


def _require_bracket(ok):
    if not ok:
        raise RuntimeError("the bands around Omega's edges do not bracket its grid points")


def _omega_slices(v_grid, rt_resolution, rows):
    """Yield (lo, members, peak) for each block v_grid[lo:lo + rows] of v-slices.

    members counts a slice's points of Omega (D < 0) and peak is the largest
    F among them, -inf on an empty slice; both equal what the slice's full
    grid gives.  On a slice Omega is the interval between the roots of
    `_omega_edges`, and F is strictly concave on it (`sup_F_sweep`).  Each
    block takes two passes, each one gather of grid indices and one `_F`
    call over all its slices:

    - bands and coarse points.  A band of 2 _BAND grid points straddles the
      float position of each edge, so a rounding of D that moves an edge by
      up to _BAND - 1 points stays inside it.  Each band's outermost point
      must miss Omega, and next to a nonempty interior its innermost point
      must be in it.  The interior between the bands is counted without
      evaluation.  Every _COARSE-th interior point is evaluated, and each
      must be in Omega too.  Anything else raises RuntimeError.
    - a window of the interior, _COARSE points to either side of the best
      coarse point.  Grid r rises with the index, so where exact F is
      concave no point beyond a window edge has exact F above that edge's.
      So once each edge is an end of the interior, or its F lies more than
      2 delta below the window's maximum, that maximum is the interior's as
      floats.  delta = _ROUNDING bounds F's rounding, about 40 eps (t / D)^2
      + 4 eps, wherever F > -32.  Every slice's maximum lies above -6
      (-5.11 as v -> 1, -1.15 as v -> 3), so a point below -32 cannot carry
      it.  A window not yet accepted doubles its reach and is evaluated
      again; it is accepted at the latest once it spans the interior.

    Per slice that is 4 _BAND band points, ceil(n / _COARSE) coarse points
    and up to 2 _COARSE + 1 window points, n < R / 2 being the interior's
    length for R = rt_resolution.  On verify-prop41's default grid (R =
    1500) a slice evaluates at most 85 points and 83 on average.  An
    interior shorter than a window is spanned by it at once.
    """
    S, W = _COARSE, _BAND
    band = np.arange(1.0 - W, W + 1.0)
    for lo in range(0, len(v_grid), rows):
        v = v_grid[lo:lo + rows, None]
        tau = 0.5 * (v - 1.0)
        c = v * v - 1.0
        span = c - tau
        below, above = (np.floor((e - tau) / span * rt_resolution) for e in _omega_edges(tau, c))
        first, last = below + W + 1.0, above - W  # the interior, first..last
        inner = np.maximum(last - first + 1.0, 0.0)
        empty = inner == 0.0
        k = np.hstack((below + band, above + band))
        coarse = np.minimum(first + S * np.arange(max(1, -(-int(np.max(inner)) // S))),
                            np.maximum(last, 1.0))  # an empty interior's points are ignored
        member, F = _grid_values(tau, c, span,
                                 np.hstack((np.clip(k, 1.0, rt_resolution), coarse)),
                                 rt_resolution)
        counted = member[:, :4 * W] & (k >= 1.0) & (k <= rt_resolution)
        _require_bracket(not np.any(counted[:, [0, -1]])
                         and np.all(member[:, 2 * W - 1:2 * W + 1] | empty)
                         and np.all(member[:, 4 * W:] | empty))
        counted[:, 2 * W:] &= k[:, 2 * W:] > below + W  # a point both bands hold counts once
        members = np.count_nonzero(counted, axis=1) + inner[:, 0].astype(np.intp)
        peak = np.max(F[:, :4 * W], axis=1, where=counted, initial=-np.inf)
        best = np.take_along_axis(coarse, np.argmax(F[:, 4 * W:], axis=1)[:, None], axis=1)
        todo, reach = np.flatnonzero(~empty), S
        while todo.size:
            a = np.maximum(best[todo] - reach, first[todo])
            b = np.minimum(best[todo] + reach, last[todo])
            k = np.minimum(a + np.arange(np.max(b - a) + 1.0), b)  # the last column is b
            member, F = _grid_values(tau[todo], c[todo], span[todo], k, rt_resolution)
            _require_bracket(np.all(member))
            top = np.max(F, axis=1, keepdims=True)
            done = (((a == first[todo]) | (F[:, :1] < top - 2.0 * _ROUNDING))
                    & ((b == last[todo]) | (F[:, -1:] < top - 2.0 * _ROUNDING)))[:, 0]
            peak[todo[done]] = np.maximum(peak[todo[done]], top[done, 0])
            todo, reach = todo[~done], 2 * reach
        yield lo, members, peak


def sup_F_sweep(v_count=10_000, rt_resolution=10_000, v_lo=None, v_hi=None) -> SweepReport:
    """Maximize F over a grid of Omega and compare against -1/16.

    Each v-slice is parameterized by r in (tau, v^2 - 1] with t forced onto
    the hyperbola (1+r)(1+t) = v^2; samples failing the t lower bound, and
    any on F's pole, are dropped, and a slice losing every sample is
    counted, not fatal.  The grid must be nonempty and lie in the domain
    1 < v_lo <= v_hi < 3; anything else raises ValueError.

    On a slice, with c = v^2 - 1 = 4 tau (1 + tau), the pole denominator
    factors as tau (1 + r) D = r^2 - r (tau + c - 2 tau^2) + 2 tau^2 + tau c
    = (r - 2 tau)(r - tau (3 + 2 tau)).  As tau (1 + r) > 0, Omega is exactly
    2 tau < r < tau (3 + 2 tau).  In s = r / tau, with q = 4 + 4 tau - s and
    P = (s - 2)(3 + 2 tau - s), positive on Omega, F = s / (1 + s) - q / P.
    s / (1 + s) is concave, and (q / P)'' = 2 [P (q + P') + q P'^2] / P^3 > 0,
    since q > 0 and q + P' = 9 + 6 tau - 3 s > 0 on Omega.  So F is strictly
    concave there.  A slice's float c is not exactly 4 tau (1 + tau); with
    the roots s_lo < s_hi of its quadratic, x = s - s_lo, y = s_hi - s and
    d = c / tau - s_hi > 0, P (q + P') + q P'^2 = d (x^2 - x y + y^2) + y^3,
    still positive.  So each slice is known from its two edges and its peak
    (`_omega_slices`): on verify-prop41's default grid 5.5 % of the points
    are evaluated, and every slice's count and maximum have the bits of a
    full loop over its points.
    """
    v_lo = 1.0 + 1e-6 if v_lo is None else v_lo
    v_hi = 3.0 - 1e-6 if v_hi is None else v_hi
    if v_count < 1 or rt_resolution < 1:
        raise ValueError(f"need v_count >= 1 and rt_resolution >= 1, got {v_count}, "
                         f"{rt_resolution}")
    if not 1.0 < v_lo <= v_hi < 3.0:
        raise ValueError(f"need 1 < v_lo <= v_hi < 3, got v_lo={v_lo!r}, v_hi={v_hi!r}")
    v_grid = np.linspace(v_lo, v_hi, v_count)
    # per slice, a pass holds the bands and the coarse points (at most R // (2 _COARSE) + 1
    # of them), or a window
    width = max(4 * _BAND + rt_resolution // (2 * _COARSE) + 1, 2 * _COARSE + 1)
    rows = max(1, _SWEEP_BLOCK // width)
    samples = 0
    empty = 0
    per_v = np.empty(v_count)
    for lo, members, peak in _omega_slices(v_grid, rt_resolution, rows):
        per_v[lo:lo + rows] = peak
        samples += int(np.sum(members))
        empty += int(np.count_nonzero(members == 0))
    return SweepReport(
        v_count=v_count,
        rt_resolution=rt_resolution,
        worst_value=float(np.max(per_v)),
        samples=samples,
        empty_slices=empty,
        worst_per_v=per_v,
    )


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
    else:  # sparse: the entries in order, each added with its mirror
        a, i, j = np.moveaxis(raw[..., :3].astype(np.intp), -1, 0)
        for e in range(raw.shape[1]):
            h[np.arange(rows), a[:, e], i[:, e], j[:, e]] += raw[:, e, 3]
            off = np.nonzero(i[:, e] != j[:, e])[0]
            h[off, a[off, e], j[off, e], i[off, e]] += raw[off, e, 3]
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
    min_margin: float  # min master margin over samples with |B|^2 > 0, else inf
    zero_forms: int  # samples with |B|^2 = 0, whose margin is 0 whatever lam


def sample_check(rng, count) -> SampleCheck:
    """The regrouping identity and the master bound on count random samples.

    The samples come from draw_group_stacks, and each (n, m) stack is
    checked by one group_totals call.  Zero forms (the triple pattern draws
    h = 0 whenever p < 3) are counted, not taken into min_margin, where
    their exact 0 would hide the smallest margin of a curved sample.  A NaN
    defect or margin reaches regroup_max or min_margin.
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
        margin = np.min(t.margin[~zero], initial=margin)
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
