"""Closed-form geometry of the round sphere S^n in R^{n+1}.

Height functions 1 - <x, a>, the polar chart (r, theta) defined off a deleted
closed half-equator, the first and second derivatives of the height, and the
Hessians of (r, theta).

The derivatives are evaluated at points x (..., n+1) on tangent vectors given
in ambient coordinates over the same leading axes, so no tangent frame is
needed (none exists globally on S^n); the height takes one pole or a pole
per point.  Each checks that x and the pole are
unit vectors on one sphere and that every vector is tangent at x.  These
are the package's one copy of each form, which immersion and cli call.
"""

from __future__ import annotations

import numpy as np

from . import grassmann

__all__ = [
    "RegionError",
    "height_value",
    "height_differential",
    "height_hessian",
    "longitude_coords",
    "longitude_hessians",
    "great_circle",
    "tangent_frame",
]

#: tolerance at a boundary: the hemisphere's in flow-graph's
#: gauss_min_pole_ip check (cli), and that of the set the longitude chart
#: deletes, the polar set r = 0 and the half-equator
REGION_TOL = 1e-9

_UNIT_TOL = 1e-12


class RegionError(ValueError):
    """A point lies outside the chart region; carries the offending point."""

    def __init__(self, message: str, point: np.ndarray):
        super().__init__(message)
        self.point = np.asarray(point, dtype=float)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # <x, y> over the last axis by stacked @: per vector the digits of x @ y
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _check_unit(x: np.ndarray, name: str = "input") -> np.ndarray:
    # unit vectors over leading axes
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 2:
        raise ValueError(f"{name} must be a vector in R^{{n+1}}, n >= 1")
    # initial=0.0 admits an empty stack; a NaN still fails the comparison
    if not (np.abs(np.sqrt(_dot(x, x)) - 1.0).max(initial=0.0) <= _UNIT_TOL):
        raise ValueError(f"{name} must be a unit vector (|{name}| = 1 to {_UNIT_TOL})")
    return x


def _check_pole(x: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # one pole, or poles over leading axes that broadcast with x's
    x = _check_unit(x, "x")
    a = _check_unit(a, "a")
    if x.shape[-1] != a.shape[-1]:
        raise ValueError("x and a must lie on the same sphere")
    return x, a


def _check_tangent(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    # |<x, u>| <= _ORTHO_TOL max(1, |u|_inf) over the broadcast leading axes
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != x.shape[-1:]:
        raise ValueError("tangent vectors must have the length of x")
    bound = grassmann._ORTHO_TOL * np.maximum(1.0, np.abs(u).max(axis=-1))
    if not np.all(np.abs(_dot(x, u)) <= bound):
        raise ValueError("vectors must be tangent to the sphere at x")
    return u


def height_value(x: np.ndarray, a: np.ndarray):
    """Height of x relative to the pole a: the value 1 - <x, a>, in [0, 2],
    over the leading axes of points x (..., n+1)."""
    x, a = _check_pole(x, a)
    return 1.0 - _dot(x, a)


def height_differential(x: np.ndarray, a: np.ndarray, u: np.ndarray):
    """d(1 - <., a>) at x on tangent vectors u: the value -<u, a>."""
    x, a = _check_pole(x, a)
    return -_dot(_check_tangent(x, u), a)


def height_hessian(x: np.ndarray, a: np.ndarray, u: np.ndarray, w: np.ndarray):
    """Hessian of the height 1 - <., a> at x on tangent vectors u and w:
    the value <x, a> <u, w>, i.e. (1 - height) g_s."""
    x, a = _check_pole(x, a)
    return _dot(x, a) * _dot(_check_tangent(x, u), _check_tangent(x, w))


def _check_region(x: np.ndarray, r: np.ndarray, cut=False) -> None:
    # RegionError on the first point of the stack x (..., n+1) in the polar
    # set, where r = |(x1, x2)| is within REGION_TOL of 0 (or NaN), or in cut
    polar = np.reshape(~(r > REGION_TOL), -1)
    outside = polar | np.reshape(cut, -1)
    if outside.any():
        k = np.argmax(outside)
        raise RegionError("point projects into the polar set r = 0" if polar[k]
                          else "point lies on the deleted half-equator",
                          x.reshape(-1, x.shape[-1])[k])


def longitude_coords(x: np.ndarray):
    """Polar coordinates (r, theta) of the first two components of points
    x (..., n+1): arrays over the leading axes.

    Defined on the sphere minus the closed half-equator {x2 = 0, x1 <= 0};
    r in (0, 1], theta in (-pi, pi). Points within REGION_TOL of the deleted
    set raise RegionError, which carries the first such point of the stack.
    """
    x = _check_unit(x, "x")
    r = np.hypot(x[..., 0], x[..., 1])
    _check_region(x, r, (x[..., 0] <= 0.0) & (np.abs(x[..., 1]) <= REGION_TOL))
    return r, np.arctan2(x[..., 1], x[..., 0])


def _longitude_diffs(x: np.ndarray, u: np.ndarray):
    # r = |(x1, x2)| at x, and dr(u), dtheta(u) of theta = atan2(x2, x1)
    x = _check_unit(x, "x")
    u = _check_tangent(x, u)
    r2 = x[..., 0] ** 2 + x[..., 1] ** 2
    r = np.sqrt(r2)
    _check_region(x, r)
    dr = (x[..., 0] * u[..., 0] + x[..., 1] * u[..., 1]) / r
    dt = (-x[..., 1] * u[..., 0] + x[..., 0] * u[..., 1]) / r2
    return r, dr, dt


def longitude_hessians(x: np.ndarray, u: np.ndarray, w: np.ndarray):
    """Exact Hessians of r and theta at x on tangent vectors u and w.

    Hess r = -r g_s + r dtheta (x) dtheta
    Hess theta = -(dr (x) dtheta + dtheta (x) dr) / r
    """
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    r, dr_u, dt_u = _longitude_diffs(x, u)
    _, dr_w, dt_w = _longitude_diffs(x, w)
    hr = r * (dt_u * dt_w - _dot(u, w))
    return hr, -(dr_u * dt_w + dt_u * dr_w) / r


def great_circle(x: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """Unit-speed geodesic cos(t) x + sin(t) v from x with initial vector v,
    at times t (...): points (..., n+1) over the axes of t."""
    t = np.asarray(t, dtype=float)[..., None]
    return np.cos(t) * np.asarray(x, dtype=float) + np.sin(t) * np.asarray(v, dtype=float)


def tangent_frame(x: np.ndarray) -> np.ndarray:
    """A deterministic orthonormal basis of the tangent space at points x
    (..., n+1): rows (..., n, n+1), the orthogonal complement of each point
    by Householder QR."""
    return grassmann.complement(_check_unit(x, "x")[..., None, :])
