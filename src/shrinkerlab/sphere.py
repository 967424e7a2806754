"""Closed-form geometry of the round sphere S^n in R^{n+1}.

Height functions 1 - <x, a>, the polar chart (r, theta) defined off a deleted
closed half-equator, their exact Hessians in caller-supplied orthonormal
tangent frames, and the region classification used by Gauss-image reports.

All Hessians are returned as coefficient matrices in the supplied frame; the
module never invents a global frame (none exists on S^n).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import grassmann

__all__ = [
    "RegionError",
    "RegionClass",
    "SymBilinearForm",
    "LongitudeCoords",
    "height_value",
    "hess_height",
    "longitude_coords",
    "longitude_differentials",
    "hess_r_theta",
    "region_membership",
    "great_circle",
    "tangent_frame",
]

#: tolerance for classifying points near a region boundary
REGION_TOL = 1e-9

_UNIT_TOL = 1e-12


class RegionError(ValueError):
    """A point lies outside the chart region; carries the offending point."""

    def __init__(self, message: str, point: np.ndarray):
        super().__init__(message)
        self.point = np.asarray(point, dtype=float)


class RegionClass(enum.Enum):
    OPEN_HEMI = "open_hemisphere"
    CLOSED_HEMI_BOUNDARY = "closed_hemisphere_boundary"
    V_REGION = "slit_region"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class SymBilinearForm:
    """A symmetric bilinear form in coordinates of a supplied orthonormal frame."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("form entries must be a square matrix")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
            raise ValueError("form entries must be symmetric to 1e-12")
        object.__setattr__(self, "entries", m)

    def __call__(self, u: np.ndarray, w: np.ndarray) -> float:
        """Contract with coefficient vectors of the same frame."""
        return float(np.asarray(u) @ self.entries @ np.asarray(w))


class LongitudeCoords(NamedTuple):
    r: float
    theta: float


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # <x, y> over the last axis by stacked @: per vector the digits of x @ y
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _check_unit(x: np.ndarray, name: str = "input", lead: bool = False) -> np.ndarray:
    # with lead, x may stack unit vectors over leading axes
    x = np.asarray(x, dtype=float)
    if (x.ndim < 1 if lead else x.ndim != 1) or x.shape[-1] < 2:
        raise ValueError(f"{name} must be a vector in R^{{n+1}}, n >= 1")
    if not (np.abs(np.sqrt(_dot(x, x)) - 1.0).max() <= _UNIT_TOL):
        raise ValueError(f"{name} must be a unit vector (|{name}| = 1 to {_UNIT_TOL})")
    return x


def _check_tangent_frame(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    basis = np.asarray(basis, dtype=float)
    n = x.size - 1
    if basis.shape != (n, x.size):
        raise ValueError(f"basis must be {n} orthonormal rows of length {x.size}")
    if not grassmann._orthonormal(basis):
        raise ValueError("basis rows must be orthonormal")
    if not (np.max(np.abs(basis @ x)) <= grassmann._ORTHO_TOL):
        raise ValueError("basis rows must be tangent to the sphere at x")
    return basis


def height_value(x: np.ndarray, a: np.ndarray):
    """Height of x relative to the pole a: the value 1 - <x, a>, in [0, 2],
    over the leading axes of points x (..., n+1)."""
    x = _check_unit(x, "x", lead=True)
    a = _check_unit(a, "a")
    if x.shape[-1] != a.size:
        raise ValueError("x and a must lie on the same sphere")
    return 1.0 - _dot(x, a)


def hess_height(x: np.ndarray, a: np.ndarray, basis: np.ndarray) -> SymBilinearForm:
    """Hessian of the pole-coordinate function <., a> at x, in the given frame.

    Equals -<x, a> times the identity form. The height 1 - <., a> has Hessian
    equal to the negative of this, i.e. (1 - height) g_s.
    """
    x = _check_unit(x, "x")
    a = _check_unit(a, "a")
    basis = _check_tangent_frame(x, basis)
    n = basis.shape[0]
    return SymBilinearForm(-float(x @ a) * np.eye(n))


def longitude_coords(x: np.ndarray, tol: float = REGION_TOL) -> LongitudeCoords:
    """Polar coordinates (r, theta) of the first two components of x.

    Defined on the sphere minus the closed half-equator {x2 = 0, x1 <= 0};
    r in (0, 1], theta in (-pi, pi). Points within ``tol`` of the deleted set
    raise RegionError.
    """
    # one point by design: np.hypot and np.arctan2 differ from math.hypot and
    # math.atan2 in the last bit on 0.55% and 7.4% of standard normal inputs,
    # enough to move the verify-targets residuals that read r and theta
    x = _check_unit(x, "x")
    x1, x2 = float(x[0]), float(x[1])
    r = math.hypot(x1, x2)
    if r <= tol:
        raise RegionError("point projects into the polar set r = 0", x)
    if x1 <= 0.0 and abs(x2) <= tol:
        raise RegionError("point lies on the deleted half-equator", x)
    return LongitudeCoords(r, math.atan2(x2, x1))


def longitude_differentials(x: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors of dr and dtheta at x in the given frame."""
    r, _ = longitude_coords(x)
    basis = _check_tangent_frame(_check_unit(x, "x"), basis)
    # ambient differentials of r = |(x1,x2)| and theta = atan2(x2,x1),
    # restricted to tangent vectors
    grad_r = np.zeros(x.size)
    grad_r[0] = x[0] / r
    grad_r[1] = x[1] / r
    grad_t = np.zeros(x.size)
    grad_t[0] = -x[1] / r**2
    grad_t[1] = x[0] / r**2
    return basis @ grad_r, basis @ grad_t


def hess_r_theta(x: np.ndarray, basis: np.ndarray) -> tuple[SymBilinearForm, SymBilinearForm]:
    """Exact Hessians of r and theta at x, in the given frame.

    Hess r = -r g_s + r dtheta (x) dtheta
    Hess theta = -(dr (x) dtheta + dtheta (x) dr) / r
    """
    r, _ = longitude_coords(x)
    dr, dt = longitude_differentials(x, basis)
    n = dr.size
    hr = -r * np.eye(n) + r * np.outer(dt, dt)
    ht = -(np.outer(dr, dt) + np.outer(dt, dr)) / r
    return SymBilinearForm(hr), SymBilinearForm(ht)


def region_membership(x: np.ndarray, a: np.ndarray) -> RegionClass:
    """Classify x relative to the hemisphere at pole a and the slit chart.

    OPEN_HEMI iff <x,a> > REGION_TOL; CLOSED_HEMI_BOUNDARY iff
    |<x,a>| <= REGION_TOL.  Otherwise V_REGION if x avoids the canonical
    deleted half-equator {x2 = 0, x1 <= 0} (within REGION_TOL), else OUTSIDE.
    """
    x = _check_unit(x, "x")
    a = _check_unit(a, "a")
    ip = float(x @ a)
    if ip > REGION_TOL:
        return RegionClass.OPEN_HEMI
    if abs(ip) <= REGION_TOL:
        return RegionClass.CLOSED_HEMI_BOUNDARY
    try:
        longitude_coords(x)
    except RegionError:
        return RegionClass.OUTSIDE
    return RegionClass.V_REGION


def great_circle(x: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """Unit-speed geodesic cos(t) x + sin(t) v from x with initial vector v,
    at times t (...): points (..., n+1) over the axes of t."""
    t = np.asarray(t, dtype=float)[..., None]
    return np.cos(t) * np.asarray(x, dtype=float) + np.sin(t) * np.asarray(v, dtype=float)


def tangent_frame(x: np.ndarray) -> np.ndarray:
    """A deterministic orthonormal basis of the tangent space at x (rows):
    the orthogonal complement of x by Householder QR."""
    return grassmann.complement(_check_unit(x, "x")[None])
