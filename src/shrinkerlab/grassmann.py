"""Oriented planes, principal angles, and the reciprocal-overlap function.

An n-plane in R^{n+m} is stored as n orthonormal spanning rows whose order
fixes an orientation.  For two such planes the overlap determinant
det <e_i, f_j> lies in [-1, 1], and the singular values of that matrix are
the cosines mu_i of the principal angles theta_i between the planes.  The
reciprocal-overlap function

    v = prod_i sec(theta_i) = prod_i sqrt(1 + lam_i^2),   lam_i = tan(theta_i),

controls slope bounds for graphical surfaces.  This module evaluates v and
its exact first and second derivative forms in the angle-adapted frame, and
provides the rotation geodesics used to cross-check those forms by finite
differences.  Derivative coefficients pair tangent row j with normal
direction alpha; the forms below are valid only in the adapted frame that
``jordan_spectrum`` returns, where the overlap matrix is diagonal.

An ``OrientedFrame`` holds one plane or a stack of them over leading axes,
and one plane is the stack with no leading axes.  Callers that need only v
read ``overlap_values``, the angle cosines of a stack from one batched SVD,
and ``v_values``, the product of their reciprocals.  ``jordan_spectrum``
takes a stack of planes, its cosines from the same helper, and returns the
angles and adapted frames of every plane; ``geodesic_from_velocity`` moves a
stack of planes at once.  Every plane of a stack gets the bits it gets
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# orthonormality of stored frames (freshly factorized or rotated rows)
_ORTHO_TOL = 1e-10
# below this sine of a principal angle the rotation partner is ill-conditioned
# and the slot is filled by the deterministic completion instead
_PARTNER_TOL = 1e-8


class ChartDomainError(ValueError):
    """A principal angle reached pi/2: the overlap vanishes and v is infinite."""


def _rows(rows, lead) -> np.ndarray:
    """A copy of rows (*lead, k, amb): row vectors over the planes' leading axes."""
    out = np.array(rows, dtype=float, copy=True)
    if out.shape[:-2] != lead or out.ndim != len(lead) + 2:
        raise ValueError("expected row vectors over the leading axes of the planes")
    return out


def _orthonormal(rows, tol=_ORTHO_TOL) -> bool:
    """Whether the rows (..., k, amb) are orthonormal to tol in every entry
    of their Gram matrices; False on NaN.  The package's one orthonormality
    check: planes here and immersion's frames are checked by it."""
    gram = rows @ rows.swapaxes(-1, -2)
    gram -= np.eye(gram.shape[-1])
    np.abs(gram, out=gram)
    return bool(gram.max() <= tol)


def complement(rows) -> np.ndarray:
    """Orthonormal rows (..., amb - k, amb) spanning the orthogonal complement
    of rows (..., k, amb): trailing columns of the complete QR of rows^T.
    The package's one complement, behind sphere's tangent frames,
    immersion's normals and jordan_spectrum's partner normals."""
    rows = np.asarray(rows, dtype=float)
    q = np.linalg.qr(rows.swapaxes(-1, -2), mode="complete")[0]
    return q[..., rows.shape[-2]:].swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class OrientedFrame:
    """Orthonormal rows (..., n, amb) spanning oriented n-planes in
    R^{n+m}: one plane, or a stack of them over leading axes."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float, copy=True)
        if v.ndim < 2:
            raise ValueError("expected an array of row vectors")
        n, amb = v.shape[-2:]
        if n < 1 or amb - n < 1:
            raise ValueError("need at least one row and one normal direction")
        if not _orthonormal(v):
            raise ValueError("rows are not orthonormal")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[-2]

    @property
    def m(self) -> int:
        return self.vectors.shape[-1] - self.vectors.shape[-2]

    @property
    def ambient(self) -> int:
        return self.vectors.shape[-1]


@dataclass(frozen=True, eq=False)
class JordanSpectrum:
    """Principal-angle data plus the adapted frames the derivative forms use,
    for one plane or a stack of them over leading axes.

    mu and lam (..., p) hold the cosines and tangents of the p = min(n, m)
    principal angles, descending in mu; a right angle is stored as
    lam = inf.  tangent_frame spans the base plane with row j paired to
    angle j for j < p (any further rows span the part of the plane shared
    with the reference plane);
    normal_frame (..., m, amb) rows are the matched rotation directions, row
    j being the direction that opens angle j, completed deterministically
    where the angle leaves the partner underdetermined.
    """

    mu: np.ndarray
    lam: np.ndarray
    tangent_frame: OrientedFrame
    normal_frame: np.ndarray

    def __post_init__(self):
        tf = self.tangent_frame
        lead = tf.vectors.shape[:-2]
        for name in ("mu", "lam"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != lead + (min(tf.n, tf.m),):
                raise ValueError(f"{name} must have length p = min(n, m)")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        nf = _rows(self.normal_frame, lead)
        nf.flags.writeable = False
        object.__setattr__(self, "normal_frame", nf)


@dataclass(frozen=True, eq=False)
class TangentCoeffs:
    """Coefficients omega[..., j, alpha] of plane motions: row j toward
    normal alpha, one (n, m) matrix or a stack of them over leading axes."""

    omega: np.ndarray
    frame: OrientedFrame

    def __post_init__(self):
        om = np.array(self.omega, dtype=float, copy=True)
        if om.shape[-2:] != (self.frame.n, self.frame.m):
            raise ValueError("coefficient shape does not match the frame")
        if not np.all(np.isfinite(om)):
            raise ValueError("coefficients must be finite")
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)


def _check_pair(P: OrientedFrame, Q: OrientedFrame) -> None:
    # P: one plane, or a stack of them over leading axes; Q: one plane, or a
    # stack whose leading axes broadcast to P's
    lead, qlead = P.vectors.shape[:-2], Q.vectors.shape[:-2]
    try:
        fits = np.broadcast_shapes(qlead, lead) == lead
    except ValueError:
        fits = False
    if P.vectors.shape[-2:] != Q.vectors.shape[-2:] or not fits:
        raise ValueError("frames have mismatched plane or ambient dimension or leading axes")


def _t(a):
    # the transposes of a stack of matrices
    return a.swapaxes(-1, -2)


def w_product(P: OrientedFrame, Q: OrientedFrame):
    """Overlap determinant det <e_i, f_j> of oriented planes, in [-1, 1],
    over the leading axes of P."""
    _check_pair(P, Q)
    det = np.linalg.det(P.vectors @ _t(Q.vectors))
    return np.clip(det, -1.0, 1.0)[()]


def _overlap_svd(rows, Q: OrientedFrame):
    """Full SVD of the overlap matrices rows Q^T over leading axes.

    Returns (U^T, mu_all, Vt, p): the singular values clipped to [0, 1] and
    every factor reordered so that the p = min(n, m) smallest, the
    angle-carrying cosines, come first (the rest are overlap directions
    shared by both planes).
    """
    n = rows.shape[-2]
    p = min(n, Q.m)
    U, sing, Vt = np.linalg.svd(rows @ _t(Q.vectors))
    perm = list(range(n - p, n)) + list(range(n - p))
    return _t(U)[..., perm, :], np.clip(sing, 0.0, 1.0)[..., perm], Vt[..., perm, :], p


def overlap_values(P: OrientedFrame, Q: OrientedFrame) -> np.ndarray:
    """Principal-angle cosines of planes P against Q, over leading axes.

    P's planes have Q's dimensions.  Returns the p = min(n, m) angle
    cosines, shape (..., p), equal to the ``mu`` that ``jordan_spectrum``
    stores for each plane.
    """
    _check_pair(P, Q)
    _, mu_all, _, p = _overlap_svd(P.vectors, Q)
    return mu_all[..., :p]


def jordan_spectrum(P: OrientedFrame, Q: OrientedFrame) -> JordanSpectrum:
    """Principal angles between planes P and Q with the adapted frames at P.

    P is one plane or a stack over leading axes, Q one plane or a stack whose
    leading axes broadcast to P's; the spectrum has P's leading axes, and
    each plane of a stack gets the bits it gets alone.  Singular values of
    the overlap matrix are clamped to [0, 1]; the p = min(n, m) smallest
    become the stored angle cosines (the rest are overlap directions shared
    by both planes).  Sign choices are deterministic: each adapted row has
    its largest-magnitude component positive (pairs flip jointly, which
    keeps the diagonalized overlap nonnegative and leaves every derivative
    form unchanged), and the frame keeps P's orientation.
    """
    _check_pair(P, Q)
    R, mu_all, S, p = _overlap_svd(P.vectors, Q)
    E = R @ P.vectors
    F = S @ Q.vectors
    # -1 where a row's largest-magnitude entry is negative, else 1: exact
    k = np.argmax(np.abs(E), axis=-1)[..., None]
    flip = np.where(np.take_along_axis(E, k, axis=-1) < 0.0, -1.0, 1.0)
    E *= flip
    F *= flip
    R *= flip
    turn = np.where(np.linalg.det(R) < 0.0, -1.0, 1.0)[..., None]
    E[..., -1, :] *= turn
    F[..., -1, :] *= turn
    mu = mu_all[..., :p].copy()
    with np.errstate(divide="ignore"):
        lam = np.sqrt(np.maximum(np.where(mu > 0.0, 1.0 / mu**2, np.inf) - 1.0, 0.0))
    return JordanSpectrum(
        mu=mu,
        lam=lam,
        tangent_frame=OrientedFrame(E),
        normal_frame=_partner_normals(E, F, mu_all, P.m, p),
    )


def _partner_normals(E, F, mu_all, m, p):
    # partner of row j: unit vector in span(e_j, f_j) normal to the plane,
    # signed so that rotating toward it opens the angle; rows without one are
    # completed deterministically inside the plane's orthogonal complement.
    # Each row is orthogonalized twice against the plane and the rows fixed
    # before it: a partner at a small angle is a difference of nearly equal
    # vectors, off orthogonality by up to 1e-10 as computed, and two passes
    # bring every row back to rounding level.  Rows are fixed partners first,
    # so the planes of a stack go in groups of one partner pattern.
    lead, (n, amb) = E.shape[:-2], E.shape[-2:]
    E, F, mu_all = E.reshape(-1, n, amb), F.reshape(-1, n, amb), mu_all.reshape(-1, n)
    # the partner pattern of each plane, bit j set where slot j has a partner
    pattern = (1.0 - mu_all[:, :p] ** 2 > _PARTNER_TOL**2) @ (1 << np.arange(p))
    normals = np.zeros((len(E), m, amb))
    for code in sorted(set(pattern.tolist())):
        group = np.flatnonzero(pattern == code)
        partners = [j for j in range(p) if code >> j & 1]
        rest = [j for j in range(m) if j not in partners]
        Eg, Fg, mug = E[group], F[group], mu_all[group]
        comp = complement(Eg) if rest else None
        fixed = Eg
        for j in partners + rest:
            cand = (mug[:, j, None] * Eg[:, j] - Fg[:, j])[:, None] if j in partners else comp
            for _ in range(2):
                cand = cand - (cand @ _t(fixed)) @ fixed
            norms = np.linalg.norm(cand, axis=-1)
            k = np.argmax(norms, axis=-1)[:, None]
            row = np.take_along_axis(cand, k[..., None], axis=1)[:, 0]
            row /= np.take_along_axis(norms, k, axis=1)
            normals[group, j] = row
            fixed = np.concatenate([fixed, row[:, None]], axis=1)
    return normals.reshape(lead + (m, amb))


def _value(x):
    # one value per plane or coefficient matrix: a float for a single one
    return float(x) if x.ndim == 0 else x


def v_values(mu) -> np.ndarray:
    """prod 1/mu_i over the last axis: v from angle cosines (..., p)."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0):
        raise ChartDomainError("a principal angle is pi/2, so v is unbounded")
    return np.prod(1.0 / mu, axis=-1)


def _form_coeffs(spec: JordanSpectrum, Z: TangentCoeffs) -> np.ndarray:
    if Z.frame is not spec.tangent_frame and not np.allclose(
        Z.frame.vectors, spec.tangent_frame.vectors, atol=1e-10
    ):
        raise ValueError("coefficients are not expressed in the adapted frame")
    if np.any(spec.mu <= 0.0):
        raise ChartDomainError("a principal angle is pi/2, so v is unbounded")
    return Z.omega


def _logv_terms(lam, om):
    """The terms of the log v forms, elementwise over leading axes.

    lam (..., p) and adapted-frame coefficients om (..., n, m) give
    pair[..., j, k] = lam_j lam_k om_jk om_kj, multiplied in that order, and
    lin[..., j] = lam_j om_jj, for j, k < p.  ineq's master kernel reads the
    same terms with om[b, i] the plane-map image of frame row i.
    """
    p = lam.shape[-1]
    a = om[..., :p, :p]
    pair = lam[..., :, None] * lam[..., None, :] * a
    pair *= np.swapaxes(a, -1, -2)
    return pair, lam * np.diagonal(a, axis1=-2, axis2=-1)


def _matrix_sums(x):
    """Sum of each (k, l) matrix of x (..., k, l) along its own C-order row,
    so a matrix of a stack has the bits of that matrix alone."""
    return np.sum(np.reshape(x, x.shape[:-2] + (-1,)), axis=-1)


def dlogv_form(spec: JordanSpectrum, Z: TangentCoeffs):
    """First derivative of log v along the geodesic with velocity Z:
    sum lam_j omega_jj, one value per coefficient matrix."""
    om = _form_coeffs(spec, Z)
    return _value(np.sum(_logv_terms(spec.lam, om)[1], axis=-1))


def hess_logv_form(spec: JordanSpectrum, Z: TangentCoeffs):
    """Second derivative of log v: |Z|^2 + sum_{j,k} lam_j lam_k omega_jk
    omega_kj, one value per coefficient matrix."""
    om = _form_coeffs(spec, Z)
    return _value(_matrix_sums(om * om) + _matrix_sums(_logv_terms(spec.lam, om)[0]))


def hess_v_form(spec: JordanSpectrum, Z: TangentCoeffs):
    """Second derivative of v along the geodesic with velocity Z:
    v (Hess log v + (d log v)^2), one value per coefficient matrix."""
    d = dlogv_form(spec, Z)
    return _value(v_values(spec.mu) * (hess_logv_form(spec, Z) + d * d))


def _check_normals(P: OrientedFrame, N: np.ndarray) -> None:
    if N.shape[-1] != P.ambient:
        raise ValueError("normal directions live in the wrong ambient space")
    if not _orthonormal(N):
        raise ValueError("normal directions are not orthonormal")
    if not (np.max(np.abs(N @ _t(P.vectors))) <= _ORTHO_TOL):
        raise ValueError("directions are not normal to the plane")


def geodesic_from_velocity(P: OrientedFrame, normals, omega, t) -> OrientedFrame:
    """Frames at times t of the geodesics through the planes P with
    velocities omega: rows (..., *t.shape, n, amb), the times after P's
    leading axes.

    omega[..., j, alpha] moves frame row j toward normals[..., alpha], both
    over P's leading axes.  The motion is reduced to simultaneous principal
    rotations by a singular value decomposition of the coefficient matrix,
    which serves every time, so each returned path is the exact
    distance-minimizing one with its velocity.  Each plane of a stack gets
    the bits it gets alone.
    """
    lead = P.vectors.shape[:-2]
    N = _rows(normals, lead)
    if N.shape[-2] != P.m:
        raise ValueError("need a full orthonormal basis of the complement")
    _check_normals(P, N)
    om = np.asarray(omega, dtype=float)
    if om.shape != lead + (P.n, P.m):
        raise ValueError("coefficient shape does not match the frame")
    A, s, Bt = np.linalg.svd(om)
    k = s.shape[-1]
    # the rows A^T P must keep P's orientation; where det A < 0 flip A's
    # last column, and its partner row of Bt if it has one, so that
    # omega = A S Bt still
    turn = np.where(np.linalg.det(A) < 0.0, -1.0, 1.0)[..., None]
    A[..., -1] *= turn
    if P.n <= k:
        Bt[..., P.n - 1, :] *= turn
    rows = _t(A) @ P.vectors
    turned = Bt @ N
    t = np.asarray(t, dtype=float)
    # the plane axes, then one axis per axis of t
    rows, turned, s = (a.reshape(lead + (1,) * t.ndim + a.shape[len(lead):])
                       for a in (rows, turned, s))
    st = t[..., None] * s
    out = np.broadcast_to(rows, st.shape[:-1] + rows.shape[-2:]).copy()
    out[..., :k, :] = (np.cos(st)[..., None] * rows[..., :k, :]
                       + np.sin(st)[..., None] * turned[..., :k, :])
    return OrientedFrame(out)


def express_in_adapted_frame(
    spec: JordanSpectrum, omega, tangent_rows, normal_rows
) -> TangentCoeffs:
    """Rewrite motion coefficients of planes from a caller frame into the adapted frame.

    tangent_rows (..., n, amb) must span the same planes as the spectrum's
    base, over its leading axes, and normal_rows their orthogonal
    complements; omega[..., i, alpha] refers to those rows, with the planes'
    leading axes last before (i, alpha) and any further axes in front.
    Returns coefficients usable with the derivative forms.
    """
    lead = spec.mu.shape[:-1]
    E = _rows(tangent_rows, lead)
    Nr = _rows(normal_rows, lead)
    R = spec.tangent_frame.vectors @ _t(E)
    C = spec.normal_frame @ _t(Nr)
    if not _orthonormal(R, 1e-8):
        raise ValueError("tangent rows do not span the spectrum's base plane")
    if not _orthonormal(C, 1e-8):
        raise ValueError("normal rows do not span the plane's complement")
    om = R @ np.asarray(omega, dtype=float) @ _t(C)
    return TangentCoeffs(omega=om, frame=spec.tangent_frame)
