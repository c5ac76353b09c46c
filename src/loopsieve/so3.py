"""Rotation algebra on SO(3).

Hat/vee operators, exponential and logarithm maps, the geodesic angle,
sampling of isotropic rotation noise and projection onto SO(3). All angles
are in radians. Rotations are plain 3x3 numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

# Below this angle the Rodrigues / log coefficients switch to Taylor forms.
SMALL_ANGLE = 1e-7
# Within this of pi the log map switches to the symmetric-part branch.
NEAR_PI = 1e-3
SKEW_TOL = 1e-8
ORTHONORMAL_TOL = 1e-9

_EYE3 = np.eye(3)


def hat(eps) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so hat(e) @ u == cross(e, u)."""
    e = np.asarray(eps, dtype=float)
    if e.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {e.shape}")
    if not np.all(np.isfinite(e)):
        raise ValueError("tangent vector must be finite")
    return np.array(
        [
            [0.0, -e[2], e[1]],
            [e[2], 0.0, -e[0]],
            [-e[1], e[0], 0.0],
        ]
    )


def vee(m) -> np.ndarray:
    """Inverse of :func:`hat`. Rejects matrices that are not skew-symmetric."""
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    if np.linalg.norm(a + a.T) >= SKEW_TOL:
        raise ValueError("matrix is not skew-symmetric within tolerance")
    # Average the antisymmetric pairs so nearly-skew inputs round-trip cleanly.
    return 0.5 * np.array([a[2, 1] - a[1, 2], a[0, 2] - a[2, 0], a[1, 0] - a[0, 1]])


def exp_so3(eps) -> np.ndarray:
    """Exponential map: rotation by angle ||eps|| about axis eps/||eps||."""
    e = np.asarray(eps, dtype=float)
    if e.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {e.shape}")
    theta = float(np.linalg.norm(e))
    w = hat(e)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return _EYE3 + a * w + b * (w @ w)


def exp_so3_many(eps: np.ndarray) -> np.ndarray:
    """Vectorized :func:`exp_so3` for an (n, 3) array; returns (n, 3, 3)."""
    e = np.asarray(eps, dtype=float)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {e.shape}")
    n = e.shape[0]
    theta = np.linalg.norm(e, axis=1)
    small = theta < SMALL_ANGLE
    # Guard the divisions; small entries are overwritten by the Taylor forms.
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta**2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - theta**2 / 24.0, (1.0 - np.cos(safe)) / safe**2)
    w = np.zeros((n, 3, 3))
    w[:, 0, 1] = -e[:, 2]
    w[:, 0, 2] = e[:, 1]
    w[:, 1, 0] = e[:, 2]
    w[:, 1, 2] = -e[:, 0]
    w[:, 2, 0] = -e[:, 1]
    w[:, 2, 1] = e[:, 0]
    ww = np.einsum("nij,njk->nik", w, w)
    return _EYE3[None, :, :] + a[:, None, None] * w + b[:, None, None] * ww


def log_so3(r) -> np.ndarray:
    """Logarithm map: tangent vector with norm in [0, pi].

    Near the antipodal case (angle pi) the axis is recovered from the
    symmetric part of the rotation; either axis sign is a valid logarithm
    at exactly pi.
    """
    a = np.asarray(r, dtype=float)
    _check_rotation_shape(a)
    antisym = 0.5 * np.array([a[2, 1] - a[1, 2], a[0, 2] - a[2, 0], a[1, 0] - a[0, 1]])
    cos_theta = float(np.clip((np.trace(a) - 1.0) / 2.0, -1.0, 1.0))
    sin_theta = float(np.linalg.norm(antisym))
    theta = float(np.arctan2(sin_theta, cos_theta))
    if theta < SMALL_ANGLE:
        return antisym
    if theta > np.pi - NEAR_PI:
        # R = cos(t) I + (1 - cos(t)) a a^T + sin(t) hat(a); the symmetric
        # part isolates a a^T, which is well conditioned near pi.
        outer = (0.5 * (a + a.T) - cos_theta * _EYE3) / (1.0 - cos_theta)
        k = int(np.argmax(np.diag(outer)))
        axis = outer[:, k] / np.sqrt(max(outer[k, k], 1e-300))
        axis = axis / np.linalg.norm(axis)
        if sin_theta > 1e-12 and float(axis @ antisym) < 0.0:
            axis = -axis
        return theta * axis
    return (theta / sin_theta) * antisym


def geodesic_angle(r) -> float:
    """Rotation angle of a rotation matrix: arccos((tr - 1)/2), in [0, pi]."""
    a = np.asarray(r, dtype=float)
    _check_rotation_shape(a)
    return float(np.arccos(np.clip((np.trace(a) - 1.0) / 2.0, -1.0, 1.0)))


def geodesic_angle_many(rs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`geodesic_angle` for an (n, 3, 3) array."""
    a = np.asarray(rs, dtype=float)
    if a.ndim != 3 or a.shape[1:] != (3, 3):
        raise ValueError(f"expected an (n, 3, 3) array, got shape {a.shape}")
    traces = np.trace(a, axis1=1, axis2=2)
    return np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))


def sample_noisy_rotation(r, sigma: float, rng) -> np.ndarray:
    """Left-perturb a rotation by exp(hat(eps)) with eps ~ N(0, sigma^2 I3).

    ``rng`` may be an integer seed or a numpy Generator; results are
    deterministic for a given seed.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    a = require_rotation(r, what="r")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    eps = gen.normal(0.0, sigma, size=3) if sigma > 0 else np.zeros(3)
    return exp_so3(eps) @ a


def orthonormal_defects(r) -> tuple[float, float]:
    """(|R R^T - I| in Frobenius norm, det R) of a 3x3 matrix, on Python
    floats: numpy's per-call cost is most of the work at this size, and a
    non-finite or overflowing entry yields inf or nan without a warning."""
    (a, b, c), (d, e, f), (g, h, i) = np.asarray(r, dtype=float).tolist()
    # R R^T - I is symmetric: its off-diagonal entries count twice
    d00 = a * a + b * b + c * c - 1.0
    d11 = d * d + e * e + f * f - 1.0
    d22 = g * g + h * h + i * i - 1.0
    d01 = a * d + b * e + c * f
    d02 = a * g + b * h + c * i
    d12 = d * g + e * h + f * i
    gap = math.sqrt(d00 * d00 + d11 * d11 + d22 * d22 + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12))
    return gap, a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def is_rotation(r, tol: float = ORTHONORMAL_TOL) -> bool:
    """True if r is orthonormal with det +1, both within tol (Frobenius).
    A matrix with a non-finite entry is not a rotation."""
    if np.shape(r) != (3, 3):
        return False
    gap, det = orthonormal_defects(r)
    # nan fails both comparisons
    return gap <= tol and abs(det - 1.0) <= tol


def require_rotation(r, tol: float = ORTHONORMAL_TOL, what: str = "matrix") -> np.ndarray:
    a = np.asarray(r, dtype=float)
    if not is_rotation(a, tol):
        raise ValueError(f"{what} is not a rotation matrix within tolerance {tol}")
    return a


def project_to_so3(m) -> np.ndarray:
    """Nearest rotation matrix in Frobenius norm (polar decomposition)."""
    a = np.asarray(m, dtype=float)
    _check_rotation_shape(a)
    u, _, vt = np.linalg.svd(a)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def _check_rotation_shape(a: np.ndarray) -> None:
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
