"""Model 3-manifolds and their scalar heat kernels.

Three backends, all with known closed-form or rapidly convergent kernels:

* ``Euclidean3``      K_u(x,y) = (4 pi u)^{-3/2} exp(-d^2/4u)
* ``FlatTorus3``      product of three circle kernels, one per axis
* ``Hyperbolic3``     (4 pi u)^{-3/2} (rho/sinh rho) exp(-u/a^2 - d^2/4u),
                      rho = d/a, upper half-space coordinates

The circle kernel is kept in the circumference-L convention

    K_u(xi) = (1/L) sum_n exp(-4 pi^2 n^2 u / L^2) exp(2 pi i n xi / L)

with a Poisson-resummed image form used below the switch point, so both the
u -> 0 and u -> infinity regimes converge with a handful of terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_SQRT_4PI = math.sqrt(4.0 * math.pi)


class DomainError(ValueError):
    """Input outside the operation's stated domain."""


@dataclass(frozen=True)
class Euclidean3:
    """Flat R^3."""


@dataclass(frozen=True)
class FlatTorus3:
    """Flat torus R^3 / (l1 Z x l2 Z x l3 Z)."""

    circumferences: tuple[float, float, float]

    def __post_init__(self):
        if len(self.circumferences) != 3 or any(c <= 0 for c in self.circumferences):
            raise DomainError("torus circumferences must be three positive lengths")


@dataclass(frozen=True)
class Hyperbolic3:
    """Hyperbolic 3-space of constant curvature -1/a^2, upper half-space model."""

    curvature_radius: float

    def __post_init__(self):
        if self.curvature_radius <= 0:
            raise DomainError("curvature radius must be positive")


ManifoldSpec = Union[Euclidean3, FlatTorus3, Hyperbolic3]


@dataclass(frozen=True)
class KernelSeriesConfig:
    """Truncation control for the torus/circle kernel series.

    poisson_switch_u is in units of L^2.  The default 1/(4 pi) is the
    self-dual point where image and spectral sums need the same number of
    terms; with 6 terms each the truncation tail at the switch is ~1e-40.
    """

    image_sum_radius: int = 6
    spectral_terms: int = 6
    poisson_switch_u: float = 1.0 / (4.0 * math.pi)

    def __post_init__(self):
        if self.image_sum_radius < 1 or self.spectral_terms < 1:
            raise DomainError("series truncations must be >= 1")
        if self.poisson_switch_u <= 0:
            raise DomainError("poisson_switch_u must be positive")


DEFAULT_SERIES = KernelSeriesConfig()


def volume(manifold: ManifoldSpec) -> float:
    """Total volume; inf for the noncompact backends."""
    if isinstance(manifold, FlatTorus3):
        l1, l2, l3 = manifold.circumferences
        return l1 * l2 * l3
    return math.inf


def _check_point(manifold, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise DomainError("points are 3-vectors")
    if isinstance(manifold, Hyperbolic3) and x[2] <= 0:
        raise DomainError("upper half-space requires x3 > 0")
    return x


def _wrap(delta, period):
    """Reduce a coordinate difference to the symmetric fundamental interval."""
    return (delta + 0.5 * period) % period - 0.5 * period


def geodesic_distance(manifold: ManifoldSpec, x, y) -> float:
    """Geodesic distance between two points.

    Euclidean: |x-y|.  Torus: per-axis minimal image.  Hyperbolic (upper
    half-space, curvature radius a):

        cosh(d/a) = 1 + q,  q = |x-y|^2 / (2 x3 y3),

    evaluated as d = 2 a asinh(sqrt(q/2)): acosh(1 + q) rounds every
    q < 1e-16 to zero.
    """
    x = _check_point(manifold, x)
    y = _check_point(manifold, y)
    if isinstance(manifold, Euclidean3):
        return float(np.linalg.norm(x - y))
    if isinstance(manifold, FlatTorus3):
        d = [_wrap(x[i] - y[i], manifold.circumferences[i]) for i in range(3)]
        return float(math.hypot(*d))
    a = manifold.curvature_radius
    q = float(np.sum((x - y) ** 2)) / (2.0 * x[2] * y[2])
    return 2.0 * a * math.asinh(math.sqrt(0.5 * q))


# ---------------------------------------------------------------------------
# circle kernel (the torus building block and the rg counterterm kernel)


def _circle_spectral(u, xi, L, terms):
    """Mode sum, accurate for u >~ L^2/(4 pi).  u column, xi row."""
    acc = np.ones(np.broadcast_shapes(u.shape, xi.shape))
    for n in range(1, terms + 1):
        acc = acc + 2.0 * np.exp(-4.0 * math.pi**2 * n**2 * u / L**2) * np.cos(
            2.0 * math.pi * n * xi / L
        )
    return acc / L


def _circle_images(u, xi, L, radius):
    """Gaussian image sum, accurate for u <~ L^2/(4 pi)."""
    xi = _wrap(xi, L)
    acc = np.zeros(np.broadcast_shapes(u.shape, xi.shape))
    for k in range(-radius, radius + 1):
        acc = acc + np.exp(-((xi + k * L) ** 2) / (4.0 * u))
    return acc / np.sqrt(4.0 * math.pi * u)


def circle_heat_kernel(u, xi, L, cfg: KernelSeriesConfig = DEFAULT_SERIES):
    """Heat kernel on a circle of circumference L at arc separation xi.

    Broadcasts over array u and xi.  Switches between the spectral and the
    Poisson-resummed image representation at u = poisson_switch_u * L^2.
    """
    if L <= 0:
        raise DomainError("circumference must be positive")
    u_arr = np.asarray(u, dtype=float)
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(u_arr <= 0):
        raise DomainError("diffusion time must be positive")
    scalar = u_arr.ndim == 0 and xi_arr.ndim == 0
    u_b, xi_b = np.broadcast_arrays(u_arr, xi_arr)
    out = np.empty(u_b.shape)
    hi = u_b >= cfg.poisson_switch_u * L**2
    if np.any(hi):
        out[hi] = _circle_spectral(u_b[hi], xi_b[hi], L, cfg.spectral_terms)
    if np.any(~hi):
        out[~hi] = _circle_images(u_b[~hi], xi_b[~hi], L, cfg.image_sum_radius)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# pair displacements and vectorized kernel grids


def pair_displacement(manifold: ManifoldSpec, X, Y):
    """Reduce point pairs to whatever the kernel needs.

    Euclidean/hyperbolic kernels are radial, so the reduction is the geodesic
    distance; the torus kernel wants the three wrapped coordinate
    differences.  X, Y are (n, 3) arrays.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if isinstance(manifold, Euclidean3):
        return np.linalg.norm(X - Y, axis=1)
    if isinstance(manifold, FlatTorus3):
        ls = np.asarray(manifold.circumferences)
        return _wrap(X - Y, ls[None, :])
    a = manifold.curvature_radius
    if np.any(X[:, 2] <= 0) or np.any(Y[:, 2] <= 0):
        raise DomainError("upper half-space requires x3 > 0")
    q = np.sum((X - Y) ** 2, axis=1) / (2.0 * X[:, 2] * Y[:, 2])
    return 2.0 * a * np.arcsinh(np.sqrt(0.5 * q))


def displacement_distance(manifold: ManifoldSpec, disp):
    """Geodesic distance of a precomputed displacement batch."""
    if isinstance(manifold, FlatTorus3):
        return np.linalg.norm(disp, axis=1)
    return np.asarray(disp)


def _sinh_ratio(rho):
    """rho/sinh rho with the small-argument series below 1e-4."""
    rho = np.asarray(rho, dtype=float)
    out = np.empty(rho.shape)
    small = rho < 1e-4
    r2 = rho[small] ** 2
    out[small] = 1.0 - r2 / 6.0 + 7.0 * r2**2 / 360.0
    rb = rho[~small]
    out[~small] = rb / np.sinh(rb)
    return out


def heat_kernel_grid(manifold: ManifoldSpec, u, disp, cfg: KernelSeriesConfig = DEFAULT_SERIES):
    """Kernel values on a (u grid) x (displacement batch) product.

    u is (nu,), disp comes from pair_displacement; returns (nu, npairs).
    """
    u = np.asarray(u, dtype=float)[:, None]
    if isinstance(manifold, Euclidean3):
        d2 = np.asarray(disp, dtype=float)[None, :] ** 2
        return np.exp(-d2 / (4.0 * u)) / (_SQRT_4PI * np.sqrt(u)) ** 3
    if isinstance(manifold, FlatTorus3):
        out = None
        for axis in range(3):
            k = circle_heat_kernel(
                u, np.asarray(disp)[None, :, axis], manifold.circumferences[axis], cfg
            )
            out = k if out is None else out * k
        return out
    a = manifold.curvature_radius
    d = np.asarray(disp, dtype=float)[None, :]
    ratio = _sinh_ratio(np.asarray(disp, dtype=float) / a)[None, :]
    gauss = np.exp(-(d**2) / (4.0 * u) - u / a**2)
    return ratio * gauss / (_SQRT_4PI * np.sqrt(u)) ** 3


def heat_kernel(manifold: ManifoldSpec, u: float, x, y, cfg: KernelSeriesConfig = DEFAULT_SERIES) -> float:
    """Scalar heat kernel K_u(x, y) on the given manifold."""
    if u <= 0:
        raise DomainError("diffusion time must be positive")
    x = _check_point(manifold, x)
    y = _check_point(manifold, y)
    disp = pair_displacement(manifold, x[None, :], y[None, :])
    return float(heat_kernel_grid(manifold, np.array([u]), disp, cfg)[0, 0])
