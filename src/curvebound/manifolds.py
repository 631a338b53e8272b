"""Model 3-manifolds and their scalar heat kernels.

Three backends, all with known closed-form or rapidly convergent kernels:

* ``Euclidean3``      K_u(x,y) = (4 pi u)^{-3/2} exp(-d^2/4u)
* ``FlatTorus3``      product of three circle kernels, one per axis
* ``Hyperbolic3``     (4 pi u)^{-3/2} (rho/sinh rho) exp(-u/a^2 - d^2/4u),
                      rho = d/a, upper half-space coordinates

The circle kernel is kept in the circumference-L convention

    K_u(xi) = (1/L) sum_n exp(-4 pi^2 n^2 u / L^2) exp(2 pi i n xi / L)

with a Poisson-resummed image form used below the switch point, so both the
u -> 0 and u -> infinity regimes converge with a handful of terms;
_circle_rows evaluates it for the torus axes and circle_heat_kernel alike.

heat_kernel_grid forms a block from two factors: kernel_geometry holds what
depends on the pairs alone (a heat trace builds it once), kernel_rows what
depends on u alone (a heat trace builds it once per ladder extension, over
all its new panels), and each call on a slice of the rows and a prefix of
the geometry is their product, exponentiated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

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
        ls = tuple(float(c) for c in self.circumferences)
        if len(ls) != 3 or not all(0 < c < math.inf for c in ls):
            raise DomainError("torus circumferences must be three positive finite lengths")
        object.__setattr__(self, "circumferences", ls)  # a tuple of floats, hashable


@dataclass(frozen=True)
class Hyperbolic3:
    """Hyperbolic 3-space of constant curvature -1/a^2, upper half-space model."""

    curvature_radius: float

    def __post_init__(self):
        if not 0 < self.curvature_radius < math.inf:
            raise DomainError("curvature radius must be positive and finite")


ManifoldSpec = Union[Euclidean3, FlatTorus3, Hyperbolic3]


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
    """Geodesic distance between two points, in the metric of pair_displacement."""
    x = _check_point(manifold, x)
    y = _check_point(manifold, y)
    return float(displacement_distance(manifold, pair_displacement(manifold, x, y))[0])


# ---------------------------------------------------------------------------
# series truncation


# a Gaussian factor below e^-GAUSSIAN_TAIL (~4e-18) is negligible: circle
# series terms that far below the largest kept one are dropped, and
# quadrature skips a pair below its boundary-layer floor
GAUSSIAN_TAIL = 40.0

# the image/mode switch in units of L^2: the self-dual point where both sums
# need the same number of terms
POISSON_SWITCH = 1.0 / (4.0 * math.pi)


def _mode_count(u_min, L):
    """Largest n with 4 pi^2 n^2 u_min / L^2 <= GAUSSIAN_TAIL; at most 3 at or above the switch."""
    return int(math.sqrt(GAUSSIAN_TAIL * L * L / (4.0 * math.pi**2 * u_min)))


# ---------------------------------------------------------------------------
# pair displacements and vectorized kernel grids


def pair_displacement(manifold: ManifoldSpec, X, Y):
    """Reduce point pairs to whatever the kernel needs.

    Euclidean/hyperbolic kernels are radial, so the reduction is the geodesic
    distance; the torus kernel wants the three wrapped (minimal-image)
    coordinate differences.  X, Y are (n, 3) arrays.  The hyperbolic distance
    (upper half-space, curvature radius a) solves

        cosh(d/a) = 1 + q,  q = |x-y|^2 / (2 x3 y3),

    evaluated as d = 2 a asinh(sqrt(q/2)): acosh(1 + q) rounds every
    q < 1e-16 to zero.
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


def _log_sinh_ratio(rho):
    """log(rho/sinh rho), finite at any rho >= 0.

    Below rho = 1e-4 it is the log of the series 1 - rho^2/6 + 7 rho^4/360;
    beyond rho = 20 it is log(2 rho) - rho - log1p(-e^{-2 rho}), so that sinh,
    which overflows beyond rho ~ 710, is never formed there.
    """
    rho = np.asarray(rho, dtype=float)
    out = np.empty(rho.shape)
    small, far = rho < 1e-4, rho > 20.0
    r2 = rho[small] ** 2
    out[small] = np.log(1.0 - r2 / 6.0 + 7.0 * r2**2 / 360.0)
    mid = ~(small | far)
    rb = rho[mid]
    out[mid] = np.log(rb / np.sinh(rb))
    rf = rho[far]
    out[far] = np.log(2.0 * rf) - rf - np.log1p(-np.exp(-2.0 * rf))
    return out


@dataclass(frozen=True, eq=False)
class KernelGeometry:
    """The diffusion-time-independent factors of a kernel block, a column per pair.

    rows holds the pair factors of the exponent a(u) d^2 + b(u): d^2 and 1,
    and on Hyperbolic3 also log(rho/sinh rho).  On FlatTorus3, d^2 is |xi|^2,
    and per axis xi is the wrapped separation and cosines[n - 1] is
    cos(2 pi n xi/L) for n = 1.._mode_count(switch), the one row of
    separations that _circle_rows takes for every u.  geometry[:k] is the
    geometry of the first k pairs; np.shape counts pairs, as for a
    displacement batch.  A heat trace builds one, in its own distance order,
    before its first panel, and passes a prefix of it per u-panel.
    """

    rows: np.ndarray
    xi: np.ndarray | None = None
    cosines: np.ndarray | None = None

    @property
    def shape(self):
        return self.rows.shape[1:]

    def __getitem__(self, prefix):
        if self.xi is None:
            return KernelGeometry(self.rows[:, prefix])
        return KernelGeometry(self.rows[:, prefix], self.xi[:, prefix], self.cosines[:, :, prefix])


def kernel_geometry(manifold: ManifoldSpec, disp) -> KernelGeometry:
    """The KernelGeometry of a pair_displacement batch."""
    disp = np.asarray(disp, dtype=float)
    if isinstance(manifold, FlatTorus3):
        ls = np.asarray(manifold.circumferences)[:, None]
        xi = _wrap(np.atleast_2d(disp).T, ls)
        n = 2.0 * math.pi * np.arange(1, _mode_count(POISSON_SWITCH, 1.0) + 1)
        return KernelGeometry(np.stack([np.sum(xi * xi, axis=0), np.ones(xi.shape[1])]), xi,
                              np.cos(n[:, None] * xi[:, None, :] / ls[:, :, None]))
    rows = [disp * disp, np.ones(disp.shape)]
    if isinstance(manifold, Hyperbolic3):
        rows.append(_log_sinh_ratio(disp / manifold.curvature_radius))
    return KernelGeometry(np.array(rows))


# -(3/2) log(4 pi u) above which (4 pi u)^{-3/2} is a row factor (u below
# about 1e-4): in the exponent a(u) d^2 + b(u), the rounding of b costs
# about |b| ulps of the kernel
ROW_SCALE_EXPONENT = 10.0

# np.exp results below e^-708.4 are subnormal and take a slow path
EXP_SUBNORMAL = 708.0

# np.exp returns exactly +0.0 below about -745.13; the margin covers the
# rounding of the exponent and of the wrapped separation
EXP_UNDERFLOW = 750.0

# np.exp overflows above about 709.78: the row factor (4 pi u)^{-3/2} = e^b
# is finite for b <= EXP_OVERFLOW (u above about 3e-207); below that u, b
# stays in the exponent, where any d > 0 takes the kernel to 0
EXP_OVERFLOW = 709.0

# -1/(4u) overflows for a subnormal u (below ~1.4e-309): there a(u) is
# -1/(4 U_NORMAL) ~ -1.1e307, so every d^2 above 1e-303 still takes the
# kernel to exactly 0, and d = 0 keeps e^b = +inf where -inf * 0 made NaN
U_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class KernelRows:
    """The pair-independent factors of a kernel block, a row per diffusion time u.

    The u-side twin of KernelGeometry.  cols holds the exponent columns
    a(u) = -1/(4u) and b(u) = -(3/2) log(4 pi u) (- u/a^2 on Hyperbolic3,
    followed by a column of ones for its log(rho/sinh rho) row), so that
    cols @ geometry.rows is the exponent of the block.  On rows with
    ROW_SCALE_EXPONENT < -(3/2) log(4 pi u) <= EXP_OVERFLOW, (4 pi u)^{-3/2}
    is the row factor scale instead of a term of b (every such factor
    exceeds e^10, and the other rows carry 1); scale is None when no row is
    scaled.  On FlatTorus3 they are the Euclidean factors, for the rows on
    which the torus block is the Euclidean block on |xi|^2; the block orders
    and splits its rows per call.  rows[i:j] is the KernelRows of u[i:j],
    with a scale only if one of its own rows is scaled; np.size, np.shape
    and np.asarray see u.  A heat trace builds one per ladder extension, over
    the nodes of all its new panels, and passes a slice of it per u-panel.
    """

    u: np.ndarray
    cols: np.ndarray
    scale: np.ndarray | None = None

    @property
    def size(self):
        return self.u.size

    @property
    def shape(self):
        return self.u.shape

    def __array__(self, dtype=None, copy=None):
        return np.array(self.u, dtype=dtype, copy=copy)

    @cached_property
    def _scaled_before(self):
        """The count of scaled rows before each row, and after the last."""
        return [0, *np.cumsum(self.scale[:, 0] != 1.0).tolist()]

    def __getitem__(self, rows: slice):
        cols, scale = self.cols, self.scale
        if scale is None:
            return KernelRows(self.u[rows], cols[rows])
        i, j, _ = rows.indices(len(self.u))
        before = self._scaled_before
        return KernelRows(self.u[rows], cols[rows],
                          scale[rows] if before[max(i, j)] > before[i] else None)


def _radial_rows(u, a=None):
    """The KernelRows of u on Euclidean3, or on Hyperbolic3 of curvature radius a."""
    cols = np.ones((u.shape[0], 2 if a is None else 3))
    cols[:, 0] = -0.25 / np.maximum(u, U_NORMAL)
    four_pi_u = 4.0 * math.pi * u
    b = cols[:, 1]
    b[:] = -1.5 * np.log(four_pi_u)
    scaled = (b > ROW_SCALE_EXPONENT) & (b <= EXP_OVERFLOW)
    scale = np.where(scaled, four_pi_u, 1.0)[:, None] ** -1.5 if scaled.any() else None
    b[scaled] = 0.0
    if a is not None:
        b -= u / a**2
    return KernelRows(u, cols, scale)


def kernel_rows(manifold: ManifoldSpec, u) -> KernelRows:
    """The KernelRows of a 1-d array of diffusion times: the one place where u is
    checked, so a DomainError unless u is 1-d and every element is positive
    (NaN is not)."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise DomainError("diffusion times must be a 1-d array")
    if not u.min(initial=math.inf) > 0:  # a NaN fails it too
        raise DomainError("diffusion time must be positive")
    return _radial_rows(u, manifold.curvature_radius if isinstance(manifold, Hyperbolic3) else None)


def _radial_block(r: KernelRows, rows, out=None):
    """The Euclidean or hyperbolic block of KernelRows r and KernelGeometry
    rows: the one (nu x r) @ (r x npairs) product r.cols @ rows,
    exponentiated in place and times r.scale, if any."""
    out = np.matmul(r.cols, rows, out=out)
    np.exp(out, out=out)
    if r.scale is not None:
        out *= r.scale
    return out


def _image_radii(u, x, L):
    """Per-row image radius of an image sum over |xi| <= x: the images within
    e^-GAUSSIAN_TAIL of image 0 at x, and none whose largest value is +0.0.
    Image k is kept on a row iff k L <= x + sqrt(min(x^2 + 4 GAUSSIAN_TAIL u,
    4 EXP_UNDERFLOW u)); ascending in u."""
    return ((x + np.sqrt(np.minimum(x * x + 4.0 * GAUSSIAN_TAIL * u, 4.0 * EXP_UNDERFLOW * u)))
            // L).astype(int)


def _image_sum(out, u, xi, L, radius):
    """sum_{|k| <= radius} exp(-(xi + k L)^2/4u)/sqrt(4 pi u) into out, from k = -radius up.

    xi is one row of separations for every u, or a row per u.  radius is per
    row and ascending, so each image is one block of the last rows.  Each
    column of a row sums to at least image 0 at the row's largest |xi|.  On
    the rows where that is above e^-(EXP_SUBNORMAL - GAUSSIAN_TAIL), an image
    term below e^-EXP_SUBNORMAL is evaluated as that bound: off by less than
    4e-308 and than 4e-18 of the column's sum, and kept off the slow path of
    subnormal and underflowing exp results.  On the other rows (never those
    of a pruned heat trace) every term is exact.
    """
    per_row = xi.ndim == 2
    minus_four_u = -4.0 * u[:, None]
    sq = np.multiply(xi, xi)
    floor = None  # the bound per row, once some row is summed exactly
    if np.max(sq, initial=0.0) > 4.0 * (EXP_SUBNORMAL - GAUSSIAN_TAIL) * u.min():
        deep = np.max(sq, axis=-1, initial=0.0) / -minus_four_u[:, 0]
        floor = np.where(deep > EXP_SUBNORMAL - GAUSSIAN_TAIL, -np.inf, -EXP_SUBNORMAL)[:, None]

    def image(k, a, into):
        """Image k on the rows from a, into `into`."""
        b = a + len(into)
        s = sq[a:b] if per_row else sq
        np.add(xi[a:b] if per_row else xi, k * L, out=s)
        np.divide(np.multiply(s, s, out=s), minus_four_u[a:b], out=into)
        if k:
            np.maximum(into, -EXP_SUBNORMAL if floor is None else floor[a:b], out=into)
        return np.exp(into, out=into)

    first = np.searchsorted(radius, np.arange(1, radius[-1] + 1)).tolist()  # image k's first row
    lo = first[0] if first else len(u)
    image(0, 0, out[:lo])  # the rows that keep image 0 alone
    if first:
        term = np.empty_like(out[lo:])
        out[lo:] = 0.0
        for k in [*range(-len(first), 0), 0, *range(1, len(first) + 1)]:
            row = first[abs(k) - 1] if k else lo
            out[row:] += image(k, row, term[row - lo:])
    out /= np.sqrt(4.0 * math.pi * u)[:, None]


def _mode_sum(out, u, cosines, L):
    """(1/L) (1 + sum_n c_n(u) cos(2 pi n xi/L)) into out, from n = 1, with
    c_n = 2 exp(-4 pi^2 n^2 u/L^2) on the rows where that is above
    e^-GAUSSIAN_TAIL.  u is ascending, so those rows are a prefix;
    cosines[n - 1] is cos(2 pi n xi/L) on one row of separations for every
    u, or on a row per u (at least for the rows that keep mode 1)."""
    n = np.arange(1, cosines.shape[0] + 1)
    expo = np.multiply.outer(u, -4.0 * math.pi**2 * n**2) / L**2
    live = np.sum(expo >= -GAUSSIAN_TAIL, axis=0).tolist()  # rows that keep mode n
    rows = live[0] if live else 0
    coef = np.zeros(expo.shape)
    np.exp(expo, out=coef, where=expo >= -GAUSSIAN_TAIL)
    coef *= 2.0
    out[rows:] = 1.0 / L
    out[:rows] = 1.0
    term = np.empty_like(out[:rows])
    for k, rows_k in enumerate(live):
        t, c = term[:rows_k], cosines[k]
        t[...] = c[:rows_k] if c.ndim == 2 else c  # a row copy and a column product
        t *= coef[:rows_k, k, None]  # are faster than one broadcast product
        out[:rows_k] += t
    out[:rows] /= L


def _circle_rows(out, u, xi, x, cosines, L):
    """Circle kernel rows into out: the rows below u = POISSON_SWITCH * L^2
    are an image sum (_image_sum) whose radius is per row (_image_radii at
    the largest |xi|, x), the others a mode sum (_mode_sum).

    The image rows come first, ascending in radius, and the mode rows after
    them, ascending in u.  xi is the wrapped separation on one row for every
    u, or on a row per image row (and x per image row too); cosines are
    _mode_sum's.
    """
    m = int(np.count_nonzero(u < POISSON_SWITCH * L * L))
    if m:
        _image_sum(out[:m], u[:m], xi, L, _image_radii(u[:m], x, L))
    if m < len(u):
        _mode_sum(out[m:], u[m:], cosines, L)


def circle_heat_kernel(u, xi, L):
    """Heat kernel on a circle of circumference L at arc separation xi.

    Broadcasts over array u and xi in two layouts: a block with a row per u
    along its last axis takes one row of separations for every u where xi
    varies along the last axis alone, and a row per u otherwise; where u
    itself varies along the last axis, each element is a row of one.  The
    rows are ordered for _circle_rows once, filled as one block and scattered
    back.  Every dropped term is below e^-GAUSSIAN_TAIL (~4e-18) of the
    largest kept one, and an image sum keeps no image that is +0.0 at every
    column.
    """
    if not L > 0:
        raise DomainError("circumference must be positive")
    u_arr = np.asarray(u, dtype=float)
    xi_arr = np.asarray(xi, dtype=float)
    if not np.all(u_arr > 0):
        raise DomainError("diffusion time must be positive")
    if u_arr.ndim and u_arr.shape[-1] != 1:  # u varies along the last axis: a row per element
        return circle_heat_kernel(u_arr[..., None], xi_arr[..., None], L)[..., 0]
    shape = np.broadcast_shapes(u_arr.shape, xi_arr.shape)
    u_rows = np.broadcast_to(u_arr, shape[:-1] + (1,)).reshape(-1)
    if all(d == 1 for d in xi_arr.shape[:-1]):  # one row of separations for every u
        xi_rows = np.broadcast_to(xi_arr.reshape(-1), shape[-1:] or (1,))
    else:
        xi_rows = np.broadcast_to(xi_arr, shape).reshape(len(u_rows), shape[-1])
    per_row = xi_rows.ndim == 2
    image = u_rows < POISSON_SWITCH * L * L
    rows, modes = np.flatnonzero(image), np.flatnonzero(~image)
    wrapped = _wrap(xi_rows[rows] if per_row else xi_rows, L)
    x = np.max(np.abs(wrapped), axis=-1, initial=0.0)
    by = np.argsort(_image_radii(u_rows[rows], x, L), kind="stable")
    modes = modes[np.argsort(u_rows[modes], kind="stable")]
    order = np.concatenate([rows[by], modes])
    # cosines on the rows that keep mode 1 alone (_mode_sum reads no others),
    # and on one row for all of them where one row of separations serves every u
    live = modes[u_rows[modes] * (-4.0 * math.pi**2) / L**2 >= -GAUSSIAN_TAIL]
    n = 2.0 * math.pi * np.arange(1, _mode_count(POISSON_SWITCH, 1.0) + 1)
    cosines = np.multiply.outer(n, xi_rows[live] if per_row else xi_rows[None][:len(live)])
    cosines /= L
    block = np.empty((len(u_rows), xi_rows.shape[-1]))
    _circle_rows(block, u_rows[order], wrapped[by] if per_row else wrapped, x[by] if per_row else x,
                 np.cos(cosines, out=cosines), L)
    out = np.empty_like(block)
    out[order] = block
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _torus_block(ls, r: KernelRows, g: KernelGeometry):
    """FlatTorus3 kernel block: a product of circle kernels, one per axis.

    Per axis, _circle_rows fills the rows in ascending u on the geometry's
    one row of separations, with the largest |xi| of this call.  Rows on
    which every axis keeps image 0 alone are the Euclidean block on |xi|^2,
    from the Euclidean factors that r carries.
    """
    u = r.u
    out = np.empty((u.shape[0], g.shape[0]))
    if not out.size:
        return out
    x = np.abs(g.xi).max(axis=1).tolist()
    flat = min(max(L * (L - 2.0 * xj) / (4.0 * GAUSSIAN_TAIL),
                   (L - xj) ** 2 / (4.0 * EXP_UNDERFLOW)) for L, xj in zip(ls, x))
    if u.max() < flat:
        return _radial_block(r, g.rows, out=out)
    order = None if np.all(u[1:] >= u[:-1]) else np.argsort(u)
    if order is not None:
        r = KernelRows(u[order], r.cols[order], None if r.scale is None else r.scale[order])
        u = r.u
    flat = int(np.searchsorted(u, flat))
    if flat:
        _radial_block(r[:flat], g.rows, out=out[:flat])
    rest = factor = out[flat:]
    for axis, (L, xj) in enumerate(zip(ls, x)):
        if axis == 1:
            factor = np.empty_like(rest)
        _circle_rows(factor, u[flat:], g.xi[axis], xj, g.cosines[axis], L)
        if axis:
            rest *= factor
    if order is None:
        return out
    block, out = out, np.empty_like(out)
    out[order] = block
    return out


def heat_kernel_grid(manifold: ManifoldSpec, u, disp):
    """Kernel values on a (u grid) x (displacement batch) product.

    u is (nu,), or is its KernelRows (which a heat trace builds once per
    ladder extension and passes a slice of per u-panel); disp comes from
    pair_displacement, or is its KernelGeometry (which a heat trace builds
    once and passes a prefix of per u-panel).  Returns (nu, npairs).
    """
    r = u if isinstance(u, KernelRows) else kernel_rows(manifold, u)
    g = disp if isinstance(disp, KernelGeometry) else kernel_geometry(manifold, disp)
    if isinstance(manifold, FlatTorus3):
        return _torus_block(manifold.circumferences, r, g)
    return _radial_block(r, g.rows)


def heat_kernel(manifold: ManifoldSpec, u: float, x, y) -> float:
    """Scalar heat kernel K_u(x, y) on the given manifold."""
    x = _check_point(manifold, x)
    y = _check_point(manifold, y)
    disp = pair_displacement(manifold, x[None, :], y[None, :])
    return float(heat_kernel_grid(manifold, np.array([u]), disp)[0, 0])
