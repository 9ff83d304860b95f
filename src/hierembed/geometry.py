"""Manifold primitives and order-violation energies.

Three embedding flavors share a single energy interface:

- ``oe``: order embeddings in Euclidean space. The energy is the hinge
  ``||max(0, x - y)||`` which vanishes exactly when ``y`` dominates ``x``
  coordinatewise (reversed product order).
- ``ec``: Euclidean entailment cones. Each point ``x`` carries a cone of
  half-angle ``psi(x) = arcsin(K / ||x||)``; the energy is the angle by
  which ``y`` falls outside the cone, ``max(0, Xi(x, y) - psi(x))``.
- ``hc``: entailment cones on the open unit (Poincare) ball, with
  ``psi(x) = arcsin(K (1 - ||x||^2) / ||x||)`` and the hyperbolic axis
  angle ``Xi``.

Scalar functions validate their inputs and raise :class:`GeometryError`
on domain violations, then evaluate the batch kernels on one row, so each
formula is written once. The batch kernels (``energies``,
``energies_and_gradients``, ``project_rows``, ``exp_map_rows``,
``riemannian_rescale_rows``) clamp instead of raising; they are the hot
path used by the trainers, which keep all points inside the cone domain by
projection. The batch energy kernel ``energies`` broadcasts over leading axes:
row-aligned ``(n, d)`` pairs, or all pairs via ``X[:, None]``, ``Y[None]``.

``energies_and_gradients`` computes every energy but runs the gradient
formulas only on *live* rows (:func:`live_rows`): ``E > 0``, and
``E < upper`` where the optional per-row bound ``upper`` is given. The
max-margin trainer passes +inf for positives and the margin for negatives,
so satisfied positives and flat hinges cost no gradient arithmetic. The
other gradient rows are exactly +0.0, so a caller that accumulates only the
live rows gets the same sums, bit for bit, as one that adds them all:
adding +-0.0 to an accumulator that starts at +0.0 changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Guard for denominators and for the sqrt in d(arccos)/dx.
_TINY = 1e-15
# Padding used when clipping norms back into the cone domain.
DOMAIN_PAD = 1e-5
# Cap on per-pair gradient row norms. The aperture derivative diverges as a
# point approaches the domain floor and the axis-angle derivative at the
# arccos clamp; one such spike poisons Adam's second moments for thousands
# of steps. In-domain gradients away from these singular shells stay well
# under the cap.
GRAD_CLIP = 50.0

KIND_TAGS = {"oe": 0, "ec": 1, "hc": 2}
TAG_KINDS = {v: k for k, v in KIND_TAGS.items()}


class GeometryError(ValueError):
    """Domain violation or singular configuration in a geometric kernel."""


@dataclass(frozen=True)
class ConeParams:
    """Embedding-flavor parameters: kind tag, aperture constant, options.

    ``epsilon`` is the smallest apex norm keeping the aperture defined:
    ``K`` for Euclidean cones (arcsin argument <= 1) and the positive root
    of ``K (1 - r^2) = r`` for hyperbolic cones. Order embeddings have no
    domain floor.
    """

    kind: str = "ec"
    k: float = 0.1
    oe_squared: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KIND_TAGS:
            raise GeometryError(f"unknown geometry kind {self.kind!r}")
        if self.kind != "oe" and self.k <= 0:
            raise GeometryError("aperture constant K must be positive")

    @property
    def epsilon(self) -> float:
        if self.kind == "ec":
            return self.k
        if self.kind == "hc":
            return (-1.0 + math.sqrt(1.0 + 4.0 * self.k * self.k)) / (2.0 * self.k)
        return 0.0

    @property
    def norm_max(self) -> float:
        """Largest admissible norm (unit ball for both cone flavors)."""
        return math.inf if self.kind == "oe" else 1.0


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise GeometryError(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xv = _as_vector(x, "x")
    yv = _as_vector(y, "y")
    if xv.shape != yv.shape:
        raise GeometryError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    return xv, yv


# ---------------------------------------------------------------------------
# Scalar operations: domain checks, then the batch kernels on one row
# ---------------------------------------------------------------------------

def _check_axis(xv: np.ndarray, yv: np.ndarray, kind: str) -> None:
    """Axis-angle domain: apex off the origin, ``y != x``, on the ball both inside."""
    if kind == "hc" and max(float(np.dot(xv, xv)), float(np.dot(yv, yv))) >= 1.0:
        raise GeometryError("points must lie strictly inside the unit ball")
    if float(np.linalg.norm(xv)) < _TINY:
        raise GeometryError("cone axis undefined at the origin")
    if float(np.linalg.norm(xv - yv)) < _TINY:
        raise GeometryError("axis angle undefined for y == x")


def _check_aperture(xv: np.ndarray, p: ConeParams) -> np.ndarray:
    """The apex's row norm, checked against the aperture's domain."""
    nx = _safe(np.linalg.norm(xv[None, :], axis=1))
    if p.kind == "hc" and nx[0] >= 1.0:
        raise GeometryError("point not inside the unit ball")
    if nx[0] < p.epsilon - (1e-12 if p.kind == "hc" else 0.0):
        raise GeometryError(f"norm {nx[0]:.6g} below aperture domain floor {p.epsilon:.6g}")
    return nx


def oe_energy(x, y, squared: bool = False) -> float:
    """Order-violation energy ``||max(0, x - y)||``.

    Zero exactly when every coordinate of ``y`` is >= the matching
    coordinate of ``x``. ``squared`` switches to the squared norm.
    """
    xv, yv = _pair(x, y)
    return float(energies(xv, yv, ConeParams("oe", oe_squared=squared))[0])


def euclid_xi(x, y) -> float:
    """Angle at ``x`` between the cone axis (direction of ``x``) and ``y``."""
    xv, yv = _pair(x, y)
    _check_axis(xv, yv, "ec")
    return float(_euclid_xi_batch(xv[None, :], yv[None, :])[0][0])


def euclid_aperture(x, p: ConeParams) -> float:
    """Cone half-angle ``arcsin(K / ||x||)``; requires ``||x|| >= K``."""
    q = ConeParams("ec", p.k)
    return float(_aperture(_check_aperture(_as_vector(x, "x"), q), q)[0][0])


def hyper_aperture(x, p: ConeParams) -> float:
    """Cone half-angle ``arcsin(K (1 - ||x||^2) / ||x||)`` on the ball."""
    q = ConeParams("hc", p.k)
    return float(_aperture(_check_aperture(_as_vector(x, "x"), q), q)[0][0])


def poincare_distance(x, y) -> float:
    """Geodesic distance on the Poincare ball."""
    xv, yv = _pair(x, y)
    nx2 = float(np.dot(xv, xv))
    ny2 = float(np.dot(yv, yv))
    if nx2 >= 1.0 or ny2 >= 1.0:
        raise GeometryError("points must lie strictly inside the unit ball")
    d2 = float(np.dot(xv - yv, xv - yv))
    arg = 1.0 + 2.0 * d2 / ((1.0 - nx2) * (1.0 - ny2))
    return float(math.acosh(max(1.0, arg)))


def hyper_xi(x, y) -> float:
    """Angle at ``x`` between the hyperbolic cone axis and the geodesic to ``y``."""
    xv, yv = _pair(x, y)
    _check_axis(xv, yv, "hc")
    return float(_hyper_xi_batch(xv[None, :], yv[None, :])[0][0])


def cone_energy(x, y, p: ConeParams) -> float:
    """Angular cone violation ``max(0, Xi(x, y) - psi(x))``.

    Dispatches the axis angle and aperture by geometry; ``oe`` falls back
    to the order-embedding hinge so that all flavors share one entry point.
    """
    xv, yv = _pair(x, y)
    if p.kind != "oe":
        _check_axis(xv, yv, p.kind)
        _check_aperture(xv, p)
    return float(energies(xv, yv, p)[0])


def exp_map(x, v) -> np.ndarray:
    """Exponential map on the Poincare ball at ``x`` applied to tangent ``v``.

    At the origin this reduces to ``tanh(||v||) * v / ||v||``. The output is
    always strictly inside the ball; ``v = 0`` returns ``x`` exactly.
    """
    xv, vv = _pair(x, v)
    if float(np.dot(xv, xv)) >= 1.0:
        raise GeometryError("base point must lie strictly inside the unit ball")
    out = exp_map_rows(xv, vv)[0]
    # the rows' clamp reads an axis-1 norm, which can sit one ulp below the
    # 1-D norm of the same row
    n = float(np.linalg.norm(out))
    if n >= 1.0:
        out *= (1.0 - 1e-12) / n
    return out


def riemannian_rescale(u, g) -> np.ndarray:
    """Euclidean-to-Riemannian gradient rescale on the ball.

    Multiplies by ``(1/lambda_u)^2 = ((1 - ||u||^2) / 2)^2``, the inverse
    of the conformal metric factor squared.
    """
    uv, gv = _pair(u, g)
    if float(np.dot(uv, uv)) >= 1.0:
        raise GeometryError("point must lie strictly inside the unit ball")
    return riemannian_rescale_rows(uv, gv)[0]


def project_to_domain(x, p: ConeParams, rng: np.random.Generator | None = None) -> np.ndarray:
    """Clip a point's norm into the cone domain, keeping its direction.

    Norms are forced into ``[epsilon + pad, norm_max - pad]`` with
    ``pad = 1e-5``. A zero vector gets a random direction (from ``rng``,
    or a fixed-seed generator) at the lower bound. Order embeddings are
    unconstrained and pass through unchanged.
    """
    return project_rows(_as_vector(x, "x"), p, rng)[0]


def energy_gradients(x, y, p: ConeParams) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients ``(dE/dx, dE/dy)`` of the pair energy.

    The hinge subgradient at kinks is zero, so order-satisfied pairs are
    stationary.
    """
    xv, yv = _pair(x, y)
    _, gx, gy = energies_and_gradients(xv[None, :], yv[None, :], p)
    return gx[0], gy[0]


# ---------------------------------------------------------------------------
# Batch kernels
# ---------------------------------------------------------------------------

def _rows(a) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=float))


def energies(X, Y, p: ConeParams) -> np.ndarray:
    """Pair energies over the last axis, broadcast over leading axes: row-aligned
    (n, d) pairs give (n,), all pairs ``X[:, None]``, ``Y[None]`` give (n, N).

    The kernels overwrite each pair-sized intermediate once it is dead, so an
    all-pairs call holds at most four (n, N) arrays for ``hc``, and one
    (n, N, d) difference plus a few (n, N) arrays for ``oe`` and ``ec``.
    """
    X, Y = _rows(X), _rows(Y)
    if p.kind == "oe":
        return _oe_batch(X, Y, p)[0]
    xi = (_euclid_xi_batch if p.kind == "ec" else _hyper_xi_batch)(X, Y, terms=False)
    psi, _ = _aperture(_safe(np.linalg.norm(X, axis=-1)), p)
    xi -= psi
    return np.maximum(0.0, xi, out=xi)


def _safe(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, _TINY)


def _aperture(nx: np.ndarray, p: ConeParams, sq: np.ndarray | None = None):
    """Cone half-angles and their clipped arcsin arguments from apex norms.

    ``sq`` is the squared norm of hyperbolic apexes; it defaults to
    ``nx * nx``, and a kernel that already holds ``||x||^2`` passes it.
    """
    if p.kind == "ec":
        h = np.clip(p.k / nx, -1.0, 1.0)
    else:
        h = np.clip(p.k * (1.0 - (nx * nx if sq is None else sq)) / nx, -1.0, 1.0)
    return np.arcsin(h), h


def _clip_rows(g: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(g, axis=1)
    over = norms > GRAD_CLIP
    if np.any(over):
        g = g.copy()
        g[over] *= (GRAD_CLIP / norms[over])[:, None]
    return g


def _oe_batch(X, Y, p: ConeParams):
    """Order-violation energies and the hinge terms ``max(0, x - y)``."""
    d = np.subtract(X, Y)
    np.maximum(d, 0.0, out=d)
    sq = np.einsum("...j,...j->...", d, d)
    return (sq if p.oe_squared else np.sqrt(sq, out=sq)), d


# The axis-angle kernels return the angles and, with ``terms``, the
# intermediates that the gradients read. With ``terms=False`` they return the
# angles alone, and a result is written over an intermediate that is dead by
# then (``out=None if terms else dead``). Either way each element goes through
# the same operations in the same order, so the angles are the same bits.

def _euclid_xi_batch(X, Y, terms: bool = True):
    """Axis angles and intermediates for the Euclidean cone batch."""
    a = np.einsum("...j,...j->...", X, X)
    b = np.einsum("...j,...j->...", Y, Y)
    diff = np.subtract(X, Y)  # the gradients take x - y again on their live rows
    m = np.einsum("...j,...j->...", diff, diff)
    del diff
    nx = _safe(np.sqrt(a))
    u = np.subtract(b, a)
    u -= m
    u *= 0.5  # equals <x, y> - ||x||^2
    dxy = np.sqrt(m, out=m)
    np.maximum(dxy, _TINY, out=dxy)
    v = np.multiply(nx, dxy, out=None if terms else dxy)
    c = np.divide(u, np.maximum(v, _TINY, out=None if terms else v), out=None if terms else u)
    np.clip(c, -1.0, 1.0, out=c)
    xi = np.arccos(c, out=None if terms else c)
    return (xi, (nx, dxy, u, v, c)) if terms else xi


def _hyper_xi_batch(X, Y, terms: bool = True):
    """Axis angles and intermediates for the hyperbolic cone batch."""
    a = np.einsum("...j,...j->...", X, X)
    b = np.einsum("...j,...j->...", Y, Y)
    s = np.einsum("...j,...j->...", X, Y)
    two_s = 2.0 * s
    m = np.add(a, b)
    m -= two_s  # a + b - 2s
    g = np.multiply(a, b)
    g += 1.0
    g -= two_s
    np.maximum(g, _TINY, out=g)  # 1 + ab - 2s, floored
    num = np.multiply(s, 1.0 + a, out=two_s)
    rest = np.multiply(a, 1.0 + b, out=None if terms else s)
    num -= rest  # s (1 + a) - a (1 + b)
    P = np.multiply(a, m, out=rest)
    P *= g
    np.maximum(P, _TINY, out=P)  # a m g, floored
    D = np.sqrt(P, out=None if terms else P)
    c = np.divide(num, D, out=None if terms else num)
    np.clip(c, -1.0, 1.0, out=c)
    xi = np.arccos(c, out=None if terms else c)
    return (xi, (a, b, s, m, g, num, P, D, c)) if terms else xi


def live_rows(e: np.ndarray, upper=None) -> np.ndarray:
    """Rows whose hinge has a nonzero gradient: ``E > 0``, and ``E < upper`` where
    ``upper`` (per row, or one bound for all) is given. NaN rows are never live."""
    live = e > 0.0
    if upper is not None:
        live &= e < upper
    return live


def _spread(n: int, live: np.ndarray, *grads: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gradients of the ``live`` row indices placed in +0.0 arrays of ``n`` rows."""
    out = []
    for g in grads:
        full = np.zeros((n, g.shape[1]))
        full[live] = g
        out.append(full)
    return tuple(out)


def energies_and_gradients(X, Y, p: ConeParams, upper=None):
    """Energies plus analytic gradients for row-aligned batches.

    Returns ``(E, dX, dY)``. Every energy is computed. The gradient formulas
    run only on the live rows (:func:`live_rows`): ``E > 0``, the hinge's
    zero subgradient covering order-satisfied pairs, and ``E < upper`` where
    ``upper`` is given, so that a caller whose loss is flat past a per-row
    bound (a max-margin negative at ``E >= margin``) pays nothing for those
    rows. Every other gradient row is exactly +0.0. Each row's arithmetic is
    independent of the others, so a live row's gradient is bitwise the one
    that a call on the live rows alone would give.
    """
    X, Y = _rows(X), _rows(Y)
    if p.kind == "oe":
        e, d = _oe_batch(X, Y, p)
        live = np.flatnonzero(live_rows(e, upper))
        d = d[live]
        g = 2.0 * d if p.oe_squared else d * (1.0 / _safe(e[live]))[:, None]
        return (e, *_spread(len(e), live, g, -g))

    if p.kind == "ec":
        xi, (nx, dxy, u, v, c) = _euclid_xi_batch(X, Y)
        psi, _ = _aperture(nx, p)
        e = np.maximum(0.0, xi - psi)
        live = np.flatnonzero(live_rows(e, upper))
        X, Y, nx, dxy, u, v, c = (t[live] for t in (X, Y, nx, dxy, u, v, c))
        diff = X - Y
        # d(arccos(c)) = -dc / sqrt(1 - c^2)
        inv_sin = 1.0 / _safe(np.sqrt(1.0 - c * c))
        v2 = _safe(v * v)
        # dv/dx = (dxy/nx) x + (nx/dxy) (x - y);  dv/dy = (nx/dxy) (y - x)
        du_dx = Y - 2.0 * X
        dv_dx = (dxy / nx)[:, None] * X + (nx / dxy)[:, None] * diff
        dc_dx = (v[:, None] * du_dx - u[:, None] * dv_dx) / v2[:, None]
        du_dy = X
        dv_dy = -(nx / dxy)[:, None] * diff
        dc_dy = (v[:, None] * du_dy - u[:, None] * dv_dy) / v2[:, None]
        dxi_dx = -inv_sin[:, None] * dc_dx
        dxi_dy = -inv_sin[:, None] * dc_dy
        # psi = arcsin(K / nx): dpsi/dx = -K x / (nx^2 sqrt(nx^2 - K^2))
        root = _safe(np.sqrt(np.maximum(nx * nx - p.k * p.k, 0.0)))
        dpsi_dx = -(p.k / (nx * nx * root))[:, None] * X
        return (e, *_spread(len(e), live, _clip_rows(dxi_dx - dpsi_dx), _clip_rows(dxi_dy)))

    xi, inter = _hyper_xi_batch(X, Y)
    a = inter[0]
    nx = _safe(np.sqrt(a))
    psi, h = _aperture(nx, p, a)
    e = np.maximum(0.0, xi - psi)
    live = np.flatnonzero(live_rows(e, upper))
    X, Y, nx, h, a, b, s, m, g, num, P, D, c = (t[live] for t in (X, Y, nx, h, *inter))
    inv_sin = 1.0 / _safe(np.sqrt(1.0 - c * c))
    # c = num / sqrt(P) with P = a m g; dc = (D dnum - num dD) / P, dD = dP/(2D)
    dnum_dx = (1.0 + a)[:, None] * Y + (2.0 * s - 2.0 * (1.0 + b))[:, None] * X
    dnum_dy = (1.0 + a)[:, None] * X - (2.0 * a)[:, None] * Y
    dP_dx = (
        (2.0 * m * g)[:, None] * X
        + (2.0 * a * g)[:, None] * (X - Y)
        + (2.0 * a * m)[:, None] * (b[:, None] * X - Y)
    )
    dP_dy = (2.0 * a * g)[:, None] * (Y - X) + (2.0 * a * m)[:, None] * (a[:, None] * Y - X)
    dD_dx = dP_dx / (2.0 * D)[:, None]
    dD_dy = dP_dy / (2.0 * D)[:, None]
    dc_dx = (D[:, None] * dnum_dx - num[:, None] * dD_dx) / _safe(P)[:, None]
    dc_dy = (D[:, None] * dnum_dy - num[:, None] * dD_dy) / _safe(P)[:, None]
    dxi_dx = -inv_sin[:, None] * dc_dx
    dxi_dy = -inv_sin[:, None] * dc_dy
    # psi = arcsin(K (1 - a) / nx): radial derivative -K (1 + 1/nx^2)
    dpsi_dnx = -p.k * (1.0 + 1.0 / (nx * nx)) / _safe(np.sqrt(1.0 - h * h))
    dpsi_dx = (dpsi_dnx / nx)[:, None] * X
    return (e, *_spread(len(e), live, _clip_rows(dxi_dx - dpsi_dx), _clip_rows(dxi_dy)))


def project_rows(X, p: ConeParams, rng: np.random.Generator | None = None) -> np.ndarray:
    """Row-wise :func:`project_to_domain` for a coordinate table."""
    X = _rows(X).copy()
    if p.kind == "oe":
        return X
    lo = p.epsilon + DOMAIN_PAD
    hi = p.norm_max - DOMAIN_PAD
    norms = np.linalg.norm(X, axis=1)
    zero = norms < _TINY
    if np.any(zero):
        if not X.shape[1]:
            raise GeometryError("zero-width points have no direction to project along")
        if rng is None:
            rng = np.random.default_rng(0)
        for i in np.flatnonzero(zero):
            d = rng.standard_normal(X.shape[1])
            while float(np.linalg.norm(d)) < _TINY:
                d = rng.standard_normal(X.shape[1])
            X[i] = d * (lo / float(np.linalg.norm(d)))
        norms = np.linalg.norm(X, axis=1)
    scale = np.ones_like(norms)
    low = norms < lo
    high = norms > hi
    scale[low] = lo / norms[low]
    scale[high] = hi / norms[high]
    return X * scale[:, None]


def riemannian_rescale_rows(U, G) -> np.ndarray:
    """Row-wise :func:`riemannian_rescale`: ``G`` times ``((1 - ||u||^2) / 2)^2``."""
    U, G = _rows(U), _rows(G)
    nu2 = np.einsum("ij,ij->i", U, U)
    return G * (((1.0 - nu2) / 2.0) ** 2)[:, None]


def exp_map_rows(X, V) -> np.ndarray:
    """Row-wise exponential map; rows with a zero tangent stay fixed."""
    X, V = _rows(X), _rows(V)
    nx2 = np.einsum("ij,ij->i", X, X)
    nv = np.linalg.norm(V, axis=1)
    lam = 2.0 / _safe(1.0 - nx2)
    # sinh/cosh overflow around 710; the point saturates at the boundary
    # long before that, so cap the argument.
    t = np.minimum(lam * nv, 300.0)
    s = np.sinh(t)
    c = np.cosh(t)
    vh = V / _safe(nv)[:, None]
    xdv = np.einsum("ij,ij->i", X, vh)
    q = _safe(1.0 + (lam - 1.0) * c + lam * s * xdv)
    out = (X * (lam * (c + s * xdv))[:, None] + vh * s[:, None]) / q[:, None]
    still = nv == 0.0
    if np.any(still):
        out[still] = X[still]
    n = np.linalg.norm(out, axis=1)
    over = n >= 1.0
    if np.any(over):
        out[over] *= ((1.0 - 1e-12) / n[over])[:, None]
    return out


def exp_map_zero(Z) -> np.ndarray:
    """Exponential map at the origin, ``tanh(||z||) z / ||z||``, row-wise.

    tanh saturates to exactly 1.0 in float64 near ``||z|| ~ 19``; saturated
    rows are nudged back inside the ball.
    """
    Z = _rows(Z)
    n = np.linalg.norm(Z, axis=1)
    scale = np.where(n > _TINY, np.minimum(np.tanh(n), 1.0 - 1e-12) / _safe(n), 1.0)
    return Z * scale[:, None]


def exp_map_zero_backprop(Z, G) -> np.ndarray:
    """Pull a gradient at ``exp_0(z)`` back to ``z``.

    The Jacobian of ``z -> tanh(r) z / r`` (with ``r = ||z||``) is
    ``(tanh r / r) (I - zz^T/r^2) + (1 - tanh^2 r) zz^T/r^2``.
    """
    Z, G = _rows(Z), _rows(G)
    r = np.linalg.norm(Z, axis=1)
    t = np.tanh(r)
    radial = np.einsum("ij,ij->i", G, Z) / _safe(r * r)  # (g . zhat) / r
    tan_scale = np.where(r > _TINY, t / _safe(r), 1.0)
    sech2 = 1.0 - t * t
    out = tan_scale[:, None] * G + ((sech2 - tan_scale) * radial)[:, None] * Z
    return out
