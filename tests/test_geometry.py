"""Geometry kernels: energies, apertures, maps, and their gradients.

Expected values were computed with independent high-precision evaluations
of the defining formulas (arcsin/arccos/arctanh oracles); gradient checks
use central finite differences.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierembed import geometry
from hierembed.geometry import (
    ConeParams,
    GeometryError,
    cone_energy,
    energy_gradients,
    euclid_aperture,
    euclid_xi,
    exp_map,
    hyper_aperture,
    hyper_xi,
    oe_energy,
    poincare_distance,
    project_to_domain,
    riemannian_rescale,
)
from hierembed.training import random_coords, rsgd_step

EC = ConeParams("ec", 0.1)
HC = ConeParams("hc", 0.1)
OE = ConeParams("oe")


class TestOrderEmbeddingEnergy:
    def test_dominated_pair_is_zero(self):
        assert oe_energy([1, 1], [2, 2]) == 0.0

    def test_one_violated_coordinate(self):
        assert oe_energy([2, 1], [1, 2]) == pytest.approx(1.0)

    def test_identical_points(self):
        assert oe_energy([0.3, -0.7], [0.3, -0.7]) == 0.0

    def test_squared_variant(self):
        assert oe_energy([3, 1], [1, 2], squared=True) == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            oe_energy([1, 2], [1, 2, 3])


class TestEuclideanAngles:
    def test_on_axis(self):
        assert euclid_xi([1, 0], [2, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular(self):
        assert euclid_xi([1, 0], [1, 1]) == pytest.approx(math.pi / 2)

    def test_45_degrees(self):
        assert euclid_xi([1, 0], [2, 1]) == pytest.approx(math.pi / 4)

    def test_origin_is_singular(self):
        with pytest.raises(GeometryError):
            euclid_xi([0, 0], [1, 1])

    def test_coincident_is_singular(self):
        with pytest.raises(GeometryError):
            euclid_xi([1, 0], [1, 0])

    def test_aperture_at_unit_norm(self):
        # arcsin(0.1) to full precision
        assert euclid_aperture([1, 0], EC) == pytest.approx(0.1001674211615598, abs=1e-9)

    def test_aperture_at_domain_floor(self):
        assert euclid_aperture([0.1, 0], EC) == pytest.approx(math.pi / 2)

    def test_aperture_below_floor(self):
        with pytest.raises(GeometryError):
            euclid_aperture([0.05, 0], EC)


class TestConeEnergy:
    def test_on_axis_inside(self):
        assert cone_energy([1, 0], [2, 0], EC) == 0.0

    def test_perpendicular_violation(self):
        # pi/2 - arcsin(0.1)
        assert cone_energy([1, 0], [1, 1], EC) == pytest.approx(1.4706289056333368, abs=1e-9)

    def test_barely_inside(self):
        # atan(0.1) = 0.0997 < arcsin(0.1) = 0.10017
        assert cone_energy([1, 0], [1.1, 0.01], EC) == 0.0

    def test_dispatches_oe(self):
        assert cone_energy([2, 1], [1, 2], OE) == pytest.approx(1.0)

    def test_zero_iff_inside(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = random_coords(1, 3, EC, rng)[0]
            y = random_coords(1, 3, EC, rng)[0]
            e = cone_energy(x, y, EC)
            inside = euclid_xi(x, y) <= euclid_aperture(x, EC)
            assert (e == 0.0) == inside


class TestPoincare:
    def test_distance_from_origin(self):
        assert poincare_distance([0, 0], [0.5, 0]) == pytest.approx(math.log(3), abs=1e-12)

    def test_identity(self):
        assert poincare_distance([0.3, 0.1], [0.3, 0.1]) == 0.0

    def test_cross_pair(self):
        # arccosh(1 + 2*0.25/(0.91*0.84)) via high-precision oracle
        assert poincare_distance([0.3, 0], [0, 0.4]) == pytest.approx(1.0891371665366822, abs=1e-9)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            x, y, z = (rng.standard_normal(3) for _ in range(3))
            x, y, z = (v * rng.uniform(0, 0.95) / np.linalg.norm(v) for v in (x, y, z))
            dxy = poincare_distance(x, y)
            assert dxy == pytest.approx(poincare_distance(y, x), abs=1e-9)
            assert dxy <= poincare_distance(x, z) + poincare_distance(z, y) + 1e-9

    def test_boundary_rejected(self):
        with pytest.raises(GeometryError):
            poincare_distance([1.0, 0], [0, 0])


class TestHyperbolicAngles:
    def test_radial_pair(self):
        assert hyper_xi([0.5, 0], [0.7, 0]) == pytest.approx(0.0, abs=1e-6)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.standard_normal(2) * 0.3
            y = rng.standard_normal(2) * 0.3
            if np.linalg.norm(x) < 1e-3 or np.linalg.norm(x - y) < 1e-3:
                continue
            theta = rng.uniform(0, 2 * math.pi)
            rot = np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
            assert hyper_xi(x, y) == pytest.approx(hyper_xi(rot @ x, rot @ y), abs=1e-9)

    def test_off_axis_in_range(self):
        val = hyper_xi([0.5, 0], [0.5, 0.2])
        assert 0.0 < val < math.pi

    def test_aperture_at_domain_floor_is_right_angle(self):
        # root of K(1 - r^2)/r = 1 for K=0.1
        eps = (-1 + math.sqrt(1 + 4 * 0.01)) / 0.2
        assert eps == pytest.approx(0.09901951359278516, abs=1e-12)
        assert hyper_aperture([eps, 0], HC) == pytest.approx(math.pi / 2, abs=1e-6)

    def test_aperture_at_half_norm(self):
        assert hyper_aperture([0.5, 0], HC) == pytest.approx(0.15056827277668602, abs=1e-9)

    def test_aperture_below_floor(self):
        with pytest.raises(GeometryError):
            hyper_aperture([0.05, 0], HC)


class TestExpMap:
    def test_origin_closed_form(self):
        out = exp_map([0.0, 0.0], [0.5, 0.0])
        assert out == pytest.approx([math.tanh(0.5), 0.0], abs=1e-12)

    def test_zero_tangent_identity(self):
        x = np.array([0.3, -0.2])
        assert np.array_equal(exp_map(x, [0.0, 0.0]), x)

    def test_large_tangent_stays_inside(self):
        out = exp_map([0.0, 0.0], [10.0, 0.0])
        assert np.linalg.norm(out) == pytest.approx(math.tanh(10.0), abs=1e-9)
        assert np.linalg.norm(out) < 1.0

    def test_always_inside_ball(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.standard_normal(3)
            x *= rng.uniform(0, 0.98) / np.linalg.norm(x)
            v = rng.standard_normal(3) * rng.uniform(0, 50)
            assert np.linalg.norm(exp_map(x, v)) < 1.0

    def test_geodesic_property(self):
        # d(x, exp_x(v)) equals the metric norm lambda_x * ||v||
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.standard_normal(3)
            x *= rng.uniform(0.05, 0.8) / np.linalg.norm(x)
            v = rng.standard_normal(3) * 0.1
            lam = 2.0 / (1.0 - float(x @ x))
            d = poincare_distance(x, exp_map(x, v))
            assert d == pytest.approx(lam * np.linalg.norm(v), rel=1e-7)

    def test_rows_matches_scalar(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 4)) * 0.2
        V = rng.standard_normal((20, 4)) * 0.3
        rows = geometry.exp_map_rows(X, V)
        for i in range(20):
            assert rows[i] == pytest.approx(exp_map(X[i], V[i]), abs=1e-12)


class TestRiemannianRescale:
    def test_origin_quarter(self):
        assert riemannian_rescale([0.0, 0.0], [1.0, 0.0]) == pytest.approx([0.25, 0.0])

    def test_half_norm(self):
        out = riemannian_rescale([0.5, 0.0], [1.0, 1.0])
        assert out == pytest.approx([9 / 64, 9 / 64])

    def test_vanishes_at_boundary(self):
        out = riemannian_rescale([0.999999, 0.0], [1.0, 0.0])
        assert abs(out[0]) < 1e-11


class TestProjection:
    def test_below_floor_rescaled(self):
        out = project_to_domain([0.02, 0.0], EC)
        assert np.linalg.norm(out) == pytest.approx(0.10001)

    def test_near_boundary_clipped(self):
        out = project_to_domain([0.9999999, 0.0], HC)
        assert np.linalg.norm(out) == pytest.approx(1 - 1e-5)

    def test_in_domain_unchanged(self):
        x = np.array([0.3, 0.4])
        assert np.array_equal(project_to_domain(x, EC), x)

    def test_zero_vector_gets_direction(self):
        rng = np.random.default_rng(3)
        out = project_to_domain([0.0, 0.0], HC, rng)
        assert np.linalg.norm(out) == pytest.approx(HC.epsilon + 1e-5)

    def test_oe_untouched(self):
        x = np.array([5.0, -3.0])
        assert np.array_equal(project_to_domain(x, OE), x)

    @pytest.mark.parametrize("p", [EC, HC], ids=["ec", "hc"])
    def test_zero_width_points_are_rejected(self, p):
        # an all-zero row gets a random direction; a zero-width one has none to get
        with pytest.raises(GeometryError, match="zero-width"):
            project_to_domain(np.zeros(0), p)
        with pytest.raises(GeometryError, match="zero-width"):
            geometry.project_rows(np.zeros((3, 0)), p)


def _fd_grads(x, y, p, h=1e-5, energy=cone_energy):
    fx = np.zeros_like(x)
    fy = np.zeros_like(y)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        fx[i] = (energy(x + e, y, p) - energy(x - e, y, p)) / (2 * h)
        fy[i] = (energy(x, y + e, p) - energy(x, y - e, p)) / (2 * h)
    return fx, fy


@pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
def test_gradients_match_finite_differences(kind):
    p = ConeParams(kind, 0.1)
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 100:
        x = random_coords(1, 5, p, rng)[0]
        y = random_coords(1, 5, p, rng)[0]
        if cone_energy(x, y, p) < 1e-3:
            continue  # hinge-flat or kink-adjacent; gradient is zero there
        gx, gy = energy_gradients(x, y, p)
        fx, fy = _fd_grads(x, y, p)
        rel_x = np.linalg.norm(gx - fx) / max(np.linalg.norm(fx), 1e-8)
        rel_y = np.linalg.norm(gy - fy) / max(np.linalg.norm(fy), 1e-8)
        assert rel_x < 1e-4 and rel_y < 1e-4
        checked += 1


@pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
def test_zero_energy_pairs_have_zero_gradient(kind):
    p = ConeParams(kind, 0.1)
    rng = np.random.default_rng(44)
    found = 0
    while found < 20:
        x = random_coords(1, 3, p, rng)[0]
        if kind == "oe":
            y = x + np.abs(rng.standard_normal(3))
        else:
            y = geometry.project_to_domain(x * 1.3, p, rng)
        if cone_energy(x, y, p) != 0.0:
            continue
        gx, gy = energy_gradients(x, y, p)
        assert not gx.any() and not gy.any()
        found += 1


@pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
def test_rotational_invariance_of_energies(kind):
    p = ConeParams(kind, 0.1)
    rng = np.random.default_rng(21)
    for _ in range(30):
        x = random_coords(1, 3, p, rng)[0]
        y = random_coords(1, 3, p, rng)[0]
        # random rotation via QR with positive diagonal and unit determinant
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        if kind == "oe":
            # order embeddings are axis-aligned, not rotation invariant; skip
            return
        assert cone_energy(q @ x, q @ y, p) == pytest.approx(cone_energy(x, y, p), abs=1e-9)


@pytest.mark.parametrize("kind", ["ec", "hc"])
def test_angles_stay_in_range(kind):
    p = ConeParams(kind, 0.1)
    rng = np.random.default_rng(31)
    xi = euclid_xi if kind == "ec" else hyper_xi
    for _ in range(200):
        x = random_coords(1, 2, p, rng)[0]
        y = random_coords(1, 2, p, rng)[0]
        v = xi(x, y)
        assert np.isfinite(v) and 0.0 <= v <= math.pi


def _in_domain_pairs(kind, n=60, dim=4, seed=17):
    p = ConeParams(kind, 0.1)
    rng = np.random.default_rng(seed)
    return p, random_coords(n, dim, p, rng), random_coords(n, dim, p, rng)


class TestScalarsAreBatchRows:
    """Each scalar function returns exactly the batch kernel's row."""

    @pytest.mark.parametrize("kind, squared", [("oe", False), ("oe", True), ("ec", False),
                                               ("hc", False)])
    def test_cone_energy(self, kind, squared):
        _, X, Y = _in_domain_pairs(kind)
        p = ConeParams(kind, 0.1, oe_squared=squared)
        rows = geometry.energies(X, Y, p)
        for i in range(len(X)):
            assert cone_energy(X[i], Y[i], p) == rows[i]
            assert cone_energy(X[i], Y[i], p) == geometry.energies(X[i][None], Y[i][None], p)[0]
        if kind == "oe":
            assert [oe_energy(x, y, squared) for x, y in zip(X, Y)] == list(rows)

    @pytest.mark.parametrize("kind", ["ec", "hc"])
    def test_axis_angles(self, kind):
        p, X, Y = _in_domain_pairs(kind)
        xi, batch = (euclid_xi, geometry._euclid_xi_batch) if kind == "ec" else (
            hyper_xi, geometry._hyper_xi_batch)
        angles, _ = batch(X, Y)
        assert [xi(x, y) for x, y in zip(X, Y)] == list(angles)

    def test_exp_map(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((80, 4))
        X *= (rng.uniform(0, 0.95, 80) / np.linalg.norm(X, axis=1))[:, None]
        V = rng.standard_normal((80, 4)) * rng.uniform(0, 3, 80)[:, None]
        V[::10] = 0.0
        rows = geometry.exp_map_rows(X, V)
        inside = np.linalg.norm(rows, axis=1) < 1.0
        assert inside.sum() > 60
        for i in np.flatnonzero(inside):
            assert np.array_equal(exp_map(X[i], V[i]), rows[i])

    def test_exp_map_stays_inside_where_row_norm_reads_one(self):
        # criterion 3, seed 5, draw 8: the axis-1 norm of the kernel's row
        # reads just under 1 while the 1-D norm reads exactly 1.0
        x = [0.17719737418443512, -0.3453678549267017, -0.09305511274067578,
             -0.0019513692712228971]
        v = [-13.968001500452255, -16.341250327567014, 6.057816668950311,
             -15.173495332961528]
        assert np.linalg.norm(exp_map(x, v)) < 1.0

    def test_riemannian_rescale_is_the_rsgd_rescale(self):
        rng = np.random.default_rng(29)
        U = rng.standard_normal((40, 3))
        U *= (rng.uniform(0, 0.99, 40) / np.linalg.norm(U, axis=1))[:, None]
        G = rng.standard_normal((40, 3)) * 5
        riem = np.array([riemannian_rescale(u, g) for u, g in zip(U, G)])
        assert np.array_equal(riem, geometry.riemannian_rescale_rows(U, G))
        assert np.array_equal(rsgd_step(U, G, 0.3), geometry.exp_map_rows(U, -0.3 * riem))

    @pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
    def test_project_to_domain(self, kind):
        p = ConeParams(kind, 0.1)
        rng = np.random.default_rng(31)
        X = rng.standard_normal((50, 3)) * rng.uniform(0, 2, 50)[:, None]
        rows = geometry.project_rows(X, p)
        for i in range(len(X)):
            assert np.array_equal(project_to_domain(X[i], p), rows[i])


_KERNELS = [("oe", False), ("oe", True), ("ec", False), ("hc", False)]


@settings(max_examples=300, deadline=None)
@given(
    kernel=st.sampled_from(_KERNELS),
    k=st.sampled_from([0.1, 0.4]),
    d=st.integers(1, 64),
    n=st.integers(1, 7),
    m=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    floor=st.booleans(),
    coincide=st.booleans(),
    wide=st.booleans(),
    edge=st.booleans(),
    near=st.booleans(),
)
@example(kernel=("ec", False), k=0.4, d=3, n=5, m=6, seed=0, floor=True, coincide=True, wide=True,
         edge=False, near=False)
@example(kernel=("hc", False), k=0.4, d=3, n=7, m=7, seed=1, floor=True, coincide=True, wide=True,
         edge=False, near=False)
@example(kernel=("oe", True), k=0.1, d=1, n=4, m=4, seed=2, floor=False, coincide=True, wide=False,
         edge=False, near=False)
@example(kernel=("hc", False), k=0.1, d=10, n=6, m=7, seed=3, floor=False, coincide=False,
         wide=False, edge=True, near=True)
def test_broadcast_energies_equal_gathered_rows(
    kernel, k, d, n, m, seed, floor, coincide, wide, edge, near
):
    """All-pairs energies by broadcasting, either way round, are the row-aligned
    kernel's energies of the gathered rows, bit for bit, and the angles that the
    energies take are the ones that the gradients take."""
    kind, squared = kernel
    p = ConeParams(kind, k, oe_squared=squared)
    rng = np.random.default_rng(seed)
    # wide: apexes just above the floor, so many energies tie at 0
    hi = p.epsilon + 0.01 if wide and kind != "oe" else None
    X, Y = random_coords(n, d, p, rng, hi), random_coords(m, d, p, rng, hi)
    if floor:  # apexes on the domain floor (at the origin for oe)
        X[::2] *= (p.epsilon / np.linalg.norm(X[::2], axis=1))[:, None]
    if edge and kind == "hc":  # points at the domain's outer norm, 1 - 1e-5
        for A in (X, Y):
            A[1::2] *= ((1.0 - geometry.DOMAIN_PAD) / np.linalg.norm(A[1::2], axis=1))[:, None]
    r = min(n, m)
    if coincide:  # pairs with y == x
        Y[:r] = X[:r]
    elif near:  # pairs about 1e-9 apart, relative to |x|
        Y[:r] = X[:r] * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (r, d)))
    i, j = np.divmod(np.arange(n * m), m)
    want = geometry.energies(X[i], Y[j], p).reshape(n, m)
    assert geometry.energies(X[:, None], Y[None], p).tobytes() == want.tobytes()
    assert geometry.energies(X[None], Y[:, None], p).tobytes() == want.T.copy().tobytes()
    if kind == "oe":
        e = geometry.energies_and_gradients(X[i], Y[j], p)[0]
        assert e.tobytes() == want.tobytes()
    else:
        # The cone energies' axis angles are the gradients' angles. (Their apertures
        # take the apex norm in two ways, which round apart: ROADMAP item 12.)
        xi = geometry._euclid_xi_batch if kind == "ec" else geometry._hyper_xi_batch
        angles = xi(X[i], Y[j])[0].reshape(n, m)
        assert xi(X[:, None], Y[None], terms=False).tobytes() == angles.tobytes()
        assert xi(X[i], Y[j], terms=False).tobytes() == angles.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    kernel=st.sampled_from(_KERNELS),
    d=st.integers(1, 12),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    satisfied=st.floats(0.0, 1.0),
    near=st.floats(0.0, 1.0),
)
@example(kernel=("hc", False), d=3, n=1, seed=0, satisfied=0.0, near=1.0)
@example(kernel=("oe", True), d=2, n=6, seed=1, satisfied=1.0, near=0.0)
def test_live_row_gradients_equal_a_call_on_the_live_rows(kernel, d, n, seed, satisfied, near):
    """With a per-row ``upper``, the energies are the plain call's, the live
    rows' gradients a call on the live rows alone, and every other row +0.0."""
    kind, squared = kernel
    p = ConeParams(kind, 0.1, oe_squared=squared)
    rng = np.random.default_rng(seed)
    X = random_coords(n, d, p, rng, 0.6 if kind == "hc" else None)
    Y = random_coords(n, d, p, rng, 0.6 if kind == "hc" else None)
    # satisfied rows at E = 0: y dominates x (oe), or lies on x's axis past x
    zero = rng.random(n) < satisfied
    Y[zero] = X[zero] + np.abs(rng.standard_normal((zero.sum(), d))) if kind == "oe" else 1.5 * X[zero]
    e0 = geometry.energies(X, Y, p)
    upper = rng.choice([np.inf, 1.0, 0.5 * float(e0.max())], n)
    # rows with upper within 1e-12 of E, on either side or equal
    close = rng.random(n) < near
    step = rng.choice([-1e-12, -1e-15, 0.0, 1e-15, 1e-12], n)
    upper[close] = e0[close] + step[close]
    e, gx, gy = geometry.energies_and_gradients(X, Y, p, upper)
    e_plain, gx_plain, gy_plain = geometry.energies_and_gradients(X, Y, p)
    assert e.tobytes() == e_plain.tobytes()
    live = (e > 0.0) & (e < upper)
    assert np.array_equal(geometry.live_rows(e, upper), live)
    if live.any():
        _, gx_live, gy_live = geometry.energies_and_gradients(X[live], Y[live], p)
        assert gx[live].tobytes() == gx_live.tobytes() == gx_plain[live].tobytes()
        assert gy[live].tobytes() == gy_live.tobytes() == gy_plain[live].tobytes()
    for g in (gx[~live], gy[~live]):  # exactly +0.0: no value, no sign bit
        assert not g.any() and not np.signbit(g).any()


@pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
def test_hinge_gradients_match_finite_differences_across_the_margin(kind):
    """``-dE`` with ``upper`` as the margin is the slope of the hinge
    ``max(0, upper - E)`` by central differences, both with ``upper`` just
    above E and just below it, where the hinge is flat."""
    p = ConeParams(kind, 0.1)
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 40:
        x = random_coords(1, 5, p, rng)[0]
        y = random_coords(1, 5, p, rng)[0]
        e = cone_energy(x, y, p)
        if e < 1e-3:
            continue
        for cut in (e + 1e-3, e - 1e-3):  # a change of E by h |dE| stays on its side
            _, gx, gy = geometry.energies_and_gradients(x[None], y[None], p, np.array([cut]))
            fx, fy = _fd_grads(x, y, p, energy=lambda a, b, q: max(0.0, cut - cone_energy(a, b, q)))
            assert (cut > e) == bool(np.any(fx) or np.any(fy))
            for g, f in ((-gx[0], fx), (-gy[0], fy)):
                assert np.linalg.norm(g - f) <= 1e-4 * max(np.linalg.norm(f), 1e-8)
        checked += 1


_FLOOR = [0.05, 0.0]  # below both aperture floors at K = 0.1
_RAISES = [
    # (function, arguments, violation)
    (oe_energy, ([1, 2], [1, 2, 3]), "shape"),
    (euclid_xi, ([0, 0], [1, 1]), "origin apex"),
    (euclid_xi, ([1, 0], [1, 0]), "y == x"),
    (euclid_xi, ([1, 0], [1, 0, 0]), "shape"),
    (hyper_xi, ([0, 0], [0.5, 0.5]), "origin apex"),
    (hyper_xi, ([0.5, 0], [0.5, 0]), "y == x"),
    (hyper_xi, ([1.0, 0], [0.5, 0]), "on the ball"),
    (hyper_xi, ([0.5, 0], [0, 1.5]), "outside the ball"),
    (hyper_xi, ([0.5, 0], [0.5]), "shape"),
    (euclid_aperture, (_FLOOR, EC), "below the floor"),
    (euclid_aperture, ([[1, 0]], EC), "shape"),
    (hyper_aperture, (_FLOOR, HC), "below the floor"),
    (hyper_aperture, ([1.0, 0], HC), "on the ball"),
    (hyper_aperture, ([0, 1.5], HC), "outside the ball"),
    (hyper_aperture, ([[0.5, 0]], HC), "shape"),
    (cone_energy, ([1, 2], [1, 2, 3], OE), "oe shape"),
    (cone_energy, ([0, 0], [1, 1], EC), "ec origin apex"),
    (cone_energy, ([1, 0], [1, 0], EC), "ec y == x"),
    (cone_energy, (_FLOOR, [1, 1], EC), "ec below the floor"),
    (cone_energy, ([1, 0], [1, 0, 0], EC), "ec shape"),
    (cone_energy, ([0, 0], [0.5, 0.5], HC), "hc origin apex"),
    (cone_energy, ([0.5, 0], [0.5, 0], HC), "hc y == x"),
    (cone_energy, (_FLOOR, [0.5, 0.5], HC), "hc below the floor"),
    (cone_energy, ([1.0, 0], [0.5, 0], HC), "hc on the ball"),
    (cone_energy, ([0.5, 0], [0, 1.5], HC), "hc outside the ball"),
    (cone_energy, ([0.5, 0], [0.5], HC), "hc shape"),
    (poincare_distance, ([1.0, 0], [0, 0]), "on the ball"),
    (poincare_distance, ([0, 0], [0, 1.5]), "outside the ball"),
    (poincare_distance, ([0, 0], [0]), "shape"),
    (exp_map, ([1.0, 0], [0.1, 0]), "on the ball"),
    (exp_map, ([0, 1.5], [0.1, 0]), "outside the ball"),
    (exp_map, ([0, 0], [0.1]), "shape"),
    (riemannian_rescale, ([1.0, 0], [1, 1]), "on the ball"),
    (riemannian_rescale, ([0, 1.5], [1, 1]), "outside the ball"),
    (riemannian_rescale, ([0, 0], [1]), "shape"),
    (project_to_domain, ([[0.5, 0]], EC), "shape"),
    (energy_gradients, ([1, 0], [1, 0, 0], EC), "shape"),
]


@pytest.mark.parametrize(
    "fn, args, violation", _RAISES, ids=[f"{f.__name__}-{v}" for f, _, v in _RAISES]
)
def test_domain_violations_raise(fn, args, violation):
    with pytest.raises(GeometryError):
        fn(*args)
