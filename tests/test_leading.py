import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from wcslab import cli, leading
from wcslab.geometry import LEVI_CIVITA
from wcslab.leading import (
    LineBundleCurvature,
    MappedFamily,
    _pullback_integrals,
    c_lo_pairing,
    rhs_prop22,
    verify_prop22,
)


def per_angle_pullback(fam, L, theta):
    """Reference: the pullback quadrature at one angle, as first written.  It
    rebuilds the grid, pushes the tangent basis forward by R_theta and
    evaluates dA(v, w) = <v x w, n> at every image point."""
    points, t_phi, t_lam, W = fam.parameter_grid()
    Rm = fam.rotation(theta)
    v, w, n = (np.moveaxis(a, 0, -1) @ Rm.T for a in (t_phi, t_lam, points))
    dA = np.einsum("ijk,ijk->ij", np.cross(v, w), n)
    integrand = (1j / (2.0 * np.pi)) * L.coefficient * dA
    return float(np.real(np.sum(integrand * W)))


def per_angle_pairing(fam, L):
    """Reference: a Python loop over the loop angles."""
    inner = np.array([per_angle_pullback(fam, L, th) for th in fam.loop_angles])
    return float(np.sum(inner * fam.loop_weights))


@pytest.fixture(scope="module")
def fam():
    return MappedFamily()


class TestQuadrature:
    def test_weights_sum_to_sphere_area(self, fam):
        _, _, _, W = fam.parameter_grid()
        assert float(np.sum(W)) == pytest.approx(4.0 * np.pi, abs=1e-12)

    def test_loop_weights_sum_to_circle_length(self, fam):
        assert float(np.sum(fam.loop_weights)) == pytest.approx(2.0 * np.pi, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            MappedFamily(n_colat=2)


class TestChargeNormalization:
    def test_chern_integral_is_integer_charge(self, fam):
        for q in range(4):
            val = _pullback_integrals(fam, LineBundleCurvature(q), [0.0])[0]
            assert val == pytest.approx(float(q), abs=1e-10)


class TestPairing:
    def test_zero_charge(self, fam):
        assert c_lo_pairing(fam, LineBundleCurvature(0)) == 0.0
        assert verify_prop22(fam, LineBundleCurvature(0)) == 0.0

    def test_unit_charge(self, fam):
        assert c_lo_pairing(fam, LineBundleCurvature(1)) == pytest.approx(
            2.0 * np.pi, rel=1e-6
        )

    def test_charge_three(self, fam):
        assert c_lo_pairing(fam, LineBundleCurvature(3)) == pytest.approx(
            6.0 * np.pi, rel=1e-6
        )

    def test_linearity_in_charge(self, fam):
        unit = c_lo_pairing(fam, LineBundleCurvature(1))
        for q in (2, 3, 5):
            assert c_lo_pairing(fam, LineBundleCurvature(q)) == pytest.approx(
                q * unit, abs=1e-8 * max(1.0, abs(q * unit))
            )

    def test_nonvanishing_transfer(self, fam):
        for q in (-2, -1, 1, 2, 3):
            assert abs(c_lo_pairing(fam, LineBundleCurvature(q))) >= np.pi * abs(q)


class TestBasepointSide:
    def test_values(self, fam):
        assert rhs_prop22(fam, LineBundleCurvature(1)) == pytest.approx(2.0 * np.pi)
        assert rhs_prop22(fam, LineBundleCurvature(2)) == pytest.approx(4.0 * np.pi)

    def test_independent_of_basepoint(self, fam):
        L = LineBundleCurvature(2)
        vals = [rhs_prop22(fam, L, n0) for n0 in np.linspace(0.0, 2.0 * np.pi, 8)]
        assert max(vals) - min(vals) <= 1e-10


class TestVerification:
    def test_relative_error(self, fam):
        for q in range(4):
            assert verify_prop22(fam, LineBundleCurvature(q)) <= 1e-6

    def test_reparametrization_invariance(self, fam):
        # Shift every loop angle by a fixed phase and redo the fiber
        # integral directly; the chain-homotopy argument says the pairing
        # cannot change.
        L = LineBundleCurvature(2)
        ref = c_lo_pairing(fam, L)
        phase = 0.37
        inner = _pullback_integrals(fam, L, fam.loop_angles + phase)
        shifted = float(np.sum(inner * fam.loop_weights))
        assert shifted == pytest.approx(ref, abs=1e-10)

    def test_refinement_does_not_worsen_error(self):
        L = LineBundleCurvature(2)
        coarse = verify_prop22(MappedFamily(16, 32, 16), L)
        fine = verify_prop22(MappedFamily(32, 64, 32), L)
        floor = 1e-12
        assert fine <= max(coarse, floor)


class TestBatchedContraction:
    @pytest.mark.parametrize("grid", [16, 32, 56])
    def test_matches_per_angle_reference(self, grid):
        fam = MappedFamily(grid, 2 * grid, grid)
        for q in range(-3, 5):
            L = LineBundleCurvature(q)
            ref = per_angle_pairing(fam, L)
            assert abs(c_lo_pairing(fam, L) - ref) <= 1e-13 * max(1.0, abs(ref))
            for n0 in (0.0, 1.3):
                ref = 2.0 * np.pi * per_angle_pullback(fam, L, n0)
                assert abs(rhs_prop22(fam, L, n0) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_rotation_stacks_over_angles(self, fam):
        stacked = fam.rotation(fam.loop_angles)
        assert stacked.shape == (fam.n_loop, 3, 3)
        for R, theta in zip(stacked, fam.loop_angles):
            np.testing.assert_array_equal(R, fam.rotation(theta))
        assert fam.rotation(0.0).shape == (3, 3)


def broadcast_moment(fam):
    """Reference: the moment as one (3, 3, 3, N) product, summed on the grid
    axis."""
    points, t_phi, t_lam, W = fam.parameter_grid()
    M = t_phi[:, None, None] * t_lam[None, :, None] * (W * points)[None, None, :]
    return M.reshape(3, 3, 3, -1).sum(axis=-1)


def per_side_pullback_integrals(fam, L, thetas):
    """Reference: the pullback integrals as each side built them before the
    family held its moment: the grid and the moment rebuilt on every call."""
    M = broadcast_moment(fam)
    R = fam.rotation(thetas)
    dA = np.einsum("abc,tai,tbj,tck,ijk->t", LEVI_CIVITA[3], R, R, R, M, optimize=True)
    return np.real((1j / (2.0 * np.pi)) * L.coefficient * dA)


def abs_pullback_integrals(fam, L, thetas):
    """The same sums as `per_side_pullback_integrals` on absolute values:
    the scale S of the rounding of either order of them."""
    R = np.abs(fam.rotation(thetas))
    S = np.einsum("abc,tai,tbj,tck,ijk->t", np.abs(LEVI_CIVITA[3]), R, R, R, np.abs(fam.moment))
    return abs(L.coefficient) / (2.0 * np.pi) * S


#: Two summation orders of the pullback sums differ by at most 8 eps S, with
#: S their absolute sum; 0.85 eps S at most was measured on grids 16..256
#: and q in -3..3.
PULLBACK_ROUNDING = 8.0 * np.finfo(float).eps


class TestMomentOncePerFamily:
    @pytest.mark.parametrize("grid", [16, 32, 56])
    def test_sides_equal_per_side_build_within_rounding(self, grid):
        """The rotated moment sums in another order than the reference's
        einsum, so the sides agree within PULLBACK_ROUNDING."""
        fam = MappedFamily(grid, 2 * grid, grid)
        for q in range(-3, 4):
            L = LineBundleCurvature(q)
            lhs = float(np.sum(per_side_pullback_integrals(fam, L, fam.loop_angles)
                               * fam.loop_weights))
            rhs = 2.0 * np.pi * float(per_side_pullback_integrals(fam, L, [0.0])[0])
            lhs_scale = float(np.sum(abs_pullback_integrals(fam, L, fam.loop_angles)
                                     * fam.loop_weights))
            rhs_scale = 2.0 * np.pi * float(abs_pullback_integrals(fam, L, [0.0])[0])
            assert abs(c_lo_pairing(fam, L) - lhs) <= PULLBACK_ROUNDING * lhs_scale
            assert abs(rhs_prop22(fam, L) - rhs) <= PULLBACK_ROUNDING * rhs_scale

    def test_moment_is_read_only_and_cached(self, fam):
        assert fam.moment is fam.moment and not fam.moment.flags.writeable

    def test_one_grid_per_verify_prop22(self, monkeypatch):
        # The rule is built once per grid per process: a second run at the
        # same grid reads the cached moment and prints the same bytes.
        calls = []
        build = leading._sphere_quadrature

        def counted(n_colat, n_long):
            calls.append((n_colat, n_long))
            return build(n_colat, n_long)

        monkeypatch.setattr(leading, "_sphere_quadrature", counted)
        leading._moment.cache_clear()
        outputs = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(["verify-prop22", "--charge", "3", "--grid", "16"]) == 0
            outputs.append(out.getvalue())
        assert calls == [(16, 32)]
        assert outputs[0] == outputs[1] and '"pass": true' in outputs[0]


class TestMomentBuild:
    @pytest.mark.parametrize("grid", [16, 56, 256])
    def test_bytes_equal_the_broadcast_formula(self, grid):
        """Each (i, j) sums the rows the broadcast product has, in the same
        pairwise order, so the moment is the same bit for bit."""
        want = broadcast_moment(MappedFamily(grid, 2 * grid, 4))
        assert leading._moment.__wrapped__(grid, 2 * grid).tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", [56, 256])
    def test_build_holds_a_few_grid_arrays(self, grid):
        """A cold build peaks at about 17 floats per grid point, the rule's
        arrays included; the (27, N) product alone was 27 of them."""
        n = grid * 2 * grid
        tracemalloc.start()
        try:
            leading._moment.__wrapped__(grid, 2 * grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 8 * n, peak / (8 * n)


class TestCachedWork:
    def test_families_share_one_moment_per_grid(self):
        moments = [MappedFamily(16, 32, n_loop).moment for n_loop in (4, 16, 17, 64)]
        assert all(M is moments[0] for M in moments)
        assert moments[0].shape == (3, 3, 3) and not moments[0].flags.writeable
        assert MappedFamily(16, 33, 16).moment is not moments[0]


class TestSizeChecks:
    @pytest.mark.parametrize("field", ["n_colat", "n_long", "n_loop"])
    @pytest.mark.parametrize("size", [16.0, True, np.True_, "16", None, 3, np.int64(2), -4])
    def test_bad_size_names_the_field(self, field, size):
        with pytest.raises(ValueError, match=f"^{field} must be an int >= 4"):
            MappedFamily(**{field: size})

    def test_numpy_ints_are_stored_as_int(self):
        fam = MappedFamily(np.int64(16), np.int32(32), np.uint8(4))
        assert (fam.n_colat, fam.n_long, fam.n_loop) == (16, 32, 4)
        assert all(type(n) is int for n in (fam.n_colat, fam.n_long, fam.n_loop))
        assert fam == MappedFamily(16, 32, 4) and hash(fam) == hash(MappedFamily(16, 32, 4))
        assert fam.moment is MappedFamily(16, 32, 4).moment
