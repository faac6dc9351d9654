from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wcslab.catalog import (
    KahlerSurface,
    cp2_fubini_study,
    flat_torus,
    generic_bounds,
    product_cp1,
)
from wcslab.geometry import (
    STANDARD_J,
    ComplexStructure,
    OrthonormalFrame,
    RiemannTensor,
    pontrjagin_density,
    symmetry_violation,
)
from wcslab import wcs
from wcslab.geometry import LEVI_CIVITA
from wcslab.sasaki import LiftConsistencyError, lift_curvature
from wcslab.wcs import (
    VERDICT_ATOL_FACTOR,
    _closed_form_terms,
    Pi1Verdict,
    Verdict,
    WcsDensity,
    calibration_constant,
    decide_levels,
    decide_pi1,
    density_closed_form,
    density_permutation,
    integral_csw5,
    iterate_value,
    permutation_density_raw,
    prop39_bound,
    prop39_crossover,
    prop39_middle_coefficient,
    route_comparison,
    s_scaled_density,
)

from conftest import (
    EXACT_KAHLER_BASIS,
    KAHLER_BASIS,
    random_curvature_3d,
    random_j_adapted_frame,
    random_rotation,
)

CATALOG = [flat_torus(), cp2_fubini_study(), product_cp1(1, 1), product_cp1(2, 3)]


class TestClosedForm:
    def test_torus_is_pure_k6(self):
        for k in range(-5, 6):
            lift = lift_curvature(flat_torus(), k)
            assert density_closed_form(lift) == pytest.approx(
                6.4 * k**6, rel=1e-13, abs=1e-15
            )

    def test_cp2_vanishes_at_unit_levels(self):
        for k in (-1, 0, 1):
            lift = lift_curvature(cp2_fubini_study(), k)
            assert abs(density_closed_form(lift)) <= 1e-10

    def test_cp2_positive_at_k2(self):
        lift = lift_curvature(cp2_fubini_study(), 2)
        assert density_closed_form(lift) > 1.0

    def test_even_in_k(self):
        for base in CATALOG:
            for k in (1, 2, 3):
                d_plus = density_closed_form(lift_curvature(base, k))
                d_minus = density_closed_form(lift_curvature(base, -k))
                assert d_plus == d_minus


class TestPermutationRoute:
    def test_route_agreement_all_catalog(self):
        for base in CATALOG:
            for k in range(-3, 4):
                cmp = route_comparison(base, k)
                assert cmp.route_agreement <= 1e-8

    def test_calibration_constant_fixed_and_positive(self):
        c = calibration_constant()
        assert c > 0.0
        assert c == calibration_constant()

    def test_frame_independence(self, rng):
        lift = lift_curvature(cp2_fubini_study(), 2)
        ref = density_permutation(lift)
        for _ in range(20):
            horiz = random_j_adapted_frame(rng).vectors
            vecs = np.zeros((5, 5))
            vecs[0, 0] = 1.0
            vecs[1:, 1:] = horiz
            val = density_permutation(lift, OrthonormalFrame(vecs))
            assert val == pytest.approx(ref, abs=1e-9 * max(1.0, abs(ref)))

    def test_cs3_pointwise_vanishing(self, rng):
        frame3 = OrthonormalFrame.standard(3)
        for _ in range(100):
            R3 = random_curvature_3d(rng)
            gdot = random_rotation(rng, 3)[0]
            val = permutation_density_raw(R3, frame3, gdot, 2.0 * np.pi)
            assert abs(val) <= 1e-12

    def test_non_unit_loop_speed_rejected(self):
        lift = lift_curvature(flat_torus(), 1)
        with pytest.raises(ValueError):
            density_permutation(lift, loop_speed=2.0 * np.eye(5)[0])


class TestIntegral:
    def test_torus_value(self):
        lift = lift_curvature(flat_torus(), 1)
        assert integral_csw5(lift) == pytest.approx(6.4 * 2.0 * np.pi)

    def test_k_zero_vanishes(self):
        for base in CATALOG:
            assert integral_csw5(lift_curvature(base, 0)) == 0.0

    def test_cp2_unit_levels_vanish(self):
        for k in (-1, 1):
            assert abs(integral_csw5(lift_curvature(cp2_fubini_study(), k))) <= 1e-9


class TestProp39:
    def test_torus_case(self):
        assert prop39_bound(0, 1.0, 0.0, 1) == (pytest.approx(192.0), True)

    def test_k_zero(self):
        lhs, holds = prop39_bound(0, 1.0, 0.0, 0)
        assert lhs == 0.0 and not holds

    def test_k3_style_substitution(self):
        lhs, holds = prop39_bound(-16, 1.0, 1.0, 5)
        expected = 25.0 * (-1536.0 * np.pi**2 - 5600.0 + 120000.0)
        assert lhs == pytest.approx(expected)
        assert holds == (expected > 0)

    def test_middle_coefficient_audit(self):
        assert prop39_middle_coefficient() == 224.0 == 32.0 * 7.0

    def test_positive_bound_implies_positive_integral(self):
        for base in CATALOG:
            for k in range(-6, 7):
                _, holds = prop39_bound(base.signature, base.volume, base.r_inf, k)
                if holds:
                    assert integral_csw5(lift_curvature(base, k)) > 0.0

    def test_crossover(self):
        assert prop39_crossover(-16, 1.0, 1.0) == 4
        assert prop39_crossover(0, 1.0, 0.0) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            prop39_bound(0, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            prop39_bound(0, 1.0, -1.0, 1)


class TestIterateAndScaling:
    def test_identity_reparametrization(self):
        lift = lift_curvature(product_cp1(1, 2), 2)
        assert iterate_value(lift, 1) == pytest.approx(
            density_permutation(lift), rel=1e-12
        )

    def test_linear_in_n(self):
        lift = lift_curvature(flat_torus(), 1)
        base = iterate_value(lift, 1)
        for n in (2, 3, 5):
            assert iterate_value(lift, n) == pytest.approx(n * base, rel=1e-12)

    def test_composition_matches_direct(self):
        lift = lift_curvature(flat_torus(), 2)
        assert 2.0 * iterate_value(lift, 2) == pytest.approx(
            iterate_value(lift, 4), rel=1e-12
        )

    def test_bad_n(self):
        lift = lift_curvature(flat_torus(), 1)
        with pytest.raises(ValueError):
            iterate_value(lift, 0)

    def test_s_scaling(self):
        lift = lift_curvature(flat_torus(), 1)
        assert s_scaled_density(lift, 0.0) == 0.0
        assert s_scaled_density(lift, 1.0) == density_closed_form(lift)
        assert s_scaled_density(lift, 2.5) == pytest.approx(16.0)


class TestDecide:
    def test_torus(self):
        assert decide_pi1(flat_torus(), 1).verdict == Verdict.INFINITE_ORDER
        assert decide_pi1(flat_torus(), 0).verdict == Verdict.INCONCLUSIVE

    def test_cp2(self):
        assert decide_pi1(cp2_fubini_study(), 1).verdict == Verdict.INCONCLUSIVE
        assert decide_pi1(cp2_fubini_study(), -1).verdict == Verdict.INCONCLUSIVE
        assert decide_pi1(cp2_fubini_study(), 2).verdict == Verdict.INFINITE_ORDER

    def test_product(self):
        assert decide_pi1(product_cp1(2, 3), -1).verdict == Verdict.INFINITE_ORDER

    def test_bounds_mode(self):
        S = generic_bounds(-16, 1.0, 1.0)
        assert decide_pi1(S, 1).verdict == Verdict.INCONCLUSIVE
        assert decide_pi1(S, 5).verdict == Verdict.INFINITE_ORDER
        assert decide_pi1(S, 1).integral is None
        assert decide_pi1(S, 1).densities is None

    @pytest.mark.parametrize("surface", [flat_torus(), cp2_fubini_study(), product_cp1(2, 3)],
                             ids=lambda s: s.name)
    def test_densities_are_the_route_comparison(self, surface):
        for k in range(-3, 4):
            v = decide_pi1(surface, k)
            assert v.densities == route_comparison(surface, k)
            if k != 0:
                assert v.integral == v.densities.value_closed * lift_curvature(
                    surface, k).total_volume

    def test_infinite_order_always_justified(self):
        surfaces = CATALOG + [generic_bounds(-16, 1.0, 1.0), generic_bounds(0, 1.0, 0.0)]
        for S in surfaces:
            for k in range(-4, 5):
                v = decide_pi1(S, k)
                if v.verdict == Verdict.INFINITE_ORDER:
                    justified = v.prop39_holds or (
                        v.integral is not None
                        and abs(v.integral) > 1e-9 * 2.0 * np.pi * S.volume
                    )
                    assert justified


def per_level_reference(surface: KahlerSurface, k: int) -> Pi1Verdict:
    """The per-level path the sweep replaced: one lift per level, both
    routes on that lift, and the verdict rule."""
    prop_lhs, prop_holds = prop39_bound(surface.signature, surface.volume, surface.r_inf, k)
    densities = integral = None
    if surface.curvature_known:
        lift = lift_curvature(surface, k)
        densities = WcsDensity(surface.name, k, density_closed_form(lift),
                               density_permutation(lift), calibration_constant())
        integral = densities.value_closed * lift.total_volume if k else 0.0
    if k == 0:
        prop_holds = infinite = False
        rationale = "k = 0: the invariant carries no information for the trivial bundle M x S^1"
    elif densities is not None:
        atol = VERDICT_ATOL_FACTOR * lift.total_volume
        infinite = abs(integral) > atol
        rationale = (f"exact integral {integral:.6g} is nonzero (threshold {atol:.3g})"
                     if infinite else f"exact integral vanishes within threshold {atol:.3g}")
    else:
        infinite = prop_holds
        rationale = (f"bounds mode: sufficient positivity condition "
                     f"{'holds' if prop_holds else 'fails'} (lhs = {prop_lhs:.6g})")
    verdict = Verdict.INFINITE_ORDER if infinite else Verdict.INCONCLUSIVE
    return Pi1Verdict(surface.name, k, integral, prop_lhs, prop_holds, verdict, rationale,
                      densities)


def assert_sweep_matches_reference(surface: KahlerSurface, ks) -> None:
    """Every field exactly equal, except the permutation route, which the
    sweep sums as a cubic in k^2: within 1e-13 of max(1, |value|)."""
    for got, want in zip(decide_levels(surface, ks), map(per_level_reference, [surface] * len(ks), ks),
                         strict=True):
        if want.densities is not None:
            perm = want.densities.value_permutation
            assert abs(got.densities.value_permutation - perm) <= 1e-13 * max(1.0, abs(perm))
            got = replace(got, densities=replace(got.densities, value_permutation=perm))
        assert got == want


SWEEP_SURFACES = CATALOG + [product_cp1(a, b) for a in range(1, 7) for b in range(1, 7)] + [
    generic_bounds(-16, 1.0, 1.0), generic_bounds(0, 1.0, 0.0), generic_bounds(3, 0.25, 4.0)]
SWEEP_LEVELS = [*range(-50, 51), 10**4, -(10**4), 10**6, -(10**6)]


class TestDecideLevels:
    @pytest.mark.parametrize("surface", SWEEP_SURFACES, ids=lambda s: f"{s.name}{s.params}")
    def test_matches_per_level_path(self, surface):
        assert_sweep_matches_reference(surface, SWEEP_LEVELS)

    def test_decide_pi1_is_a_sweep_of_one(self):
        for surface in (cp2_fubini_study(), generic_bounds(-16, 1.0, 1.0)):
            assert decide_levels(surface, [-2, 0, 5]) == [decide_pi1(surface, k) for k in (-2, 0, 5)]
        assert decide_levels(cp2_fubini_study(), []) == []

    def test_cp2_unit_levels_stay_exactly_zero(self):
        for v in decide_levels(cp2_fubini_study(), [-1, 0, 1]):
            assert v.densities.value_closed == v.densities.value_permutation == 0.0
            assert v.integral == 0.0 and v.verdict == Verdict.INCONCLUSIVE


class TestSweepTermsMemo:
    """decide_levels keeps each curvature's sweep terms for the process:
    a warm sweep equals a cold one, and only the arrays key them."""

    @pytest.fixture(autouse=True)
    def cold(self):
        wcs._sweep_terms.cache_clear()

    def assert_cold_equals_warm(self, surfaces):
        # Warm sweeps run after every surface's terms are kept, so a key
        # that misses part of the arrays would hand one surface another's.
        cold = []
        for surface in surfaces:
            wcs._sweep_terms.cache_clear()
            cold.append(decide_levels(surface, SWEEP_LEVELS))
        assert [decide_levels(surface, SWEEP_LEVELS) for surface in surfaces] == cold

    def test_warm_equals_cold(self):
        self.assert_cold_equals_warm(SWEEP_SURFACES)

    def test_warm_equals_cold_on_integer_basis_tensors(self):
        rng = np.random.default_rng(17)
        surfaces = []
        for _ in range(20):
            R = RiemannTensor(np.tensordot(rng.integers(-3, 4, size=9), EXACT_KAHLER_BASIS, axes=1))
            surfaces.append(KahlerSurface(
                name="kahler", volume=float(rng.integers(1, 9)), signature=int(rng.integers(-2, 3)),
                r_inf=float(np.max(np.abs(R.comp))), curvature=R, J=STANDARD_J))
        self.assert_cold_equals_warm(surfaces)

    def test_only_the_curvature_is_shared(self):
        cp2 = cp2_fubini_study()
        other = KahlerSurface(name="other", volume=2.0, signature=-5, r_inf=0.5,
                              curvature=cp2.curvature, J=cp2.J)
        ks = [-3, 1, 2, 7]
        want = {s.name: [per_level_reference(s, k) for k in ks] for s in (cp2, other)}
        for surface in (cp2, other, cp2):
            got = decide_levels(surface, ks)
            assert [v.surface for v in got] == [surface.name] * len(ks)
            assert [v.integral for v in got] == [v.integral for v in want[surface.name]]
            assert [v.prop39_lhs for v in got] == [v.prop39_lhs for v in want[surface.name]]
        assert wcs._sweep_terms.cache_info().currsize == 1
        for mine, theirs in zip(decide_levels(other, [2, 7]), decide_levels(cp2, [2, 7])):
            assert mine.integral != theirs.integral and mine.prop39_lhs != theirs.prop39_lhs

    def test_j_is_part_of_the_key(self):
        # The same curvature array with J pairing e0 with e2 and e1 with e3:
        # R1 is built from J, so the permutation route differs.
        cp2 = cp2_fubini_study()
        J = np.zeros((4, 4))
        J[2, 0] = J[3, 1] = 1.0
        J[0, 2] = J[1, 3] = -1.0
        swapped = replace(cp2, J=ComplexStructure(J))
        for surface in (cp2, swapped, cp2, swapped):
            got = decide_pi1(surface, 2).densities
            want = per_level_reference(surface, 2).densities
            assert abs(got.value_permutation - want.value_permutation) <= 1e-13 * abs(
                want.value_permutation)
        assert wcs._sweep_terms.cache_info().currsize == 2
        assert (decide_pi1(swapped, 2).densities.value_permutation
                != decide_pi1(cp2, 2).densities.value_permutation)

    def test_failed_lift_check_is_not_kept(self):
        broken = KahlerSurface(name="broken", volume=1.0, signature=0, r_inf=1.0,
                               curvature=RiemannTensor(LEVI_CIVITA[4]), J=STANDARD_J)
        for _ in range(2):
            with pytest.raises(LiftConsistencyError, match="broken"):
                decide_levels(broken, [1, 2])
        assert wcs._sweep_terms.cache_info().currsize == 0


#: (surface, m, n) with c1.[w] = pi m and [w]^2 = pi^2 n in the catalog's
#: normalization (CP2_LINE_PERIOD = pi); n is None where it is not rational.
CLASS_NUMBERS = [(flat_torus(), 0, None), (cp2_fubini_study(), 3, 1)] + [
    (product_cp1(a, b), 8 * (a + b), 32 * a * b) for a in range(1, 7) for b in range(1, 7)]
RATIONAL_CLASSES = [c for c in CLASS_NUMBERS if c[2] is not None]


def class_id(case) -> str:
    return f"{case[0].name}{case[0].params}"


class TestCohomologicalIntegral:
    """The exact integral from three cohomological numbers:
    I(k) = (2 pi k^2 / 30)(96 pi^2 sigma - 64 pi k^2 c1.[w] + 192 k^4 vol)."""

    LEVELS = range(-50, 51)

    @pytest.mark.parametrize("surface, m, n", CLASS_NUMBERS, ids=map(class_id, CLASS_NUMBERS))
    def test_integrals_match_the_class_formula(self, surface, m, n):
        # Relative to the size of the three summands, since on cp2 they
        # cancel to 0 at k = +-1.
        for v in decide_levels(surface, self.LEVELS):
            k2 = float(v.k) ** 2
            terms = (96 * np.pi**2 * surface.signature, -64 * np.pi * k2 * (np.pi * m),
                     192 * k2**2 * surface.volume)
            exact = (2 * np.pi * k2 / 30) * sum(terms)
            size = (2 * np.pi * k2 / 30) * sum(abs(t) for t in terms)
            assert abs(v.integral - exact) <= 1e-13 * size

    @pytest.mark.parametrize("surface, m, n", RATIONAL_CLASSES,
                             ids=map(class_id, RATIONAL_CLASSES))
    def test_inconclusive_exactly_where_the_class_polynomial_vanishes(self, surface, m, n):
        # I(k) = (2 pi^3 k^2 / 30) 32 (3 sigma - 2 m k^2 + 3 n k^4), decided in rationals.
        seen = set()
        for v in decide_levels(surface, self.LEVELS):
            k = Fraction(v.k)
            vanishes = k == 0 or 3 * surface.signature - 2 * m * k**2 + 3 * n * k**4 == 0
            assert (v.verdict == Verdict.INCONCLUSIVE) == vanishes
            seen.add(vanishes and k != 0)
        assert (True in seen) == (surface.name == "cp2")  # cp2's (k^2 - 1)^2 at k = +-1


def kahler_surface(coefficients, volume) -> KahlerSurface:
    """A frame-constant Kahler surface with the given curvature coordinates:
    sigma = p1 vol / 3 and r_inf = the largest adapted-frame component."""
    R = RiemannTensor(np.tensordot(coefficients, KAHLER_BASIS, axes=1))
    return KahlerSurface(name="kahler", volume=volume,
                         signature=pontrjagin_density(R) * volume / 3.0,
                         r_inf=float(np.max(np.abs(R.comp))), curvature=R, J=STANDARD_J)


class TestKahlerCurvatureOracle:
    def test_basis(self):
        assert KAHLER_BASIS.shape == (9, 4, 4, 4, 4)
        flat = KAHLER_BASIS.reshape(9, -1)
        np.testing.assert_allclose(flat @ flat.T, np.eye(9), atol=1e-12)
        for surface in CATALOG:
            comp = surface.curvature.comp.ravel()
            assert np.max(np.abs(comp - flat.T @ (flat @ comp))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, 9, elements=st.floats(-2.0, 2.0)),
           st.floats(0.1, 10.0), st.sampled_from([1, 2, 3]))
    def test_routes_agree(self, coefficients, volume, k):
        densities = decide_pi1(kahler_surface(coefficients, volume), k).densities
        assert densities.route_agreement <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, 9, elements=st.floats(-2.0, 2.0)),
           st.floats(0.1, 10.0), st.sampled_from([1, 2, 3]))
    def test_prop39_implies_positive_integral(self, coefficients, volume, k):
        v = decide_pi1(kahler_surface(coefficients, volume), k)
        assert not v.prop39_holds or v.integral > 0.0

    def test_lift_check_scales_with_k(self):
        # These entries are not exact binary fractions, so R0 + k^2 R1 rounds
        # at the scale of k^2; an absolute 1e-12 rejected about half of them
        # at k = 100.
        rng = np.random.default_rng(0)
        violations = [symmetry_violation(lift_curvature(
            kahler_surface(rng.uniform(-2.0, 2.0, 9), 1.0), 100).curvature5) for _ in range(200)]
        assert sum(v > 1e-12 for v in violations) >= 50
        half_first = kahler_surface(0.5 * np.eye(9)[0], 1.0)
        for k in (10**4, 10**6):
            lift = lift_curvature(half_first, k)
            assert symmetry_violation(lift.curvature5) > 1e-12  # above the old threshold

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, 9, elements=st.floats(-2.0, 2.0)), st.floats(0.1, 10.0),
           st.lists(st.integers(-50, 50) | st.sampled_from(SWEEP_LEVELS[-4:]),
                    min_size=1, max_size=6))
    def test_sweep_matches_per_level_path(self, coefficients, volume, ks):
        # The reference lifts every level with lift_curvature, whose check
        # scales with the lift, so levels up to 10^6 compare too.
        assert_sweep_matches_reference(kahler_surface(coefficients, volume), ks)


def b_plus_half_scalar(comp: np.ndarray) -> tuple[float, float]:
    """|B + s/2| and max |component|: B is the five-term combination of the
    closed form, s = sum_ij R(e_i, e_j, e_j, e_i) the scalar curvature."""
    B = _closed_form_terms(RiemannTensor(comp))[1]
    return abs(B + 0.5 * np.einsum("ijji->", comp)), float(np.max(np.abs(comp)))


def in_frame(comp: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Components in the frame vectors[i]: one axis at a time."""
    for _ in range(4):
        comp = np.tensordot(comp, vectors, axes=([0], [1]))
    return comp


class TestScalarCurvatureIdentity:
    """B = -s/2 on every algebraic Kahler curvature tensor: s is the only
    U(2)-invariant linear function on that space (scalar + traceless Ricci
    + W^-, Besse ch. 2), so the closed form depends on the curvature only
    through p1 and s."""

    def test_exact_on_integer_basis(self):
        basis = EXACT_KAHLER_BASIS
        assert np.array_equal(basis, np.round(basis))  # small integers: exact floats
        flat = KAHLER_BASIS.reshape(9, -1)
        spanned = basis.reshape(9, -1) @ flat.T @ flat
        assert np.linalg.matrix_rank(spanned) == 9
        assert np.max(np.abs(spanned - basis.reshape(9, -1))) <= 1e-12
        for comp in basis:
            B = _closed_form_terms(RiemannTensor(comp))[1]
            assert B == -0.5 * np.einsum("ijji->", comp)

    @pytest.mark.parametrize("n", range(9))
    def test_on_svd_basis(self, n):
        gap, size = b_plus_half_scalar(KAHLER_BASIS[n])
        assert gap <= 1e-14 * size

    def test_catalog(self):
        assert _closed_form_terms(cp2_fubini_study().curvature)[1] == -12.0
        for surface in CATALOG:
            gap, size = b_plus_half_scalar(surface.curvature.comp)
            assert gap <= 1e-14 * size

    # Combinations of the integer basis: the SVD basis meets the Kahler
    # constraints only to about 1e-15 per entry, and on its combinations
    # B + s/2 reaches 1.2e-14 max |component| in exact arithmetic.  Tiny
    # coefficients flush to zero: subnormal products round absolutely.
    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, 9, elements=st.floats(-2.0, 2.0).map(
               lambda c: c if abs(c) >= 1e-100 else 0.0)),
           st.integers(0, 2**32 - 1))
    def test_combinations_in_j_adapted_frames(self, coefficients, seed):
        comp = np.tensordot(coefficients, EXACT_KAHLER_BASIS, axes=1)
        frame = random_j_adapted_frame(np.random.default_rng(seed)).vectors
        for tensor in (comp, in_frame(comp, frame)):
            gap, size = b_plus_half_scalar(tensor)
            assert gap <= 1e-14 * size

    def test_basis_in_j_adapted_frames(self, rng):
        # The integer basis: rotated SVD basis tensors already read up to
        # 9.9e-15 max |component| from their own constraint defect.
        for comp in EXACT_KAHLER_BASIS:
            for _ in range(10):
                rotated = in_frame(comp, random_j_adapted_frame(rng).vectors)
                gap, size = b_plus_half_scalar(rotated)
                assert gap <= 1e-14 * size
