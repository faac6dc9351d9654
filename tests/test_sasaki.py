import itertools
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wcslab.catalog import (
    KahlerSurface,
    UnsupportedSurfaceError,
    _unit_sphere,
    cp2_fubini_study,
    flat_torus,
    generic_bounds,
    product_cp1,
)
from wcslab.geometry import LEVI_CIVITA, STANDARD_J, RiemannTensor, symmetry_violation
from wcslab.sasaki import (
    FIBER_LENGTH,
    LiftConsistencyError,
    SasakiLift,
    lift_curvature,
    lift_parts,
)
from wcslab.wcs import decide_levels, density_closed_form


def brute_force_lift(base, k):
    """Independent assembly of the 5d tensor by direct enumeration.

    The horizontal block is evaluated with explicit inner products per index
    pattern; the two-vertical components come from the third identity and
    are propagated by closing the seed values under antisymmetry in both
    index pairs and the pair swap.  Everything else stays zero.
    """
    R = base.curvature.comp
    Jm = base.J.matrix
    k2 = float(k) ** 2
    e = np.eye(4)
    out = np.zeros((5, 5, 5, 5))

    def ip(u, v):
        return float(u @ v)

    for i, j, kk, l in itertools.product(range(4), repeat=4):
        X, Y, Z, W = e[i], e[j], e[kk], e[l]
        corr = (
            -ip(Jm @ Y, Z) * ip(Jm @ X, W)
            + ip(Jm @ X, Z) * ip(Jm @ Y, W)
            + 2.0 * ip(Jm @ X, Y) * ip(Jm @ Z, W)
        )
        out[i + 1, j + 1, kk + 1, l + 1] = R[i, j, kk, l] + k2 * corr

    for i in range(1, 5):
        for j in range(1, 5):
            seed_val = k2 * (1.0 if i == j else 0.0)
            seen = {}
            frontier = [((0, i, j, 0), seed_val)]
            while frontier:
                (a, b, c, d), v = frontier.pop()
                if (a, b, c, d) in seen:
                    continue
                seen[(a, b, c, d)] = v
                frontier.extend(
                    [
                        ((b, a, c, d), -v),
                        ((a, b, d, c), -v),
                        ((c, d, a, b), v),
                    ]
                )
            for idx, v in seen.items():
                out[idx] = v
    return out


class TestLiftCurvature:
    def test_torus_third_identity(self):
        for k in (1, 2, 3):
            lift = lift_curvature(flat_torus(), k)
            c = lift.curvature5.comp
            for i in range(1, 5):
                assert c[0, i, i, 0] == pytest.approx(float(k * k))
            # horizontal block is the pure k^2 correction; a sample entry:
            # Rbar(e2, Je2, Je2, e2) = -3 k^2 from the three J-terms.
            assert c[1, 2, 2, 1] == pytest.approx(-3.0 * k * k)

    def test_k_zero_embeds_base(self):
        for base in (cp2_fubini_study(), product_cp1(2, 3)):
            lift = lift_curvature(base, 0)
            c = lift.curvature5.comp
            assert np.allclose(c[1:, 1:, 1:, 1:], base.curvature.comp, atol=1e-15)
            mask = np.ones((5, 5, 5, 5), dtype=bool)
            mask[1:, 1:, 1:, 1:] = False
            assert np.max(np.abs(c[mask])) == 0.0

    @pytest.mark.parametrize(
        "base,k",
        [
            (cp2_fubini_study(), 2),
            (flat_torus(), 1),
            (product_cp1(2, 3), 3),
        ],
    )
    def test_against_brute_force_closure_oracle(self, base, k):
        lift = lift_curvature(base, k)
        assert np.max(np.abs(lift.curvature5.comp - brute_force_lift(base, k))) <= 1e-13

    def test_even_in_k(self):
        for base in (cp2_fubini_study(), product_cp1(1, 2)):
            for k in (1, 2, 3):
                a = lift_curvature(base, k).curvature5.comp
                b = lift_curvature(base, -k).curvature5.comp
                assert np.array_equal(a, b)

    def test_symmetries_all_bases(self):
        bases = [flat_torus(), cp2_fubini_study(), product_cp1(1, 1), product_cp1(2, 3)]
        for base in bases:
            for k in range(-3, 4):
                lift = lift_curvature(base, k)
                assert symmetry_violation(lift.curvature5) <= 1e-12

    def test_bounds_only_rejected(self):
        with pytest.raises(UnsupportedSurfaceError):
            lift_curvature(generic_bounds(-16, 1.0, 1.0), 1)


CATALOG_AND_PRODUCTS = [flat_torus(), cp2_fubini_study()] + [
    product_cp1(a, b) for a in range(1, 7) for b in range(1, 7)
]
SWEEP_LEVELS = [*range(-50, 51), 10**4, -(10**4), 10**6, -(10**6)]


class TestLiftParts:
    @pytest.mark.parametrize("base", CATALOG_AND_PRODUCTS, ids=lambda s: f"{s.name}{s.params}")
    def test_lift_is_the_polynomial(self, base):
        r0, r1 = lift_parts(base)
        for k in SWEEP_LEVELS:
            lift = r0.comp + float(k) ** 2 * r1.comp
            assert np.array_equal(lift, lift_curvature(base, k).curvature5.comp)

    @pytest.mark.parametrize("base,k", [(cp2_fubini_study(), 2), (flat_torus(), 1),
                                        (product_cp1(2, 3), -3), (product_cp1(1, 5), 0)])
    def test_polynomial_equals_brute_force_closure_exactly(self, base, k):
        r0, r1 = lift_parts(base)
        assert np.array_equal(r0.comp + float(k) ** 2 * r1.comp, brute_force_lift(base, k))

    def test_parts(self):
        base = cp2_fubini_study()
        r0, r1 = lift_parts(base)
        assert np.array_equal(r0.comp[1:, 1:, 1:, 1:], base.curvature.comp)
        assert np.array_equal(r0.comp, lift_curvature(base, 0).curvature5.comp)
        assert np.array_equal(r1.comp, lift_curvature(flat_torus(), 1).curvature5.comp)
        for part in (r0, r1):
            assert symmetry_violation(part) <= 1e-12

    def test_cp2_unit_level_is_the_round_sphere(self):
        # R1 is the unit S^5 tensor minus the c = 4 space form, and cp2 is
        # that space form: at k = +-1 the lift is the round S^5, bit for bit.
        r0, r1 = lift_parts(cp2_fubini_study())
        assert np.array_equal(r0.comp + r1.comp, _unit_sphere(5))
        assert np.array_equal(lift_curvature(cp2_fubini_study(), -1).curvature5.comp,
                              _unit_sphere(5))

    def test_broken_first_bianchi_is_rejected(self):
        # Antisymmetric in every pair and pair-symmetric, but the cyclic sum
        # of the Levi-Civita symbol is three times itself.
        broken = KahlerSurface(name="broken", volume=1.0, signature=0, r_inf=1.0,
                               curvature=RiemannTensor(LEVI_CIVITA[4]), J=STANDARD_J)
        with pytest.raises(LiftConsistencyError, match="broken"):
            lift_parts(broken)
        for k in (0, 1, 2, 10**6):
            with pytest.raises(LiftConsistencyError, match="broken"):
                lift_curvature(broken, k)
        with pytest.raises(LiftConsistencyError, match="broken"):
            decide_levels(broken, [1, 2])

    def test_bounds_only_rejected(self):
        with pytest.raises(UnsupportedSurfaceError):
            lift_parts(generic_bounds(-16, 1.0, 1.0))


class TestLevel:
    """The level is stored with the tensor and read by density_closed_form,
    so only a whole number is taken."""

    @pytest.mark.parametrize("k", [1.5, np.float64(2.7), 2.0, np.float64(2.0), True, False,
                                   float("nan"), float("inf"), Fraction(2), "2", None],
                             ids=repr)
    def test_level_that_is_not_an_int_is_refused(self, k):
        with pytest.raises(ValueError, match=r"^k must be an int, got ") as info:
            lift_curvature(cp2_fubini_study(), k)
        assert str(info.value) == f"k must be an int, got {k!r}"

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(-3), np.uint8(5), np.int16(0)], ids=repr)
    def test_numpy_integer_is_taken_as_its_int(self, k):
        base = cp2_fubini_study()
        lift, want = lift_curvature(base, k), lift_curvature(base, int(k))
        assert type(lift.k) is int and lift.k == int(k)
        assert lift.curvature5.comp.tobytes() == want.curvature5.comp.tobytes()
        assert density_closed_form(lift) == density_closed_form(want)

    # 10**155 passes the float range at k**2, and 10**400 before float(k).
    @pytest.mark.parametrize("k", [10**155, -(10**155), 10**400], ids=["1e155", "-1e155", "1e400"])
    def test_level_beyond_the_float_range_is_refused(self, k):
        with pytest.raises(ValueError, match=rf"^level k={k} is too large for the float range$"):
            lift_curvature(cp2_fubini_study(), k)

    # The lift reads k**2 only: at 10**80 it is a float, and only the k**4
    # of the closed form is not.
    @pytest.mark.parametrize("k", [10**80, -(10**80)], ids=["plus", "minus"])
    def test_lift_needs_only_a_float_square(self, k):
        lift = lift_curvature(cp2_fubini_study(), k)
        assert lift.k == k and np.isfinite(lift.curvature5.comp).all()
        with pytest.raises(ValueError, match=rf"^level k={k} is too large for the float range$"):
            density_closed_form(lift)

    def test_half_level_is_not_stored_as_one(self):
        # R0 + 2.25 R1 once went out labelled k = 1, and cp2's closed form
        # read that label as its zero at k = 1.
        assert density_closed_form(lift_curvature(cp2_fubini_study(), 1)) == 0.0
        with pytest.raises(ValueError, match="got 1.5"):
            lift_curvature(cp2_fubini_study(), 1.5)


def with_component(base, value, at=(0, 1, 1, 0)):
    """A copy of base whose curvature has `value` at one component."""
    comp = base.curvature.comp.copy()
    comp[at] = value
    return replace(base, name=f"{base.name}-bad", curvature=RiemannTensor(comp))


class TestNonFiniteCurvature:
    """A NaN or inf component fails the lift check, with one
    LiftConsistencyError and no numpy warning."""

    # At (0, 1, 0, 1) the pair swap meets the component itself, so an inf
    # there makes an inf - inf residual, which numpy warns of.
    @pytest.mark.parametrize("at", [(0, 1, 1, 0), (0, 1, 0, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("base", [cp2_fubini_study(), flat_torus(), product_cp1(2, 3)],
                             ids=lambda s: s.name)
    def test_every_entry_point_raises(self, base, value, at):
        bad = with_component(base, value, at)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LiftConsistencyError, match=f"^lift part R0 of '{bad.name}'"):
                lift_parts(bad)
            for k in (0, 1, 2, -5):
                with pytest.raises(LiftConsistencyError, match=f"^lift part R0 of '{bad.name}'"):
                    lift_curvature(bad, k)
            with pytest.raises(LiftConsistencyError, match=f"^lift part R0 of '{bad.name}'"):
                decide_levels(bad, [1, 2])

    def test_nan_violation_is_reported(self):
        with pytest.raises(LiftConsistencyError, match=r"\(max violation nan\)$"):
            lift_curvature(with_component(cp2_fubini_study(), np.nan), 2)

    def test_the_parts_are_reported_before_the_sum(self):
        # R0 breaks Bianchi, so the stack's first failure is R0, at every k.
        broken = KahlerSurface(name="broken", volume=1.0, signature=0, r_inf=1.0,
                               curvature=RiemannTensor(LEVI_CIVITA[4]), J=STANDARD_J)
        for k in (0, 3):
            with pytest.raises(LiftConsistencyError, match="^lift part R0 of 'broken'"):
                lift_curvature(broken, k)


class TestTotalVolume:
    def test_torus(self):
        lift = lift_curvature(flat_torus(), 3)
        assert lift.total_volume == pytest.approx(2.0 * np.pi)
        assert lift.total_volume == FIBER_LENGTH * lift.base.volume
        assert FIBER_LENGTH == pytest.approx(2.0 * np.pi)

    def test_fiber_length_is_not_a_setting(self):
        # Every route reads FIBER_LENGTH; a lift cannot be given another.
        lift = lift_curvature(flat_torus(), 3)
        with pytest.raises(AttributeError):
            lift.total_volume = 1.0
        with pytest.raises(TypeError):
            SasakiLift(base=lift.base, k=3, curvature5=lift.curvature5, fiber_length=1.0)
        assert not hasattr(lift, "fiber_length")

    def test_product(self):
        lift = lift_curvature(product_cp1(1, 1), 1)
        assert lift.total_volume == pytest.approx(2.0 * np.pi * (4 * np.pi) ** 2)

    def test_linear_in_base_volume(self):
        v1 = lift_curvature(product_cp1(1, 1), 1).total_volume
        v2 = lift_curvature(product_cp1(2, 1), 1).total_volume
        assert v2 == pytest.approx(2.0 * v1)
