import itertools

import numpy as np
import pytest

from wcslab.catalog import (
    KahlerSurface,
    UnsupportedSurfaceError,
    cp2_fubini_study,
    flat_torus,
    generic_bounds,
    product_cp1,
)
from wcslab.geometry import LEVI_CIVITA, STANDARD_J, RiemannTensor, symmetry_violation
from wcslab.sasaki import (
    FIBER_LENGTH,
    LiftConsistencyError,
    lift_curvature,
    lift_parts,
    total_volume,
)
from wcslab.wcs import decide_levels


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


class TestTotalVolume:
    def test_torus(self):
        lift = lift_curvature(flat_torus(), 3)
        assert total_volume(lift) == pytest.approx(2.0 * np.pi)
        assert lift.fiber_length == FIBER_LENGTH == pytest.approx(2.0 * np.pi)

    def test_product(self):
        lift = lift_curvature(product_cp1(1, 1), 1)
        assert total_volume(lift) == pytest.approx(2.0 * np.pi * (4 * np.pi) ** 2)

    def test_linear_in_base_volume(self):
        v1 = total_volume(lift_curvature(product_cp1(1, 1), 1))
        v2 = total_volume(lift_curvature(product_cp1(2, 1), 1))
        assert v2 == pytest.approx(2.0 * v1)
