import numpy as np
import pytest

from wcslab.catalog import (
    CP2_HOL_SECTIONAL,
    CP2_LINE_PERIOD,
    CP2_VOLUME,
    SURFACE_TYPES,
    SurfaceSpecError,
    UnsupportedSurfaceError,
    build_surface,
    complex_space_form,
    cp2_fubini_study,
    flat_torus,
    generic_bounds,
    product_cp1,
    signature_from_curvature,
)
from wcslab.geometry import max_abs_component, symmetry_violation


def gauss_curvature_oracle(a: float, r: float = 1e-2) -> float:
    """Gauss curvature of the round sphere scaled by a, estimated from the
    circumference defect of a small geodesic circle of radius r.

    The circle at geodesic distance r from the pole is sampled on the
    embedded sphere of radius sqrt(a); K = 3 (2 pi r - C(r)) / (pi r^3)
    up to O(r^2).
    """
    rho = np.sqrt(a)
    phi = r / rho  # colatitude of the geodesic circle
    lam = np.linspace(0.0, 2.0 * np.pi, 200001)
    pts = rho * np.stack(
        [np.sin(phi) * np.cos(lam), np.sin(phi) * np.sin(lam),
         np.full_like(lam, np.cos(phi))],
        axis=-1,
    )
    C = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    return 3.0 * (2.0 * np.pi * r - C) / (np.pi * r**3)


class TestFlatTorus:
    def test_fields(self):
        S = flat_torus()
        assert np.all(S.curvature.comp == 0.0)
        assert S.signature == 0
        assert S.r_inf == 0.0
        assert S.volume == 1.0

    def test_signature_from_curvature(self):
        assert signature_from_curvature(flat_torus()) == 0.0


class TestCp2:
    def test_symmetries(self):
        S = cp2_fubini_study()
        assert symmetry_violation(S.curvature) <= 1e-12

    def test_signature(self):
        assert signature_from_curvature(cp2_fubini_study()) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_calibration_constants(self):
        S = cp2_fubini_study()
        assert S.params["hol_sectional"] == CP2_HOL_SECTIONAL == 4.0
        assert S.volume == CP2_VOLUME == pytest.approx(np.pi**2 / 2.0)
        # Line period at c = 4 is pi, not 1; the integrality discrepancy is
        # surfaced in params instead of silently renormalized.
        assert S.params["line_period"] == CP2_LINE_PERIOD == pytest.approx(np.pi)

    def test_r_inf_matches_sampling(self):
        S = cp2_fubini_study()
        assert max_abs_component(S.curvature, seed=0, samples=40) == pytest.approx(
            S.r_inf, abs=1e-6
        )


class TestProductCp1:
    def test_unit_factors(self):
        S = product_cp1(1, 1)
        assert S.curvature.comp[0, 1, 1, 0] == pytest.approx(1.0)
        assert S.curvature.comp[2, 3, 3, 2] == pytest.approx(1.0)

    def test_scaled_factor_curvatures(self):
        S = product_cp1(2, 3)
        assert S.curvature.comp[0, 1, 1, 0] == pytest.approx(0.5)
        assert S.curvature.comp[2, 3, 3, 2] == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_factor_curvature_against_circumference_oracle(self, a):
        assert gauss_curvature_oracle(a) == pytest.approx(1.0 / a, abs=1e-4)

    def test_signature_zero(self):
        for (a, b) in [(1, 1), (2, 3), (3, 2)]:
            assert signature_from_curvature(product_cp1(a, b)) == pytest.approx(
                0.0, abs=1e-8
            )

    def test_volume(self):
        S = product_cp1(2, 3)
        assert S.volume == pytest.approx((4 * np.pi * 2) * (4 * np.pi * 3))

    def test_r_inf_matches_sampling(self):
        S = product_cp1(2, 3)
        assert max_abs_component(S.curvature, seed=1, samples=40) == pytest.approx(
            max(0.5, 1.0 / 3.0), abs=1e-6
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            product_cp1(0, 1)
        with pytest.raises(ValueError):
            product_cp1(2, -1)


class TestGenericBounds:
    def test_bounds_only(self):
        S = generic_bounds(-16, 1.0, 0.5)
        assert not S.curvature_known
        with pytest.raises(UnsupportedSurfaceError):
            S.require_curvature()
        with pytest.raises(UnsupportedSurfaceError):
            signature_from_curvature(S)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            generic_bounds(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            generic_bounds(0, 1.0, -1.0)

    @pytest.mark.parametrize("volume, r_inf", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_rejected(self, volume, r_inf):
        with pytest.raises(ValueError, match="finite"):
            generic_bounds(0, volume, r_inf)


RAW = {"a": "2", "b": "3", "sigma": "-16", "vol": "1.5", "r_inf": "0.25"}


class TestRegistry:
    def test_builds_every_type_from_strings(self):
        built = {t: build_surface(t, RAW) for t in SURFACE_TYPES}
        assert [s.name for s in built.values()] == ["t4", "cp2", "cp1xcp1", "generic"]
        assert built["cp1xcp1"].params == {"a": 2, "b": 3}
        assert built["generic"].params == {"sigma": -16, "vol": 1.5, "r_inf": 0.25}
        for t, surface in built.items():
            assert surface.curvature_known == SURFACE_TYPES[t].curvature_known

    def test_only_bounds_only_types_take_the_entry_name(self):
        assert build_surface("generic", RAW, name="k3ish").name == "k3ish"
        assert build_surface("cp1xcp1", RAW, name="squares").name == "cp1xcp1"

    def test_unknown_type(self):
        with pytest.raises(SurfaceSpecError, match="unknown surface type 'banana'") as exc:
            build_surface("banana", RAW)
        assert not exc.value.missing

    def test_missing_key_is_named(self):
        with pytest.raises(SurfaceSpecError, match="needs key 'b'") as exc:
            build_surface("cp1xcp1", {"a": "2", "b": None})
        assert exc.value.missing

    @pytest.mark.parametrize("key, value, message", [
        ("a", "x", "bad value 'x' for key 'a'"),
        ("a", "2.5", "bad value '2.5' for key 'a'"),
        ("a", "0", "a and b must be positive"),
        ("a", "9" * 400, "too large"),
    ])
    def test_bad_product_value(self, key, value, message):
        with pytest.raises(SurfaceSpecError, match=message) as exc:
            build_surface("cp1xcp1", {**RAW, key: value})
        assert not exc.value.missing

    @pytest.mark.parametrize("key, value", [("vol", "-1"), ("vol", "nan"), ("r_inf", "inf")])
    def test_bad_bounds_value(self, key, value):
        with pytest.raises(SurfaceSpecError, match=key.replace("vol", "volume")):
            build_surface("generic", {**RAW, key: value})


def curvature_known_entries():
    return [flat_torus(), cp2_fubini_study(), product_cp1(1, 1), product_cp1(2, 3)]


def test_every_entry_passes_symmetries_and_j_invariance():
    for S in curvature_known_entries():
        assert symmetry_violation(S.curvature) <= 1e-12
        Jm = S.J.matrix
        rot = np.einsum("ijkl,ia,jb->abkl", S.curvature.comp, Jm, Jm)
        assert np.max(np.abs(rot - S.curvature.comp)) <= 1e-12


def test_signature_field_consistent():
    for S in curvature_known_entries():
        assert signature_from_curvature(S) == pytest.approx(S.signature, abs=1e-8)


def test_complex_space_form_scaling():
    assert np.allclose(complex_space_form(8.0).comp, 2.0 * complex_space_form(4.0).comp)
