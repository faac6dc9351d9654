"""Loop-space Chern-Simons invariants of circle bundles over Kahler surfaces.

The package decides when the fiber-rotation loop of a level-k circle bundle
over a Kahler surface has infinite order in the fundamental group of the
diffeomorphism group, cross-validated by independent computation routes,
and ships a classical pseudodifferential symbol calculus on the circle.
"""

from .catalog import (
    KahlerSurface,
    UnsupportedSurfaceError,
    cp2_fubini_study,
    flat_torus,
    generic_bounds,
    product_cp1,
    signature_from_curvature,
)
from .geometry import (
    ComplexStructure,
    RiemannTensor,
    endomorphism_of_pair,
    max_abs_component,
    pontrjagin_density,
    validate_symmetries,
)
from .sasaki import SasakiLift, lift_curvature
from .wcs import (
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
    prop39_bound,
    s_scaled_density,
)

__version__ = "0.1.0"

__all__ = [
    "KahlerSurface",
    "UnsupportedSurfaceError",
    "cp2_fubini_study",
    "flat_torus",
    "generic_bounds",
    "product_cp1",
    "signature_from_curvature",
    "ComplexStructure",
    "RiemannTensor",
    "endomorphism_of_pair",
    "max_abs_component",
    "pontrjagin_density",
    "validate_symmetries",
    "SasakiLift",
    "lift_curvature",
    "Pi1Verdict",
    "Verdict",
    "WcsDensity",
    "calibration_constant",
    "decide_levels",
    "decide_pi1",
    "density_closed_form",
    "density_permutation",
    "integral_csw5",
    "iterate_value",
    "prop39_bound",
    "s_scaled_density",
    "__version__",
]
