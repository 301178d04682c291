"""Phase-space analysis of quantum superposition states.

Tools to build cat, mixed, and compass states; evaluate their Wigner
functions both in closed form and from the defining integral; locate and
quantify sub-Planck interference structure; run displacement-sensitivity
scans; and compute how an Ohmic high-temperature bath attenuates their
interference.
"""

from subplanck.core import (
    CoverageError,
    InvalidFieldError,
    PhaseSpaceError,
    PhaseSpaceGrid,
    Quadrature,
    ResolutionError,
    SearchError,
    UnitSystem,
    WignerField,
    integrate_2d,
    linspace_grid,
)
from subplanck.states import (
    CatSpec,
    FockVector,
    GaussianComponent,
    MixedSpec,
    NoDecompositionError,
    TruncationError,
    kerr_component_count,
    kerr_evolve,
    make_cat_momentum,
    make_cat_position,
    make_compass,
    make_mixed,
    state_to_json,
)
from subplanck.wigner import (
    check_coverage,
    wigner_closed,
    wigner_closed_eval,
    wigner_transform,
)
from subplanck.interference import (
    LatticeError,
    ZeroLattice,
    checkerboard_report,
    find_zero_lattice,
    lattice_report,
    tile_area,
)
from subplanck.metrology import (
    SensitivityResult,
    find_orthogonality,
    overlap_closed,
    overlap_reference,
)
from subplanck.decoherence import (
    BathParams,
    attenuation_curve,
    attenuation_exponent,
    bath_moments,
    decoherence_time,
    green_function,
    propagation_matrix,
    tau_formula_momentum,
    tau_formula_position,
)

__version__ = "0.1.0"

__all__ = [
    "BathParams",
    "CatSpec",
    "CoverageError",
    "FockVector",
    "GaussianComponent",
    "InvalidFieldError",
    "LatticeError",
    "MixedSpec",
    "NoDecompositionError",
    "PhaseSpaceError",
    "PhaseSpaceGrid",
    "Quadrature",
    "ResolutionError",
    "SearchError",
    "SensitivityResult",
    "TruncationError",
    "UnitSystem",
    "WignerField",
    "ZeroLattice",
    "attenuation_curve",
    "attenuation_exponent",
    "bath_moments",
    "check_coverage",
    "checkerboard_report",
    "decoherence_time",
    "find_orthogonality",
    "find_zero_lattice",
    "green_function",
    "integrate_2d",
    "kerr_component_count",
    "kerr_evolve",
    "lattice_report",
    "linspace_grid",
    "make_cat_momentum",
    "make_cat_position",
    "make_compass",
    "make_mixed",
    "overlap_closed",
    "overlap_reference",
    "propagation_matrix",
    "state_to_json",
    "tau_formula_momentum",
    "tau_formula_position",
    "tile_area",
    "wigner_closed",
    "wigner_closed_eval",
    "wigner_transform",
]
