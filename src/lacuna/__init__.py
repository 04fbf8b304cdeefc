"""Riesz products and chaos polynomials over dissociated character systems.

The package models a compact abelian group at finite truncation (a product
of cyclic groups), tests d-dissociativity of character sets, builds the
Riesz-product and extraction measures whose Fourier coefficients isolate
homogeneous chaos parts, and estimates Khinchin and Sidon constants
empirically.  See the README for the CLI and the acceptance suite.
"""

__version__ = "0.10.0"

from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    DegenerateOrder,
    DegreeExceedsSystem,
    DuplicateCharacter,
    GroupMismatch,
    InvalidP,
    InvalidQ,
    LacunaError,
    ModulusTooSmall,
    NotDissociated,
    OrderTooSmall,
    PositionOutOfRange,
    SizeLimitExceeded,
    StaircaseViolated,
    TrivialCharacterPresent,
)
from .groups import (
    Character,
    DensityMeasure,
    FiniteAbelianGroup,
    FourierTable,
    convolve,
    fourier,
    inverse_fourier,
    make_group,
)
from .dissociation import (
    CharacterSystem,
    DissociationReport,
    hadamard_trig_system,
    is_d_dissociated,
    rademacher_system,
    vc_system_from_digit_sets,
)
from .chaos import (
    ChaosPolynomial,
    decompose,
    enumerate_polynomial,
    enumerate_tetrahedral,
    random_chaos_polynomial,
    term_positions,
    term_values,
)
from .riesz import (
    ExtractionSpec,
    ModulationPoint,
    extract_homogeneous,
    extract_homogeneous_modulated,
    extraction_coefficients,
    extraction_measure,
    modulated_riesz_density,
    modulation_exponents,
    require_nondegenerate,
    riesz_density,
    riesz_inverse_powers,
    riesz_modulated_powers,
    riesz_spectrum,
)
from .analysis import (
    ConstantEstimate,
    estimate_khinchin_constant,
    estimate_sidon_constant,
    khinchin_ceiling,
    lq_norm,
    sidon_ceiling,
    values_matrix,
)
from .discretize import scan_point_counts, summarize_scan
