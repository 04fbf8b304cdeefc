"""Riesz products and chaos polynomials over dissociated character systems.

The package models a compact abelian group at finite truncation (a product
of cyclic groups), tests d-dissociativity of character sets, builds the
Riesz-product and extraction measures whose Fourier coefficients isolate
homogeneous chaos parts, and estimates Khinchin and Sidon constants
empirically.  See the README for the CLI and the acceptance suite.
"""

__version__ = "0.2.0"

from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    DegenerateOrder,
    DegreeExceedsSystem,
    DuplicateCharacter,
    EmptyScheme,
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
    UnsupportedQ,
    ZeroPolynomial,
)
from .groups import (
    Character,
    DensityMeasure,
    FiniteAbelianGroup,
    FourierTable,
    GroupElement,
    char_eval,
    char_mul,
    char_order,
    char_pow,
    character_density,
    convolve,
    dirac_density,
    fourier,
    haar_density,
    inverse_fourier,
    make_group,
)
from .dissociation import (
    CharacterSystem,
    DissociationReport,
    hadamard_trig_system,
    is_d_dissociated,
    is_d_dissociated_mitm,
    rademacher_system,
    vc_system_from_digit_sets,
    verify_witness,
)
from .chaos import (
    ChaosPolynomial,
    CompressedIndex,
    HomogeneousPart,
    compress,
    decompose,
    enumerate_polynomial,
    enumerate_tetrahedral,
    evaluate,
    expand,
    random_chaos_polynomial,
    term_values,
)
from .riesz import (
    ExponentProfile,
    ExtractionSpec,
    ModulationPoint,
    expected_modulated_coefficient,
    expected_riesz_coefficient,
    extract_homogeneous,
    extract_homogeneous_modulated,
    extraction_coefficients,
    extraction_measure,
    modulated_riesz_density,
    modulation_exponents,
    product_character,
    require_nondegenerate,
    riesz_density,
    riesz_inverse_powers,
    riesz_modulated_powers,
)
from .analysis import (
    ConstantEstimate,
    estimate_khinchin_constant,
    estimate_sidon_constant,
    grad_lq_q,
    khinchin_ceiling,
    khinchin_ratio,
    lp_coeff_norm,
    lq_norm,
    sidon_ceiling,
    sidon_ratio,
    values_matrix,
)
from .discretize import (
    DiscretizationScheme,
    evaluate_scheme,
    fit_weights_heuristic,
    scan_point_counts,
    scheme_ratio,
    summarize_scan,
)
