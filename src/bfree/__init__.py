"""Computing with multiple-free subshifts and hereditary shift spaces."""

from .admissibility import (
    SpectrumProfile,
    admissible_words,
    block_complexity,
    entropy_from_complexity,
    is_admissible,
    residue_hits,
    spectrum_profile,
    theta_window,
)
from .core import (
    BinaryWord,
    BSet,
    CylinderSpec,
    OdometerPoint,
    crt_free_count,
    squarefree_family,
    validate_bset,
)
from .entropy import (
    EntropyReport,
    crt_density_bound,
    h_product_type,
    htop_bfree,
    htop_generalized,
    htop_periodic_hereditary,
    lm7_bounds,
)
from .errors import BFreeError
from .inclusion import (
    construct_admissible,
    density_estimate,
    equality,
    includes,
    inclusion_witness,
    word_level_includes,
)
from .measures import (
    ProductMeasureSpec,
    SampleBatch,
    embed,
    empirical_block_distribution,
    mask_batch,
    mirsky_cylinder,
    mixed_cylinder,
    sample_generalized,
    sample_mirsky,
    sample_product,
    squeeze,
)
from .sieve import SAProfile, eta_window, phi_sa_window, phi_window
from .sturmian import (
    PeriodicHereditarySystem,
    RotationCoding,
    close_alpha_block_containment,
    collect_blocks,
    hereditary_closure_count,
    hereditary_entropy_estimate,
    minimal_subset_variant,
    mme_block_frequency,
    rotation_complexity,
    sample_periodic_windows,
    sturmian_window,
    transitive_closure_point,
    two_mme_system,
)

__version__ = "0.1.0"
