"""Exact Markov chains from convolutions of graded projections on
combinatorial Hopf algebras: card shuffles on the word algebra and
vertex-removal chains on rooted forests, with rational-arithmetic
transition matrices, spectra, stationary distributions, eigenvectors and
seeded simulation."""

from .chain import (
    Distribution,
    TransitionMatrix,
    build_transition_matrix,
    evolve,
    expectations,
    lumping_check,
    point_mass,
    stationary_distributions,
)
from .forests import Forest, ForestAlgebra, enumerate_forests, f_j_statistic, forest_algebra, parse_forest, vertex_stats
from .hopf import (
    AlgebraHandle,
    CppSpec,
    LinComb,
    SpecError,
    apply_cpp,
    beta_n,
    check_state_space_basis,
    composition_law,
    eta,
    iterated_coproduct,
    normalize_spec,
    product,
    symmetrized_product,
)
from .linalg import RatMatrix, annihilation_check, eigenspace_dimensions, nullspace, rank, rat
from .presets import expand_preset, preset_names
from .shuffle import (
    FreeAssociativeAlgebra,
    ShuffleAlgebra,
    Word,
    deck_from_string,
    descent_peak_sets,
    distinct_deck,
    rearrangement_class,
    weighted_descent_stat,
    weighted_peak_stat,
)
from .simulate import RngStream, composition_sampler, gsr_step, run_trajectories
from .spectral import (
    Eigenvector,
    Spectrum,
    build_E_j,
    class_spectrum,
    eigenvalues,
    pairing_count,
    primitive_basis,
    verify_spectrum,
)

__version__ = "0.1.0"
