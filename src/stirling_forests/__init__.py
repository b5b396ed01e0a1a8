"""Exact combinatorics of k-Stirling permutations, increasing pruned even
k-ary forests, and the polynomials their plateau/leaf statistics generate."""

from .polyx import (
    GammaExpansion,
    IntPolynomial,
    SymmetricDecomposition,
    egf_one_over_k_eulerian,
    gamma_compose,
    gamma_expand,
    shape_properties,
    symmetric_decompose,
)
from .stirling import (
    count_k_stirling,
    descent_polynomial,
    enumerate_k_stirling,
    exc_cyc_polynomial,
    is_k_stirling,
    perm_exc_cyc,
    stat_ap,
    stat_lap,
    word_class,
    word_from_text,
    word_to_text,
)
from .forest import (
    Forest,
    ForestProfile,
    ForestStats,
    LabeledTree,
    NodeClass,
    enumerate_forests,
    enumerate_trees,
    forest_profile,
    forest_stats,
    label_sets,
    parse_forest,
    parse_tree,
    removable_labels,
    serialize_forest,
    serialize_tree,
    validate_forest,
)
from .bimap import chi, chi_inv, xi, xi_inv, zeta, zeta_inv
from .gfs import (
    MarkedForest,
    marked_forest,
    orbit,
    orbit_representative,
    phi,
    phi_set,
    theta,
    theta_prime,
)
from .pipeline import (
    alpha_step,
    beta_step,
    gamma_map,
    gamma_prime_map,
    main_bijection,
    psi,
)
from .oracle import (
    IdentityReport,
    distribution,
    gamma_census_bar_hat,
    gamma_census_tilde,
    run_suite,
)

__version__ = "0.1.0"
