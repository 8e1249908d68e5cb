"""weylpath: exact vanishing-order combinatorics over root systems.

The package computes, entirely in exact arithmetic, the order m_d to
which the extremal-weight section attached to each fundamental weight
vanishes along a parabolic P/B, realized as the cost of a cheapest path
through extremal weights, and verifies the identity

    sum_d m_d == dim G/P

for every cominuscule parabolic.  See README.md for a
tour and the demos/ directory for worked scripts.
"""

from .rootsystem import (
    Parabolic, Root, RootSystem, RootSystemError, RootSystemType, Weight, build,
    eps_from_root_coords, root_coords_from_eps,
)
from .weylgroup import (
    WeylWord, apply_word, apply_word_to_root, cominuscule_indices, involution_index, is_minuscule,
    longest_element, minuscule_indices, orbit, orbit_size, tau_on_omitted_root, weyl_involution,
    weyl_order, word_length, words_equal,
)
from .vanishing import (
    Certificate, CertificateValidation, InternalInconsistencyError, TargetWeight, VanishingResult,
    allowed_root_indices, check_certificate, coefficient_lower_bound, dijkstra_order,
    distinguished_index, lattice_lower_bound, shortest_path, source_weight, target_weight,
    vanishing_result,
)
from .certificates import (
    best_certificate, catalog_certificate, catalog_pair_choices, certificate_from_dict,
    certificate_to_dict, dump_certificate, epsilon_to_root, greedy_certificate, load_certificate,
    path_certificate,
)
from .verify import (
    SuiteReport, VerificationReport, clear_caches, dim_quotient, list_minuscule, report_from_dict,
    report_from_json, report_to_dict, report_to_json, report_to_markdown, suite_to_dict,
    suite_to_json, suite_to_markdown, tabulated_configurations, verify, verify_suite,
)

__all__ = [
    "Parabolic", "Root", "RootSystem", "RootSystemError", "RootSystemType", "Weight", "build",
    "eps_from_root_coords", "root_coords_from_eps", "WeylWord", "apply_word", "apply_word_to_root",
    "cominuscule_indices", "involution_index", "is_minuscule", "longest_element",
    "minuscule_indices", "orbit", "orbit_size", "tau_on_omitted_root", "weyl_involution",
    "weyl_order", "word_length", "words_equal", "Certificate", "CertificateValidation",
    "InternalInconsistencyError", "TargetWeight", "VanishingResult", "allowed_root_indices",
    "check_certificate", "coefficient_lower_bound", "dijkstra_order", "distinguished_index",
    "lattice_lower_bound", "shortest_path", "source_weight", "target_weight", "vanishing_result",
    "best_certificate", "catalog_certificate", "catalog_pair_choices", "certificate_from_dict",
    "certificate_to_dict", "dump_certificate", "epsilon_to_root", "greedy_certificate",
    "load_certificate", "path_certificate", "SuiteReport", "VerificationReport", "clear_caches",
    "dim_quotient", "list_minuscule", "report_from_dict", "report_from_json", "report_to_dict",
    "report_to_json", "report_to_markdown", "suite_to_dict", "suite_to_json", "suite_to_markdown",
    "tabulated_configurations", "verify", "verify_suite",
]

__version__ = "0.1.0"
