"""Codes and designs in complex subspaces: principal angles, zonal
polynomials, exact bounds (closed forms, and Delsarte's conditions checked
for a polynomial the caller supplies), named constructions, and empirical
scheme/design analysis for finite sets of m-dimensional subspaces of C^n."""

from .analysis import (RelationPartition, SchemeReport, angle_classes,
                       check_scheme, design_strength, inner_product_classes,
                       inner_product_set, is_one_design, is_two_design,
                       pair_angle_matrix, scheme_idempotents, swap_operator,
                       twothree_audit)
from .bounds import (BoundResult, BoundTable, absolute_code_bound,
                     code_design_exact_size, design_absolute_bound,
                     make_annihilator, one_distance_bound, relative_code_bound,
                     relative_design_bound, simplex_orthoplex,
                     size_from_simplex_alpha, two_distance_bound)
from .constructions import (enumerate_isotropic, extraspecial_code,
                            extraspecial_size, isotropic_count, mub_code,
                            pauli_code)
from .core_linalg import (Code, Subspace, canonical_pair, gram_matrix,
                          haar_subspace, principal_angles,
                          subspace_from_basis)
from .dims import dim_H, dim_Hk, hom_dim_bound, q_binomial, weyl_dim
from .errors import (ClusterAmbiguity, GrasscodeError, NumericalHealthError,
                     SizeLimit)
from .io import code_from_dict, code_to_dict, read_code, write_code
from .partitions import Partition, partitions_of, partitions_up_to
from .sympoly import SymmetricPolynomial
from .zonal import (ZonalExpansion, ZonalPolynomial, aggregate_zonal,
                    expand_in_zonal, kernel_pairing, mc_zonal_inner,
                    normalize_zonal, zonal_basis, zonal_general)

__version__ = "0.1.0"

__all__ = [
    "BoundResult", "BoundTable", "ClusterAmbiguity", "Code",
    "GrasscodeError", "NumericalHealthError", "Partition", "RelationPartition",
    "SchemeReport", "SizeLimit", "Subspace", "SymmetricPolynomial",
    "ZonalExpansion", "ZonalPolynomial",
    "absolute_code_bound", "aggregate_zonal", "angle_classes",
    "canonical_pair", "check_scheme",
    "code_design_exact_size", "code_from_dict", "code_to_dict",
    "design_absolute_bound", "design_strength", "dim_H", "dim_Hk",
    "enumerate_isotropic",
    "expand_in_zonal", "extraspecial_code", "extraspecial_size",
    "gram_matrix", "haar_subspace", "hom_dim_bound",
    "inner_product_classes", "inner_product_set", "is_one_design",
    "is_two_design", "isotropic_count", "kernel_pairing", "make_annihilator",
    "mc_zonal_inner",
    "mub_code", "normalize_zonal", "one_distance_bound", "pair_angle_matrix",
    "partitions_of", "partitions_up_to", "pauli_code", "principal_angles",
    "q_binomial", "read_code", "relative_code_bound", "relative_design_bound",
    "scheme_idempotents", "simplex_orthoplex", "size_from_simplex_alpha",
    "subspace_from_basis", "swap_operator",
    "twothree_audit", "two_distance_bound", "weyl_dim", "write_code",
    "zonal_basis", "zonal_general", "__version__",
]
