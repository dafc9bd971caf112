"""Certification of specific h-identifiability for symmetric and mixed
symmetric tensors, over exact rationals or a prime field."""

from .fields import DEFAULT_PRIME, PrimeField, QQ, field_from_spec
from .linalg import DenseMatrix, kernel_basis, rref, row_space_basis
from .poly import (MPoly, TensorSpace, coefficient_vector, dimension_of_multidegree,
                   monomial_basis, poly_to_string, power_and_product)
from .flatten import Flattening, Split, SplitError, default_split, flatten, image_span
from .ideals import (BudgetExceededError, GroebnerBasis, Ideal, SchemeReport,
                     binary_fast_path, buchberger, classify_linear_section,
                     pullback_linear_section)
from .certify import (Certificate, Check, Decomposition, certify, certify_prop31,
                      certify_prop33, certify_thm37, corollary35_bound,
                      effective_range, segre_veronese_degree, thm37_family)
from .randgen import RandomConfig, random_tensor

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIME", "PrimeField", "QQ", "field_from_spec",
    "DenseMatrix", "kernel_basis", "rref", "row_space_basis",
    "MPoly", "TensorSpace", "coefficient_vector", "dimension_of_multidegree",
    "monomial_basis", "poly_to_string", "power_and_product",
    "Flattening", "Split", "SplitError", "default_split", "flatten", "image_span",
    "BudgetExceededError", "GroebnerBasis", "Ideal", "SchemeReport",
    "binary_fast_path", "buchberger", "classify_linear_section",
    "pullback_linear_section",
    "Certificate", "Check", "Decomposition", "certify", "certify_prop31",
    "certify_prop33", "certify_thm37", "corollary35_bound",
    "effective_range", "segre_veronese_degree", "thm37_family",
    "RandomConfig", "random_tensor",
    "__version__",
]
