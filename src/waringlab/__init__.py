"""Exact-arithmetic laboratory for real versus complex Waring rank.

Binary forms carry certified rank computations over Q(i) and Q; the
factory builds multivariate witnesses whose complex and real
decompositions disagree along a curve; the verifier checks the full
case dichotomy (a line, a conic, or two disjoint lines) with every
intermediate value exact.
"""

from .binary import (BinaryDecomposition, BinaryForm, binary_gcd,
                     binary_roots_exact, complex_rank, hankel_kernel,
                     hankel_matrix, moment_vector, power_point, real_rank,
                     reconstruct, reconstruction_check)
from .factory import (Certificate, ConstraintViolation, Instance,
                      conjugate_pair_form, generate_instance, make_case_a,
                      make_case_b, make_case_b_reducible, make_case_c)
from .forms import HomogeneousForm, monomial_exponents, multinomial
from .points import (CurveSpec, PointSet, ProjectivePoint, find_rich_conics,
                     find_rich_lines, split_on_curve)
from .scalars import Scalar, format_rational, parse_rational
from .spans import (Conclusion, HypothesisFails, NotUnique, SpanReport,
                    catalecticant_rank, h1_ideal, membership,
                    off_curve_agreement, parametrize_conic, parametrize_line,
                    restrict_to_curve, unique_intersection_point)
from .verifier import (CaseAttempt, CaseReport, CheckResult, classify,
                       classify_triple, detect_structure, verify_case_a,
                       verify_case_b, verify_case_c)

__version__ = "0.1.0"

__all__ = [
    "BinaryDecomposition", "BinaryForm", "binary_gcd", "binary_roots_exact",
    "complex_rank", "hankel_kernel", "hankel_matrix", "moment_vector",
    "power_point", "real_rank", "reconstruct", "reconstruction_check",
    "Certificate", "ConstraintViolation", "Instance", "conjugate_pair_form",
    "generate_instance", "make_case_a", "make_case_b",
    "make_case_b_reducible", "make_case_c",
    "HomogeneousForm", "monomial_exponents", "multinomial",
    "CurveSpec", "PointSet", "ProjectivePoint", "find_rich_conics",
    "find_rich_lines", "split_on_curve",
    "Scalar", "format_rational", "parse_rational",
    "Conclusion", "HypothesisFails", "NotUnique", "SpanReport",
    "catalecticant_rank", "h1_ideal", "membership", "off_curve_agreement",
    "parametrize_conic", "parametrize_line", "restrict_to_curve",
    "unique_intersection_point",
    "CaseAttempt", "CaseReport", "CheckResult", "classify",
    "classify_triple", "detect_structure", "verify_case_a", "verify_case_b",
    "verify_case_c",
    "__version__",
]
