"""Double-form calculus on Euclidean space.

Dense Kulkarni-Nomizu products, contractions, the generalized Hodge star,
Clifford commutators, and the Weitzenboeck curvature operators computed
both from their Clifford-sum definition and from closed formulas, with a
seeded suite that verifies every identity numerically.
"""

from .exterior import (
    AlgebraContext,
    MultiIndex,
    rank_index,
    subsets,
    unrank_index,
)
from .forms import (
    CurvatureTensor,
    DoubleForm,
    bianchi_residual,
    contract,
    contract_iter,
    inner,
    kn_product,
    metric,
    metric_power,
    metric_product,
    orthonormalize,
    sectional,
    star,
    zero_form,
)
from .clifford import (
    CliffordElement,
    ad,
    basis_element,
    basis_vector,
    clifford_mul,
    interior,
)
from .weitzenboeck import (
    FormulaRangeError,
    KulkarniComponents,
    SpectrumReport,
    decompose_22,
    einstein_tensor,
    jacobi_eigenvalues,
    np_adjoint,
    np_contraction_einstein_rhs,
    np_contraction_rhs,
    np_definition,
    np_formula,
    np_midpoint_formula,
    np_split,
    p_curvature_form,
    spectrum,
)
from .random_tensors import (
    conformally_flat,
    constant_curvature,
    positive_operator_perturbation,
    random_bianchi_22,
    random_form,
    weyl_part_tensor,
)
from .tensorio import load_tensor, project_bianchi, save_form
from .verify import IdentityRecord, SuiteConfig, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext",
    "MultiIndex",
    "rank_index",
    "subsets",
    "unrank_index",
    "CurvatureTensor",
    "DoubleForm",
    "bianchi_residual",
    "contract",
    "contract_iter",
    "inner",
    "kn_product",
    "metric",
    "metric_power",
    "metric_product",
    "orthonormalize",
    "sectional",
    "star",
    "zero_form",
    "CliffordElement",
    "ad",
    "basis_element",
    "basis_vector",
    "clifford_mul",
    "interior",
    "FormulaRangeError",
    "KulkarniComponents",
    "SpectrumReport",
    "decompose_22",
    "einstein_tensor",
    "jacobi_eigenvalues",
    "np_adjoint",
    "np_contraction_einstein_rhs",
    "np_contraction_rhs",
    "np_definition",
    "np_formula",
    "np_midpoint_formula",
    "np_split",
    "p_curvature_form",
    "spectrum",
    "conformally_flat",
    "constant_curvature",
    "positive_operator_perturbation",
    "random_bianchi_22",
    "random_form",
    "weyl_part_tensor",
    "load_tensor",
    "project_bianchi",
    "save_form",
    "IdentityRecord",
    "SuiteConfig",
    "VerificationReport",
    "run_suite",
]
