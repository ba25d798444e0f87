"""Double-form calculus on Euclidean space.

Dense Kulkarni-Nomizu products, contractions, the generalized Hodge star,
Clifford commutators, and the Weitzenboeck curvature operators computed
both from their Clifford-sum definition and from closed formulas, with a
seeded suite that verifies every identity numerically.

The names below are resolved on first use (PEP 562), so ``import
doubleforms`` loads no submodule and a command loads only what it runs.
A resolved name is looked up in its submodule on every access, never
cached here, so a function rebound in its submodule is seen here too.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The submodule that defines each public name.
_SUBMODULE = {
    "AlgebraContext": "exterior",
    "MultiIndex": "exterior",
    "rank_index": "exterior",
    "subsets": "exterior",
    "unrank_index": "exterior",
    "CurvatureTensor": "forms",
    "DoubleForm": "forms",
    "bianchi_residual": "forms",
    "contract": "forms",
    "contract_iter": "forms",
    "inner": "forms",
    "kn_product": "forms",
    "metric": "forms",
    "metric_power": "forms",
    "metric_product": "forms",
    "orthonormalize": "forms",
    "sectional": "forms",
    "star": "forms",
    "zero_form": "forms",
    "CliffordElement": "clifford",
    "ad": "clifford",
    "basis_element": "clifford",
    "basis_vector": "clifford",
    "clifford_mul": "clifford",
    "interior": "clifford",
    "FormulaRangeError": "weitzenboeck",
    "KulkarniComponents": "weitzenboeck",
    "SpectrumReport": "weitzenboeck",
    "decompose_22": "weitzenboeck",
    "einstein_tensor": "weitzenboeck",
    "jacobi_eigenvalues": "weitzenboeck",
    "np_adjoint": "weitzenboeck",
    "np_contraction_einstein_rhs": "weitzenboeck",
    "np_contraction_rhs": "weitzenboeck",
    "np_definition": "weitzenboeck",
    "np_formula": "weitzenboeck",
    "np_midpoint_formula": "weitzenboeck",
    "np_split": "weitzenboeck",
    "p_curvature_form": "weitzenboeck",
    "spectrum": "weitzenboeck",
    "conformally_flat": "random_tensors",
    "constant_curvature": "random_tensors",
    "positive_operator_perturbation": "random_tensors",
    "random_bianchi_22": "random_tensors",
    "random_form": "random_tensors",
    "weyl_part_tensor": "random_tensors",
    "load_tensor": "tensorio",
    "project_bianchi": "tensorio",
    "save_form": "tensorio",
    "IdentityRecord": "verify",
    "SuiteConfig": "verify",
    "VerificationReport": "verify",
    "run_suite": "verify",
}

_SUBMODULES = frozenset(_SUBMODULE.values()) | {"cli"}

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


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
