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

#: Each submodule and the public names it defines: the one list of them.
_PUBLIC = {
    "exterior": ("AlgebraContext", "MultiIndex", "rank_index", "subsets"),
    "forms": ("CurvatureTensor", "DoubleForm", "bianchi_residual", "contract", "contract_iter",
              "inner", "kn_product", "metric", "metric_power", "metric_product",
              "orthonormalize", "sectional", "star", "zero_form"),
    "clifford": ("CliffordElement", "ad", "basis_element", "basis_vector", "clifford_mul",
                 "interior"),
    "weitzenboeck": ("FormulaRangeError", "KulkarniComponents", "SpectrumReport", "decompose_22",
                     "einstein_tensor", "jacobi_eigenvalues", "np_adjoint",
                     "np_contraction_einstein_rhs", "np_contraction_rhs", "np_definition",
                     "np_formula", "np_midpoint_formula", "np_split", "p_curvature_form",
                     "spectrum"),
    "random_tensors": ("conformally_flat", "constant_curvature", "positive_operator_perturbation",
                       "random_bianchi_22", "random_form", "weyl_part_tensor"),
    "tensorio": ("load_tensor", "project_bianchi", "save_form"),
    "verify": ("IdentityRecord", "SuiteConfig", "VerificationReport", "run_suite"),
}

_SUBMODULE = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset(_PUBLIC) | {"cli"}
__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
