"""laytrop: exact layered tropical algebra.

Scalars carry a value in (Q, +) and a layer from a configurable sorting
semiring; the package provides the scalar and polynomial arithmetic,
primary factorization, permanent-based resultants, layered calculus and
multivariate layering-map rasters, plus a text grammar and CLI.
"""

import sys

__version__ = "0.1.0"

# The public names by defining module.  ``import laytrop`` loads none of
# these modules: the first access to one of a module's names imports it.
_EXPORTS = {
    "calculus": (
        "antiderivative", "derivative", "discriminant", "formal_derivative",
        "is_separable", "separable_sort",
    ),
    "errors": (
        "ArityMismatch", "DegreeZero", "DomainError", "InvalidLayer",
        "LayerNotDivisible", "LaytropError", "NonInvertibleLayer", "NotFullForm",
        "NotMonic", "NotPrimary", "NotPrimaryPair", "NotSeparable", "NotSquare",
        "OutOfRange", "ParseError", "PreconditionViolated",
    ),
    "factor": (
        "PrimaryDecomposition", "PrimaryFactor", "eval_sort", "linear_divides_via_zero_layer",
        "linear_multiplicity", "primary_decomposition", "psi_a", "separable_factor",
    ),
    "multivar": (
        "GridRow", "MultiPoly", "component_index", "corner_locus_on_grid",
        "corner_support", "grid_scan", "is_corner_root", "is_ell_root", "mp_eval",
        "mp_mul", "multipoly", "theta", "theta_min",
    ),
    "parsing": (
        "format_poly", "format_scalar", "format_value", "parse_layer", "parse_poly",
        "parse_scalar", "to_multipoly",
    ),
    "polys": (
        "LayeredPoly", "corner_roots", "essential_form", "full_form",
        "homogeneous_parts", "hull_vertices", "is_primary", "monomial", "p_add", "p_eval",
        "p_mul", "p_pow", "p_shift", "poly", "slopes", "zero_poly",
    ),
    "resultants": (
        "LayerMatrix", "LayeredMatrix", "layer_permanent", "layer_sylvester",
        "layered_matrix", "layered_permanent", "layered_permanent_naive",
        "primary_pair_resultant", "reduction", "resultant", "sylvester",
    ),
    "scalars": (
        "BOTTOM", "ONE", "LayeredScalar", "is_ell_ghost", "ls_add", "ls_inv", "ls_mul",
        "ls_pow", "ls_sum", "nu_cmp", "s", "scalar", "surpasses_L", "surpasses_ell",
    ),
    "sorts": (
        "INF", "NAT", "POSQ", "RAT", "SUPER", "UNIT", "Sort", "as_layer",
        "format_layer", "infinite_layer", "is_ghost_sort", "is_inf", "layer_add",
        "layer_cmp", "layer_div", "layer_mul", "layer_ndiv", "layer_nmul",
        "layer_pow_int", "layer_valid", "parse_sort", "truncate_layer", "truncated",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_MODULE_OF) + list(_EXPORTS)


def _load(module):
    # __import__ rather than importlib.import_module, which -X importtime
    # does not report
    name = f"{__name__}.{module}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name):
    """An exported name or a submodule, imported on first access (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        if name not in _SUBMODULES:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        return _load(name)  # which also binds it in this namespace
    value = getattr(_load(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
