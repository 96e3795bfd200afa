"""The package namespace: every public name resolves, each module on first use."""

import os
import subprocess
import sys

import pytest

import laytrop as lt

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The public names of ``laytrop`` when it imported every kernel eagerly, by
# defining module; each must stay exported.
EAGER_EXPORTS = {
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
        "PrimaryDecomposition", "PrimaryFactor", "eval_sort", "is_primary",
        "linear_divides_via_zero_layer", "linear_multiplicity", "primary_decomposition",
        "psi_a", "separable_factor",
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
        "homogeneous_parts", "hull_vertices", "monomial", "p_add", "p_eval", "p_mul",
        "p_pow", "p_shift", "poly", "slopes", "zero_poly",
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
SUBMODULES = (*EAGER_EXPORTS, "cli")


def _fresh(code):
    """The last stdout line of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_loads_no_submodule():
    code = "import sys, laytrop; print(sorted(m for m in sys.modules if m.startswith('laytrop.')))"
    assert _fresh(code) == "[]"


def test_every_eager_export_is_still_exported():
    exported = set(lt.__all__)
    for module, names in EAGER_EXPORTS.items():
        assert module in exported
        assert set(names) <= exported, module


def test_each_export_is_its_defining_modules_object():
    """Every name of ``__all__``, first accessed in a fresh interpreter, is the
    object its module binds, and stays bound in the package namespace."""
    code = f"""
import importlib, sys, laytrop
eager = {EAGER_EXPORTS!r}
home = {{name: module for module, names in eager.items() for name in names}}
bad = []
for name in laytrop.__all__:
    value = getattr(laytrop, name)
    if name in eager:
        expected = sys.modules["laytrop." + name]
    else:
        module = home[name] if name in home else laytrop._MODULE_OF[name]  # a name added since
        expected = getattr(importlib.import_module("laytrop." + module), name)
    if value is not expected or vars(laytrop)[name] is not value:
        bad.append(name)
print(bad)
"""
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_resolves_without_an_import(module):
    code = (
        f"import sys, laytrop; m = laytrop.{module}; "
        f"print(m is sys.modules['laytrop.{module}'], m.__name__)"
    )
    assert _fresh(code) == f"True laytrop.{module}"


def test_from_import_of_a_name_and_a_submodule():
    code = "from laytrop import NAT, resultants, p_eval; print(NAT, resultants.__name__, p_eval.__module__)"
    assert _fresh(code) == "nat laytrop.resultants laytrop.polys"


def test_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "_MODULE", "Polys", "term_product"):
        with pytest.raises(AttributeError, match=f"module 'laytrop' has no attribute '{name}'"):
            getattr(lt, name)
        assert not hasattr(lt, name)
    with pytest.raises(ImportError):
        exec("from laytrop import no_such_name", {})


def test_dir_lists_every_export():
    assert set(lt.__all__) <= set(dir(lt))
    assert "__version__" in dir(lt)
