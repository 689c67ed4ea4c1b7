"""Exact computations in the Picard lattice of blowups of the plane.

The package decides nef-cone membership on the K-nonpositive side by
reducing classes into an explicit rational polyhedral fundamental cone
under the Cremona group, enumerates (-1)-classes, and analyzes the
fundamental cone itself: Cartan matrices, Coxeter diagrams, extremal
rays, and finite-volume criteria.  All arithmetic is integer/rational.

``import cremona`` registers the submodules without running them: each
is in ``sys.modules`` and bound here, and its body runs on first
attribute access (``importlib.util.LazyLoader``).  A public name such as
``cremona.build_P`` is looked up in its home module on first use and
then kept here.  So a command that never touches ``polytopes`` never
runs it, and an error in a module's body surfaces at its first use.
"""

import importlib.util as _importlib_util
import sys as _sys

__version__ = "0.1.0"


def _register(short: str):
    """The submodule ``cremona.<short>``, in sys.modules, its body not yet run."""
    spec = _importlib_util.find_spec(f"{__name__}.{short}")
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


lattice = _register("lattice")
linalg = _register("linalg")
weyl = _register("weyl")
curves = _register("curves")
polytopes = _register("polytopes")
nef = _register("nef")
serialize = _register("serialize")
verify = _register("verify")

# home module -> the names the package exports from it, in __all__ order.
# This is the one declaration of them: each home module builds its own
# __all__ from its entry, as this file cannot read a module's __all__
# without running the module.
_EXPORTS = {
    "lattice": (
        "PicClass",
        "LightConePosition",
        "pairing",
        "basis_vector",
        "canonical_class",
        "anticanonical_class",
        "degree",
        "light_cone_position",
    ),
    "weyl": (
        "Phi",
        "Sigma",
        "WeylWord",
        "ReductionResult",
        "OrbitResult",
        "KPositiveError",
        "apply_generator",
        "apply_word",
        "fixed_hyperplane_normal",
        "sort_coordinates",
        "reduce_class",
        "all_generators",
        "orbit",
    ),
    "curves": (
        "is_minus_one_class",
        "enumerate_minus_one",
        "decompose_inequality",
        "Decomposition",
        "MinusOneClass",
    ),
    "polytopes": (
        "Halfspace",
        "ConePolytope",
        "MembershipResult",
        "AngleClass",
        "CartanEntry",
        "CoxeterCheck",
        "CoxeterDiagram",
        "DiagramEdge",
        "Ray",
        "VertexFormulaReport",
        "RegionRReport",
        "build_P_tilde",
        "build_P",
        "build_P_minus",
        "membership",
        "gram_matrix",
        "classify_angle",
        "cartan_matrix",
        "render_cartan_entry",
        "is_coxeter",
        "coxeter_diagram",
        "extremal_rays",
        "boundary_rays",
        "finite_volume",
        "is_implied",
        "redundant_constraints",
        "vertex_formula_families",
        "verify_vertex_formulas",
        "verify_region_R",
    ),
    "nef": (
        "NEF",
        "NOT_NEF",
        "NefVerdict",
        "fundamental_cone",
        "is_nef_K_nonpositive",
        "curve_check",
        "check_certificate",
    ),
    "verify": ("CheckResult", "VerificationReport", "run_suite", "check_names"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """A public name from its home module, stored here for later lookups."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # Bound here, the name is a plain module attribute from then on: about
    # 0.05 us a lookup, where this function takes about 0.6 us (2 vCPUs,
    # Python 3.11.7), and callers such as perfbench/ops.py read names through
    # the package in every operation.  Only exported names are ever added.
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
