"""The public surface: every exported name resolves, and the names removed
with the rational-arithmetic layer, or moved from weyl to curves, are
neither exported nor present where they were.  The package surface is the
same as when every submodule ran at import, but for those moves, each CLI
command runs only the submodules it uses, and every private helper has a
caller in the package, not only in the tests."""

import ast
import doctest
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cremona

MODULES = ["cremona"] + [
    f"cremona.{m.name}"
    for m in pkgutil.iter_modules(cremona.__path__)
    if not m.name.startswith("_")
]

REMOVED = {
    "cremona": ("RationalRay", "primitive"),
    "cremona.lattice": ("RationalRay", "primitive", "primitive_coords"),
    "cremona.linalg": ("rref", "rank", "kernel_basis"),
    "cremona.weyl": ("orbit", "OrbitResult"),  # moved to curves
}


# cli has no __all__: its public surface is the command line
@pytest.mark.parametrize("name", [m for m in MODULES if m != "cremona.cli"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    for attr in exported:
        getattr(module, attr)


def test_orbit_lives_in_curves():
    # beside the S_n-orbit helpers it walks with, so that weyl needs no curves
    assert cremona.curves.orbit is cremona.orbit
    assert cremona.curves.OrbitResult is cremona.OrbitResult


def test_the_modules_are_all_covered():
    assert set(REMOVED) <= set(MODULES)
    assert {"cremona.lattice", "cremona.linalg", "cremona.polytopes"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    for attr in REMOVED[name]:
        assert attr not in module.__all__
        assert not hasattr(module, attr)


# __all__ as it was when the package imported every submodule eagerly,
# but for orbit and OrbitResult, which left weyl for curves
ALL = [
    "PicClass", "LightConePosition", "pairing", "basis_vector", "canonical_class",
    "anticanonical_class", "degree", "light_cone_position", "Phi", "Sigma", "WeylWord",
    "ReductionResult", "KPositiveError", "apply_generator", "apply_word",
    "fixed_hyperplane_normal", "sort_coordinates", "reduce_class", "all_generators",
    "is_minus_one_class", "enumerate_minus_one", "decompose_inequality", "Decomposition",
    "MinusOneClass", "OrbitResult", "orbit", "Halfspace", "ConePolytope", "MembershipResult", "AngleClass",
    "CartanEntry", "CoxeterCheck", "CoxeterDiagram", "DiagramEdge", "Ray",
    "VertexFormulaReport", "RegionRReport", "build_P_tilde", "build_P", "build_P_minus",
    "membership", "gram_matrix", "classify_angle", "cartan_matrix", "render_cartan_entry",
    "is_coxeter", "coxeter_diagram", "extremal_rays", "boundary_rays", "finite_volume",
    "is_implied", "redundant_constraints", "vertex_formula_families", "verify_vertex_formulas",
    "verify_region_R", "NEF", "NOT_NEF", "NefVerdict", "fundamental_cone",
    "is_nef_K_nonpositive", "curve_check", "check_certificate", "CheckResult",
    "VerificationReport", "run_suite", "check_names", "__version__",
]


class TestPackageSurface:
    def test_all_keeps_its_content_and_order(self):
        assert cremona.__all__ == ALL

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from cremona import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(ALL)

    def test_every_name_is_the_object_in_its_home_module(self):
        submodules = [importlib.import_module(m) for m in MODULES if m not in ("cremona", "cremona.cli")]
        for name in ALL[:-1]:
            value = getattr(cremona, name)
            holders = [m for m in submodules if name in vars(m)]
            assert holders and all(vars(m)[name] is value for m in holders), name
        assert cremona.__version__ == "0.1.0"

    # the names a home module exports that the package does not
    MODULE_ONLY = {
        "lattice": set(),
        "weyl": {"Generator"},
        "curves": set(),
        "polytopes": {"RegionRRow"},
        "nef": {"METHOD_REDUCTION", "METHOD_CURVE_CHECK"},
        "verify": set(),
    }

    def test_every_export_is_in_its_home_modules_all(self):
        # so that ``from cremona.<home> import *`` binds it too, and no
        # other name is public in a home module but not in the package
        assert set(cremona._EXPORTS) == set(self.MODULE_ONLY)
        for home, names in cremona._EXPORTS.items():
            exported = set(importlib.import_module(f"cremona.{home}").__all__)
            assert exported == set(names) | self.MODULE_ONLY[home], home

    def test_dir_covers_all(self):
        assert set(ALL) <= set(dir(cremona))

    def test_unknown_names_raise_attribute_error(self):
        # RationalRay and primitive are covered by test_removed_names_are_gone
        with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
            cremona.nonexistent  # noqa: B018


# Run in a fresh interpreter: record the code objects of the package that
# are executed (the "exec" audit event) while argv[1:] runs, and print the
# file names, then which of five heavy stdlib modules the run loaded, then
# the cremona submodules in sys.modules.  "import" imports the package and
# then each module named after it; anything else is a command line for
# cli.main.  The probe itself loads none of the five.
EXEC_PROBE = """
import contextlib, io, json, os, sys

executed = []

def hook(event, args):
    if event == "exec":
        executed.append(getattr(args[0], "co_filename", ""))

sys.addaudithook(hook)
import cremona
if sys.argv[1] == "import":
    for name in sys.argv[2:]:
        __import__(name)
else:
    from cremona import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(sys.argv[1:])
root = os.path.dirname(cremona.__file__)
print(json.dumps(sorted({os.path.basename(f) for f in executed if os.path.dirname(f) == root})))
heavy = {"dataclasses", "inspect", "fractions", "decimal", "typing"}
print(json.dumps(sorted(heavy & set(sys.modules))))
print(json.dumps(sorted(name for name in sys.modules if name.startswith("cremona."))))
"""
LEAN = ["__init__.py", "cli.py", "lattice.py"]  # what importing cli runs
VECTOR = "--vector=10,-3,-3,-3,-3,-2,-2,-1,-1,-1,0"


def probe(*argv: str) -> tuple[list[str], list[str], list[str]]:
    """(the package files executed, the heavy modules loaded, the
    submodules in sys.modules) for argv, in an interpreter run with -S,
    so that no .pth file of the host's site-packages can load a module
    first and hide an import."""
    src = os.path.dirname(os.path.dirname(cremona.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", EXEC_PROBE, *argv], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(map(json.loads, proc.stdout.splitlines()))


def executed_modules(*argv: str) -> list[str]:
    return probe(*argv)[0]


def heavy_modules(*argv: str) -> list[str]:
    return probe(*argv)[1]


# Command lines without their --format: the package files each runs
# besides LEAN, then each format it takes and the files that format adds.
# region-r writes its JSON document without serialize.
TEXT_JSON = {"text": [], "json": ["serialize.py"]}
TEXT_JSON_CSV = {**TEXT_JSON, "csv": []}
RUNS = {
    "reduce": (("reduce", "--n", "10", VECTOR), ["weyl.py"], TEXT_JSON),
    "nef-test": (("nef-test", "--n", "10", VECTOR), ["nef.py", "weyl.py"], TEXT_JSON),
    # a curve check runs no weyl, whether it finds a violated class or none
    "nef-test-curves-nef": (
        ("nef-test", "--n", "10", VECTOR, "--method", "curves"), ["curves.py", "nef.py"],
        TEXT_JSON),
    "nef-test-curves-not-nef": (
        ("nef-test", "--n", "10", "--vector=3" + ",-1" * 10, "--method", "curves"),
        ["curves.py", "nef.py"], TEXT_JSON),
    "orbit": (("orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1", "--max-degree", "2"),
              ["curves.py"], TEXT_JSON_CSV),
    "curves": (("curves", "--n", "6", "--max-degree", "3"), ["curves.py"], TEXT_JSON_CSV),
    "rays": (("rays", "--n", "12", "--polytope", "p_minus"), ["polytopes.py"], TEXT_JSON_CSV),
    "cartan": (("cartan", "--n", "10", "--polytope", "p_minus"), ["polytopes.py"], TEXT_JSON_CSV),
    "diagram": (("diagram", "--n", "13", "--polytope", "p_minus"), ["polytopes.py"],
                {"text": [], "dot": []}),
    "region-r": (("region-r", "--n", "10"), ["linalg.py", "polytopes.py"],
                 {"text": [], "json": []}),
}
LEAN_COMMANDS = [RUNS[name][0] for name in ("reduce", "orbit", "nef-test")]
OTHER_COMMANDS = [
    (*RUNS[name][0], "--format", fmt)
    for name, fmt in [("rays", "json"), ("cartan", "json"), ("diagram", "dot"),
                      ("region-r", "json"), ("curves", "json")]
] + [("verify", "--suite", "quick")]


class TestStartUp:
    """Each command runs only the modules it uses.  No command loads
    dataclasses, inspect or typing, and reduce, orbit and nef-test load no
    fractions or decimal either."""

    def test_import_runs_only_the_package_file(self):
        assert executed_modules("import") == ["__init__.py"]

    def test_importing_the_cli_registers_all_nine_submodules(self):
        # perfbench/tracer.py imports cremona.cli, then reads each of the
        # nine out of sys.modules to wrap its functions
        executed, _, registered = probe("import", "cremona.cli")
        assert executed == LEAN
        nine = ["cli", "curves", "lattice", "linalg", "nef", "polytopes", "serialize", "verify", "weyl"]
        assert registered == [f"cremona.{name}" for name in nine]

    @pytest.mark.parametrize("name, fmt", [
        (name, fmt) for name, (_, _, formats) in RUNS.items() for fmt in formats])
    def test_each_command_runs_only_the_modules_it_calls(self, name, fmt):
        argv, files, formats = RUNS[name]
        want = sorted(LEAN + files + formats[fmt])
        assert executed_modules(*argv, "--format", fmt) == want

    def test_verify_runs_every_module(self):
        executed = executed_modules("verify", "--suite", "quick")
        assert {"polytopes.py", "curves.py", "linalg.py", "verify.py", "nef.py"} <= set(executed)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", LEAN_COMMANDS, ids=lambda argv: argv[0])
    def test_lean_commands_load_none_of_the_heavy_modules(self, argv, fmt):
        assert heavy_modules(*argv, "--format", fmt) == []

    @pytest.mark.parametrize("argv", OTHER_COMMANDS, ids=lambda argv: argv[0])
    def test_no_command_loads_dataclasses_inspect_or_typing(self, argv):
        assert set(heavy_modules(*argv)) <= {"fractions", "decimal"}


README = Path(__file__).resolve().parent.parent / "README.md"
# the fenced code blocks of README.md that hold a >>> example; each is
# run on its own, so that a closing fence is never read as output
README_EXAMPLES = [
    block
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.M | re.S)
    if ">>>" in block
]


def test_readme_has_examples():
    assert README_EXAMPLES


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_example_runs(index):
    name = f"README.md example {index}"
    test = doctest.DocTestParser().get_doctest(README_EXAMPLES[index], {}, name, str(README), 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted > 0
    assert result.failed == 0, "".join(report)


SRC = Path(__file__).resolve().parent.parent / "src" / "cremona"


def _names_read(node) -> Counter:
    """How often each name is read in ``node``: as a Name, an attribute or an import."""
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif isinstance(child, ast.alias):
            names[child.name] += 1
    return names


def test_every_private_helper_has_a_caller_in_the_package():
    # a module-level function or class named _x, with no decorator to
    # register it, is dead code unless the package reads its name
    # somewhere outside its own body
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    read = sum(map(_names_read, trees.values()), Counter())
    unread = [
        f"{module} {node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and re.match(r"_[^_]", node.name)
        and not node.decorator_list
        and read[node.name] == _names_read(node)[node.name]
    ]
    assert trees and unread == []
