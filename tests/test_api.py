"""The public surface: every exported name resolves, and the names removed
with the rational-arithmetic layer are neither exported nor present."""

import importlib
import pkgutil

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
}


# cli has no __all__: its public surface is the command line
@pytest.mark.parametrize("name", [m for m in MODULES if m != "cremona.cli"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    for attr in exported:
        getattr(module, attr)


def test_the_modules_are_all_covered():
    assert set(REMOVED) <= set(MODULES)
    assert {"cremona.lattice", "cremona.linalg", "cremona.polytopes"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    for attr in REMOVED[name]:
        assert attr not in module.__all__
        assert not hasattr(module, attr)
