import ast
import dataclasses
from pathlib import Path

import layerfem
from layerfem import femcore, interpolants, mesh, norms, problem, study

SUBMODULES = (femcore, interpolants, mesh, norms, problem, study)


def test_package_exports_every_submodule_export():
    for module in SUBMODULES:
        for name in module.__all__:
            assert name in layerfem.__all__, f"{module.__name__}.{name} is not exported"
            assert getattr(layerfem, name) is getattr(module, name)
    for name in layerfem.__all__:
        assert hasattr(layerfem, name), f"layerfem.__all__ names missing {name!r}"
    assert len(set(layerfem.__all__)) == len(layerfem.__all__)


# Public names that only tests use, each with the reason it stays public.
TEST_ONLY_API = {
    "fitted_rate": "the acceptance suite's rate fit over a sequence of uniform errors",
}


def _names_used(path: Path) -> set[str]:
    """Names a file reads or takes as attributes: definitions, imports, strings
    (so ``__all__`` entries and docstrings) and comments are not uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _used_outside_the_tests() -> set[str]:
    """Names read in the package or in perfbench's non-test modules."""
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "layerfem").glob("*.py")) + [
        path for path in sorted((root / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    return set().union(*(_names_used(path) for path in sources))


def test_every_public_name_is_used_outside_the_tests():
    used = _used_outside_the_tests()
    unused = sorted(set(layerfem.__all__) - used - set(TEST_ONLY_API))
    assert unused == [], f"public names only tests use: {unused}"
    # An allowlisted name that gains a use (or stops being public) leaves the list.
    assert set(TEST_ONLY_API) <= set(layerfem.__all__) - used


# Fields and properties of exported dataclasses that nothing reads by name,
# each with the reason it stays.
UNREAD_FIELDS = {
    "StepSizeChecks.midpoint_left_of_half": "verify's FAIL lines print it through the dataclass repr",
    "InterpolantBundle.corrected_interp": (
        "the paper's corrected interpolant; test_interpolants checks it"
    ),
}


def _fields_and_properties(cls: type) -> set[str]:
    properties = {name for name, attr in vars(cls).items() if isinstance(attr, property)}
    return {f.name for f in dataclasses.fields(cls)} | properties


def test_every_exported_dataclass_field_is_read_outside_the_tests():
    used = _used_outside_the_tests()
    unread = set()
    for name in layerfem.__all__:
        obj = getattr(layerfem, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            unread |= {f"{name}.{attr}" for attr in _fields_and_properties(obj) - used}
    unlisted = sorted(unread - set(UNREAD_FIELDS))
    assert unlisted == [], f"fields only tests read: {unlisted}"
    # An allowlisted field that gains a reader (or goes away) leaves the list.
    assert set(UNREAD_FIELDS) <= unread
