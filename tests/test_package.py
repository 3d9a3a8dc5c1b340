import ast
import dataclasses
import inspect
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
TEST_ONLY_API: dict[str, str] = {}


def _names_used(path: Path) -> tuple[set[str], set[str]]:
    """The top-level names and the class members a file uses.

    A top-level name is used when read bare or as an attribute; a member only
    as an attribute, so a local variable or parameter of the same name is not
    a use.  Definitions, imports, strings (so ``__all__`` entries and
    docstrings) and comments are not uses.
    """
    names, members = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            members.add(node.attr)
    return names, members


ROOT = Path(__file__).resolve().parents[1]
PACKAGE_SOURCES = sorted((ROOT / "src" / "layerfem").glob("*.py"))


def _used_outside_the_tests() -> tuple[set[str], set[str]]:
    """:func:`_names_used` over the package and perfbench's non-test modules."""
    sources = PACKAGE_SOURCES + [
        path for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    names, members = zip(*(_names_used(path) for path in sources))
    return set().union(*names), set().union(*members)


def _private_definitions(path: Path) -> set[str]:
    """The private module-level functions, classes and constants a file
    defines, and the private methods of its classes (dunder names excluded)."""
    defined = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
        if isinstance(node, ast.ClassDef):
            defined |= {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
    return {name for name in defined if name.startswith("_") and not name.endswith("__")}


def test_a_member_is_used_only_as_an_attribute(tmp_path):
    source = tmp_path / "source.py"
    source.write_text("def f(rhs):\n    return rhs\n\n\nobj.to_dense()\n")
    names, members = _names_used(source)
    assert {"rhs", "to_dense"} <= names
    assert "rhs" not in members and "to_dense" in members


def test_a_private_definition_is_used_only_when_read(tmp_path):
    source = tmp_path / "source.py"
    source.write_text(
        "from .other import _imported\n\n\n_LIMIT = 2\n\n\n"
        "def _dead():\n    pass\n\n\n"
        "class _Live:\n    def __init__(self):\n        self._read()\n\n"
        "    def _read(self):\n        pass\n\n    def _unread(self):\n        pass\n\n\n"
        "_Live()\n"
    )
    defined = _private_definitions(source)
    assert defined == {"_LIMIT", "_dead", "_Live", "_read", "_unread"}
    names, _ = _names_used(source)
    assert defined - names == {"_LIMIT", "_dead", "_unread"}


def test_every_private_definition_is_read_outside_the_tests():
    used, _ = _used_outside_the_tests()
    unread = sorted(
        f"{path.name}: {name}"
        for path in PACKAGE_SOURCES
        for name in _private_definitions(path) - used
    )
    assert unread == [], f"private code nothing reads: {unread}"


def test_every_public_name_is_used_outside_the_tests():
    used, _ = _used_outside_the_tests()
    unused = sorted(set(layerfem.__all__) - used - set(TEST_ONLY_API))
    assert unused == [], f"public names only tests use: {unused}"
    # An allowlisted name that gains a use (or stops being public) leaves the list.
    assert set(TEST_ONLY_API) <= set(layerfem.__all__) - used


# Members of exported classes that nothing reads by name, each with the
# reason it stays.
UNREAD_MEMBERS = {
    "StepSizeChecks.midpoint_left_of_half": "verify's FAIL lines print it through the dataclass repr",
    "InterpolantBundle.corrected_interp": (
        "the paper's corrected interpolant; test_interpolants checks it"
    ),
}


def _members(cls: type) -> set[str]:
    """Dataclass fields and the public methods and properties a class defines."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return fields | {
        name for name, attr in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(attr) or isinstance(attr, property))
    }


def test_every_exported_class_member_is_read_outside_the_tests():
    _, used = _used_outside_the_tests()
    unread = set()
    for name in layerfem.__all__:
        obj = getattr(layerfem, name)
        if isinstance(obj, type):
            unread |= {f"{name}.{attr}" for attr in _members(obj) - used}
    unlisted = sorted(unread - set(UNREAD_MEMBERS))
    assert unlisted == [], f"members only tests read: {unlisted}"
    # An allowlisted member that gains a reader (or goes away) leaves the list.
    assert set(UNREAD_MEMBERS) <= unread
