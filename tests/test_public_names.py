"""Every top-level function and class in the package, public or private, has
a caller in the program: the package itself or the benchmark in perfbench/.
A name that only tests reach is code kept alive by its own tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abclab"

# Names that may have test callers only, with the reason.
ALLOWED = {
    "scalar_mul_counted": "acceptance criteria 4-5 count the work of scalar_mul through it",
}


def definitions():
    """(module file name, name) for each top-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node.name


def references():
    """Every name the program uses bare or as an attribute of a package
    module (``scheme.verify``).  Importing a name does not use it, and
    ``n.bit_length()`` is no use of a function named bit_length."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add(node.attr)
    return found


def orphans(private):
    used = references()
    return [f"{module}:{name}" for module, name in definitions()
            if name.startswith("_") == private and name not in used and name not in ALLOWED]


def test_every_public_name_has_a_program_caller():
    found = orphans(private=False)
    assert not found, f"public names only tests reach: {found}"
    assert set(ALLOWED) <= {name for _, name in definitions()}, "stale allow-list entry"


def test_every_private_name_has_a_program_caller():
    found = orphans(private=True)
    assert not found, f"private names only tests reach: {found}"
