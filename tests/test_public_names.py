"""Every public top-level function and class in the package has a caller in
the program: the package itself or the benchmark in perfbench/.  A name that
only tests reach is code kept alive by its own tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abclab"

# Names that may have test callers only, with the reason.
ALLOWED = {
    "scalar_mul_counted": "acceptance criteria 4-5 count the work of scalar_mul through it",
}


def public_definitions():
    """(module file name, name) for each public top-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
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


def test_every_public_name_has_a_program_caller():
    definitions = list(public_definitions())
    used = references()
    orphans = [f"{module}:{name}" for module, name in definitions
               if name not in used and name not in ALLOWED]
    assert not orphans, f"public names only tests reach: {orphans}"
    assert set(ALLOWED) <= {name for _, name in definitions}, "stale allow-list entry"
