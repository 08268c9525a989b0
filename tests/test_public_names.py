"""Every top-level function, class and constant in the package, public or
private, has a reader in the program: the package itself or the benchmark in
perfbench/.  A name that only tests reach is code kept alive by its own tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abclab"

# Names that may have test callers only, with the reason.
ALLOWED = {
    "scalar_mul_counted": "acceptance criteria 4-5 count the work of scalar_mul through it",
}


def definitions():
    """(module file name, name, is_constant) for each top-level function and
    class, and each top-level assigned name but dunders."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node.name, False
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not name.id.startswith("__"):
                            yield path.name, name.id, True


def references():
    """(module file name, name) for each name the program reads: bare in the
    package module that defines it or in a module that imports it from
    there, or as an attribute of a package module (``scheme.verify``) in
    the package or perfbench/.  Importing a name does not use it, and
    ``n.bit_length()`` is no use of a function named bit_length."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # Where each bare name a module reads was defined: its own body, or an import.
        origin = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                if source in modules:
                    origin.update((alias.asname or alias.name, (f"{source}.py", alias.name))
                                  for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in origin:
                    found.add(origin[node.id])
                elif path.parent == PACKAGE:
                    found.add((path.name, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((f"{node.value.id}.py", node.attr))
    return found


def orphans(select):
    used = references()
    return [f"{module}:{name}" for module, name, is_constant in definitions()
            if select(name, is_constant) and (module, name) not in used
            and name not in ALLOWED]


def test_every_public_name_has_a_program_caller():
    found = orphans(lambda name, is_constant: not is_constant and not name.startswith("_"))
    assert not found, f"public names only tests reach: {found}"
    assert set(ALLOWED) <= {name for _, name, _ in definitions()}, "stale allow-list entry"


def test_every_private_name_has_a_program_caller():
    found = orphans(lambda name, is_constant: not is_constant and name.startswith("_"))
    assert not found, f"private names only tests reach: {found}"


def test_every_constant_has_a_program_reader():
    found = orphans(lambda name, is_constant: is_constant)
    assert not found, f"constants no program code reads: {found}"
