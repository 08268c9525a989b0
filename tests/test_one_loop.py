"""The package states its exponentiation once, in field.straus: mod_pow,
scalar_mul, multi_mod_pow and multi_scalar_mul are calls with no loop of
their own, and only multi_scalar_mul doubles points, so no second
square-and-multiply or double-and-add loop can come back elsewhere in the
package.  Nothing in the package calls the builtin pow, whose C loop would
give one side a faster substrate than the other."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abclab"


def top_level_functions(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_single_term_forms_have_no_loop():
    for module, name in (("field.py", "mod_pow"), ("curve.py", "scalar_mul"),
                         ("field.py", "multi_mod_pow"), ("curve.py", "multi_scalar_mul")):
        loops = [node for node in ast.walk(top_level_functions(module)[name])
                 if isinstance(node, (ast.For, ast.While))]
        assert not loops, f"{module}:{name} has a loop of its own"


def test_only_multi_scalar_mul_doubles():
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
            callers += [f"{path.name}:{owner}" for node in ast.walk(top)
                        if isinstance(node, ast.Call) and called_name(node) == "point_double"
                        and owner != "multi_scalar_mul"]
    assert not callers, f"point_double called outside multi_scalar_mul: {callers}"


def test_no_call_to_pow():
    calls = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and called_name(node) == "pow"]
    assert not calls, f"pow called in the package: {calls}"
