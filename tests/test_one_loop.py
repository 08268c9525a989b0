"""The package states its exponentiation once, in field.straus: mod_pow,
scalar_mul, multi_mod_pow and multi_scalar_mul are calls with no loop of
their own, and only multi_scalar_mul doubles points, so no second
square-and-multiply or double-and-add loop can come back elsewhere in the
package.  Inside straus, each group operation has one call site, in its one
pass over the bit positions, and a term without a kept table becomes a
Comb rather than a case of its own.  Only field.comb, the builder of every
kept table, tabulates subsets, so no call of the loop builds a table.
Nothing in the package calls the builtin pow, whose C loop would give one
side a faster substrate than the other.  The package has one clock too:
only wire.time_phase reads time.perf_counter."""

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


def test_straus_makes_one_pass_over_one_kind_of_term():
    straus = top_level_functions("field.py")["straus"]

    def sites(node):
        return [called_name(call) for call in ast.walk(node) if isinstance(call, ast.Call)]

    calls = sites(straus)
    for name in ("start", "square", "combine", "Comb"):
        assert calls.count(name) == 1, f"straus calls {name} at {calls.count(name)} sites"
    passes = [node for node in ast.walk(straus)
              if isinstance(node, ast.For) and "square" in sites(node)]
    assert len(passes) == 1 and {"start", "combine"} <= set(sites(passes[0]))


def callers(name):
    """module:function for each top-level function that calls name."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
            if any(isinstance(node, ast.Call) and called_name(node) == name
                   for node in ast.walk(top)):
                found.add(f"{path.name}:{owner}")
    return found


def test_only_multi_scalar_mul_doubles():
    outside = callers("point_double") - {"curve.py:multi_scalar_mul"}
    assert not outside, f"point_double called outside multi_scalar_mul: {sorted(outside)}"


def test_only_time_phase_reads_the_clock():
    assert callers("perf_counter") == {"wire.py:time_phase"}


def test_only_kept_table_builders_tabulate_subsets():
    assert callers("_subsets") == {"field.py:comb"}


def test_no_call_to_pow():
    calls = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and called_name(node) == "pow"]
    assert not calls, f"pow called in the package: {calls}"
