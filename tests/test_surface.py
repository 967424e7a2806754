"""The package's public surface is what the lab itself reaches.

A public top-level def or class of `src/shrinkerlab` must be referenced
somewhere in `src/` outside its own definition, or by the acceptance suite
or the benchmark.  A name only unit tests reach is dead weight: delete it
and move its tests onto the function that does the work, or give it a
reason in KEEP.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "shrinkerlab").glob("*.py"))
MODULES = {path.stem for path in SRC}

# reached by unit tests only, kept on purpose
KEEP = {
    "field_from_csv": "tests/test_cli.py reads the flow_final.csv artifact back with it",
    "second_form_sq_field": "tests/test_cli.py checks the flow_final.csv artifact with it",
    "ThetaTarget": "reaching it needs a verify-shrinkers check, a change of its own "
                   "that the shrinker-probes workload would pay for",
    "group_bounds": "each Prop 4.1 group against its proved bound; reaching it from "
                    "verify-prop41 would change that report and the certify workload",
    "unit_weight": "the unweighted control of the first-variation family, used by "
                   "the unit tests of the tension pairing and the boundary warning",
}


def _names(tree, hooks=False):
    """Every name a tree reads: names, attributes and imported names; with
    hooks, also the "module.name" strings the benchmark patches by."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif hooks and isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, _, name = node.value.partition(".")
            if module in MODULES and name.isidentifier():
                yield name


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _unreached():
    trees = {path: ast.parse(path.read_text()) for path in SRC}
    outside = set(_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside.update(_names(ast.parse(path.read_text()), hooks=True))
    in_src = [name for tree in trees.values() for name in _names(tree)]
    unreached = []
    for path, tree in trees.items():
        for node in _public_definitions(tree):
            own = sum(name == node.name for name in _names(node))
            if in_src.count(node.name) == own and node.name not in outside:
                unreached.append(f"{path.stem}.{node.name}")
    return unreached


def test_every_public_name_is_reached_by_the_lab():
    unreached = [name for name in _unreached() if name.rpartition(".")[2] not in KEEP]
    assert unreached == []


def test_every_kept_name_is_defined_and_still_unreached():
    # a kept name that is deleted or that the lab comes to reach leaves KEEP
    assert sorted(KEEP) == sorted(name.rpartition(".")[2] for name in _unreached()
                                  if name.rpartition(".")[2] in KEEP)


def _per_value_math_loops(tree):
    """(line, call) of every list comprehension or generator expression
    whose element is a math.* call: a per-value libm loop that one NumPy
    ufunc call on the array replaces."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            elt = node.elt
            if (isinstance(elt, ast.Call) and isinstance(elt.func, ast.Attribute)
                    and isinstance(elt.func.value, ast.Name) and elt.func.value.id == "math"):
                yield node.lineno, f"math.{elt.func.attr}"


def test_no_per_value_math_loops_in_src():
    found = [f"{path.stem}.py:{line}: {call}" for path in SRC
             for line, call in _per_value_math_loops(ast.parse(path.read_text()))]
    assert found == []
