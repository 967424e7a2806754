"""The package's public surface is what the lab itself reaches.

A public top-level def or class of `src/shrinkerlab` must be referenced
somewhere in `src/` outside its own definition, or by the acceptance suite
or the benchmark.  So must each member of a public class (the fields its
body declares, as dataclass and NamedTuple fields, its properties and its
public methods), read as an attribute outside the class.  A name or member
only unit tests reach is dead weight: delete it and move its tests onto the
route that does the work, or give it a reason in KEEP.
"""

import argparse
import ast
import functools
import importlib
import re
from pathlib import Path

from shrinkerlab import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "shrinkerlab").glob("*.py"))
MODULES = {path.stem for path in SRC}

# reached by unit tests only, kept on purpose: top-level names, and
# members as Class.member
KEEP = {
    "field_from_csv": "tests/test_cli.py reads the flow_final.csv artifact back with it",
    "second_form_sq_field": "tests/test_cli.py checks the flow_final.csv artifact with it",
    "group_bounds": "each Prop 4.1 group against its proved bound; reaching it from "
                    "verify-prop41 would change that report and the certify workload",
    "unit_weight": "the weight 1 at one block's frames: the unweighted control that "
                   "first_variation_check takes in the unit tests of the tension "
                   "pairing, the boundary warning and the blocked bits",
    "RunReport.subcommand": "written into the report JSON by RunReport.as_dict",
    "RunReport.artifacts": "listed in the report JSON by RunReport.as_dict",
    "SweepReport.worst_per_v": "the per-slice maxima, which the unit tests hold bit "
                               "for bit to a loop over slices",
    "SweepReport.empty_slices": "the count of slices with no point of Omega, which the "
                                "unit tests hold to a loop over slices",
    "GroupBounds.slack": "the slacks group_bounds returns, kept above",
}


def _names(tree, hooks=False, attributes=False):
    """Every name a tree reads: names, attributes and imported names, or
    with attributes the attribute names alone; with hooks, also the names in
    the "module.name" and "module.Class.member" strings the benchmark
    patches by."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name) and not attributes:
            yield node.id
        elif isinstance(node, ast.alias) and not attributes:
            yield node.name.rpartition(".")[2]
        elif hooks and isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, _, name = node.value.partition(".")
            if module in MODULES:
                yield from (part for part in name.split(".") if part.isidentifier())


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _members(cls):
    """The public fields, properties and methods a class body declares."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        elif isinstance(node, ast.FunctionDef):
            name = node.name
        else:
            continue
        if not name.startswith("_"):
            yield name


def _unreached(attributes):
    """module.name of each unreached public definition or, with attributes,
    module.Class.member of each unreached member of a public class."""
    trees = {path: ast.parse(path.read_text()) for path in SRC}
    outside = set(_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()),
                         attributes=attributes))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside.update(_names(ast.parse(path.read_text()), hooks=True, attributes=attributes))
    in_src = [name for tree in trees.values() for name in _names(tree, attributes=attributes)]
    unreached = []
    for path, tree in trees.items():
        for node in _public_definitions(tree):
            if not attributes:
                found = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef):
                found = [(f"{node.name}.{m}", m) for m in _members(node)]
            else:
                continue
            for key, name in found:
                own = sum(n == name for n in _names(node, attributes=attributes))
                if in_src.count(name) == own and name not in outside:
                    unreached.append(f"{path.stem}.{key}")
    return unreached


def test_every_public_name_is_reached_by_the_lab():
    unreached = [name for name in _unreached(False) if name.partition(".")[2] not in KEEP]
    assert unreached == []


def test_every_public_member_is_reached_by_the_lab():
    unreached = [name for name in _unreached(True) if name.partition(".")[2] not in KEEP]
    assert unreached == []


def test_every_kept_name_is_defined_and_still_unreached():
    # a kept name that is deleted or that the lab comes to reach leaves KEEP
    unreached = [name.partition(".")[2] for name in _unreached(False) + _unreached(True)]
    assert sorted(KEEP) == sorted(name for name in unreached if name in KEEP)


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


def _config_keys_read(tree):
    """Every key k that a tree reads as cfg["k"]."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "cfg"
                and isinstance(node.slice, ast.Constant)):
            yield node.slice.value


def test_every_config_key_is_read_by_the_cli():
    # a default that no command reads is an option that changes nothing
    read = set(_config_keys_read(ast.parse(Path(cli.__file__).read_text())))
    unread = [f"{sub}.{key}" for sub, keys in cli.DEFAULTS.items() for key in keys
              if key not in read]
    assert unread == []


def _layout_rows():
    """(module, contents) of each row of README's Layout table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        # a cell may hold escaped pipes, \|
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        if len(cells) == 2 and cells[0].startswith("`shrinkerlab."):
            yield cells[0].strip("`").partition(".")[2], cells[1]


def test_every_layout_identifier_is_an_attribute_of_its_module():
    # so a deleted or renamed name cannot stay in README
    rows = dict(_layout_rows())
    assert set(rows) == MODULES - {"__init__"}
    missing = []
    for name, contents in rows.items():
        module = importlib.import_module(f"shrinkerlab.{name}")
        for token in re.findall(r"`([^`]*)`", contents):
            if not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", token):
                continue
            try:
                functools.reduce(getattr, token.split("."), module)
            except AttributeError:
                missing.append(f"{name}: {token}")
    assert missing == []


def _synopsis_options():
    """The options README's command-line synopsis names, in order."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command-line interface\n", 1)[1]
    synopsis = section.split("```", 2)[1]
    return re.findall(r"\[(--[a-z-]+)", synopsis)


def test_cli_synopsis_names_exactly_the_shown_options():
    # so a flag cannot stay in README after it is removed, or be added without it
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(cli.HANDLERS)
    shown = {name: [s for a in sub._actions if a.help is not argparse.SUPPRESS
                    for s in a.option_strings if s.startswith("--") and s != "--help"]
             for name, sub in commands.choices.items()}
    assert shown == {name: _synopsis_options() for name in cli.HANDLERS}
    assert _synopsis_options() == ["--config", "--out", "--seed"]
