"""The package's public surface is what the lab itself reaches.

A public top-level def or class of `src/shrinkerlab` must be referenced
somewhere in `src/` outside its own definition, or by the acceptance suite
or the benchmark.  So must each member of a public class (the fields its
body declares, as dataclass and NamedTuple fields, its properties and its
public methods), read as an attribute outside the class.  A name or member
only unit tests reach is dead weight: delete it and move its tests onto the
route that does the work, or give it a reason in KEEP.  The same holds for
options: an optional parameter of a public function or method, or a field
with a default of a public class, must be set somewhere in the lab, or
given a reason in KEEP_OPTIONS.
"""

import argparse
import ast
import functools
import importlib
import math
import re
from pathlib import Path

from shrinkerlab import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "shrinkerlab").glob("*.py"))
# the rest of the lab: the acceptance suite and the benchmark
OUTSIDE = [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))
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
    "GroupBounds.slack": "the slacks group_bounds returns, kept above",
}

# set by unit tests only, kept on purpose: Function.option or Class.field
KEEP_OPTIONS = {
    "SolverConfig.dt": "an oversized step is how the tests reach DivergenceError, which "
                       "ROADMAP direction 1 pins",
    "system_residual.order": "the stencil order slope_field(order=4) takes in c11; "
                             "ROADMAP direction 19 reads the residual at order 4",
    "second_form_sq_field.order": "the stencil order slope_field(order=4) takes in c11, "
                                  "which the three grid fields share",
}

# member names that more than one public class declares: the member check
# matches by name, so it counts a read of one as a read of all
SHARED_MEMBERS = {
    "m": ["GridField", "OrientedFrame", "PointFrame"],
    "n": ["GridField", "OrientedFrame", "PointFrame"],
    "margin": ["CheckRecord", "GroupTotals"],
    "residual": ["StabilityReport", "FirstVariationReport"],
    "shape": ["GridField", "WeightedPatchMesh"],
    "values": ["GridField", "WeightField", "GroupBounds"],
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
    outside = {name for path in OUTSIDE for name in _names(
        ast.parse(path.read_text()), hooks=path.parent.name == "perfbench",
        attributes=attributes)}
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


def test_shared_member_names_are_pinned():
    # a new name shared by two public classes is renamed, or listed above
    shared = {}
    for path in SRC:
        for node in _public_definitions(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for name in _members(node):
                    shared.setdefault(name, []).append(node.name)
    assert {k: v for k, v in shared.items() if len(v) > 1} == SHARED_MEMBERS


def _options(definition, method=False):
    """(name, position) of each optional parameter of a function, position
    None for a keyword-only one, with a method's self or cls left out; or of
    each field with a default of a class, at its place among the fields.  A
    default_factory container is no option."""
    if isinstance(definition, ast.ClassDef):
        fields = [node for node in definition.body
                  if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        for k, node in enumerate(fields):
            factory = isinstance(node.value, ast.Call) and any(
                kw.arg == "default_factory" for kw in node.value.keywords)
            if node.value is not None and not factory:
                yield node.target.id, k
        return
    a = definition.args
    positional = a.posonlyargs + a.args
    if method:
        positional = positional[1:]
    yield from ((arg.arg, k) for k, arg in enumerate(positional)
                if k >= len(positional) - len(a.defaults))
    yield from ((arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)


def _with_owners(node, owners=()):
    """Every node of a tree, with the defs and classes that enclose it."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        owners += (node,)
    yield node, owners
    for child in ast.iter_child_nodes(node):
        yield from _with_owners(child, owners)


def _writes():
    """(callee, names, positional, owners) of each write in the lab: a call
    of callee with the keywords names (None for a **mapping splat) and
    positional arguments (inf with a *splat); a dataclasses.replace keyword
    or an attribute assignment is a write of that name by callee None."""
    for path in SRC + OUTSIDE:
        for node, owners in _with_owners(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                names = {kw.arg for kw in node.keywords}
                if callee == "replace":
                    yield None, names - {None}, 0, owners
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                yield callee, names, math.inf if starred else len(node.args), owners
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                            yield None, {n.attr}, 0, owners


def _unset_options():
    """Function.option, Class.method.option or Class.field of each option of
    a public definition of src that the lab never sets outside that
    definition.  Callees and fields are matched by name alone."""
    definitions = []
    for path in SRC:
        for node in _public_definitions(ast.parse(path.read_text())):
            definitions.append((node.name, node, False))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{node.name}.{m.name}", m, True) for m in node.body
                                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    writes = list(_writes())
    unset = []
    for key, node, method in definitions:
        # a field is also set by a write of its name alone; a parameter only by a call
        named = (node.name, None) if isinstance(node, ast.ClassDef) else (node.name,)
        for option, position in _options(node, method):
            if not any(option in names or callee and (
                           None in names or position is not None and position < positional)
                       for callee, names, positional, owners in writes
                       if callee in named and node not in owners):
                unset.append(f"{key}.{option}")
    return unset


def test_every_option_is_set_by_the_lab():
    assert [key for key in _unset_options() if key not in KEEP_OPTIONS] == []


def test_every_kept_option_is_defined_and_still_unset():
    # a kept option that is deleted or that the lab comes to set leaves KEEP_OPTIONS
    assert sorted(KEEP_OPTIONS) == sorted(key for key in _unset_options() if key in KEEP_OPTIONS)


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
