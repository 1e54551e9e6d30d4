"""The package layout: the oracles live in ``reference`` alone, and no
other module of the package, its root included, defines or imports them.
A record is a dataclass only if it validates its fields or is a report,
and no module of the package or of its tests imports a name it never uses."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from secrecy_ascent import reference

PACKAGE = Path(reference.__file__).parent
ENGINE = ("__init__", "channel", "metrics", "gradients", "optimizer", "experiment", "config",
          "cli")
MOVED = ("sinr_legitimate", "sinr_eavesdropper", "capacity", "secrecy_capacity",
         "_bilinear_power", "draw_paths", "build_channel", "PathComponent",
         "steering_vector")


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level: definitions, assignments, imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def imported_modules(tree: ast.Module):
    """Dotted names of what a module imports, each import's names included
    (``from . import x`` imports ``.x``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names)


@pytest.mark.parametrize("module", ENGINE)
def test_engine_modules_neither_define_nor_import_the_oracles(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert not any("reference" in name.split(".") for name in imported_modules(tree))
    assert not top_level_names(tree) & set(MOVED)


def test_the_oracles_are_in_reference():
    for name in MOVED:
        assert hasattr(reference, name)


# the single-state layer, by defining module: each name is a batch of one
# row or one state's view of the packed engine, and only tests and tools call it
SINGLE_STATE = {
    "gradients": ("grad_wl", "grad_fj", "grad_fs", "grad_we", "gradient_bundle",
                  "capacity_difference"),
    "optimizer": ("ascend_fixed_power", "ascend_variable_power", "state_ca_violation",
                  "project_unit_norm"),
}
# experiment re-exports the two single-row ascents, where tools that wrap its
# per-trial layers look them up
REEXPORTS = {"experiment": {("import", "ascend_fixed_power"), ("import", "ascend_variable_power")}}


def references(tree: ast.Module):
    """(kind, name) of each name a module refers to: a bare name ("name"),
    an attribute ("attribute"), or a name it imports ("import")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "name", node.id
        elif isinstance(node, ast.Attribute):
            yield "attribute", node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (("import", a.name.split(".")[-1]) for a in node.names)


@pytest.mark.parametrize("module", ENGINE)
def test_no_engine_module_but_its_home_names_the_single_state_layer(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    foreign = {name for home, names in SINGLE_STATE.items() if home != module for name in names}
    named = {ref for ref in references(tree) if ref[1] in foreign}
    assert not named - REEXPORTS.get(module, set())


SOURCES = sorted([*PACKAGE.glob("*.py"), *Path(__file__).parent.glob("*.py")])


def unused_imports(path: Path):
    """``file:line: name`` of each name that ``path`` imports and never uses
    as a bare name; an import whose lines carry ``# noqa: F401`` (a
    re-export) is exempt, and so is ``from __future__``."""
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                yield f"{path.name}:{node.lineno}: {name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    assert list(unused_imports(path)) == []


VALIDATING = {"ChannelParams", "ChannelSet", "PowerConfig", "OptimizerConfig", "SystemConfig"}
REPORTS = {"AggregateReport", "FixedPowerReport", "VariablePowerReport"}
NAMED_TUPLES = {"BeamformerState", "IterationRecord", "CycleRecord", "OptimizerTrace",
                "OptimizeResult", "AscentRow", "PathComponent", "SecrecySnapshot"}


def test_a_record_is_a_dataclass_only_if_it_validates_or_is_a_report():
    classes = {}
    for module in (*ENGINE, "reference"):
        mod = importlib.import_module(f"secrecy_ascent.{module}")
        classes.update((name, obj) for name, obj in vars(mod).items()
                       if isinstance(obj, type) and obj.__module__ == mod.__name__)
    assert {name for name, cls in classes.items()
            if dataclasses.is_dataclass(cls)} == VALIDATING | REPORTS
    assert all("__post_init__" in vars(classes[name]) for name in VALIDATING)
    assert {name for name, cls in classes.items() if issubclass(cls, tuple)} == NAMED_TUPLES
