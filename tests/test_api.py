"""The public surface: every exported name resolves, and something reaches it.

A name in a module's ``__all__``, or a public method of an exported class,
must be referenced in ``src/`` or ``bench/`` outside its own definition, or
carry an entry in ``KEEP`` that names the acceptance test or paper concept
that keeps it.  A reference is a name or attribute in code, or a string
equal to the name (``bench/spans.py`` patches functions by name); imports
and ``__all__`` itself do not count.  Methods are matched by attribute name
alone, so a method shares references with every method of the same name.

A defaulted parameter of a public module-level function follows it too:
some call in ``src/`` or ``bench/`` must pass it, by keyword or by position,
or it carries an entry in ``KEEP_DEFAULTS``; a parameter nothing passes is a
knob with one value in use.  Calls are matched by function name alone.

A field of an exported dataclass follows it as well: some constructor call
or ``replace`` in ``src/`` or ``bench/`` must pass it, or ``src/`` must
assign it (``x.field = ...`` anywhere, or ``object.__setattr__(self,
"field", ...)`` inside the class), or it carries an entry in ``KEEP_FIELDS``.
Constructor calls are matched by class name alone.

Config keys follow the same rule: every key of a section of ``cli``'s key
table ``_KEYS`` must be read somewhere in ``src/`` outside that table, which
only validates it, or carry an entry in ``KEEP_KEYS``.
"""

import ast
import dataclasses
import inspect
import pathlib
import types

import pytest

import sastra

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sastra").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
MODULES = [getattr(sastra, name) for name in sastra.__all__]

# qualified name -> what keeps it although nothing in src/ or bench/ calls it
KEEP = {
    "problems.ProblemInstance.loss_value": "the per-sample oracle f(x, xi) of the stochastic program",
    "problems.FiniteSumQuadratic.interpolating": "test_08: linear rate under interpolation",
}

# config keys that nothing reads; ROADMAP item 7 deletes both once the
# svm_sgd benchmark config stops setting them
KEEP_KEYS = {
    "pool_size": "accepted for old configs, ignored",
    "pool_seed": "accepted for old configs, ignored",
}
# class.field -> why it keeps a default nothing in src/ or bench/ overrides
KEEP_FIELDS = {
    "SlidingParams.inner_budget": "a test caps the inner iterations",
}

# module.function.parameter -> why it keeps a default nothing in src/ or
# bench/ overrides
KEEP_DEFAULTS = {
    "sa_solvers.restart_stage_plan.multiplier":
        "bench/spans.py keeps restart_stage_plan; ROADMAP item 7 deletes it",
    "saa_solvers.solve_erm.budget": "tests cap the iterations",
    "sliding.inner_solve.tol_override": "a test solves the inner model to 1e-22",
    "sliding.sliding_run.probe": "a test runs the smoothness probe inside sliding",
}


def _references():
    """name -> list of (file, line) where code refers to it."""
    refs = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                skip.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _definitions(module):
    """(qualified name, short name, file, first line, last line) for every
    __all__ entry that is not a module, and every public method of an
    exported class."""
    path = pathlib.Path(module.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    spans[target.id] = node
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name in module.__all__:
        if isinstance(getattr(module, name), types.ModuleType):
            continue
        node = spans[name]
        out.append((f"{short}.{name}", name, path, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((f"{short}.{name}.{item.name}", item.name, path,
                                item.lineno, item.end_lineno))
    return out


@pytest.mark.parametrize("module", [sastra] + MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def _unreached() -> set:
    refs = _references()
    unreached = set()
    for module in MODULES:
        for qualified, name, path, first, last in _definitions(module):
            if all(where == path and first <= line <= last
                   for where, line in refs.get(name, [])):
                unreached.add(qualified)
    return unreached


def test_every_public_name_is_reached():
    # both ways: a dead name fails, and so does a KEEP entry that gained a
    # caller or no longer exists
    unreached = _unreached()
    assert unreached - set(KEEP) == set(), (
        "public names nothing in src/ or bench/ reaches; delete them, or add "
        "each to KEEP with the test or concept that needs it"
    )
    assert set(KEEP) - unreached == set(), "KEEP entries that are reached or gone"


def test_errors_are_exported():
    # errors defines only exception classes; each one is listed
    classes = {name for name, obj in vars(sastra.errors).items()
               if inspect.isclass(obj) and obj.__module__ == "sastra.errors"}
    assert classes == set(sastra.errors.__all__)


def test_every_config_key_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "sastra").glob("*.py"))}
    (table,) = [node for node in trees["cli.py"].body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "_KEYS"]
    keys = {k.value for section in table.value.values for k in section.keys}
    tables = {id(n) for n in ast.walk(table)}
    assert len(keys) > len(KEEP_KEYS)
    read = {node.value for tree in trees.values() for node in ast.walk(tree)
            if id(node) not in tables and isinstance(node, ast.Constant)
            and isinstance(node.value, str)}
    unread = keys - read
    assert unread - set(KEEP_KEYS) == set(), "config keys nothing reads; delete them"
    assert set(KEEP_KEYS) - unread == set(), "KEEP_KEYS entries that are read or gone"


def test_every_declared_constant_is_read():
    # a ProblemConstants field that no solver, harness or benchmark reads is
    # declared for nothing; the families' own constants() in problems.py do
    # not count
    fields = {f.name for f in dataclasses.fields(sastra.problems.ProblemConstants)}
    read = {node.attr for path in SOURCES if path != ROOT / "src" / "sastra" / "problems.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    assert fields - read == set(), "declared constants nothing reads; delete them"


def _attribute_reads(attr: str) -> list:
    """'module.function' for every read of the attribute ``attr`` in src/
    outside problems.py, named by the innermost function around it."""
    reads = []
    for path in sorted((ROOT / "src" / "sastra").glob("*.py")):
        if path.name == "problems.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                reads.append(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    return reads


def test_only_the_harness_grades():
    # a solver never reads the optimum it is graded against: no module but
    # problems reads x_star, and run_trials alone takes population gaps (the
    # cli's "x_star" config key is a string, not a read)
    assert _attribute_reads("x_star") == []
    assert _attribute_reads("population_gap") == ["harness.run_trials"]


def _calls():
    """function name -> every call of a function or method of that name."""
    calls = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, position, param) -> bool:
    """Whether the call gives param a value: by keyword, by **mapping, or by
    position (any *sequence counts)."""
    if any(k.arg in (param.name, None) for k in call.keywords):
        return True
    return param.kind is not param.KEYWORD_ONLY and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_default_is_passed():
    calls = _calls()
    unpassed = set()
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, func in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(func)
                    or func.__module__ != module.__name__):
                continue
            params = inspect.signature(func).parameters.values()
            for position, param in enumerate(params):
                if param.default is not param.empty and not any(
                        _passes(call, position, param) for call in calls.get(name, [])):
                    unpassed.add(f"{short}.{name}.{param.name}")
    assert unpassed - set(KEEP_DEFAULTS) == set(), (
        "defaulted parameters nothing in src/ or bench/ passes; delete them, or "
        "add each to KEEP_DEFAULTS with the reason it stays"
    )
    assert set(KEEP_DEFAULTS) - unpassed == set(), "KEEP_DEFAULTS entries that are passed or gone"


def _assigned_fields() -> tuple[set, dict]:
    """Attributes src/ assigns as x.field = ..., and class name -> fields its
    own body sets with object.__setattr__(self, "field", ...)."""
    anywhere, by_class = set(), {}
    for path in sorted((ROOT / "src" / "sastra").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                anywhere.update(t.attr for t in targets if isinstance(t, ast.Attribute))
            elif isinstance(node, ast.ClassDef):
                by_class.setdefault(node.name, set()).update(
                    call.args[1].value for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "attr", None) == "__setattr__"
                    and len(call.args) == 3 and isinstance(call.args[1], ast.Constant))
    return anywhere, by_class


def test_every_field_is_passed():
    calls = _calls()
    anywhere, by_class = _assigned_fields()
    anywhere |= {k.arg for call in calls.get("replace", []) for k in call.keywords}
    unpassed = set()
    for module in MODULES:
        for name in module.__all__:
            cls = getattr(module, name)
            if not (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                continue
            assigned = anywhere | by_class.get(name, set())
            params = inspect.signature(cls).parameters.values()
            for position, param in enumerate(params):
                if param.name not in assigned and not any(
                        _passes(call, position, param) for call in calls.get(name, [])):
                    unpassed.add(f"{name}.{param.name}")
    assert unpassed - set(KEEP_FIELDS) == set(), (
        "dataclass fields nothing in src/ or bench/ passes or assigns; delete "
        "them, or add each to KEEP_FIELDS with the reason it stays"
    )
    assert set(KEEP_FIELDS) - unpassed == set(), "KEEP_FIELDS entries that are passed or gone"
