"""The public surface of vone is what its callers reach.

Three callers use the package: the ``vone`` console script, the benchmark
under ``perfbench/`` and the acceptance gate ``tests/test_acceptance.py``.
This test reads all of them with ``ast`` only. It builds the graph of
top-level definitions in ``src/vone`` (an edge is a name a definition loads,
followed through ``from .x import y``), walks it from what the callers name,
and fails on a name in an ``__all__`` that nothing reaches, unless
``UNREACHED`` says why it stays exported. A dunder such as ``__version__``
is exempt.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vone"
PERFBENCH = ROOT / "perfbench"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# "module.name" of an exported name no caller reaches -> why it stays
UNREACHED: dict[str, str] = {}

def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


MODULES = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}


def _bindings() -> tuple[dict, dict]:
    """The top-level definitions of each module, (module, name) -> nodes,
    and its relative imports, (module, name) -> (module, name)."""
    defs: dict[tuple, list] = {}
    imports: dict[tuple, tuple] = {}
    for mod, tree in MODULES.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module:
                for alias in stmt.names:
                    imports[mod, alias.asname or alias.name] = (stmt.module, alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault((mod, stmt.name), []).append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            defs.setdefault((mod, node.id), []).append(stmt)
    return defs, imports


DEFS, IMPORTS = _bindings()


def resolve(mod: str, name: str) -> tuple | None:
    """The (module, name) that defines what ``name`` means in ``mod``."""
    key = (mod, name)
    while key not in DEFS and key in IMPORTS:
        key = IMPORTS[key]
    return key if key in DEFS else None


def _edges(key: tuple) -> set:
    mod = key[0]
    out = set()
    for stmt in DEFS[key]:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(resolve(mod, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.update(resolve(node.module, alias.name) for alias in node.names)
    out.discard(None)
    return out


def reached(roots) -> set:
    """The definitions reachable from the (module, name) roots."""
    seen, todo = set(), [resolve(*root) for root in roots]
    while todo:
        key = todo.pop()
        if key is not None and key not in seen:
            seen.add(key)
            todo.extend(_edges(key) - seen)
    return seen


def _vone_name(parts: list) -> tuple | None:
    """The root a dotted read below the package names: ``vone.X``, or
    ``vone.module.X`` for a submodule. None for the package or a module."""
    if parts and parts[0] in MODULES:
        return (parts[0], parts[1]) if len(parts) > 1 else None
    return ("__init__", parts[0]) if parts else None


def _chain(node: ast.Attribute) -> list | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def caller_reads(tree: ast.Module) -> set:
    """What a caller names of vone: ``from vone.x import y``, and the
    attribute reads ``vone.X``, ``self.vone.X`` or ``v.X`` after
    ``v = self.vone``."""
    aliases = {"vone"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.Attribute)):
            value = _chain(node.value) if isinstance(node.value, ast.Attribute) else [node.value.id]
            if value and value[-1] == "vone":
                aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            path = node.module.split(".")
            if path[0] == "vone":
                out.update(_vone_name(path[1:] + [alias.name]) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            parts = _chain(node)
            if not parts:
                continue
            if parts[0] in aliases:
                out.add(_vone_name(parts[1:]))
            elif "vone" in parts[1:]:
                out.add(_vone_name(parts[parts.index("vone", 1) + 1:]))
    out.discard(None)
    return out


def script_roots() -> set:
    """The console scripts of ``[project.scripts]`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    scripts = re.findall(r'^\s*[\w-]+\s*=\s*"([\w.]+):(\w+)"', section.group(1), re.M)
    return {_vone_name(module.split(".")[1:] + [name]) for module, name in scripts}


def tracer_targets() -> list:
    """The (module, path) pairs of ``TARGETS`` in perfbench/tracing.py."""
    for stmt in _parse(PERFBENCH / "tracing.py").body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets):
            return [(row.elts[1].value, row.elts[2].value) for row in stmt.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def roots() -> dict:
    """Each caller and the (module, name) roots it names."""
    bench = {_vone_name(module.split(".")[1:] + path.split(".")[:1])
             for module, path in tracer_targets()}
    for path in sorted(PERFBENCH.glob("*.py")):
        bench |= caller_reads(_parse(path))
    return {
        "console script": script_roots(),
        "perfbench": bench,
        "acceptance gate": caller_reads(_parse(ACCEPTANCE)),
    }


def exported() -> dict:
    """Every name in an ``__all__``, as "module.name" of its definition."""
    out = {}
    for mod, tree in MODULES.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                for name in ast.literal_eval(stmt.value):
                    if not (name.startswith("__") and name.endswith("__")):
                        key = resolve(mod, name)
                        assert key is not None, f"{mod}.__all__ names {name}, which is not defined"
                        out[f"{key[0]}.{key[1]}"] = key
    return out


def _reached_by_callers() -> set:
    return reached(set().union(*roots().values()))


def test_callers_name_only_what_vone_defines():
    for caller, names in roots().items():
        assert names, f"no root found in the {caller}"
        missing = sorted(f"{m}.{n}" for m, n in names if resolve(m, n) is None)
        assert not missing, f"the {caller} reads names vone no longer defines: {missing}"


def test_every_export_is_reached():
    seen = _reached_by_callers()
    dead = sorted(name for name, key in exported().items()
                  if key not in seen and name not in UNREACHED)
    assert not dead, ("exported, yet reached by neither the CLI, perfbench nor the "
                      f"acceptance gate: {', '.join(dead)}")


def test_unreached_entries_are_current():
    seen, names = _reached_by_callers(), exported()
    for name in UNREACHED:
        assert name in names, f"UNREACHED lists {name}, which is no longer exported"
        assert names[name] not in seen, f"UNREACHED lists {name}, which a caller reaches"


def test_perfbench_targets_resolve_as_the_tracer_does():
    # Tracer.install wraps a module attribute, or a method found in its
    # class's __dict__; a target that resolves neither way breaks the tracer
    for module, path in tracer_targets():
        mod = importlib.import_module(module)
        owner, _, attr = path.rpartition(".")
        if owner:
            assert attr in vars(getattr(mod, owner)), f"{module}.{path} is not in its class's __dict__"
        else:
            assert callable(getattr(mod, attr, None)), f"{module}.{path} is not a module function"


def test_scanner_follows_reexports_and_aliases():
    tree = ast.parse("import vone\nv = self.vone\nv.marks(x)\nvone.cli.run([])\n"
                     "from vone.geomfix import telescope_fixed_points\n")
    assert caller_reads(tree) == {("__init__", "marks"), ("cli", "run"),
                                  ("geomfix", "telescope_fixed_points")}
    assert resolve("__init__", "marks") == ("burnside", "marks")
    assert ("burnside", "from_marks") in reached({("burnside", "bmul")})
