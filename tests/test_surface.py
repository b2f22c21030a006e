"""Guards on what the package ships and on the oracles' independence.

Every top-level definition in ``src/sphskel``, public or private (dunders
aside), must be reached from what a user or the benchmark runs: ``cli.main``,
``sphskel.__all__``, every identifier ``perfbench/*.py`` uses, and the entry
points the README documents that have no caller in the package.  A definition
reaches whatever its body names, through the package's own imports.  Code
that only the tests call lives under ``tests/`` (the paper's lemmas in
``lemmas.py``), and a private helper nothing calls, such as a catalog builder
no ``FAMILIES`` entry names, is dead.  The texts
``perfbench/selftest.py`` plants its faults on must stay in the sources.  The
sources are read with ``ast`` alone; nothing here imports ``sphskel``.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sphskel"

# documented in the README as API, with no caller in the package
DOCUMENTED = (
    ("catalog", "instantiate"),
    ("skeleton", "check_distinguished_certificate"),
    ("skeleton", "completeness_witness"),
    ("skeleton", "find_certificate_multipliers"),
)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _package():
    """``(defs, imports, uses)``: each module's top-level definitions, the
    names it imports from another package module as (module, name), and per
    (module, name) the (module, name) pairs its body names; module-level code
    outside any definition is keyed (module, None)."""
    defs, imports, uses = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod, tree = path.stem, _parse(path)
        modules = {}  # local alias -> package module
        names = imports[mod] = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "sphskel":
                modules.update({a.asname or a.name: a.name for a in stmt.names})
            elif isinstance(stmt, ast.ImportFrom) and (stmt.module or "").startswith("sphskel."):
                source = stmt.module.split(".", 1)[1]
                names.update({a.asname or a.name: (source, a.name) for a in stmt.names})
        own = defs[mod] = {name for stmt in tree.body for name in _defined(stmt)}
        for stmt in tree.body:
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id in own:
                    used.add((mod, node.id))
                elif isinstance(node, ast.Name) and node.id in names:
                    used.add(names[node.id])
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    used.add((modules[node.value.id], node.attr))
            for name in _defined(stmt) or [None]:
                uses.setdefault((mod, name), set()).update(used)
    return defs, imports, uses


def _perfbench_identifiers() -> set[str]:
    """Every name, attribute and dotted-string component perfbench uses."""
    out = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"\w+(\.\w+)+", node.value)):
                out.update(node.value.split("."))
    return out


def _literal(path: pathlib.Path, name: str):
    """The literal a module assigns to ``name`` at top level."""
    for stmt in _parse(path).body:
        if name in _defined(stmt):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"{path.relative_to(ROOT)} has no {name}")


def test_every_public_definition_is_reached():
    defs, imports, uses = _package()
    assert ("cli", "main") in uses
    for key in DOCUMENTED:
        assert key in uses, f"documented entry point {key} is not defined"
    perf = _perfbench_identifiers()
    roots = [("cli", "main"), *DOCUMENTED]
    roots += [("__init__", name) for name in _literal(SRC / "__init__.py", "__all__")]
    roots += [(mod, name) for mod, names in defs.items() for name in names if name in perf]
    roots += [(mod, None) for mod in defs]
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        mod, name = key
        if key in reached:
            continue
        reached.add(key)
        if name not in defs.get(mod, ()) and name in imports.get(mod, {}):
            todo.append(imports[mod][name])  # a re-export: follow it home
        todo.extend(uses.get(key, ()))
    unreached = sorted(
        f"{mod}.{name}"
        for mod, names in defs.items()
        for name in names
        if not (name.startswith("__") and name.endswith("__")) and (mod, name) not in reached
    )
    assert not unreached, (
        f"nothing the package runs reaches these; delete them, or move them under"
        f" tests/ if the tests use them: {unreached}"
    )


def test_oracles_import_nothing_from_sphskel():
    # the reference data and brute-force checks must not share code with
    # the package they check
    found = []
    for node in ast.walk(_parse(ROOT / "tests" / "oracles.py")):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "sphskel"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sphskel":
            found.append(node.module)
    assert not found, f"tests/oracles.py imports {found}"


def test_benchmark_plants_find_their_text():
    # the self-test plants each fault by replacing this text in a copy of the
    # source, and fails when the text is gone
    plants = _literal(ROOT / "perfbench" / "selftest.py", "PLANTS")
    for name, (filename, text, _, _) in plants.items():
        assert text in (SRC / filename).read_text(encoding="utf-8"), (name, filename, text)
