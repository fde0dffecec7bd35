"""Every name a library module imports is used there, and none is private.

No linter runs on this package, so this stands in for pyflakes' F401: a name
imported into a ``lefschetz`` module must be read somewhere in that module,
be listed in its ``__all__``, or sit on an import line marked
``# noqa: F401`` (a deliberate re-export).  No ``lefschetz`` module imports
an underscore-prefixed name from a sibling: a private helper is known only to
the module that defines it.  The package itself imports no library module: it
resolves the names in its ``__all__`` on use.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lefschetz

SRC = Path(__file__).resolve().parent.parent / "src" / "lefschetz"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name -> line of every import that no noqa: F401 marks, on the
    alias's own line or on the statement's first line."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            marked = (lines[alias.lineno - 1], lines[node.lineno - 1])
            if alias.name != "*" and not any("noqa: F401" in line for line in marked):
                names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, plus those in string annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            # a literal __all__ marks re-exports; the package computes its own and imports none
            used.update(ast.literal_eval(node.value))
        # function returns, arguments and annotated assignments
        ann = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for const in ast.walk(ann) if ann is not None else ():
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                expr = ast.parse(const.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree, text.splitlines()).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_unused_import_is_caught():
    text = (
        "from os import path, sep  # noqa: F401\n"
        "from typing import (\n    Any,\n    List,  # noqa: F401\n    Sequence,\n)\n"
        "import sys\nimport json\nimport re\n"
        "__all__ = ['re']\n"
        "def f(x: 'Sequence[int]') -> Any:\n    return json.dumps(x)\n")
    tree = ast.parse(text)
    imported = _imported(tree, text.splitlines())
    assert set(imported) == {"Any", "Sequence", "sys", "json", "re"}
    assert {n for n in imported if n not in _used(tree)} == {"sys"}


def _private_imports(tree: ast.Module) -> list[str]:
    """Every underscore-prefixed name imported from a sibling module,
    relatively or through the ``lefschetz`` package, with its line."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "lefschetz":
            continue
        found += [f"{alias.name} (line {node.lineno})"
                  for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_sibling_imports(path):
    private = _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not private, f"{path.name} imports private names: {', '.join(private)}"


def test_private_sibling_import_is_caught():
    text = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .mapping import _pairing_inverse, evaluate\n"
        "from . import _shared\n"
        "from lefschetz.homology import _rank as r\n"
        "from .curves import Curve\n")
    assert _private_imports(ast.parse(text)) == [
        "_pairing_inverse (line 3)", "_shared (line 4)", "_rank (line 5)"]


# ---------------------------------------------------------------------------
# the package resolves its public names lazily (PEP 562)
# ---------------------------------------------------------------------------

LIBRARY = ("errors", "homology", "curves", "mapping", "fibration", "universality", "reduction",
           "witness")


def _fresh(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports from ``src/``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_bare_import_loads_no_library_module():
    loaded = _fresh("import sys, lefschetz\n"
                    "print(sorted(m for m in sys.modules if m.startswith('lefschetz.')))")
    assert loaded.strip() == "[]"


def test_bare_import_reaches_the_library_modules():
    code = ("import lefschetz\n"
            f"for name in {LIBRARY!r}:\n"
            "    print(getattr(lefschetz, name).__name__)")
    assert _fresh(code).split() == [f"lefschetz.{name}" for name in LIBRARY]


def test_public_names_resolve_to_their_defining_module():
    for name in lefschetz.__all__:
        obj = getattr(lefschetz, name)
        assert vars(importlib.import_module(obj.__module__))[name] is obj, name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from lefschetz import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lefschetz.__all__)


def test_unknown_names_raise_and_dir_lists_all():
    # transvect is public in mapping but not re-exported; serialize is no library module
    names = ("no_such_name", "transvect", "_pairing_inverse", "serialize")
    code = ("import lefschetz\n"
            f"for name in {names!r}:\n"
            "    try:\n"
            "        print(getattr(lefschetz, name))\n"
            "    except AttributeError as exc:\n"
            "        print(exc)")
    assert _fresh(code).splitlines() == [
        f"module 'lefschetz' has no attribute {name!r}" for name in names]
    listed = dir(lefschetz)
    assert {"__all__", "__version__", *lefschetz.__all__, *LIBRARY} <= set(listed)
    assert listed == sorted(listed)


@pytest.mark.parametrize("name, modules", [
    ("reduce", {"errors", "homology", "curves", "mapping", "fibration", "reduction"}),
    ("substitution_witness", {"errors", "homology", "curves", "mapping", "fibration", "witness"}),
    ("mcg_surjectivity_oracle", {"errors", "homology", "curves", "mapping", "fibration",
                                 "universality"}),
])
def test_a_public_name_loads_only_its_module_and_imports(name, modules):
    code = (f"import sys, lefschetz\nlefschetz.{name}\n"
            "print(*(m.partition('.')[2] for m in sys.modules if m.startswith('lefschetz.')))")
    assert set(_fresh(code).split()) == modules


def test_a_patched_module_shows_through_the_package(monkeypatch):
    # the package looks a name up on every access, so patching the defining
    # module (as a tracer does) is seen at once, and undone with it
    import lefschetz.mapping as mapping

    original = mapping.evaluate
    monkeypatch.setattr(mapping, "evaluate", lambda w: None)
    assert lefschetz.evaluate is mapping.evaluate
    monkeypatch.undo()
    assert lefschetz.evaluate is original
    assert "evaluate" not in vars(lefschetz)


# the public names that fibration and mapping used to define, by the module
# that defines them now
_MOVED = [
    ("fibration", "reduction", ("stabilize", "destabilize", "ReduceResult", "reduce")),
    ("fibration", "witness", ("PlanEntry", "MeridianPlan", "ImmersionWitness", "identity_plan",
                              "pullback", "WITNESS_WORD_BOUND", "WITNESS_DEPTH",
                              "substitution_witness")),
    ("fibration", "universality", ("UniversalityReport", "universality_report")),
    ("mapping", "universality", ("ORDER_WORK_BOUND", "perm_group_surjective",
                                 "symplectic_group_order", "MAX_MODULUS",
                                 "SurjectivityVerdict", "mcg_surjectivity_oracle")),
]


@pytest.mark.parametrize("old, new, names", _MOVED, ids=[f"{o}-{n}" for o, n, _ in _MOVED])
def test_moved_names_resolve_from_their_old_modules(monkeypatch, old, new, names):
    old_module = importlib.import_module(f"lefschetz.{old}")
    new_module = importlib.import_module(f"lefschetz.{new}")
    for name in names:
        assert getattr(old_module, name) is getattr(new_module, name), name
    # looked up afresh on every access, so a patch of the new module shows through
    monkeypatch.setattr(new_module, names[0], None)
    assert getattr(old_module, names[0]) is None
    with pytest.raises(AttributeError, match=f"^module 'lefschetz.{old}' has no attribute 'x'$"):
        old_module.x


# ---------------------------------------------------------------------------
# each CLI subcommand loads only the modules it runs
# ---------------------------------------------------------------------------

# runs the CLI as ``python -m lefschetz.cli`` does, then prints the exit code
# and the library modules loaded, and on a second line which of the slow
# stdlib modules ``dataclasses`` and ``inspect`` got loaded
_RUN_CLI = """\
import runpy, sys
sys.argv = ["lefschetz", *sys.argv[1:]]
try:
    runpy.run_module("lefschetz.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m.partition(".")[2] for m in sys.modules if m.startswith("lefschetz.")))
print(*sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""

_CENSUS = {"errors", "homology", "curves", "serialize"}
_FIBRATION = _CENSUS | {"mapping", "fibration"}
_SUBCOMMANDS = {
    "census": (["census", "2", "3", "--enumerate"], _CENSUS),
    "build": (["build", "u_g1", "--g", "2"], _FIBRATION),
    "invariants": (["invariants", "{f}"], _FIBRATION),
    "hurwitz": (["hurwitz", "{f}", "--move", "1:R"], _FIBRATION),
    "reduce": (["reduce", "{f}"], _FIBRATION | {"reduction"}),
    "witness": (["witness", "-u", "{f}", "-f", "{f}"], _FIBRATION | {"witness"}),
    "check-universal": (["check-universal", "{f}"], _FIBRATION | {"universality"}),
}


@pytest.mark.parametrize("subcommand", list(_SUBCOMMANDS))
def test_each_subcommand_loads_only_its_modules(subcommand, tmp_path):
    from lefschetz.fibration import u_g1
    from lefschetz.serialize import fibration_dumps

    path = tmp_path / "f.json"
    path.write_text(fibration_dumps(u_g1(2)), encoding="utf-8")
    argv, want = _SUBCOMMANDS[subcommand]
    argv = [arg.format(f=path) for arg in argv] + ["--out", str(tmp_path / "out.json")]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", _RUN_CLI, *argv], env=env,
                          capture_output=True, text=True, check=True)
    library, stdlib = proc.stdout.splitlines()
    code, *loaded = library.split()
    assert code == "0", proc.stderr
    assert set(loaded) == want
    assert stdlib == ""
    assert (tmp_path / "out.json").read_text(encoding="utf-8").startswith("{")
