"""The package's public surface."""

import ast
import pathlib

import sembox

ROOT = pathlib.Path(__file__).parents[1]

# public names no code outside the tests uses yet, each with the reason
# it stays; every other public name needs a caller in the package, the
# demos or the benchmark
UNUSED_ALLOWED = {
    "percent_max": "gets the run report as its consumer or goes "
                   "(ROADMAP item 7)",
}


def _parse(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def _public(name: str) -> bool:
    return not name.startswith("_")


def _sources():
    """The parsed package (its ``__init__`` aside), and ``demos`` and
    ``perfbench``."""
    package = _parse(p for p in sorted((ROOT / "src" / "sembox").glob("*.py"))
                     if p.name != "__init__.py")
    others = _parse([*sorted((ROOT / "demos").glob("*.py")),
                     *sorted((ROOT / "perfbench").glob("*.py"))])
    return package, others


def unused_public_names() -> set[str]:
    """Public top-level functions and classes of ``src/sembox`` that no
    ``Name`` or ``Attribute`` outside their own definition refers to, and
    public methods and properties no ``Attribute`` refers to, counting the
    package (its ``__init__`` re-exports aside), ``demos`` and
    ``perfbench``."""
    package, others = _sources()
    names, attrs = set(), set()
    for tree in package + others:
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)

    unused = set()
    for tree in package:
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _public(top.name) and top.name not in names | attrs:
                unused.add(top.name)
            if isinstance(top, ast.ClassDef):
                unused.update(f"{top.name}.{item.name}" for item in top.body
                              if isinstance(item, ast.FunctionDef)
                              and _public(item.name) and item.name not in attrs)
    return unused


# parameters with a default that no call outside the tests passes, each
# with the reason it stays; every other one is a constant in disguise
UNPASSED_ALLOWED = {
    "main.argv": "the tests' way into the command line; the console "
                 "script passes nothing",
}


def _options(func: ast.FunctionDef, method: bool):
    """(position, name) of each parameter of ``func`` that has a default;
    position is None for keyword-only ones, and a method's own first
    parameter (``self``, ``cls``) is not counted."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield i - method, positional[i].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def unpassed_options() -> set[str]:
    """``function.parameter`` (``Class.method.parameter`` for methods) for
    each parameter with a default of a public function or method of
    ``src/sembox`` that no call in the package, ``demos`` or ``perfbench``
    passes, by keyword or by position; a call is matched to a definition
    by the called name, as ``unused_public_names`` matches names, and a
    starred argument counts as one position."""
    package, others = _sources()
    keywords, positions = {}, {}
    for tree in package + others:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords if k.arg is not None)
            positions[name] = max(positions.get(name, 0), len(node.args))

    unpassed = set()
    for tree in package:
        for top in tree.body:
            defs = []
            if isinstance(top, ast.FunctionDef) and _public(top.name):
                defs.append((top.name, top, False))
            elif isinstance(top, ast.ClassDef) and _public(top.name):
                defs += [(f"{top.name}.{item.name}", item, True)
                         for item in top.body
                         if isinstance(item, ast.FunctionDef)
                         and _public(item.name)]
            for label, func, method in defs:
                if func.name in UNUSED_ALLOWED:
                    continue
                for pos, arg in _options(func, method):
                    passed = (arg in keywords.get(func.name, ())
                              or (pos is not None
                                  and pos < positions.get(func.name, 0)))
                    if not passed:
                        unpassed.add(f"{label}.{arg}")
    return unpassed


def test_every_exported_name_exists():
    missing = [name for name in sembox.__all__ if not hasattr(sembox, name)]
    assert missing == []


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names()
    assert sorted(unused - set(UNUSED_ALLOWED)) == [], \
        "used by tests only: make it a test oracle in tests/oracles.py or remove it"
    assert sorted(set(UNUSED_ALLOWED) - unused) == [], \
        "has a caller now: take it off UNUSED_ALLOWED"


def test_every_option_is_passed_outside_the_tests():
    unpassed = unpassed_options()
    assert sorted(unpassed - set(UNPASSED_ALLOWED)) == [], \
        "set by tests only: make it a constant or let the tests build it"
    assert sorted(set(UNPASSED_ALLOWED) - unpassed) == [], \
        "passed now: take it off UNPASSED_ALLOWED"


# the engine stores and computes CG under every storage scheme: the
# scheme is a label for the run report's ledger, so no engine module
# names a scheme constant it could branch on
ENGINE_MODULES = ("storage", "dynamics", "mesh", "time_integration")


def scheme_constants(module: str) -> set[str]:
    """The scheme constants (``SCHEME_*``, ``SCHEMES``, ``ENGINE_SCHEMES``)
    that ``src/sembox/<module>.py`` defines, imports or refers to."""
    (tree,) = _parse([ROOT / "src" / "sembox" / f"{module}.py"])
    found = set()
    for node in ast.walk(tree):
        for attr in ("id", "attr", "name", "asname"):
            name = getattr(node, attr, None)
            if isinstance(name, str) and (name.startswith("SCHEME_") or name
                                          in ("SCHEMES", "ENGINE_SCHEMES")):
                found.add(name)
    return found


def test_engine_modules_refer_to_no_scheme_constant():
    found = {m: sorted(names) for m in ENGINE_MODULES
             if (names := scheme_constants(m))}
    assert found == {}, "the scheme is the ledger's label: see perf_model"


# the top-level modules a run adds to those a bare interpreter holds once
# it has imported numpy, outside the standard library and sembox itself,
# one a line; run in a subprocess by the run_python fixture (conftest.py)
DEPENDENCY_SCRIPT = """
import sys
import numpy

def top_level():
    return {name.partition(".")[0] for name in sys.modules}

before = top_level()
import sembox
from sembox.harness import BubbleConfig, run_bubble
run_bubble(BubbleConfig(nx=2, ny=2, layers=2, n_steps=1))
for name in sorted(top_level() - before - {"sembox"}
                   - set(sys.stdlib_module_names)):
    print(name)
"""


def test_a_run_imports_nothing_beyond_numpy(run_python):
    # pyproject.toml declares numpy alone, and every import counts in the
    # benchmark's peak resident set (scipy.sparse adds about 22 MiB)
    proc = run_python(DEPENDENCY_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
