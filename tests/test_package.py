"""The package's public surface."""

import ast
import pathlib

import sembox

ROOT = pathlib.Path(__file__).parents[1]

# public names no code outside the tests uses yet, each with the reason
# it stays; every other public name needs a caller in the package, the
# demos or the benchmark
UNUSED_ALLOWED = {
    "rk_step": "the worker's stage loop becomes rk_step "
               "(ROADMAP item 2, after the benchmark change of item 1)",
    "percent_max": "gets the run report as its consumer or goes "
                   "(ROADMAP item 7)",
}


def _parse(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def _public(name: str) -> bool:
    return not name.startswith("_")


def unused_public_names() -> set[str]:
    """Public top-level functions and classes of ``src/sembox`` that no
    ``Name`` or ``Attribute`` outside their own definition refers to, and
    public methods and properties no ``Attribute`` refers to, counting the
    package (its ``__init__`` re-exports aside), ``demos`` and
    ``perfbench``."""
    package = _parse(p for p in sorted((ROOT / "src" / "sembox").glob("*.py"))
                     if p.name != "__init__.py")
    others = _parse([*sorted((ROOT / "demos").glob("*.py")),
                     *sorted((ROOT / "perfbench").glob("*.py"))])
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


def test_every_exported_name_exists():
    missing = [name for name in sembox.__all__ if not hasattr(sembox, name)]
    assert missing == []


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names()
    assert sorted(unused - set(UNUSED_ALLOWED)) == [], \
        "used by tests only: make it a test oracle in tests/oracles.py or remove it"
    assert sorted(set(UNUSED_ALLOWED) - unused) == [], \
        "has a caller now: take it off UNUSED_ALLOWED"


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
