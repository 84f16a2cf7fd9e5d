"""Dead-surface guard: every public top-level function and class of
src/xbar, and every public method and property of its public classes, is
used by the program itself.

A name counts as used when code anywhere in the package (the CLI
included) or in the benchmark under perfbench/ refers to it: by name, as
an attribute, in an import, or as a string naming it (perfbench/spans.py
patches functions by name).  Docstrings and comments do not count, and
neither do tests.  A name only its own tests call is dead: delete it, or
list it in ALLOWED with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "xbar").glob("*.py"))
BENCHMARK = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))

ALLOWED = {
    "save_crossbar_spec": "writes the spec files load_crossbar_spec reads",
    "save_quantum_system": "writes the system files iv-gen reads; README cites it for the format",
    "tight_binding_chain": "seeded model systems for iv-gen where no Fock data exist",
    "probe_occupancies": "the probe potentials behind effective_transmission, to check their balance",
    "build_shipped_tables": "regenerates the shipped tables in xbar/data from their parameters",
    "transmission_at": "the one-energy arithmetic each block of transmission_spectrum reproduces",
    "RunManifest.from_file": "reads a manifest back, to check the reproducibility contract it states",
    "RunManifest.same_inputs": "the reproducibility contract the manifest docstring states",
}


def _public(nodes, kinds):
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def public_definitions():
    """(module, name) of every public top-level function and class, and
    (module, Class.name) of every public method and property of such a class."""
    for path in PACKAGE:
        for node in _public(ast.parse(path.read_text()).body, (ast.FunctionDef, ast.ClassDef)):
            yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body, ast.FunctionDef):
                    yield path.stem, f"{node.name}.{method.name}"


def referenced_names():
    names = set()
    for path in PACKAGE + BENCHMARK:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_name_is_used_by_the_program():
    used = referenced_names()
    dead = [
        f"{module}.{name}"
        for module, name in public_definitions()
        if name.rsplit(".", 1)[-1] not in used and name not in ALLOWED
    ]
    assert dead == [], "used by nothing but tests: delete, or list in ALLOWED with a reason"


def test_allowlist_names_only_unused_definitions():
    defined = {name for _, name in public_definitions()}
    assert ALLOWED.keys() <= defined, "ALLOWED names a function or class that is gone"
    used = referenced_names()
    assert not {name for name in ALLOWED if name.rsplit(".", 1)[-1] in used}, (
        "ALLOWED names a function the program uses"
    )
