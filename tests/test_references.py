"""References live in ``tests/reference/`` and read no private name of
``quantakit`` or of any object but their own, so that a fault in private
code or state cannot hide in its reference; and each is read by a test or
by another reference, so that none is left behind when its tests go."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent


def private_reads(tree: ast.Module) -> list[str]:
    """The ``_``-prefixed names a module imports from ``quantakit``, and the
    ``_``-prefixed attributes it reads of anything but ``self``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            names = [f"{module}.{a.name}" if module else a.name for a in node.names]
            out += [name for name in names if name.split(".")[0] == "quantakit" and "._" in name]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__"):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                out.append(ast.unparse(node))
    return out


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")), ids=lambda p: p.name)
def test_no_test_module_defines_a_reference(path):
    defs = [n.name for n in ast.parse(path.read_text()).body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    assert [name for name in defs if name.startswith(("ref_", "Ref", "_refines"))] == []


@pytest.mark.parametrize("path", sorted((TESTS / "reference").glob("*.py")), ids=lambda p: p.name)
def test_no_reference_reads_a_private_quantakit_name(path):
    assert private_reads(ast.parse(path.read_text())) == []


def test_private_reads_are_found_on_every_object_but_self():
    text = ("import quantakit.circuitgen\nimport quantakit._x\nfrom quantakit import vecmonad as vm\nfrom quantakit.circuitgen"
            " import _decode, Circuit\nvm._parse_amp; Circuit._trusted; quantakit.circuitgen._label; vm.A._b; vm.__name__\n"
            "c._table; v._amps; self._amps")
    assert private_reads(ast.parse(text)) == ["quantakit._x", "quantakit.circuitgen._decode", "vm._parse_amp",
                                              "Circuit._trusted", "quantakit.circuitgen._label", "vm.A._b", "c._table",
                                              "v._amps"]


def reached_names(tree: ast.Module, module: str | None = None, scope: ast.AST | None = None) -> set[tuple[str, str]]:
    """(reference module, name) of each name that ``scope`` (by default the
    whole of ``tree``) reads from a reference module: as an attribute of it,
    or by name once ``tree`` imports it (a test module's import is itself a
    read); and inside reference ``module`` itself, each name it reads."""
    aliases, imported, out = {}, {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "reference":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reference."):
            imported.update({a.asname or a.name: (node.module.split(".", 1)[1], a.name) for a in node.names})
    if scope is None:
        scope = tree
        out.update(imported.values())
    for node in ast.walk(scope):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            out.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and node.id in imported:
            out.add(imported[node.id])
        elif isinstance(node, ast.Name) and module is not None:
            out.add((module, node.id))
    return out


def unread_definitions(modules: dict[str, str], references: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level ``def`` or ``class`` of a reference
    module that no test module reaches, directly or through the references
    it reaches."""
    trees = {mod: ast.parse(text) for mod, text in references.items()}
    defs = {(mod, node.name): node for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = set().union(*(reached_names(ast.parse(text)) for text in modules.values())) & defs.keys()
    live: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        live.add(key)
        todo |= (reached_names(trees[key[0]], key[0], defs[key]) & defs.keys()) - live
    return [f"{mod}.{name}" for mod, name in defs if (mod, name) not in live]


def test_every_reference_is_read_by_a_test_or_another_reference():
    modules = {p.name: p.read_text() for p in TESTS.glob("*.py")}
    references = {p.stem: p.read_text() for p in (TESTS / "reference").glob("*.py") if p.stem != "__init__"}
    assert unread_definitions(modules, references) == []


def test_unread_definitions_are_found_however_a_reference_is_reached():
    references = {
        "a": "def ref_kept(): pass\ndef ref_by_alias(): _helper()\ndef _helper(): pass\ndef ref_orphan(): ref_orphan()\n"
             "class RefOrphan: pass\ndef ref_via_b(): pass\ndef ref_read_by_an_orphan(): pass\n",
        "b": "from reference.a import ref_via_b as v, ref_read_by_an_orphan as r\ndef ref_unread(): r()\n"
             "def ref_imported(): v()\n",
    }
    modules = {"test_x.py": "from reference.a import ref_kept\nfrom reference import a as ref\n"
                            "from reference.b import ref_imported\nref.ref_by_alias()\n"}
    assert unread_definitions(modules, references) == [
        "a.ref_orphan", "a.RefOrphan", "a.ref_read_by_an_orphan", "b.ref_unread",
    ]
