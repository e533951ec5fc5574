"""References live in ``tests/reference/`` and read no private name of
``quantakit`` or of any object but their own, so that a fault in private
code or state cannot hide in its reference."""
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
