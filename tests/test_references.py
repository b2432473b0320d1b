"""Every public name in the package is reached from the package itself.

A public module-level function or class, or a public method, that no
code in ``src/groupdet`` refers to outside its own definition and
``__init__.py`` serves only the tests, and belongs in ``tests/`` or
nowhere.  A reference is any use of the name as a variable or an
attribute, so the check errs on the side of keeping a name.
"""

import ast
from pathlib import Path

import groupdet

# name -> why it stays with no caller in the package
ALLOWED = {
    "heisenberg_binomial_measure": "the binomial shortcut, kept for long sequences of "
                                   "Heisenberg groups converging to the limit measure",
    "zp2_divisibility_check": "the divisibility law of acceptance criterion 05",
    "poly_to_json": "writes the polynomial format that poly_from_json reads",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _unreferenced():
    root = Path(groupdet.__file__).parent
    trees = [ast.parse(p.read_text()) for p in sorted(root.glob("*.py"))
             if p.name != "__init__.py"]
    uses = {}  # name -> ids of the nodes that use it
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(id(node))
    out = []
    for tree in trees:
        for qualname, node in _public_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not any(u not in inside for u in uses.get(node.name, ())):
                out.append(qualname)
    return sorted(out)


def test_every_public_name_has_a_caller_in_the_package():
    assert _unreferenced() == sorted(ALLOWED)
