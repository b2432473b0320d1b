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


# name -> the only definitions in the package that may refer to it: Cayley
# tables and their determinant serve the oracle alone, never a route
ORACLE_ONLY = {
    "build_group": ["cli._cmd_oracle"],
    "group_determinant": ["cli._cmd_oracle"],
    "GroupRingElt": ["cli._cmd_oracle"],
    "det_int": ["groups.group_determinant"],
}


def _annotations(tree):
    # ids of the nodes inside type annotations, which call nothing
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            notes.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            notes.append(node.returns)
    return {id(n) for note in notes for n in ast.walk(note)}


def _referrers():
    """name -> sorted "module.definition" of each top-level definition (or
    "module.<module>" statement) that refers to it, outside annotations and
    its own definition."""
    root = Path(groupdet.__file__).parent
    out = {name: set() for name in ORACLE_ONLY}
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        skip = _annotations(tree)
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name in out and name != where and id(node) not in skip:
                    out[name].add(f"{path.stem}.{where}")
    return {name: sorted(users) for name, users in out.items()}


def test_only_the_oracle_builds_a_cayley_table():
    assert _referrers() == ORACLE_ONLY
