"""The package's layering, read off its source: the propagation kernel's
private names stay inside ``propagate`` (``_propagators`` apart, which
gives the Riccati escape search its table of trial propagators), and only
``coefficients`` cuts a grid."""

import ast
import pathlib

import arvcanon

SOURCES = sorted(pathlib.Path(arvcanon.__file__).parent.glob("*.py"))


def _modules():
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]


def _propagate_aliases(tree):
    """Names a module binds to the propagate module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "arvcanon"):
            names |= {a.asname or a.name for a in node.names if a.name == "propagate"}
        elif isinstance(node, ast.Import):
            names |= {a.asname for a in node.names
                      if a.name == "arvcanon.propagate" and a.asname}
    return names


def test_only_propagate_reads_its_private_names():
    found = []
    for name, tree in _modules():
        if name == "propagate":
            continue
        aliases = _propagate_aliases(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                read = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("propagate"):
                read = [a.name for a in node.names]
            else:
                continue
            found += [(name, attr) for attr in read
                      if attr.startswith("_") and attr != "_propagators"]
    assert not found


def test_only_coefficients_cuts_a_grid():
    calls = [name for name, tree in _modules() if name != "coefficients"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_cut"]
    assert not calls
    assert len(SOURCES) > 5
