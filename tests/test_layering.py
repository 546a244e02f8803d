"""The package's layering, read off its source: the propagation kernel's
private names stay inside ``propagate`` (``_propagators`` apart, which
gives the Riccati escape search its table of trial propagators), only
``coefficients`` cuts a grid, and every public function or class is run by
the library or a demo (identities only tests use live in ``helpers``)."""

import ast
import pathlib

import arvcanon

SOURCES = sorted(pathlib.Path(arvcanon.__file__).parent.glob("*.py"))
DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))

#: documented entry points that no library module or demo names
ENTRY_POINTS = {"save_parameters", "schur_minus", "weyl_disk"}


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


def test_only_piece_arrays_and_strip_head_call_the_cut():
    callers = {fn.name for _, tree in _modules() for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_cut"}
    assert callers == {"piece_arrays", "strip_head"}


def _named(node):
    """Every name a node reads or binds, as a Name or as an Attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_public_name_is_run_by_the_library_or_a_demo():
    defs, named = [], set()
    for name, tree in _modules():
        if name == "__init__":
            continue
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defs.append(stmt.name)
                named |= _named(stmt) - {stmt.name}
            else:
                named |= _named(stmt)
    for path in DEMOS:
        named |= _named(ast.parse(path.read_text(encoding="utf-8")))
    assert len(DEMOS) > 3
    assert sorted(set(defs) - named - ENTRY_POINTS) == []
