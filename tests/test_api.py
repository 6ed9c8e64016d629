"""The package ships only what its commands run: every public name and
every private module-level helper is used somewhere in ``src/chipalg``
besides its own definition, and every imported name is used in the module
that imports it.  A function that only tests call belongs in ``tests/``, as
an oracle, or nowhere."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chipalg"


def _traced_names() -> set:
    """``layer.name`` of each function that the benchmark's tracer wraps by
    name (``chipbench/spans.py``, ``TARGETS``)."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "chipbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{layer}.{name}" for layer, name, _, _ in spans.TARGETS}


# Public names that nothing in the package loads: the console script, the
# kernel name stamped on benchmark reports, and the traced functions.
UNUSED_ALLOWED = {"cli.main", "kernels.BACKEND"} | _traced_names()

# The traced names that nothing in the package loads: the tracer still wraps
# them by name, so they stay until it reads other names.  A name may leave
# this set, but none may join it (``GradedPolynomial.add`` is loaded as
# ``set.add``, so this rule cannot see it).
TRACED_ONLY = {"exactla.solve_integer", "hilbert.GradedPolynomial.mul", "resolutions.cyc_partitions"}


def _attribute_loads(node) -> Counter:
    """Attribute names loaded anywhere under ``node``."""
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def _loads(node) -> Counter:
    """Names and attribute names loaded anywhere under ``node``; strings,
    docstrings and import lists hold none."""
    names = Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
    return names + _attribute_loads(node)


def _public_definitions(module: str, tree):
    """(qualified name, short name, definition node, counting function) for
    each name in the module's ``__all__`` and each public method of a class
    listed there.  A method counts as used only where an attribute of its
    name is loaded, so a local variable of the same name does not hide it;
    an attribute of that name on another type still does (``set.add``
    counts for ``GradedPolynomial.add``)."""
    exported = next(
        set(ast.literal_eval(node.value))
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
    )
    defined = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node]
        names = {getattr(t, "name", getattr(t, "id", None)) for t in targets}
        for name in names & exported:
            defined.add(name)
            yield f"{module}.{name}", name, node, _loads
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{name}.{item.name}", item.name, item, _attribute_loads
    assert defined == exported, f"{module}.__all__ names undefined: {exported - defined}"


def _unused_public_names() -> list:
    """The qualified public names that nothing in ``src/chipalg`` loads
    besides their own definitions."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    totals = {loads: sum(map(loads, trees.values()), Counter()) for loads in (_loads, _attribute_loads)}
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for qualified, name, node, loads in _public_definitions(module, tree):
            if totals[loads][name] == loads(node)[name]:
                unused.append(qualified)
    return unused


def test_public_names_are_used_in_src():
    assert [name for name in _unused_public_names() if name not in UNUSED_ALLOWED] == []


def test_tracer_exemption_hides_no_new_dead_name():
    """The tracer's exemption covers only the traced names that were
    already unused when it was granted: a traced function that loses its
    last caller in ``src/chipalg`` fails here."""
    assert set(_unused_public_names()) & _traced_names() <= TRACED_ONLY


def _imported_names(tree):
    """(bound name, line) for each name an import statement binds, besides
    ``from __future__`` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)


def test_imported_names_are_used():
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        loads = _loads(tree)
        dead += [f"{path.stem}:{line} {name}" for name, line in _imported_names(tree) if not loads[name]]
    assert dead == []


def test_private_helpers_are_used():
    """Every private module-level function and class is loaded somewhere in
    ``src/chipalg`` outside its own definition."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    total = sum((_loads(t) for t in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and total[node.name] == _loads(node)[node.name]
    ]
    assert unused == []
