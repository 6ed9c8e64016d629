"""The package ships only what its commands run: every public name is used
somewhere in ``src/chipalg`` besides its own definition.  A function that
only tests call belongs in ``tests/``, as an oracle, or nowhere."""

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


def _loads(node) -> Counter:
    """Names and attribute names loaded anywhere under ``node``; strings,
    docstrings and import lists hold none."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def _public_definitions(module: str, tree):
    """(qualified name, short name, definition node) for each name in the
    module's ``__all__`` and each public method of a class listed there.
    A method counts as used where any attribute of its name is loaded."""
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
            yield f"{module}.{name}", name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{name}.{item.name}", item.name, item
    assert defined == exported, f"{module}.__all__ names undefined: {exported - defined}"


def test_public_names_are_used_in_src():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    total = sum((_loads(t) for t in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for qualified, name, node in _public_definitions(module, tree):
            if total[name] == _loads(node)[name] and qualified not in UNUSED_ALLOWED:
                unused.append(qualified)
    assert unused == []
