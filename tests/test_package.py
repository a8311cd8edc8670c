"""The package holds no code that only its own tests call.

Every public top-level function or class in ``src/weakorder`` must be named
outside its own definition: in another module of the package, elsewhere in
its own module, or in ``demos/`` or ``perfbench/``.  Test oracles and
fixture builders belong in ``tests/gen.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weakorder"

# public names without a caller yet, each with the reason it stays
KEPT = (
    ("is_imaginary_index", "the real/imaginary split of reflection indices, for the "
     "compact approximants and kappa on L_n (ROADMAP items 10-12)"),
    ("permutation_from_noncrossing", "the inverse of the lower-arc map, one half of the "
     "bijection that acceptance criterion 03 checks"),
    ("join_of_noncrossing_tot", "the same inverse for the total orders of Z"),
)


def _names(node: ast.AST) -> set[str]:
    # every identifier a piece of code refers to: plain names, attributes and
    # the names an import brings in
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    outside = set()
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside |= _names(_parse(path))
    called = {}  # (name, module) -> named outside its own definition
    for module, tree in modules.items():
        elsewhere = set(outside)
        for other, other_tree in modules.items():
            if other != module:
                elsewhere |= _names(other_tree)
        for i, stmt in enumerate(tree.body):
            defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if defines and not stmt.name.startswith("_"):
                rest = tree.body[:i] + tree.body[i + 1 :]
                called[stmt.name, module] = stmt.name in elsewhere or any(
                    stmt.name in _names(other) for other in rest
                )
    kept = {name for name, _ in KEPT}
    assert [key for key, yes in called.items() if not yes and key[0] not in kept] == []
    # a kept name leaves the list once it has a caller, or once it is gone
    assert kept <= {name for (name, _), yes in called.items() if not yes}


def test_no_assert_in_the_package():
    # invariants raise domain errors: ``python -O`` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
