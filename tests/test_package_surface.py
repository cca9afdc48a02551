"""The package keeps only what it runs.  A public module-level function
that no code in `src/vqe_bench` reaches, by a name or an attribute, is
either named below with the reason it stays or moves to the tests (test-
only helpers live in tests/oracles.py).  A name below that the package
reaches again, or that is gone, fails the test too."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vqe_bench"

KEPT_UNREACHED = {
    "apply_pauli_evolution": "perfbench/spans.py spans it by name",
    "parameter_shift_gradient": "perfbench/spans.py spans it by name",
    "build_brc": "perfbench/spans.py times it by name as a builder",
    "savedata": "the paper toolkit's data API",
    "rounddata": "the paper toolkit's data API",
    "load_qubit_operator": "the inverse of `dump-hamiltonian`",
}


def unreached_public_functions(root: Path) -> set[str]:
    """Undecorated public functions defined at module level under root
    whose name no Name or Attribute node under root carries."""
    defined, reached = set(), set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(node.name for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and not node.name.startswith("_")
                       and not node.decorator_list)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
    return defined - reached


def test_every_unreached_public_function_is_kept_for_a_reason():
    assert unreached_public_functions(PACKAGE) == set(KEPT_UNREACHED)
