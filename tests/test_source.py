"""Properties of the package source itself."""

import ast
import sys
from pathlib import Path

import snakeword

SOURCE = Path(snakeword.__file__).parent


def source_nodes():
    """(file name, node) for every AST node of the package modules."""
    paths = sorted(SOURCE.glob("*.py"))
    assert len(paths) >= 9, paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_assert_statements():
    """Invariants raise ``InvariantError``, because ``python -O`` strips
    ``assert`` statements."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in source_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_stdlib_only_imports():
    """Every import is relative or from the standard library."""
    found = []
    for name, node in source_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [
            f"{name}:{node.lineno} {module}"
            for module in modules
            if module.partition(".")[0] not in sys.stdlib_module_names
        ]
    assert not found, found


#: The enumeration oracles, by module.
ORACLES = {
    "words.py": {"enumerate_subwords"},
    "posets.py": {"enumerate_antichains", "enumerate_order_filters"},
    "snake.py": {"enumerate_perfect_matchings"},
}

#: Constructions the oracles check, which an oracle must therefore not use.
FAST_PATH = {
    "_greedy",
    "is_subword",
    "leftmost_embedding",
    "spine_with_copies",
    "is_antichain",
    "up_closure",
    "_upper_covers",
    "minimal_matching",
}


def uses(functions, forbidden):
    """Every reference to a ``forbidden`` name inside the named functions,
    which are given by module; fails if a named function is missing."""
    seen, found = set(), []
    for name, node in source_nodes():
        if isinstance(node, ast.FunctionDef) and node.name in functions.get(name, ()):
            seen.add(node.name)
            for inner in ast.walk(node):
                ref = getattr(inner, "id", None) or getattr(inner, "attr", None)
                if ref in forbidden:
                    found.append(f"{name}:{inner.lineno} {node.name} uses {ref}")
    assert seen == set().union(*functions.values()), seen
    return found


def test_oracles_stay_independent():
    """No oracle reaches a construction it is used to check."""
    found = uses(ORACLES, FAST_PATH)
    assert not found, found


def test_filter_region_stays_geometric():
    """The run search that ``filter-identity`` compares with the up-closure
    reaches neither the up-closure nor the poset nor the matching built from
    it, so the check cannot become vacuous."""
    found = uses(
        {"snake.py": {"filter_region", "filter_region_block"}},
        {"up_closure", "_upper_covers", "min_elements", "poset_from_word", "matching_for_subword"},
    )
    assert not found, found
