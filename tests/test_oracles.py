"""The brute-force oracles in conftest.py stay independent of the library
code they check: from erdosrogers they may import only Hypergraph,
build_complete and build_h."""

import ast
from pathlib import Path


def test_conftest_imports_no_library_search_code():
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "erdosrogers"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "erdosrogers":
            imported += [f"{node.module}.{a.name}" for a in node.names]
    allowed = {"erdosrogers.Hypergraph", "erdosrogers.build_complete", "erdosrogers.build_h"}
    assert set(imported) <= allowed, imported
