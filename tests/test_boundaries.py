"""Module boundaries of the package, read from its source."""

import ast
from pathlib import Path

import epidiffuse

SRC = Path(epidiffuse.__file__).parent
GRID_PEERS = {"grid", "solver_cn", "solver_fem"}    # may use grid's private transforms
WORKSPACE_PRIVATE = {"_step", "_coef", "_fields"}   # CNWorkspace's, for solver_cn alone


def test_private_names_stay_beside_their_owners():
    """Only the solvers use grid's private names; only solver_cn steps a CNWorkspace."""
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        name = path.stem
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and name not in GRID_PEERS
                    and (node.module or "").split(".")[-1] == "grid"):
                leaks += [f"{name}:{node.lineno} imports grid.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
            if not isinstance(node, ast.Attribute) or not isinstance(node.value, ast.Name):
                continue
            owner = node.value.id
            if name not in GRID_PEERS and owner == "grid" and node.attr.startswith("_"):
                leaks.append(f"{name}:{node.lineno} uses grid.{node.attr}")
            if name != "solver_cn" and owner != "self" and node.attr in WORKSPACE_PRIVATE:
                leaks.append(f"{name}:{node.lineno} uses {owner}.{node.attr}")
    assert not leaks, leaks
