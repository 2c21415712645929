"""Module boundaries of the package, read from its source."""

import ast
from pathlib import Path

import epidiffuse

SRC = Path(epidiffuse.__file__).parent
GRID_PEERS = {"grid", "solver_cn", "solver_fem"}    # may use grid's private transforms
WORKSPACE_PRIVATE = {"_step"}   # CNWorkspace's, for solver_cn alone


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


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each public function, class and method is used by the package, perfbench or scripts.

    A use is a name or an attribute of that name outside the definition itself;
    the re-exports in ``__init__`` are imports and do not count.
    """
    root = SRC.parents[1]
    callers = [*SRC.glob("*.py"), *root.glob("perfbench/*.py"), *root.glob("scripts/*.py")]
    trees = {path: ast.parse(path.read_text()) for path in callers}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path, node.lineno))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        defs = []
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            if isinstance(node, ast.ClassDef):
                defs += [item for item in node.body if isinstance(item, ast.FunctionDef)]
        for node in defs:
            if node.name.startswith("_"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            outside = [(where, line) for where, line in uses.get(node.name, [])
                       if where != path or line not in inside]
            if not outside:
                unused.append(f"{path.stem}.{node.name}:{node.lineno}")
    assert not unused, unused


def users_of(name: str) -> set[str]:
    """The module-level functions and methods, as module.[Class.]function, that use ``name``."""
    users = set()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and not in_function:
                visit(child, scope + [child.name], isinstance(child, ast.FunctionDef))
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                users.add(".".join(scope))
            visit(child, scope, in_function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem], False)
    return users


def test_one_driver_two_steppers():
    """solver_cn._drive, the one time-stepping loop, is used only by the two forward runs."""
    users = users_of("_drive")
    assert users == {"solver_cn.run_from_state", "solver_fem.run_fem_from_state"}, users


def test_the_population_is_formed_in_one_place():
    """Only Problem.population_at forms the population, beside the refinement study's
    pure diffusion; no forward run takes one."""
    users = users_of("_unforced")
    assert users == {"estimate.Problem.population_at", "solver_cn.temporal_refinement_study"}, users
    runs = {("solver_cn", "run_from_state"), ("solver_fem", "run_fem_from_state"),
            ("estimate", "simulate")}
    found = set()
    for module, name in runs:
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                found.add(name)
                params = {a.arg for a in node.args.args + node.args.kwonlyargs}
                assert not params & {"population", "evolve_population"}, (name, params)
    assert found == {name for _, name in runs}


def test_j_is_summed_where_each_run_makes_it():
    """Every fresh run that J reads sums its day marks at its day hook; only
    evaluate_terms adds the days of a stored run."""
    users = users_of("_marked_run")
    assert users == {"estimate.Problem.objective", "estimate.adjoint_gradient",
                     "estimate.adjoint_fit"}, users
    assert users_of("add") == {"estimate.Problem._marked_run", "objective.evaluate_terms"}, (
        users_of("add"))


def test_the_driver_owns_every_read_out():
    """solver_cn._drive checks and clips each read-out; a stepper only steps, and only
    fem-split checks its inner stages beside it.  _drive takes no carried-state start."""
    users = users_of("_check_sign")
    assert users == {"solver_cn._drive", "solver_fem.run_fem_from_state"}, users
    clips = {user for user in users_of("clip") if user.startswith("solver")}
    assert clips == {"solver_cn._drive"}, clips
    drive = next(node for node in ast.walk(ast.parse((SRC / "solver_cn.py").read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "_drive")
    assert "start" not in {a.arg for a in drive.args.args + drive.args.kwonlyargs}


def test_j_at_one_point_has_one_owner():
    """J's anchors and sums are read by objective._DayMarks's methods alone, beside the
    weights and breakdown that declare them and the loader that reads chi_ref; no
    function outside it rebuilds J's terms or its derivatives."""
    declared = ("objective.ObjectiveWeights", "objective.ObjectiveBreakdown",
                "cli_io.load_scenario")
    for name in ("u0_ref", "chi_ref", "phi_r", "misfit"):
        users = {user for user in users_of(name) if not user.startswith(declared)}
        assert users and all(user.startswith("objective._DayMarks.") for user in users), (
            name, users)
    for gone in ("sensitivities", "_terms", "_initial_gap"):
        assert not hasattr(epidiffuse.objective, gone), gone


def test_every_import_is_used():
    """Each name a module imports is used in it; __init__'s re-exports and
    ``from __future__ import annotations`` are exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}:{line} imports {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def test_the_laplacian_is_defined_once():
    """The finite-difference L is defined by its eigenpairs alone: grid keeps no stencil,
    and only solver_cn.assemble reads the eigenpairs."""
    assert not hasattr(epidiffuse.grid, "laplacian")
    assert users_of("neumann_eigenbasis") == {"solver_cn.assemble"}, users_of("neumann_eigenbasis")


def test_the_reaction_has_one_form():
    """The solvers read the split f = K u + e beta(t) u_S u_I once per run; no wrapper
    rebuilds it per call."""
    assert not hasattr(epidiffuse.models, "reaction")
    users = users_of("reaction_split")
    assert users == {"solver_cn.run_from_state", "solver_cn.sweep",
                     "solver_fem.run_fem_from_state"}, users
