"""Every public function, class and method of dropfed has a caller in the program.

A public name (no leading underscore) defined at the top of a module of
src/dropfed/, or as a method of such a class, must be named somewhere in the
Python files of src/ or bench/ outside its own definition: as a variable, an
attribute, an import, or a string that is the bare name (the benchmark's
tracer finds its targets so).  Comments and docstrings do not count.  Tests,
bench/tests/ among them, do not count either, so an API that only its own
unit test calls fails here.

Names are matched bare, with no types: `x.dim` counts as a use of every
member named `dim`.  So a public method or property whose name another class
family of the package also defines (as a method, a field or an attribute)
cannot be told used by the match.  Such a member must be listed in SHARED
with the use that was checked by hand; a new one fails until it is.  A
top-level function still counts any variable of its name as a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dropfed"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Names whose only callers are the acceptance tests, which pin them.
PINNED = {
    "feasible_inverse_time_scale": "criterion 4 audits the inverse-time scales it gives",
    "grad_variance": "the analytic batch-noise check of the acceptance tests",
    "heterogeneity_stats": "the heterogeneity bound of the acceptance tests",
    "replay_stream": "the Generator batch source the acceptance tests pass to play_round",
    "update_variance_stderr": "the error bar of the acceptance tests' phi check",
}

# Members whose name another class family also defines, by family root, and
# where the program uses them.
SHARED = {
    "AvailabilitySchedule.iterations": "harness.run_trials and settle_seeds read task.schedule's",
    "AvailabilitySchedule.max_staleness": "harness.settle_seeds",
    "AvailabilitySchedule.num_clients": "its own check and max_staleness",
    "ClientDataset.n": "data.make_client_split checks its pool's shards",
    "Objective.dim": "objectives, local_trainer and harness shape models by it",
    "Objective.loss": "harness.run_trials takes the loss at the optimum",
}


def public_definitions(tree: ast.Module):
    """Each public top-level function and class, and each public method of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, kinds) and not item.name.startswith("_"))


def families(trees) -> dict[str, str]:
    """Each class of the package, by name, and the root of its inheritance within the package."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}

    def root(name: str) -> str:
        parents = [b for b in bases[name] if b in bases]
        return root(parents[0]) if parents else name

    return {name: root(name) for name in bases}


def members(cls: ast.ClassDef):
    """(name, is a public method) of each method, field and attribute that a class defines."""
    for node in ast.walk(cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node in cls.body:
            yield node.name, not node.name.startswith("_")
        elif isinstance(node, ast.AnnAssign) and node in cls.body:
            yield node.target.id, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr, False


def shared_members(trees) -> set[str]:
    """"Root.name" of each public method whose name more than one class family defines."""
    family = families(trees)
    owners: dict[str, set[str]] = {}
    public = set()
    for cls in (node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)):
        for name, method in members(cls):
            owners.setdefault(name, set()).add(family[cls.name])
            if method:
                public.add((family[cls.name], name))
    return {f"{root}.{name}" for root, name in public if len(owners[name]) > 1}


def named(tree: ast.Module):
    """(name, line) of every variable, attribute, import and identifier string of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def program_files():
    return sorted((ROOT / "src").rglob("*.py")) + sorted(
        p for p in (ROOT / "bench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts)


def test_every_public_name_has_a_caller_in_the_program():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in program_files()}
    uses = [(path, name, line) for path, tree in trees.items() for name, line in named(tree)]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if node.name in PINNED or any(
                    name == node.name and not (where == path and line in own)
                    for where, name, line in uses):
                continue
            unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "public but named nowhere else in src/ or bench/:\n" + "\n".join(unused)


def test_every_member_whose_name_is_shared_is_listed_with_its_use():
    shared = shared_members([ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")])
    assert shared == set(SHARED), ("a bare-name match cannot tell these used; list each with "
                                   f"its use, or drop it: {sorted(shared ^ set(SHARED))}")


def test_every_pinned_name_is_defined_and_named_by_the_acceptance_tests():
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in public_definitions(ast.parse(path.read_text()))}
    pinned = {name for name, _ in named(ast.parse(ACCEPTANCE.read_text()))}
    assert set(PINNED) <= defined & pinned
