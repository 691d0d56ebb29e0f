"""Every average of client or copy vectors in dropfed goes through one kernel.

objectives.group_sums adds each group's rows in order, one at a time, and
the rule, the population gradient, gamma_t's and E_t's means all call it, so
any two of them that average the same rows agree bit for bit.  numpy's
mean(axis=0) adds in another order when a vector has one coordinate (it sums
pairwise), so a call of it in src/dropfed/ would let a measurement drift
from the rule it measures.  This guard fails on any mean(..., axis=0) call
of the package, np.mean(x, axis=0), np.mean(x, 0) or x.mean(axis=0), outside
the functions listed in ALLOWED with their reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dropfed"

# "module.function" -> why its axis-0 means are no average of client or copy vectors.
ALLOWED = {
    "diagnostics.update_variance_stderr": "centres the replays for a fourth moment beside "
                                          "numpy's var, which centres with numpy's mean; like "
                                          "update_variance, no rule averages these samples",
}


def is_axis_zero_mean(call: ast.Call) -> bool:
    """Whether a call is np.mean, numpy.mean or a .mean method over axis 0."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    # np.mean(x, 0) takes the axis second, x.mean(0) first.
    method = isinstance(func, ast.Attribute) and getattr(func.value, "id", "") not in (
        "np", "numpy")
    axis = [k.value for k in call.keywords if k.arg == "axis"]
    axis += call.args[0 if method else 1:][:1]
    return (name == "mean" and bool(axis) and isinstance(axis[0], ast.Constant)
            and axis[0].value == 0)


def axis_zero_means(node: ast.AST, where: str = "<module>"):
    """(enclosing function, line) of every mean call over axis 0 under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and is_axis_zero_mean(child):
            yield where, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from axis_zero_means(child, inner)


def test_no_average_of_client_vectors_bypasses_the_kernel():
    found = [(f"{path.stem}.{where}", f"{path.relative_to(ROOT)}:{line}")
             for path in sorted(PACKAGE.glob("*.py"))
             for where, line in axis_zero_means(ast.parse(path.read_text()))]
    stray = [at for name, at in found if name not in ALLOWED]
    assert not stray, "mean(axis=0) outside objectives.group_sums:\n" + "\n".join(stray)
    # Every allowance still names a function that makes such a call.
    assert {name for name, _ in found} >= set(ALLOWED)


def test_the_guard_sees_every_spelling():
    source = """
def f(x):
    a = np.mean(x, axis=0)
    b = np.mean(x, 0)
    c = x.mean(axis=0)
    d = x.mean(0)
    e = x.mean(axis=1) + np.mean(x) + x.mean(1) + x.sum(axis=0)
    return a, b, c, d, e
"""
    assert [line for _, line in axis_zero_means(ast.parse(source))] == [3, 4, 5, 6]
