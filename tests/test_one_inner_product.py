"""The package takes every inner product through `tv.dot`."""

import ast
import pathlib

import lkreg

_PRODUCTS = {f"np.{name}" for name in ("vdot", "dot", "inner", "einsum", "tensordot", "linalg.norm")}


def _product_calls(tree, exempt=None):
    """(line, callee) of each inner-product call in `tree`, outside the function named `exempt`."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == exempt:
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            callee = ast.unparse(node.func)
            if node.func.attr == "dot" or callee in _PRODUCTS:
                found.append((node.lineno, callee))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_every_inner_product_is_tv_dot():
    # the one reduction whose bits follow the BLAS thread count has one owner;
    # `@` matrix products are not inner products of two grids, and stay
    src = pathlib.Path(lkreg.__file__).parent
    tv = ast.parse((src / "tv.py").read_text())
    assert "dot" in {node.name for node in tv.body if isinstance(node, ast.FunctionDef)}
    found = {}
    for path in sorted(src.glob("*.py")):
        exempt = "dot" if path.name == "tv.py" else None
        if calls := _product_calls(ast.parse(path.read_text()), exempt):
            found[path.name] = calls
    assert found == {}


def test_the_guard_sees_each_kind_of_call():
    code = """
import numpy as np
def f(a, b):
    return np.vdot(a, b) + a.dot(b) + np.inner(a, b) + np.einsum("i,i", a, b) \\
        + np.tensordot(a, b, 1) + np.linalg.norm(a) + np.dot(a, b) + (a @ b)
def dot(a, b):
    return float(a.ravel().dot(b.ravel()))
"""
    want = ["a.dot", "np.dot", "np.einsum", "np.inner", "np.linalg.norm", "np.tensordot", "np.vdot"]
    assert sorted(callee for _, callee in _product_calls(ast.parse(code), "dot")) == want
    assert len(_product_calls(ast.parse(code))) == len(want) + 1
