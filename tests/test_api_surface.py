"""The public surface of ``raycrawl/ops``: the number of parameters of
its public module-level functions, counted by AST (positional,
keyword-only and positional-only). A new knob must raise ``_MAX_PARAMS``
here and say why in CHANGES.md."""

import ast
import glob
import os

_OPS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "raycrawl", "ops")
_MAX_PARAMS = 354


def _public_params() -> int:
    n = 0
    for path in sorted(glob.glob(os.path.join(_OPS, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read())
        for fn in tree.body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_")):
                a = fn.args
                n += len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
    return n


def test_public_ops_parameter_count():
    assert _public_params() <= _MAX_PARAMS
