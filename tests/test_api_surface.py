"""The public surface of ``raycrawl/ops``: the number of parameters of
its public module-level functions, counted by AST (positional,
keyword-only and positional-only), and that every one of them is given
a value by some caller. A new knob must raise ``_MAX_PARAMS`` here and
say why in CHANGES.md. The same holds for the knobs of the two entry
points, ``scrape_dataset`` and ``CrawlConfig``. Also the shape of the
crawl loop: ``crawl()`` stays a short sequence of ``_WaveLoop`` phases."""

import ast
import dataclasses
import glob
import inspect
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OPS = os.path.join(_ROOT, "raycrawl", "ops")
_MAX_PARAMS = 208
# the entry points' knobs: scrape_dataset's parameters and CrawlConfig's
# settable fields (its ClassVar constants are not fields)
_MAX_SCRAPE_PARAMS = 5
_MAX_CRAWL_FIELDS = 20
# every tree that calls ops: the package, its entry points, tools, tests
_CALLERS = ("raycrawl", "tools", "scripts", "tests", "perfbench",
            "__ray_entry__.py", "bench.py")


def _public_ops() -> "dict[str, list[str]]":
    """Public module-level ops function name → its parameter names."""
    ops = {}
    for path in sorted(glob.glob(os.path.join(_OPS, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read())
        for fn in tree.body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_")):
                a = fn.args
                ops[fn.name] = [p.arg for p in
                                a.posonlyargs + a.args + a.kwonlyargs]
    return ops


def _public_params() -> int:
    return sum(len(ps) for ps in _public_ops().values())


def _caller_files() -> "list[str]":
    files = []
    for name in _CALLERS:
        path = os.path.join(_ROOT, name)
        files += ([path] if name.endswith(".py") else sorted(glob.glob(
            os.path.join(path, "**", "*.py"), recursive=True)))
    return files


def _unset_params() -> "list[tuple[str, str]]":
    """(op, parameter) pairs no call gives a value. A call sets a
    parameter by position, by keyword or through a ``*``/``**`` splat;
    a public op passing its own same-named parameter down sets it only
    when that outer parameter is set."""
    ops = _public_ops()
    is_set: "set[tuple[str, str]]" = set()
    forwards: "dict[tuple[str, str], set]" = {}
    for path in _caller_files():
        with open(path) as f:
            tree = ast.parse(f.read())
        in_ops = os.path.dirname(path) == _OPS
        for top in tree.body:
            outer = getattr(top, "name", None) if in_ops else None
            outer = outer if outer in ops else None
            for call in ast.walk(top):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name not in ops:
                    continue
                params = ops[name]
                given = []
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        given += [(p, None) for p in params[i:]]
                        break
                    if i < len(params):
                        given.append((params[i], arg))
                for kw in call.keywords:
                    if kw.arg is None:
                        given += [(p, None) for p in params]
                    elif kw.arg in params:
                        given.append((kw.arg, kw.value))
                for p, value in given:
                    if (outer and isinstance(value, ast.Name)
                            and value.id == p and p in ops[outer]):
                        forwards.setdefault((name, p), set()).add((outer, p))
                    else:
                        is_set.add((name, p))
    grew = True
    while grew:
        grew = False
        for key, sources in forwards.items():
            if key not in is_set and sources & is_set:
                is_set.add(key)
                grew = True
    return sorted((fn, p) for fn, ps in ops.items() for p in ps
                  if (fn, p) not in is_set)


def test_public_ops_parameter_count():
    assert _public_params() <= _MAX_PARAMS


def test_every_public_ops_parameter_is_set_by_a_caller():
    assert _unset_params() == []


def test_entry_point_knob_counts():
    from raycrawl.extract import scrape_dataset
    from raycrawl.pipeline import CrawlConfig

    assert len(inspect.signature(scrape_dataset).parameters) \
        <= _MAX_SCRAPE_PARAMS
    assert len(dataclasses.fields(CrawlConfig)) <= _MAX_CRAWL_FIELDS


def test_crawl_stays_a_short_phase_loop():
    """``crawl()`` is at most 80 lines with no nested function, and
    ``raycrawl/pipeline.py`` has no ``nonlocal``: wave state lives on
    ``_WaveLoop``, one method per phase, not in closures."""
    with open(os.path.join(_ROOT, "raycrawl", "pipeline.py")) as f:
        tree = ast.parse(f.read())
    crawl = next(fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "crawl")
    assert crawl.end_lineno - crawl.lineno + 1 <= 80
    assert not [n for n in ast.walk(crawl) if n is not crawl and isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Nonlocal)]
