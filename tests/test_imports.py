"""Every import of a library module is used in that module, every import
inside a def is used in that def, senlab/__init__.py exports each name of
its table from the name's module on first access, no module imports an
underscore name from a sibling, every module-level def or class is used by
a library module, exported or traced by the benchmark, every public method
is named in the library or the demos or traced, no module sums products in
a loop of its own (over K the one route is LocalField.dot, over Q_p gamma's
integer kernels and the elimination's linalg._form) or forms powers or
factorials one product at a time (the one route is padic.power_sequence,
behind LocalField.powers), no function but linalg.row_reduce (over K) and
linalg._integral_lu (over Q_p) chooses pivots, no module tests a scalar's
`.val` against None (a zero to precision stores val = prec), and no module
but field.py reads a field's reduction table, Kronecker layout, trace form
or table precision."""

import ast
import importlib.util
from pathlib import Path

import pytest

import senlab

SRC = Path(__file__).resolve().parent.parent / "src" / "senlab"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
DEMOS = sorted((SRC.parent.parent / "demos").glob("*.py"))


def _own_nodes(scope):
    """Every node of a module or def outside the defs, classes and lambdas
    nested in it."""
    for child in ast.iter_child_nodes(scope):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                  ast.Lambda)):
            yield child
            yield from _own_nodes(child)


def _unused_in(scope):
    """(line, name) of every name the module or def `scope` imports and does
    not use within itself (a def's nested defs count as its own)."""
    imported = {}
    for node in _own_nodes(scope):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in used]


def _unused_imports(source):
    return sorted(_unused_in(ast.parse(source)))


def _unused_def_imports(source):
    return sorted(found for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for found in _unused_in(node))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_top_level_import(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_import_in_a_def(path):
    # each CLI handler imports the names it calls, and only those
    assert _unused_def_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import os\nfrom math import comb, gcd\nprint(gcd(4, 6))\n"
    assert _unused_imports(source) == [(1, "os"), (2, "comb")]


def test_detects_an_unused_import_in_a_def():
    # a handler's own imports must serve that handler: a name used only in a
    # sibling def, or only at module level, does not count
    source = ("import json\n"
              "def f():\n    from math import comb, gcd\n    return gcd(4, 6)\n"
              "def g():\n    import os\n    if os:\n        from sys import argv, path\n"
              "        def h():\n            return argv\n        return h\n"
              "def k():\n    from .x import comb, json\n    return lambda: comb\n"
              "print(json, gcd)\n")
    assert _unused_def_imports(source) == [(3, "comb"), (8, "path"), (13, "json")]
    assert _unused_imports(source) == []


def _private_sibling_imports(source):
    """(line, name) of every underscore name imported from a sibling module."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("senlab"))
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_private_sibling_import(path):
    # a module's underscore names are its own: siblings use its public API
    assert _private_sibling_imports(path.read_text()) == []


def test_detects_a_private_sibling_import():
    source = ("from __future__ import annotations\nfrom . import linalg, _cache\n"
              "from .field import _scalar, qp_field\nfrom senlab.padic import _PRIMES\n"
              "from os import _exit\n")
    assert _private_sibling_imports(source) == [(2, "_cache"), (3, "_scalar"), (4, "_PRIMES")]


def _names_used(source):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def _orphans(sources, kept):
    """module.name of every module-level def or class in `sources` (module
    name -> source) that no module uses by name and that is not among the
    `kept` (module, name) pairs."""
    used = set().union(*map(_names_used, sources.values()))
    return sorted(f"{mod}.{node.name}" for mod, source in sources.items()
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in used and (mod, node.name) not in kept)


def _orphan_methods(sources, callers, kept):
    """module.Class.method of every public method defined in a class of
    `sources` whose name no source among `callers` uses and that is not
    among the `kept` (module, "Class.method") pairs."""
    used = set().union(*map(_names_used, callers))
    return sorted(f"{mod}.{cls.name}.{node.name}" for mod, source in sources.items()
                  for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and node.name not in used
                  and (mod, f"{cls.name}.{node.name}") not in kept)


def test_exports_load_on_first_access():
    # the lazy table is the package's whole namespace: each name is its
    # module's own object, by attribute and by `from senlab import`
    assert senlab.__all__ == list(senlab._EXPORTS)
    assert set(senlab._EXPORTS) <= set(dir(senlab))
    for name, module in senlab._EXPORTS.items():
        obj = getattr(importlib.import_module(f"senlab.{module}"), name)
        namespace = {}
        exec(f"from senlab import {name}", namespace)
        assert getattr(senlab, name) is obj and namespace[name] is obj, name
    with pytest.raises(AttributeError, match="'senlab' has no attribute 'nosuch'"):
        senlab.nosuch
    with pytest.raises(ImportError):
        exec("from senlab import nosuch", {})


def _exported_and_traced():
    """(module, name) of every export of senlab/__init__.py and of every
    target of bench/tracer.py, loaded as test_bench_tracer loads it: a
    traced method counts as (module, "Class.method") and keeps its class."""
    kept = {(module, name) for name, module in senlab._EXPORTS.items()}
    path = SRC.parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for targets in [*tracer.SPAN_LAYERS.values(), *tracer.COUNTED_LAYERS.values()]:
        for target in targets:
            module, attr = target.split(":")
            module = module.rsplit(".", 1)[-1]
            kept.update({(module, attr.split(".")[0]), (module, attr)})
    return kept


def test_no_library_code_that_nothing_calls():
    # a def, class or public method that only tests reach belongs in the tests
    sources = {path.stem: path.read_text() for path in MODULES}
    kept = _exported_and_traced()
    assert _orphans(sources, kept) == []
    callers = list(sources.values()) + [path.read_text() for path in DEMOS]
    assert _orphan_methods(sources, callers, kept) == []


def test_detects_code_that_nothing_calls():
    sources = {"a": "def f():\n    return g()\ndef g(): pass\nclass C: pass\ndef h(): pass\n",
               "b": "from .a import h\nfrom . import a\ndef k(): pass\ndef m():\n"
                    "    return a.f\n"}
    assert _orphans(sources, set()) == ["a.C", "a.h", "b.k", "b.m"]
    assert _orphans(sources, {("a", "C"), ("b", "k"), ("a", "m")}) == ["a.h", "b.m"]


def test_detects_methods_that_nothing_calls():
    sources = {"a": "class C:\n    def f(self):\n        return self.g()\n"
                    "    def g(self): pass\n    def h(self): pass\n    def _k(self): pass\n"
                    "    @property\n    def size(self): pass\n"}
    demo = "from a import C\nprint(C().size)\n"
    assert _orphan_methods(sources, list(sources.values()), set()) == ["a.C.f", "a.C.h",
                                                                        "a.C.size"]
    assert _orphan_methods(sources, [sources["a"], demo], {("a", "C.h")}) == ["a.C.f"]


def _hand_rolled_sums(source):
    """module-relative qualified name of the function around each `x = x +
    a * b`, x a plain name or a subscript such as `out[m]`, inside a for loop:
    a sum of products kept by hand."""
    found = []

    def visit(node, scope, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], False)
                continue
            in_child = in_loop or isinstance(child, (ast.For, ast.AsyncFor))
            if in_loop and isinstance(child, ast.Assign) and len(child.targets) == 1:
                target, value = child.targets[0], child.value
                if (isinstance(target, (ast.Name, ast.Subscript))
                        and isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)
                        and ast.unparse(value.left) == ast.unparse(target)
                        and isinstance(value.right, ast.BinOp)
                        and isinstance(value.right.op, ast.Mult)):
                    found.append(".".join(scope))
            visit(child, scope, in_child)

    visit(ast.parse(source), [], False)
    return found


def test_one_loop_sums_products():
    # a sum of products has one route per representation, and neither is a
    # loop: over K, LocalField.dot's packed integer sum; over Q_p, gamma's
    # integer kernels (_product, _combination, _scaled, _difference) and,
    # for an entry under elimination, linalg._form's dot product
    found = [f"{path.stem}.{name}" for path in MODULES
             for name in _hand_rolled_sums(path.read_text())]
    assert found == []


def test_detects_a_hand_rolled_sum():
    source = ("def f(u, v):\n    acc = 0\n    for x, y in zip(u, v):\n"
              "        acc = acc + x * y\n    return acc\n"
              "class C:\n    def g(self, u):\n        s = 0\n        for x in u:\n"
              "            if x:\n                s = s + (x * x) * 2\n"
              "            s = s + x\n            t = s + x * x\n"
              "        s = s + s * s\n        return s, t\n"
              "def h(u, v):\n    out = [0, 0]\n    for i, x in enumerate(u):\n"
              "        out[i] = out[i] + x * v[i]\n        out[0] = out[1] + x * x\n"
              "    return out\n")
    assert _hand_rolled_sums(source) == ["f", "C.g", "h"]


def _pivot_choosers(source):
    """module-relative qualified name of each function that calls
    _select_pivot, by name or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and "_select_pivot" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_one_elimination_per_representation():
    # over K the one elimination is row_reduce, read by kernel_basis, det and
    # cohomology; over Q_p it is the integral kernel _integral_lu
    found = sorted({f"{path.stem}.{name}" for path in MODULES
                    for name in _pivot_choosers(path.read_text())})
    assert found == ["linalg._integral_lu", "linalg.row_reduce"]


def test_detects_a_second_elimination():
    source = ("def f(a):\n    return _select_pivot(a)\n"
              "class C:\n    def g(self, a):\n        for c in a:\n"
              "            sel = linalg._select_pivot([c])\n        return sel\n"
              "def h(a):\n    pick = lambda x: _select_pivot(x)\n    return pick(a)\n"
              "def k(a):\n    return select_pivot(a), _select_pivot\n")
    assert _pivot_choosers(source) == ["f", "C.g", "h"]


FIELD_INTERNALS = {"_table", "_slots", "_shifts", "_table_mod", "_table_bound", "_reduce",
                   "_trace_form", "table_prec"}


def _field_internals(sources):
    """module -> the sorted FIELD_INTERNALS that a module other than field
    reads as attributes."""
    found = {}
    for mod, source in sources.items():
        names = sorted({node.attr for node in ast.walk(ast.parse(source))
                        if isinstance(node, ast.Attribute) and node.attr in FIELD_INTERNALS})
        if names and mod != "field":
            found[mod] = names
    return found


def test_only_field_reads_the_table():
    # the table, its layout and the cap are field.py's: the packed kernels of
    # dpseries and senmod call LocalField's block methods and read LocalField.cap
    assert _field_internals({path.stem: path.read_text() for path in MODULES}) == {}


def test_detects_a_read_of_the_table():
    sources = {"field": "def f(K):\n    return K._table, K.table_prec\n",
               "a": "def g(K, x):\n    return K._reduce(x, 8, 9), len(K._table), K._table\n",
               "b": "def h(K, _table):\n    return _table, K._tables, K.cap, K._reduce_blocks\n",
               "c": "class C:\n    def k(self, K):\n        K._table_bound = 0\n"
                    "        return K._shifts, K.field._trace_form\n"}
    assert _field_internals(sources) == {"a": ["_reduce", "_table"],
                                         "c": ["_shifts", "_table_bound", "_trace_form"]}


def _power_chains(source):
    """module-relative qualified name of the function around each product
    kept by hand inside a for loop: `x = ... x ...` for a name x that is a
    factor of the product or quotient (`x = x * y / k`), or
    `xs.append(...)` of a product with a factor `xs[i]` (`xs.append(xs[-1] *
    y)`).  A product reduced modulo an integer (`u = u * a % m`) is integer
    residue arithmetic, such as the running terms of padic_exp and
    padic_log, and is not one of them."""
    def factors(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            return factors(node.left) + factors(node.right)
        return factors(node.operand) if isinstance(node, ast.UnaryOp) else [node]

    def chain(name, value, kind):
        """Whether value is a product or quotient with a factor `name`
        (kind ast.Name) or `name[i]` (kind ast.Subscript)."""
        return isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Mult, ast.Div)) and any(
            isinstance(factor, kind) and ast.unparse(getattr(factor, "value", factor)) == name
            for factor in factors(value))

    found = []

    def visit(node, scope, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], False)
                continue
            if in_loop and (
                    isinstance(child, ast.Assign) and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Name)
                    and chain(child.targets[0].id, child.value, ast.Name)
                    or isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "append" and len(child.args) == 1
                    and chain(ast.unparse(child.func.value), child.args[0], ast.Subscript)):
                found.append(".".join(scope))
            visit(child, scope, in_loop or isinstance(child, (ast.For, ast.AsyncFor)))

    visit(ast.parse(source), [], False)
    return found


def test_no_power_or_factorial_chain():
    # x^k, x^k k! and x^k/k! have one route: padic.power_sequence, which
    # carries the chain's precisions as integers and forms one product per
    # power; LocalField.powers runs it over K
    found = [f"{path.stem}.{name}" for path in MODULES
             for name in _power_chains(path.read_text())]
    assert found == []


def test_detects_a_power_chain():
    source = ("def f(b, n):\n    out = [1]\n    for k in range(1, n):\n"
              "        out.append(out[-1] * b / k)\n    return out\n"
              "class C:\n    def g(self, x, n):\n        y = 1\n        for k in range(n):\n"
              "            if k:\n                y = -x * y * k\n"
              "            y = y + x * x\n            z = x * x\n"
              "        y = y * x\n        return y, z\n"
              "def h(x, n):\n    u, xs = 1, [1]\n    for _ in range(n):\n"
              "        u = u * x % 7\n        xs.append(x * x)\n"
              "        xs.append(x * xs[len(xs) - 1])\n    return u, xs\n")
    assert _power_chains(source) == ["f", "C.g", "h"]


def _val_none_tests(source):
    """Line of every comparison of an attribute `.val` with None."""
    def is_val(node):
        return isinstance(node, ast.Attribute) and node.attr == "val"

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(is_val(a) and is_none(b) or is_none(a) and is_val(b)
                    for a, b in zip([node.left] + node.comparators[:-1], node.comparators)))


def test_no_val_none_tests():
    # a zero to precision stores val = prec: is_zero() and valuation() tell it apart
    found = [f"{path.stem}:{line}" for path in MODULES
             for line in _val_none_tests(path.read_text())]
    assert found == []


def test_detects_a_val_none_test():
    source = ("def f(x, y, val):\n    if x.val is None or None != y.val:\n        return 0\n"
              "    if val is None or x.valuation() is None:\n        return 1\n"
              "    return x.val == 0 or x.val <= y.val is not None\n")
    assert _val_none_tests(source) == [2, 2, 6]
