"""The engine layers hold no coefficient arithmetic, and the error classes
hold the exit-code policy.

``stab``, ``engine``, ``solve``, ``functions`` and ``net`` work on matrices
of values.  From ``coeff`` they may import only the coefficient classes and
``hom_zero`` (the data of the table-level API), the groups that hold
values and the conversions between values and coefficients, the error
classes, and ``quad_apply``/``quad_of_values``, which a float quadratic
term on Z keeps its formula through.  Composition, duals, pullbacks and
the other coefficient operations stay with the tables.  ``stab`` holds
tableaux and Clifford data as maps and values, so it imports no
coefficient cell and no conversion to or from one: cells are read and
written only at the JSON boundary.  Nor does ``engine``: its reductions,
the Gauss sum included, read values.

Every exception class of the package derives from ``errors.InvalidInput``
(exit 2) or ``errors.Unsupported`` (exit 3), or states an internal
invariant and is listed in ``INTERNAL``; ``cli`` names no exception class
but the two bases.

Every float decision reads ``scalar.TOL`` (through the groups' ``eq``) or
``scalar.PIVOT_TOL``: no other module writes a tolerance of its own, and
exact data never reaches a float comparison.
"""

import ast
import builtins
import collections
import os
import random

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "qtensor")

ALLOWED = {
    # coefficient cells of the table-level API
    "HomCoeff", "Hom2Coeff", "QuadCoeff", "hom_zero",
    # groups holding values, and conversions between values and cells
    "hom_group", "hom2_group", "image_group", "cell_group", "is_generated", "value_is_zero",
    "image_apply", "image_fit", "hom_image", "hom_of_image", "cell_value", "cell_of_value",
    "quad_values",
    # the float term on Z keeps the formula of its coefficient
    "quad_apply", "quad_of_values",
    # errors
    "DomainMismatch", "TagMismatch",
}


def coeff_imports(module: str):
    """The names ``module`` imports from ``coeff``, with their line numbers."""
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "coeff":
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[-1] == "coeff":
                    yield alias.name, node.lineno


@pytest.mark.parametrize("module", ["stab", "engine", "solve", "functions", "net"])
def test_layer_imports_only_values_from_coeff(module):
    bad = [(name, line) for name, line in coeff_imports(module) if name not in ALLOWED]
    assert not bad, f"{module}.py imports coefficient arithmetic from coeff: {bad}"


# coefficient cells, and the conversions between a cell and its value
CELLS = {"HomCoeff", "Hom2Coeff", "QuadCoeff", "hom_zero", "cell_of_value", "hom_of_image",
         "hom_image"}


def test_stab_imports_no_coefficient_cells():
    bad = [(name, line) for name, line in coeff_imports("stab") if name in CELLS]
    assert not bad, f"stab.py builds coefficient cells: {bad}"


def test_engine_imports_no_coefficient_cells():
    bad = [(name, line) for name, line in coeff_imports("engine") if name in CELLS]
    assert not bad, f"engine.py builds coefficient cells: {bad}"


BASES = {"InvalidInput", "Unsupported"}

# exception classes that state internal invariants, so that a fault there
# shows its traceback; no input that the CLI reads is known to reach them
INTERNAL = {
    "KernelViolation": "a reduction given rho outside ker eps1, or q^(2) not vanishing on it",
    "Degenerate": "a reduction applied to a bilinear part it does not handle",
    "DomainMismatch": "an element or function on another domain than the one given",
    "TagMismatch": "coefficient cells whose groups do not line up",
    "UnsupportedTarget": "a coefficient table asked for a target it has no entry for",
    "ArityMismatch": "a group element with the wrong number of components",
    "InfiniteGroup": "enumeration of an infinite group, which the callers rule out",
    "ShapeMismatch": "the dense oracle comparing tensors of different shapes",
    "BasisMismatch": "the dense oracle joining legs of different dimensions",
    "OrientationMismatch": "the dense oracle joining two graded legs of one orientation",
    "NotNormalizable": "grid_materialize, a spot check no command runs, off its domain",
}


def class_bases():
    """Class name -> the names of its bases, over every module of the package."""
    out = {}
    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            with open(os.path.join(SRC, fn), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    out[node.name] = [b.id if isinstance(b, ast.Name) else b.attr
                                      for b in node.bases]
    return out


def ancestors(name, bases):
    """Every base of ``name``, by name, up to the builtins."""
    out = set()
    todo = list(bases.get(name, []))
    while todo:
        b = todo.pop()
        if b not in out:
            out.add(b)
            todo += bases.get(b, [])
    return out


def exception_classes():
    bases = class_bases()
    return {name: ancestors(name, bases) for name in bases
            if any(isinstance(getattr(builtins, b, None), type)
                   and issubclass(getattr(builtins, b), BaseException)
                   for b in ancestors(name, bases))}


def test_every_error_class_has_an_exit_code_or_is_internal():
    classes = exception_classes()
    assert BASES <= set(classes)
    for name, anc in classes.items():
        if name in BASES:
            continue
        assert bool(anc & BASES) != (name in INTERNAL), (
            f"{name} must derive from InvalidInput or Unsupported, or be listed as internal")
    assert set(INTERNAL) <= set(classes), "INTERNAL lists a class that is gone"


def test_cli_names_no_error_class_but_the_bases():
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    classes = exception_classes()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names & set(classes) == BASES
    caught = {n.id for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
              for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert caught == BASES | {"OSError"}


def _trees(*dirs):
    """The parsed Python files under the repository directories ``dirs``."""
    root = os.path.dirname(os.path.dirname(SRC))
    for d in dirs:
        for base, _, files in os.walk(os.path.join(root, d)):
            for fn in sorted(files):
                if fn.endswith(".py"):
                    with open(os.path.join(base, fn), encoding="utf-8") as fh:
                        yield fn, ast.parse(fh.read())


def test_every_top_level_definition_is_used():
    """Every top-level function and class of the package is read somewhere
    in ``src``, ``tests`` or ``perfbench``: by a Name or an Attribute load,
    or as an ``__all__`` entry.  An import alone is not a use."""
    defined = {node.name: f"{fn}:{node.lineno}" for fn, tree in _trees("src/qtensor")
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = set()
    for _, tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    dead = sorted(f"{loc} {name}" for name, loc in defined.items() if name not in used)
    assert not dead, f"top-level definitions no code reads: {dead}"


def test_solve_imports_no_numpy():
    """Real systems are eliminated by ``gauss_jordan`` alone, exact or float:
    ``solve`` has no least-squares fork."""
    with open(os.path.join(SRC, "solve.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "numpy"], modules


# float literals below 1e-3 allowed in src/qtensor, by (module, the
# function they sit in or the module-level name they are assigned to)
TOLERANCE_SITES = {
    ("scalar", "TOL"), ("scalar", "PIVOT_TOL"),
    # np.allclose's default pair, the test that eps1 is the identity
    ("fermion", "has_trivial_embedding"),
    # the graded fermion oracle's bound
    ("net", "verify_against_dense"),
}


def _small_float_sites(module: str):
    """(name, line) of each float literal 0 < |x| < 1e-3 in ``module``, with
    the name of the function it sits in, or of the module-level assignment."""
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif (where is None and isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            where = node.targets[0].id
        elif isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3:
            yield where, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    yield from visit(tree, None)


def test_no_tolerance_literal_outside_scalar():
    """A float is zero, or two floats equal, as its group says (scalar.TOL),
    and a float pivot is usable above PIVOT_TOL times the largest magnitude
    read: no module writes a threshold of its own, except the two commented
    sites of ``TOLERANCE_SITES``."""
    modules = sorted(fn[:-3] for fn in os.listdir(SRC) if fn.endswith(".py"))
    bad = [(m, where, line) for m in modules for where, line in _small_float_sites(m)
           if (m, where) not in TOLERANCE_SITES]
    assert not bad, bad


def test_exact_inputs_never_compare_floats(monkeypatch):
    """The stabilizer pins and a sample of acceptance criterion 3's networks
    are exact: no group comparison on them reads a float, so neither
    tolerance decides anything there."""
    from gen import random_network
    from test_stabilizer import stab_outputs

    from qtensor import groups
    from qtensor.dense import materialize
    from qtensor.engine import reduce_full, self_contract

    floats = collections.Counter()
    for name in ("scalar_eq", "scalar_eq_mod1"):
        def counted(a, b, _fn=getattr(groups, name), _name=name):
            if isinstance(a, float) or isinstance(b, float):
                floats[_name] += 1
            return _fn(a, b)
        monkeypatch.setattr(groups, name, counted)
    stab_outputs()
    rng, done = random.Random(424242), 0
    while done < 40:
        drawn = random_network(rng)
        if drawn is None:
            continue
        cur, pairs = drawn
        live = list(range(len(cur.G)))
        for a, b in pairs:
            ia, ib = sorted((live.index(a), live.index(b)))
            live = [x for x in live if x not in (a, b)]
            cur = reduce_full(self_contract(cur, ia, ib))
        materialize(cur)
        done += 1
    assert not floats, floats
    # the counter sees a float comparison when there is one
    assert groups.R.eq(1e-12, 0) and floats["scalar_eq"] == 1
