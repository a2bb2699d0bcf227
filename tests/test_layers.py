"""The engine layers hold no coefficient arithmetic.

``stab``, ``engine``, ``solve`` and ``functions`` work on matrices of
values.  From ``coeff`` they may import only the coefficient classes and
``hom_zero`` (the data of the table-level API), the groups that hold
values and the conversions between values and coefficients, the error
classes, and ``quad_apply``/``quad_of_values``, which a float quadratic
term on Z keeps its formula through.  Composition, duals, pullbacks and
the other coefficient operations stay with the tables.
"""

import ast
import os

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


@pytest.mark.parametrize("module", ["stab", "engine", "solve", "functions"])
def test_layer_imports_only_values_from_coeff(module):
    bad = [(name, line) for name, line in coeff_imports(module) if name not in ALLOWED]
    assert not bad, f"{module}.py imports coefficient arithmetic from coeff: {bad}"
