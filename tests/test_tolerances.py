"""Every numeric gate lives in tolerances.py: no other module of the package
may hold a float literal under 1e-6 in its code (docstrings are strings, not
floats)."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dualchain"


def small_float_literals(path: Path) -> list[tuple[int, float]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-6]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                           if p.name != "tolerances.py"))
def test_no_inline_tolerance_literals(module):
    assert small_float_literals(SRC / module) == []


def test_literal_scan_sees_code_not_docstrings(tmp_path):
    f = tmp_path / "m.py"
    f.write_text('"""gate 1e-9"""\nx = -1e-12\ny = 0.0\nz = 1e-6\n')
    assert small_float_literals(f) == [(2, 1e-12)]
