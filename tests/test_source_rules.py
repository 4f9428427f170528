"""Rules on the source of tsteer, read from its syntax trees.

- numpy stays the only runtime dependency: every absolute import under
  src/tsteer/ names a standard-library module, numpy or tsteer.
- The argument rule lives in errors.py, so only it may import numbers. The
  tolerance bands live there too, so only it may assign _ROUNDOFF or
  TARGET_TOL or define _band.
- Each channel model computes its own transfer matrices, so no isinstance
  call may name one of the four models.
- hermat.kron is the one Kronecker kernel, so no np.kron or numpy.kron call
  may appear outside hermat.py.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tsteer"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tsteer"}
MODELS = {"RabiDecay", "Exchange", "LorentzianAD", "KrausChannel"}
OUTSIDE = ", outside the standard library and numpy"


def breaches(name, source):
    """Each rule that the module file `name` with this source breaks, as 'line: what'."""
    out = []
    for node in ast.walk(ast.parse(source, name)):
        if name != "errors.py" and (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node.id in ("_ROUNDOFF", "TARGET_TOL")
                or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "_band"):
            out.append(f"{node.lineno}: a tolerance band outside errors.py")
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
                and any(getattr(n, "id", getattr(n, "attr", None)) in MODELS
                        for n in ast.walk(node.args[1]))):
            out.append(f"{node.lineno}: isinstance on a channel model")
        if (name != "hermat.py" and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.func.attr == "kron"
                and getattr(node.func.value, "id", None) in ("np", "numpy")):
            out.append(f"{node.lineno}: np.kron outside hermat.py")
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for top in (module.split(".")[0] for module in modules):
            if top not in ALLOWED:
                out.append(f"{node.lineno}: import of {top}{OUTSIDE}")
            elif top == "numbers" and name != "errors.py":
                out.append(f"{node.lineno}: import of numbers outside errors.py")
    return out


def test_the_package_source_keeps_its_rules():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 7  # a wrong SRC would check nothing and pass
    assert [f"{path.relative_to(SRC)}:{breach}" for path in paths
            for breach in breaches(path.name, path.read_text())] == []


@pytest.mark.parametrize("name, source, want", [
    ("sdp.py", "import scipy.linalg", ["1: import of scipy" + OUTSIDE]),
    ("sdp.py", "from cvxpy import Problem", ["1: import of cvxpy" + OUTSIDE]),
    ("sdp.py", "import numbers", ["1: import of numbers outside errors.py"]),
    ("sdp.py", "from numbers import Real", ["1: import of numbers outside errors.py"]),
    ("sdp.py", "TARGET_TOL = 1e-8", ["1: a tolerance band outside errors.py"]),
    ("sdp.py", "x = 1\n_ROUNDOFF = 1e-12", ["2: a tolerance band outside errors.py"]),
    ("sdp.py", "def _band(data):\n    return data", ["1: a tolerance band outside errors.py"]),
    ("channels.py", "isinstance(ch, (RabiDecay, Exchange))", ["1: isinstance on a channel model"]),
    ("channels.py", "isinstance(ch, channels.LorentzianAD)", ["1: isinstance on a channel model"]),
    ("measures.py", "np.kron(a, b)", ["1: np.kron outside hermat.py"]),
    ("measures.py", "numpy.kron(a, b)", ["1: np.kron outside hermat.py"]),
    # what the rules leave alone
    ("errors.py", "import math\nimport numbers\n_ROUNDOFF = 1e-12\nTARGET_TOL = 1e-8\n"
                  "def _band(data):\n    return data", []),
    ("hermat.py", "import numpy as np\nnp.kron(a, b)", []),
    ("measures.py", "from . import channels\nfrom tsteer.errors import TARGET_TOL\n"
                    "isinstance(x, np.ndarray)\nhermat.kron(a, b)", []),
])
def test_each_rule_names_its_breach(name, source, want):
    assert breaches(name, source) == want
