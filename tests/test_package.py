import ast
import importlib.util
import os
import re

import pytest

import tiger


def test_every_exported_name_resolves():
    missing = [name for name in tiger.__all__ if not hasattr(tiger, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# No BLAS or LAPACK call in the package.  Their kernels, picked per CPU, may
# block or fuse a sum differently, so one reaching a dataset byte, a tool
# result or a reward makes it depend on the machine.  geometry.py's
# fixed-order helpers stand in for them.
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.abspath(tiger.__file__))
_NUMPY = {"np", "numpy"}
_BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "linalg"}


def blas_sites(source: str):
    """(enclosing function, line, what) of each `@` and BLAS-bound numpy name."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            what = None
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                what = "@"
            elif isinstance(child, ast.Attribute) and child.attr in _BLAS_NAMES:
                if isinstance(child.value, ast.Name) and child.value.id in _NUMPY:
                    what = f"{child.value.id}.{child.attr}"
                elif child.attr == "dot":  # ndarray.dot
                    what = ".dot"
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("numpy"):
                names = {child.module.split(".")[-1]} | {a.name for a in child.names}
                if names & _BLAS_NAMES:
                    what = f"from {child.module} import"
            elif isinstance(child, ast.Import):
                if any(a.name.startswith("numpy.linalg") for a in child.names):
                    what = "import numpy.linalg"
            if what is not None:
                sites.append((scope, child.lineno, what))
            visit(child, inner)

    visit(ast.parse(source), "")
    return sites


def test_no_blas_call():
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            for scope, line, what in blas_sites(f.read()):
                found.append(f"{name}:{line} {scope or '<module>'}: {what}")
    assert found == []


@pytest.mark.parametrize(
    "source, what",
    [
        ("def f(a, b):\n    return a @ b\n", "@"),
        ("def f(a, b):\n    a @= b\n", "@"),
        ("import numpy as np\nx = np.dot([1.0], [2.0])\n", "np.dot"),
        ("import numpy\nx = numpy.einsum('i,i', [1.0], [2.0])\n", "numpy.einsum"),
        ("import numpy as np\nx = np.linalg.norm([1.0])\n", "np.linalg"),
        ("def f(a, b):\n    return a.dot(b)\n", ".dot"),
        ("from numpy.linalg import inv\n", "from numpy.linalg import"),
        ("from numpy import tensordot\n", "from numpy import"),
        ("import numpy.linalg\n", "import numpy.linalg"),
    ],
)
def test_blas_sites_finds_each_form(source, what):
    assert [site[2] for site in blas_sites(source)] == [what]


def test_blas_sites_passes_the_fixed_order_helpers():
    source = "from . import geometry\nx = geometry.matmul(a, b) + geometry.sum_of_products(a, b)\n"
    assert blas_sites(source) == []


def test_benchmark_tracer_installs_and_restores():
    """tigerbench/tracing.py patches the package's functions by module attribute.

    A deleted or renamed attribute it patches fails here, not only in a
    traced benchmark run.
    """
    path = os.path.join(os.path.dirname(os.path.dirname(SRC)), "tigerbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("tigerbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched and all(owner.__dict__[attr] is not fn for owner, attr, fn in patched)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in patched)


def test_workflow_names_no_test_id():
    """CI selects the byte pins by their marker, so a pin is listed only on itself.

    A test id in the workflow is a second list that a new pin must join by hand.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, ".github", "workflows", "tests.yml"), encoding="utf-8") as f:
        workflow = f.read()
    assert re.findall(r"tests/\S*::\S*", workflow) == []
    assert "-m byte_pin" in workflow


def test_misspelt_marker_is_an_error():
    # else a pin whose marker is misspelt silently leaves the per-kernel CI loop
    with pytest.raises(pytest.fail.Exception, match="'byte_pn' not found in `markers`"):
        pytest.mark.byte_pn
