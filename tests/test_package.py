import argparse
import ast
import importlib.util
import os
import re

import pytest

import tiger
from tiger import cli


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


def _package_sources() -> dict:
    """Each module file of the package, by name, mapped to its text."""
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                sources[name] = f.read()
    return sources


def test_no_blas_call():
    found = [
        f"{name}:{line} {scope or '<module>'}: {what}"
        for name, source in _package_sources().items()
        for scope, line, what in blas_sites(source)
    ]
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


# ---------------------------------------------------------------------------
# The package keeps only what is reached.  A function, class or method must
# be named somewhere in src/tiger/ outside its own body, or be exported, or be
# a command's cmd_<name>, or be pinned by an acceptance criterion listed here.
# A test oracle lives in tests/, not in the package.
# ---------------------------------------------------------------------------

# (name, the test in tests/test_acceptance.py that pins it)
PINNED_BY_ACCEPTANCE = (
    ("grpo_objective", "test_grpo_math"),
    ("regenerate_from_manifest", "test_dataset_self_consistency"),
)


def unreached_names(sources: dict) -> list:
    """(file, line, name) of each definition no source names outside its own body.

    `sources` maps a file name to its text.  A use is a bare name, an
    attribute or an imported name anywhere in any of the files; dunders are
    skipped, since Python calls them.
    """
    defs, uses = [], []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((file, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                uses.append((file, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((file, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                uses.append((file, node.name, node.lineno))
    return [
        (file, first, name)
        for file, name, first, last in defs
        if not (name.startswith("__") and name.endswith("__"))
        and not any(n == name and not (f == file and first <= line <= last) for f, n, line in uses)
    ]


def test_every_package_name_is_reached():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = {f"cmd_{name}" for name in sub.choices}
    pinned = {name for name, _ in PINNED_BY_ACCEPTANCE}
    unreached = [
        f"{file}:{line} {name}"
        for file, line, name in unreached_names(_package_sources())
        if name not in tiger.__all__
        and not (file == "cli.py" and name in commands)
        and name not in pinned
    ]
    assert unreached == []


def test_each_pinned_name_needs_its_pin():
    """A pinned name is otherwise unreached, and its acceptance test exists."""
    unreached = {name for _, _, name in unreached_names(_package_sources())}
    root = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(root, "test_acceptance.py"), encoding="utf-8") as f:
        acceptance = f.read()
    for name, test in PINNED_BY_ACCEPTANCE:
        assert name in unreached, f"{name} is reached; drop it from PINNED_BY_ACCEPTANCE"
        assert f"def {test}(" in acceptance
        assert re.search(rf"\b{name}\(", acceptance), f"{test} no longer calls {name}"


@pytest.mark.parametrize(
    "source, unreached",
    [
        ("def f():\n    pass\n", ["f"]),
        ("def f():\n    return f()\n", ["f"]),  # only its own body names it
        ("def f():\n    pass\n\ng = f\n", []),
        ("class A:\n    def m(self):\n        pass\n\nA().m()\n", []),
        (  # Python calls a dunder itself
            "class A:\n    def m(self):\n        pass\n\n    def __len__(self):\n        return 0\n",
            ["A", "m"],
        ),
        ("from .x import f\n\ndef f():\n    pass\n", []),
    ],
)
def test_unreached_names_finds_each_form(source, unreached):
    assert [name for _, _, name in unreached_names({"m.py": source})] == unreached


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
