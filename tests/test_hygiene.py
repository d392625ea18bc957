"""Source hygiene: every name a module imports is used in that module,
every private helper of the package is used somewhere in the package, the
names the README, the docstrings and the benchmark scripts refer to exist,
the README's Python quick start runs as written, and one function draws the
minibatch permutation.

The package's ``__init__.py`` is left out of the import check, since it
imports names only to re-export them.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import spikesam
from spikesam import optim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "spikesam").glob("*.py"))
MODULES = {p.stem for p in PACKAGE if p.name != "__init__.py"}
FILES = sorted(
    p for p in (*PACKAGE, *(ROOT / "tests").glob("*.py"))
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _references(tree: ast.AST) -> list[str]:
    """Every name read as a bare name or as an attribute under ``tree``."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """``_``-prefixed functions and classes that nothing but their own body refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    counts: dict[str, int] = {}
    for tree in trees.values():
        for ref in _references(tree):
            counts[ref] = counts.get(ref, 0) + 1
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
                continue
            if counts.get(node.name, 0) == _references(node).count(node.name):
                unused.append(f"{name}:{node.lineno}: {node.name}")
    return unused


def shadowed_imports(source: str) -> list[str]:
    """Function-local names that shadow a name the module imports at its top
    level: arguments, assigned names and nested ``def``s or classes, each
    reported under the innermost function that binds it."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        where = getattr(fn, "name", "<lambda>")
        a = fn.args
        bound = [(arg.lineno, arg.arg) for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg]
        todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.append((node.lineno, node.name))  # its body is a scope of its own
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.append((node.lineno, node.id))
            elif not isinstance(node, ast.Lambda):
                todo.extend(ast.iter_child_nodes(node))
        found.update((line, where, name) for line, name in bound if name in imported)
    return [f"{where}:{line}: {name}" for line, where, name in sorted(found)]


def test_detector_flags_a_local_name_that_shadows_an_import():
    source = (
        "import numpy as np\n"
        "from dataclasses import field, fields\n"
        "def f(np, x):\n"
        "    for field in x:\n"
        "        pass\n"
        "    def fields():\n"
        "        return [field for field in x]\n"
        "    return lambda np: np\n"
        "def g(y, *, flag=np.pi):\n"
        "    return field(y), fields, np\n"
    )
    assert shadowed_imports(source) == [
        "f:3: np", "f:4: field", "f:6: fields", "fields:7: field", "<lambda>:8: np"
    ]


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["line 1: os"]
    assert unused_imports("from a.b import c, d as e\nprint(c, e)\n") == []


def test_detector_flags_an_unreferenced_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Box:\n    def _method(self):\n        pass\n    def __init__(self):\n        pass\n",
        "b.py": "from a import _used\n_used()\nobj._method()\n",
    }
    assert unreferenced_helpers(sources) == ["a.py:4: _recursive", "a.py:6: _Box"]


def resolves(dotted: str, *scopes) -> bool:
    """Whether ``dotted`` names an attribute path from one of ``scopes``."""
    missing = object()
    for scope in scopes:
        obj = scope
        for part in dotted.split("."):
            obj = getattr(obj, part, missing)
            if obj is missing:
                break
        else:
            return True
    return False


# Where a bare class name in the README may live.
BARE_SCOPES = (spikesam, *(importlib.import_module(f"spikesam.{m}") for m in sorted(MODULES)), builtins, np, np.random)


def readme_references(text: str) -> list[str]:
    """Backticked dotted names in ``text`` that start at the package or one of
    its modules, then backticked bare CamelCase names (with a lowercase letter)."""
    names = (re.sub(r"^spikesam\.", "", ref) for ref in re.findall(r"`([A-Za-z_][\w.]*\.\w+)`", text))
    dotted = [name for name in names if name.split(".")[0] in MODULES]
    return dotted + re.findall(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`", text)


def readme_reference_resolves(ref: str) -> bool:
    """A dotted reference resolves from the package, a bare name from one of ``BARE_SCOPES``."""
    return resolves(ref, spikesam) if "." in ref else resolves(ref, *BARE_SCOPES)


def docstring_roles(module, source: str) -> list[tuple[str, bool]]:
    """Each ``:func:``, ``:meth:`` and ``:class:`` role in the docstrings of
    ``source``, the text of ``module``, and whether it resolves.  A ``:meth:``
    role inside a class resolves against that class; any other against the
    module, then the package."""
    out = []

    def visit(node: ast.AST, cls) -> None:
        if isinstance(node, ast.ClassDef):
            cls = getattr(module, node.name, None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for role, target in re.findall(r":(func|meth|class):`~?([\w.]+)`", ast.get_docstring(node) or ""):
                scopes = (cls,) if role == "meth" and cls is not None else (module, spikesam)
                out.append((f"{getattr(node, 'lineno', 1)}: :{role}:`{target}`", resolves(target, *scopes)))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(ast.parse(source), None)
    return out


def test_detector_flags_a_reference_to_a_missing_name():
    source = (
        'class SastOptimizer:\n    """See :meth:`sast_step` and :meth:`requests`."""\n\n'
        'def f():\n    """Calls :func:`step_plan`, :func:`network.stack` and :func:`_answer`."""\n'
    )
    assert [ref for ref, ok in docstring_roles(optim, source) if not ok] == ["1: :meth:`requests`", "4: :func:`_answer`"]
    text = (
        "`optim.step_plan`, `spikesam.network.stack`, `summary.json`, `np.savez`, `optim.requests`,"
        " `SeedResult`, `ValueError`, `SeedSequence`, `THETA_FLOOR`, `T` and `EventStream`"
    )
    refs = readme_references(text)
    assert refs == [
        "optim.step_plan", "network.stack", "optim.requests", "SeedResult", "ValueError", "SeedSequence", "EventStream"
    ]
    assert [ref for ref in refs if not readme_reference_resolves(ref)] == ["optim.requests", "EventStream"]


def test_readme_references_resolve():
    refs = readme_references((ROOT / "README.md").read_text())
    assert refs
    assert [ref for ref in refs if not readme_reference_resolves(ref)] == []


def test_docstring_roles_resolve():
    roles = [
        (f"{p.name}:{ref}", ok)
        for p in PACKAGE
        for ref, ok in docstring_roles(importlib.import_module(f"spikesam.{p.stem}".removesuffix(".__init__")), p.read_text())
    ]
    assert roles
    assert [ref for ref, ok in roles if not ok] == []


def package_attribute_reads(source: str) -> list[str]:
    """``<module>.<name>`` for each attribute read off a module that ``source``
    imports with ``from spikesam import ...``, in the order of the syntax tree."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "spikesam"
        for alias in node.names
        if alias.name in MODULES
    }
    return [
        f"{bound[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
    ]


def test_detector_lists_what_a_script_reads_from_the_package():
    source = "from spikesam import network, gradients as g\nnetwork.stack(g.gone)\nother.attr\n"
    refs = package_attribute_reads(source)
    assert sorted(refs) == ["gradients.gone", "network.stack"]
    assert [ref for ref in refs if not resolves(ref, spikesam)] == ["gradients.gone"]


def test_benchmark_scripts_read_only_names_that_exist():
    # A deletion from the package would otherwise show only when the benchmark runs.
    refs = [(p.name, ref) for p in sorted((ROOT / "perfbench").glob("*.py")) for ref in package_attribute_reads(p.read_text())]
    assert refs
    assert [f"{name}: {ref}" for name, ref in refs if not resolves(ref, spikesam)] == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_local_name_shadows_an_import(path):
    assert shadowed_imports(path.read_text()) == []


def test_every_private_helper_is_referenced():
    assert unreferenced_helpers({p.name: p.read_text() for p in PACKAGE}) == []


# The forward, loss and gradient path that the bound battery, gradchecks and
# probes call thousands of times on tiny nets, where a call's fixed cost is
# most of its time.
HOT_PATH = {
    "network": (
        "forward", "run_layers", "_bounded", "_squared_norm", "lif_layer", "fold", "smooth_layer",
        "layer_drive", "readout", "replace_parameters", "_admissible", "_argument_derivative",
    ),
    "gradients": (
        "Batch.__post_init__", "_softmax_loss", "batch_loss", "backward", "_reverse_sweep",
        "logit_jacobians",
    ),
    "optim": ("next_points", "SastOptimizer._point"),
    "diagnostics": ("accuracies",),
}
WRAPPED_REDUCTIONS = ("all", "any", "mean")  # NumPy functions and methods that wrap a ufunc reduction


def wrapped_reduction_calls(source: str, qualnames: tuple[str, ...]) -> list[str]:
    """Calls of ``np.all``, ``np.any`` or ``np.mean``, or of an ``.all()``,
    ``.any()`` or ``.mean()`` method, in the named functions of ``source``.
    An ``if`` or ``else`` block that ends in ``raise`` is an error path, and
    its calls are not reported; its condition's are."""
    found, seen = [], []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in WRAPPED_REDUCTIONS:
            found.append(f"{where}:{node.lineno}: {ast.unparse(node.func)}()")
        for name, child in ast.iter_fields(node):
            blocks = child if isinstance(child, list) else [child]
            if isinstance(node, ast.If) and name in ("body", "orelse") and blocks and isinstance(blocks[-1], ast.Raise):
                continue
            for block in blocks:
                if isinstance(block, ast.AST):
                    visit(block, where)

    def walk(body: list, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{node.name}"
                if name in qualnames:
                    seen.append(name)
                    visit(node, name)
                elif isinstance(node, ast.ClassDef):
                    walk(node.body, f"{name}.")

    walk(ast.parse(source).body, "")
    return found + [f"{name}: not defined" for name in qualnames if name not in seen]


def test_detector_flags_a_wrapped_reduction_outside_an_error_path():
    source = (
        "def hot(a, b):\n"
        "    if np.all(a > 0):\n"  # a condition runs on every call
        "        raise ValueError(a.mean())\n"
        "    if b:\n"
        "        x = a.any(axis=0)\n"
        "    else:\n"
        "        y = np.mean(a)\n"
        "        raise ValueError(y)\n"
        "    return np.logical_and.reduce(a, axis=None), a.sum()\n"
        "class Box:\n"
        "    def method(self, a):\n"
        "        return [v.all() for v in a]\n"
        "def cold(a):\n"
        "    return a.mean()\n"
    )
    assert wrapped_reduction_calls(source, ("hot", "Box.method", "gone")) == [
        "hot:2: np.all()", "hot:5: a.any()", "Box.method:12: v.all()", "gone: not defined"
    ]


@pytest.mark.parametrize("module", sorted(HOT_PATH))
def test_the_hot_path_calls_ufunc_reductions_without_their_wrappers(module):
    source = (ROOT / "src" / "spikesam" / f"{module}.py").read_text()
    assert wrapped_reduction_calls(source, HOT_PATH[module]) == []


PERMUTING = ("permutation", "permuted", "shuffle")  # Generator methods that draw a permutation


def permutation_draws(source: str) -> list[str]:
    """Calls of a ``permutation``, ``permuted`` or ``shuffle`` method in
    ``source``, each under the qualified name of the function that makes it
    (``<module>`` outside any function)."""
    found = []

    def walk(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr in PERMUTING:
                found.append(f"{where or '<module>'}:{child.lineno}")
            walk(child, where)

    walk(ast.parse(source), "")
    return found


def test_detector_flags_a_permutation_draw():
    source = (
        "order = rng.permutation(4)\n"
        "def chunks(rng, n):\n"
        "    return [rng.permutation(n)]\n"
        "class Box:\n"
        "    def method(self, rng, a):\n"
        "        rng.shuffle(a)\n"
        "        return sorted(a)\n"
        "def quiet(n):\n"
        "    return np.arange(n)\n"
    )
    assert permutation_draws(source) == ["<module>:1", "chunks:3", "Box.method:6"]


def test_only_epoch_chunks_permutes_sample_indices():
    # One schedule of minibatches: training, the convergence experiment and
    # its noise estimate all draw their epochs from optim.epoch_chunks.  The
    # synthetic task's label permutation is the one other draw.
    draws = [f"{path.stem}.{where}" for path in PACKAGE for where in permutation_draws(path.read_text())]
    assert [draw.split(":")[0] for draw in draws] == ["events._synth_split", "optim.epoch_chunks"], draws


def test_readme_python_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    bundle = scope["bundle"]
    assert math.isfinite(bundle.loss) and bundle.grads.buffer.shape == scope["params"].buffer.shape
    assert bundle.grads.alpha is None and bundle.input_grads is None  # a batch pass: parameters only
