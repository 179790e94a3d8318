"""The package: each module's public names once, one module opens files,
and the modules import one another in pipeline order."""

import ast
import importlib
from pathlib import Path

import kmeoc

MODULES = (
    "bench", "errors", "estimator", "fpk", "hjb", "kernel", "store", "systems",
)

# Each module may import only the modules before it.
ORDER = (
    "errors", "kernel", "systems", "estimator", "hjb", "fpk", "bench",
    "store", "cli",
)


def test_all_is_version_plus_every_module_all():
    names = ["__version__"]
    for name in MODULES:
        names += importlib.import_module(f"kmeoc.{name}").__all__
    assert len(set(names)) == len(names)  # no name in two modules
    assert sorted(kmeoc.__all__) == sorted(names)


def test_each_name_is_its_module_object():
    for name in MODULES:
        module = importlib.import_module(f"kmeoc.{name}")
        for attr in module.__all__:
            assert getattr(kmeoc, attr) is getattr(module, attr), attr


def test_star_import_brings_every_name():
    namespace = {}
    exec("from kmeoc import *", namespace)
    assert set(kmeoc.__all__) <= set(namespace)
    for attr in ("bench_config", "fit_and_solve", "CHOLESKY_TOL", "MAGIC"):
        assert attr in namespace


def test_only_store_opens_files():
    # Every file format lives in kmeoc.store: no other module calls open
    # or os.fdopen.
    opened = []
    for path in sorted(Path(kmeoc.__file__).parent.glob("*.py")):
        if path.name == "store.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("open", "fdopen"):
                opened.append(f"{path.name}:{node.lineno}")
    assert opened == []


def _package_imports(tree):
    """The kmeoc modules a module's syntax tree imports, wherever they stand.

    ``from .x import y``, ``from . import x``, ``from kmeoc.x import y``
    and ``import kmeoc.x`` all count, also inside a function or under
    ``if TYPE_CHECKING:``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                yield from (alias.name for alias in node.names)
            elif node.level == 1:
                yield node.module.split(".")[0]
            elif (node.module or "").startswith("kmeoc."):
                yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("kmeoc."):
                    yield alias.name.split(".")[1]


def test_modules_import_in_pipeline_order():
    package = Path(kmeoc.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py"))
    assert modules == sorted(ORDER + ("__init__",))
    late = []
    for rank, name in enumerate(ORDER):
        tree = ast.parse((package / f"{name}.py").read_text())
        for target in _package_imports(tree):
            if ORDER.index(target) >= rank:
                late.append(f"{name} imports {target}")
    assert late == []
