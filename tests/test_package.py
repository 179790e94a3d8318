"""The package: each module's public names once, and one module opens files."""

import ast
import importlib
from pathlib import Path

import kmeoc

MODULES = (
    "bench", "errors", "estimator", "fpk", "hjb", "kernel", "store", "systems",
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
