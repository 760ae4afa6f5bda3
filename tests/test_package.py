"""Tests for the lazily loaded public names of the nvsim package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nvsim
import nvsim.cli  # noqa: F401  (imports the submodules the CLI loads)
from nvsim.config import ARTIFACT_VERSION


def defining_module(value):
    return importlib.import_module(value.__module__)


class TestPublicNames:
    def test_every_name_is_its_module_object(self):
        for name in nvsim.__all__:
            value = getattr(nvsim, name)
            assert getattr(defining_module(value), name) is value, name

    def test_sweep_is_the_function(self):
        # `sweep` also names a submodule, which importing it binds on the
        # package
        src = str(Path(nvsim.__file__).resolve().parents[1])
        code = ("import nvsim.cli, nvsim.sweep; from nvsim import sweep; "
                "print(type(sweep).__name__, sweep.__module__)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "function nvsim.sweep"

    def test_version(self):
        assert nvsim.__version__ == ARTIFACT_VERSION

    def test_star_import(self):
        namespace = {}
        exec("from nvsim import *", namespace)
        assert {n for n in namespace if n != "__builtins__"} \
            == set(nvsim.__all__)
        for name in nvsim.__all__:
            assert namespace[name] is getattr(nvsim, name)

    def test_dir_lists_every_public_name(self):
        assert set(nvsim.__all__) | {"__version__"} <= set(dir(nvsim))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nvsim.no_such_name

    def test_submodules_load_on_access(self):
        src = str(Path(nvsim.__file__).resolve().parents[1])
        code = ("import sys, nvsim; loaded = 'nvsim.fitting' in sys.modules; "
                "print(loaded, nvsim.fitting.fit is nvsim.fit)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False True"


class TestModuleBoundaries:
    def test_no_module_imports_another_modules_private_name(self):
        # an underscore name is private to the module that defines it;
        # the tests may reach in, the package's own modules do not
        src = Path(nvsim.__file__).resolve().parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                inside = node.level > 0 or (node.module or "").startswith(
                    "nvsim")
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names
                          if inside and alias.name.startswith("_")]
        assert found == []
