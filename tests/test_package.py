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


def run_fresh(code):
    """stdout of `code` run in a new interpreter that imports this nvsim."""
    src = str(Path(nvsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


class TestPublicNames:
    def test_every_name_is_its_module_object(self):
        for name in nvsim.__all__:
            value = getattr(nvsim, name)
            assert getattr(defining_module(value), name) is value, name

    def test_sweep_is_the_function(self):
        # `sweep` also names a submodule, which importing it binds on the
        # package
        code = ("import nvsim.cli, nvsim.sweep; from nvsim import sweep; "
                "print(type(sweep).__name__, sweep.__module__)")
        assert run_fresh(code) == "function nvsim.sweep"

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
        code = ("import sys, nvsim; loaded = 'nvsim.fitting' in sys.modules; "
                "print(loaded, nvsim.fitting.fit is nvsim.fit)")
        assert run_fresh(code) == "False True"


class TestImportCollector:
    """The package import runs with the collector paused and leaves what it
    allocated in the oldest generation, unscanned."""

    def test_import_makes_at_most_two_collections(self):
        # 33 before the pause (numpy 2.4, CPython 3.11)
        code = ("import gc; starts = []; gc.callbacks.append("
                "lambda phase, info: starts.append(phase == 'start')); "
                "import nvsim.cli; print(sum(starts))")
        assert int(run_fresh(code)) <= 2

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, enabled):
        code = (f"import gc; gc.enable() if {enabled} else gc.disable(); "
                "import nvsim; print(gc.isenabled())")
        assert run_fresh(code) == str(enabled)

    def test_freeze_count_stays_zero(self):
        assert run_fresh("import gc, nvsim; print(gc.get_freeze_count())") \
            == "0"

    def test_callers_frozen_objects_stay_frozen(self):
        code = ("import gc; gc.freeze(); before = gc.get_freeze_count(); "
                "import nvsim; print(before > 0, "
                "gc.get_freeze_count() == before)")
        assert run_fresh(code) == "True True"

    def test_cycle_made_before_the_import_is_reclaimed(self):
        code = ("import gc, weakref\n"
                "class Node: pass\n"
                "a, b = Node(), Node(); a.peer, b.peer = b, a\n"
                "alive = weakref.ref(a); del a, b\n"
                "import nvsim.cli\n"
                "gc.collect(); print(alive() is None)")
        assert run_fresh(code) == "True"


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
