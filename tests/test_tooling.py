"""Names that tooling looks up in the package must keep resolving.

The benchmark's traced run (perfbench/) wraps the library functions that
perfbench/layers.json names; a refactor that renames one of them should
fail here, in the fast suite, rather than in the benchmark.
"""

import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import wheelmac

SRC = Path(wheelmac.__file__).resolve().parent
LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


def test_every_public_name_resolves():
    modules = [wheelmac] + [importlib.import_module("wheelmac." + info.name)
                            for info in pkgutil.iter_modules(wheelmac.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_benchmark_patch_targets_resolve():
    targets = json.loads(LAYERS.read_text())["targets"]
    assert targets
    for target in targets:
        module_name, _, path = target["patch"].partition(":")
        obj = importlib.import_module("wheelmac." + module_name)
        for part in path.split("."):
            assert hasattr(obj, part), target["patch"]
            obj = getattr(obj, part)
        source = Path(inspect.getsourcefile(obj)).resolve()
        assert source.is_relative_to(SRC), (target["patch"], source)
