"""Names that tooling and the docs look up must keep resolving.

The benchmark's traced run (perfbench/) wraps the library functions that
perfbench/layers.json names; a refactor that renames one of them should
fail here, in the fast suite, rather than in the benchmark.  Likewise the
README's command examples must name only options the parser knows.
"""

import importlib
import inspect
import json
import pkgutil
import shlex
from pathlib import Path

import wheelmac
from wheelmac import cli

SRC = Path(wheelmac.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.json"
README = ROOT / "README.md"


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


def test_no_class_binds_a_traced_function():
    # the traced run replaces module attributes such as scalars.qt_gcd; a
    # class attribute bound to the same function at import (gcd = qt_gcd)
    # would keep calling the unwrapped original and drop out of the trace
    traced = []
    for target in json.loads(LAYERS.read_text())["targets"]:
        module_name, _, path = target["patch"].partition(":")
        if "." not in path:
            module = importlib.import_module("wheelmac." + module_name)
            traced.append((target["patch"], getattr(module, path)))
    assert traced
    modules = [importlib.import_module("wheelmac." + info.name)
               for info in pkgutil.iter_modules(wheelmac.__path__)]
    for module in modules:
        for cls in vars(module).values():
            if not (inspect.isclass(cls)
                    and cls.__module__.startswith("wheelmac.")):
                continue
            for name, value in vars(cls).items():
                value = getattr(value, "__func__", value)
                for patch, fn in traced:
                    assert value is not fn, (cls.__name__, name, patch)


def test_readme_commands_parse():
    # parse only: no command runs, so this costs milliseconds
    lines = [line for line in README.read_text().splitlines()
             if line.startswith("wheelmac ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            raise AssertionError("README command does not parse: " + line)
        assert callable(args.fn), line
