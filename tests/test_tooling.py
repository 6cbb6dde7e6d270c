"""Names that tooling and the docs look up must keep resolving.

The benchmark's traced run (perfbench/) wraps the library functions that
perfbench/layers.json names; a refactor that renames one of them, or stops
calling one on a workload that layers.json says calls it, should fail here,
in the fast suite, rather than in the benchmark.  Likewise the
README's command examples must name only options the parser knows, and its
Python quickstart must print what it says it prints.
"""

import ast
import contextlib
import importlib
import io
import inspect
import json
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import wheelmac
from wheelmac import (cli, current_algebra, linalg, scalars, symfunc,
                      wheel_ideal)
from wheelmac import macdonald as md
from wheelmac import partitions as pt
from wheelmac.scalars import ParameterSpec, QTPoly
from wheelmac.symfunc import SymPoly

from oracles import poly_field

SRC = Path(wheelmac.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.json"
README = ROOT / "README.md"


def test_every_public_name_resolves():
    # every library module declares __all__, and a deletion that leaves a
    # stale entry there would make `from wheelmac.<module> import *` raise
    for info in pkgutil.iter_modules(wheelmac.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("wheelmac." + info.name)
        assert module.__all__, module.__name__
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_every_public_definition_is_exported():
    # a public module-level function or class that __all__ leaves out is
    # either an export to declare or a helper to mark private
    missing = []
    for info in pkgutil.iter_modules(wheelmac.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("wheelmac." + info.name)
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__
                    and name not in module.__all__):
                missing.append((module.__name__, name))
    assert not missing


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


def _private_definitions(tree):
    """(name, node) of each module-level function, class and constant of
    tree whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _loaded_names(node):
    return [n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)]


def _unused_private_names(folder):
    """(file, name) of each private module-level name of folder/*.py that
    only its own definition names; a name from another file of folder
    counts as used through an attribute or an import."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(folder.glob("*.py"))}
    foreign = {n.attr for tree in trees.values() for n in ast.walk(tree)
               if isinstance(n, ast.Attribute)}
    foreign |= {n.name for tree in trees.values() for n in ast.walk(tree)
                if isinstance(n, ast.alias)}
    unused = []
    for module, tree in trees.items():
        loaded = _loaded_names(tree)
        for name, node in _private_definitions(tree):
            if (loaded.count(name) == _loaded_names(node).count(name)
                    and name not in foreign):
                unused.append((module, name))
    return unused


def test_every_private_name_is_used():
    # a deletion that strands a helper (one only its own body names) fails
    # here
    assert not _unused_private_names(SRC)


def test_every_private_test_helper_is_used():
    # the same for the test modules: a deleted test must not leave behind
    # the helper or constant only it read
    assert not _unused_private_names(ROOT / "tests")


def _names_read(tree, attributes_only=False):
    """Every name tree loads, as a Name or as an attribute (as an attribute
    only, with attributes_only); inside a module-level def, or a def in a
    module-level class, its own name does not count (a recursive call is
    no caller)."""
    names = set()
    for node in tree.body:
        units = [node]
        if isinstance(node, ast.ClassDef):
            units = (node.bases + node.keywords + node.decorator_list
                     + node.body)
        for unit in units:
            own = {unit.name} if isinstance(unit, ast.FunctionDef) else set()
            names |= {n.attr if isinstance(n, ast.Attribute) else n.id
                      for n in ast.walk(unit)
                      if isinstance(n, ast.Attribute) or (
                          isinstance(n, ast.Name) and not attributes_only
                          and not isinstance(n.ctx, ast.Store))} - own
    return names


def _caller_names(attributes_only=False):
    """Every name (_names_read) that src/, demos/, perfbench/ or the
    README's Python examples read."""
    names = set()
    for folder in (SRC, ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            names |= _names_read(ast.parse(path.read_text()),
                                 attributes_only)
    for block in README.read_text().split("```python\n")[1:]:
        names |= _names_read(ast.parse(block.split("```", 1)[0]),
                             attributes_only)
    return names


def _library_modules():
    for info in pkgutil.iter_modules(wheelmac.__path__):
        if info.name != "__main__":
            yield info.name, importlib.import_module("wheelmac." + info.name)


def _uncalled_public_functions():
    """(module, name) of each public module-level function of the library
    that no caller (_caller_names) names."""
    names = _caller_names()
    return [(short, name) for short, module in _library_modules()
            for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__ and name not in names]


def _uncalled_public_methods():
    """(module, "Class.name") of each public method or property of a class
    the library defines whose name no caller (_caller_names) reads as an
    attribute: a method is reached through one."""
    names = _caller_names(attributes_only=True)
    return [(short, "%s.%s" % (cname, name))
            for short, module in _library_modules()
            for cname, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
            for name, obj in vars(cls).items()
            if not name.startswith("_") and name not in names
            and (inspect.isfunction(obj) or isinstance(
                obj, (property, classmethod, staticmethod)))]


def test_every_public_function_has_a_caller():
    # a public function that only tests call belongs in the tests
    # (tests/oracles.py when several modules share it); a CLI command's
    # library function is named by its handler in cli.py
    assert not _uncalled_public_functions()


def test_every_public_method_has_a_caller():
    # the same for the public methods and properties of the library's
    # classes
    assert not _uncalled_public_methods()


def test_the_public_function_guard_sees_a_stranded_function(monkeypatch):
    # its own recursion does not count as a caller, another function does
    tree = ast.parse("def f(n):\n    return f(n - 1)\n")
    assert "f" not in _names_read(tree)
    tree.body += ast.parse("def g():\n    return f(2)\n").body
    assert "f" in _names_read(tree)

    def stranded():
        return 0

    stranded.__module__ = "wheelmac.partitions"
    monkeypatch.setattr(pt, "stranded", stranded, raising=False)
    assert _uncalled_public_functions() == [("partitions", "stranded")]


def test_the_public_method_guard_sees_a_stranded_method(monkeypatch):
    # a method's own body is no caller, another method's is
    tree = ast.parse("class A:\n    def f(self, n):\n"
                     "        return self.f(n - 1)\n")
    assert "f" not in _names_read(tree, attributes_only=True)
    tree.body[0].body += ast.parse("def g(self):\n    return self.f(2)\n").body
    assert "f" in _names_read(tree, attributes_only=True)
    # a bare name is no call of a method
    assert "f" not in _names_read(ast.parse("f = 1\nprint(f)\n"),
                                  attributes_only=True)

    def stranded_method(self):
        return 0

    monkeypatch.setattr(QTPoly, "stranded_method", stranded_method,
                        raising=False)
    monkeypatch.setattr(QTPoly, "stranded_property",
                        property(stranded_method), raising=False)
    assert _uncalled_public_methods() == [
        ("scalars", "QTPoly.stranded_method"),
        ("scalars", "QTPoly.stranded_property")]


_SPECIALIZATION_ATTRS = {"omega1", "q_exp", "t_exp", "_omega_powers",
                         "_relations"}


def _specialization_reads(folder):
    """(file, line, attribute) of each use of the specialization rule's
    attributes in folder/*.py outside the body of class ParameterSpec."""
    found = []
    for path in sorted(folder.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(n) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  and cls.name == "ParameterSpec" for n in ast.walk(cls)}
        found += [(path.name, n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  and n.attr in _SPECIALIZATION_ATTRS and id(n) not in inside]
    return found


def test_only_parameter_spec_knows_the_specialization():
    # t = u^(t_exp), q = omega1 u^(-q_exp): every other module reads values
    # in K through specialize, specialize_poly or qt_laurent, so the rule
    # and the omega1^a table have one home
    assert not _specialization_reads(SRC)


def _rotation_rule_reads(folder):
    """(file, line) of each name, attribute or import of _rotation_classes
    in folder/*.py other than wheel_ideal.py."""
    found = []
    for path in sorted(folder.glob("*.py")):
        if path.name == "wheel_ideal.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            name = getattr(n, "id", None) or getattr(n, "attr", None) \
                or (n.name if isinstance(n, ast.alias) else None)
            if name == "_rotation_classes":
                found.append((path.name, n.lineno))
    return found


def test_only_wheel_ideal_knows_the_rotation_rule():
    # constraint_rows and satisfies_wheel read one sigma per rotation class
    # themselves, so no other module passes the classes or repeats the rule
    assert not _rotation_rule_reads(SRC)


def test_the_rotation_rule_guard_sees_a_planted_read(tmp_path):
    for name in ("wheel_ideal.py", "current_algebra.py"):
        (tmp_path / name).write_text((SRC / name).read_text())
    assert not _rotation_rule_reads(tmp_path)
    planted = tmp_path / "current_algebra.py"
    text = planted.read_text()
    lines = text.count("\n")
    planted.write_text(text + "from .wheel_ideal import _rotation_classes\n"
                       "classes = wheel_ideal._rotation_classes(1, 3)\n")
    assert _rotation_rule_reads(tmp_path) == [
        ("current_algebra.py", lines + 1), ("current_algebra.py", lines + 2)]


def _container_sizes(module):
    """len of each dict, list and set held by module or by a class it
    defines, keyed by where it is held."""
    holders = [(module.__name__, vars(module))]
    holders += [(name, vars(cls)) for name, cls in vars(module).items()
                if inspect.isclass(cls) and cls.__module__ == module.__name__]
    return {(where, name): len(value) for where, space in holders
            for name, value in space.items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))}


def test_operator_matrices_stay_on_their_field():
    # an operator matrix cached on the module would carry one pass's work
    # into the next, so the benchmark would time warm passes only; a new
    # field applying the operators at a new degree must leave every
    # container of macdonald as it was (_DELTA_ORBITS, keyed by n, warmed)
    n, d = 2, 23
    md._delta_orbit(n)
    before = _container_sizes(md)
    fld = poly_field()
    f = SymPoly(n, {(d - 9, 9): QTPoly.one(), (d,): QTPoly.q()})
    for rho in range(1, n + 1):
        assert md.apply_D(f, rho, fld)
    for m in range(3):
        assert md.apply_E(f, m, fld)
    assert _container_sizes(md) == before


def test_relations_stay_on_their_parameter_spec():
    # likewise for the wheel relations: a relation cached on a module would
    # warm every later pass; a fresh ParameterSpec reading relations at a
    # new degree must leave every container of these modules as it was
    # (the degree's orbits, _CYCLO_CACHE and the CycloNum field cache warmed)
    k, r, d = 1, 4, 23
    modules = (wheel_ideal, current_algebra, symfunc, scalars)
    p = ParameterSpec(k, r)
    scalars._CycloField.get(p.N)
    for mu in pt.enumerate_partitions(k + 1, d):
        symfunc.orbit_of(mu, k + 1)
    before = [_container_sizes(module) for module in modules]
    for sigma in wheel_ideal.wheel_substitutions(k, r):
        rel = wheel_ideal.relation_generic(d, sigma, k, r, p)
        assert rel and wheel_ideal.relation_generic(d, sigma, k, r, p) is rel
    assert [_container_sizes(module) for module in modules] == before


def test_wheel_tables_stay_on_their_field(monkeypatch):
    # likewise for the read wheel tables: a fresh field substituting wheels
    # at a new degree must leave every container of these modules as it
    # was (the degree's orbits and the CycloNum field cache warmed); it
    # collapses each (lam, n, sigma) once, and a second field builds its own
    k, r, n, d = 1, 3, 3, 23
    modules = (symfunc, wheel_ideal, md, scalars)
    p = ParameterSpec(k, r)
    scalars._CycloField.get(p.N)
    f = SymPoly(n, {lam: scalars.LaurentPoly.one(p.N)
                    for lam in pt.enumerate_partitions(n, d) if len(lam) == n})
    for lam in f.coeffs:
        symfunc.orbit_of(lam, n)
    collapses, collapse = [], md.wheel_collapse

    def counted(lam, n, sigma):
        collapses.append((lam, n, sigma))
        return collapse(lam, n, sigma)

    monkeypatch.setattr(md, "wheel_collapse", counted)
    before = [_container_sizes(module) for module in modules]
    first, second = md.CoeffField.laurent(p), md.CoeffField.laurent(p)
    for fld in (first, first, second):
        for sigma in wheel_ideal.wheel_substitutions(k, r):
            wheel_ideal._wheel_substitute_fld(f, sigma, fld)
    tables = len(f.coeffs) * len(wheel_ideal.wheel_substitutions(k, r))
    assert len(collapses) == 2 * tables == 2 * len(set(collapses))
    assert [_container_sizes(module) for module in modules] == before


def test_rank_reads_stay_in_their_call():
    # likewise for the entries rank_kernel_poly reads at its probe point:
    # kept for one call only, so ranking at a new degree with a fresh
    # ParameterSpec (dim_J at full rank, wheel_kernel_basis below it) must
    # leave every container of these modules as it was (the degrees'
    # orbits and the CycloNum field cache warmed)
    k, r, n = 1, 2, 4
    modules = (linalg, wheel_ideal, current_algebra, symfunc, scalars)
    p = ParameterSpec(k, r)
    scalars._CycloField.get(p.N)
    for d in range(13):
        for mu in pt.enumerate_partitions(k + 1, d):
            symfunc.orbit_of(mu, k + 1)
    before = [_container_sizes(module) for module in modules]
    assert wheel_ideal.dim_J(k, r, n, 11, p) == 0
    assert wheel_ideal.wheel_kernel_basis(k, r, n, 12, p)
    assert [_container_sizes(module) for module in modules] == before


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


def test_readme_quickstart_prints_its_comments():
    # each print in the quickstart is followed by a "# ..." line holding
    # its output; a removed export fails here as an ImportError
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    want = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want


@pytest.mark.parametrize("workload", ["macd", "theorem", "stability", "dual"])
def test_traced_benchmark_pass_keeps_every_layer(workload):
    # one traced pass checks each used_on/zero_on prediction of layers.json
    # and exits 1 if one breaks; seed 1 leaves the seed-7 reference traces
    # under .bench_trace/ alone
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
