"""Opt-in mutation run: does tier-1 notice a planted fault?

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py rank-1     # the named ones

Each mutant is a text replacement in one file under src/.  For each, the
tree is copied to a temporary directory, the replacement is applied there
(it must match exactly once), and tier-1 runs in one child process with
``-x``; a failing run kills the mutant.  The unchanged tree runs first,
since a kill means nothing when tier-1 already fails.  One child runs at a
time.  The exit code is 0 when every mutant was killed, 1 when one
survived, 2 when the unchanged tree fails or a mutant does not apply.

pytest does not collect this file (its name does not start with test_).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file under src/wheelmac, text, replacement)
MUTANTS = {
    # each verifier's failure branch turned into its success value
    "pieri-never-fails": (
        "macdonald.py",
        "    return failures\n\n\ndef verify_pieri",
        "    return []\n\n\ndef verify_pieri"),
    "cauchy-always-true": (
        "macdonald.py",
        ".scale(ratios[l]) != rhs:\n            return False",
        ".scale(ratios[l]) != rhs:\n            return True"),
    "rho-always-true": (
        "wheel_ideal.py",
        "        if not satisfies_wheel(g, p, fld):\n            return False",
        "        if not satisfies_wheel(g, p, fld):\n            return True"),
    "prop302-always-true": (
        "current_algebra.py",
        "!= chi[(d, n)]:\n                return False",
        "!= chi[(d, n)]:\n                return True"),
    "stability-always-true": (
        "wheel_ideal.py",
        "        if not satisfies_wheel(image, p, fld):\n            return False",
        "        if not satisfies_wheel(image, p, fld):\n            return True"),
    "theorem1-inclusion-always-ok": (
        "wheel_ideal.py",
        "                witness_failures.append(pt.format_partition(lam))",
        "                pass"),
    "recursion-always-true": (
        "current_algebra.py",
        "            if lhs[(d, n)] != total:\n                return False",
        "            if lhs[(d, n)] != total:\n                return True"),
    "lemma21-always-true": (
        "partitions.py",
        "    p = ParameterSpec(k, r)\n    lam = pad(normalize(lam), n)\n",
        "    return True\n"),
    # Lemma 2.1's guarded pairs not checked at a strict corner
    "lemma21-corner-guard-off": (
        "partitions.py",
        "p.is_resonant(g, h - 1):\n                    return False",
        "p.is_resonant(g, h - 1):\n                    pass"),
    # the full-rank exit of rank_kernel_poly one row early
    "rank-1": (
        "linalg.py",
        "            if ech.rank == ncols:",
        "            if ech.rank == ncols - 1:"),
    # corank_upower ranking its rows unchecked, so a bad row after the
    # full-rank exit is never looked at
    "corank-unchecked": (
        "linalg.py",
        "    rows = list(rows)\n    for row in rows:\n        for x in row:\n"
        "            _upower(x)\n",
        "    rows = list(rows)\n"),
    # an entry read at the probe point as if its denominator were a power
    # of u, unchecked
    "read-unchecked": (
        "linalg.py",
        "            s = _upower(x)\n",
        "            s = x.den.degree()\n"),
    # a Laurent target packed without rescaling each product to the lcm
    # of its pair denominators
    "laurent-apply-unscaled": (
        "scalars.py",
        "total += _pack(a.c, nb, base - lo) * pb * (den // (a.den * b.den))",
        "total += _pack(a.c, nb, base - lo) * pb"),
    # every rational-function sum taken to be in lowest terms
    "ratfunc-add-coprime": (
        "scalars.py",
        "return type(self)(self.num * db + o.num * da, da * b,\n"
        "                          _coprime=g.is_one())",
        "return type(self)(self.num * db + o.num * da, da * b,\n"
        "                          _coprime=True)"),
    # the row gcd found but not divided out
    "strip-row-gcd-off": (
        "linalg.py",
        "    return [x.divexact(g) if x else x for x in row]\n\n\n"
        "def _triangularize_poly",
        "    return row\n\n\ndef _triangularize_poly"),
    # the echelon rows cleared newest first, which can bring back an
    # earlier pivot, since no row is reduced against later ones
    "echelon-reverse": (
        "linalg.py",
        "        for col, prow in self.pivots.items():",
        "        for col, prow in reversed(self.pivots.items()):"),
    # every part equal to j taken off, not one
    "restrict-all-parts": (
        "symfunc.py",
        "out[lam[:i] + lam[i + 1:]] = c * scale",
        "out[tuple(x for x in lam if x != j)] = c * scale"),
    # the Cauchy right side with each distinct part's ratio taken once
    "cauchy-distinct-parts": (
        "macdonald.py",
        "prod((ratios[m] for m in mu),",
        "prod((ratios[m] for m in set(mu)),"),
    # a sum or product term that cancels kept as a zero value
    "sparse-add-keeps-zeros": (
        "scalars.py",
        "            del out[k]\n    return out\n\n\ndef _sparse_mul",
        "            out[k] = w\n    return out\n\n\ndef _sparse_mul"),
    "sparse-mul-keeps-zeros": (
        "scalars.py",
        "                del out[k]\n    return out",
        "                out[k] = w\n    return out"),
    # the heuristic gcd without its step over a point where an image is 0
    "heu-gcd-zero-image": (
        "scalars.py",
        "    if not a or not b:\n        return None\n    ca, cb",
        "    ca, cb"),
    # an absent swapped term read as equal, so a missing orbit member
    # passes the symmetry check
    "symmetry-ignores-missing": (
        "symfunc.py",
        "if other is None or other != c:",
        "if other is not None and other != c:"),
}


def _copy_tree(dest):
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".bench_trace"))


def _source(name):
    return ROOT / "src" / "wheelmac" / name


def _tier1(dest):
    """(passed, seconds) of tier-1 with -x on the tree at dest."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=dest, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=1800)
    return done.returncode == 0, time.monotonic() - start


def _run(mutant):
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp) / "tree"
        _copy_tree(dest)
        if mutant is not None:
            name, old, new = mutant
            path = dest / _source(name).relative_to(ROOT)
            path.write_text(path.read_text().replace(old, new))
        return _tier1(dest)


def main(names):
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        raise SystemExit("unknown mutants: %s" % ", ".join(unknown))
    for name in names or MUTANTS:
        source, old, _ = MUTANTS[name]
        found = _source(source).read_text().count(old)
        if found != 1:
            print("mutant %s does not apply: its text occurs %d times in %s"
                  % (name, found, source), file=sys.stderr)
            return 2
    passed, seconds = _run(None)
    print("%-28s %-8s %6.1f s" % ("(unchanged)", "passed" if passed
                                  else "FAILED", seconds), flush=True)
    if not passed:
        return 2
    survived = 0
    for name in names or MUTANTS:
        passed, seconds = _run(MUTANTS[name])
        survived += passed
        print("%-28s %-8s %6.1f s" % (name, "SURVIVED" if passed
                                      else "killed", seconds), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
