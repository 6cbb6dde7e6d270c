"""Command-line front end: one subcommand per verifiable claim.

Groups:  macd {compute, pieri, cauchy, integrality}
         wheel {subs, check, dim, basis}
         current {relation, rank, reduce}
         char {chi, recursion, w-dim}
         verify {theorem1, prop302, stability, rho, lemma21, lemma22}

Output is JSON by default (--format table for aligned text).  Exit codes:
0 all requested checks pass, 1 a check failed, 2 usage error, 3 internal
assertion (an exactness witness broke, i.e. a bug).
"""

import argparse
import json
import os
import random
import sys

from . import current_algebra as ca
from . import partitions as pt
from . import wheel_ideal as wi
from .macdonald import (CoeffField, ExactDivisionError, MacdonaldTable,
                        cauchy_row_check, check_integrality,
                        pieri_failures, specialize_P)
from .scalars import ParameterSpec, PoleError, UniRatFunc, render_scalar
from .symfunc import SymPoly, check_sigma, check_wheel_size

__all__ = ["main", "run", "build_parser", "UsageError"]


class UsageError(Exception):
    """Input the command cannot work on; reported like an argparse error."""


def _partition(text):
    """argparse type for --lambda: weakly decreasing non-negative parts."""
    try:
        return pt.parse_partition(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "not a partition: %r (want e.g. 3,1,1)" % text) from None


def _int_list(text):
    """argparse type for comma-separated integers, e.g. 1,2."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "not a comma-separated list of integers: %r" % text) from None


def _at_least(low):
    """argparse type for an integer >= low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                "want an integer >= %d, not %r" % (low, text))
        return value
    return parse


_COUNT = _at_least(0)


def _join(values):
    return ",".join(map(str, values))


def _checked(flag, check, value, *context):
    """check(value, *context) for a library input rule, its ValueError
    reported as a usage error naming flag and value.  Only such rules go
    through here, never a computation: a ValueError raised while computing
    is not the user's input at fault and must not exit 2."""
    try:
        return check(value, *context)
    except ValueError as exc:
        shown = _join(value) if isinstance(value, tuple) else value
        raise UsageError("%s %s: %s" % (flag, shown, exc)) from None


def _terms_json(terms, n=None):
    """{partition: coefficient} as a JSON list, partitions padded to n."""
    return [{"partition": pt.format_partition(lam, n),
             "coefficient": render_scalar(c)}
            for lam, c in sorted(terms.items(), reverse=True)]


def _emit(args, payload):
    if args.format == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
        return
    _emit_table(payload)


def _emit_table(payload, indent=""):
    if isinstance(payload, dict):
        width = max((len(str(k)) for k in payload), default=0)
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                print("%s%-*s:" % (indent, width, k))
                _emit_table(v, indent + "  ")
            else:
                print("%s%-*s: %s" % (indent, width, k, v))
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_table(v, indent + "  ")
                print()
            else:
                print("%s%s" % (indent, v))


# ---------------------------------------------------------------------------

def _cmd_macd_compute(args):
    _checked("--lambda", pt.pad, args.lam, args.n)
    f = MacdonaldTable(args.n).compute_P(args.lam)
    return 0, {"n": args.n, "lambda": pt.format_partition(args.lam),
               "coefficients": _terms_json(f.coeffs)}


def _cmd_macd_pieri(args):
    _checked("--lambda", pt.pad, args.lam, args.n)
    failures = pieri_failures(args.lam, args.n)
    return (0 if not failures else 1), {
        "n": args.n, "lambda": pt.format_partition(args.lam),
        "ok": not failures, "failures": failures}


def _cmd_macd_cauchy(args):
    ok = cauchy_row_check(args.n, args.l_max)
    return (0 if ok else 1), {"n": args.n, "l_max": args.l_max, "ok": ok}


def _cmd_macd_integrality(args):
    _checked("--lambda", pt.pad, args.lam, args.n)
    ok = check_integrality(args.lam, args.n)
    return (0 if ok else 1), {"n": args.n, "ok": ok,
                              "lambda": pt.format_partition(args.lam)}


def _cmd_wheel_subs(args):
    subs = wi.wheel_substitutions(args.k, args.r)
    return 0, {"k": args.k, "r": args.r, "count": len(subs),
               "substitutions": [",".join(map(str, s)) for s in subs]}


def _cmd_wheel_check(args):
    p = ParameterSpec(args.k, args.r)
    _checked("--lambda", pt.pad, args.lam, args.n)
    _checked("--n", check_wheel_size, args.n, args.k)
    admissible = pt.is_admissible(args.lam, args.k, args.r, args.n)
    try:
        f = specialize_P(args.lam, args.n, p)
    except PoleError as exc:
        if admissible:  # the regularity lemma says this cannot happen
            raise
        raise UsageError("--lambda %s is not (k=%d, r=%d)-admissible and has "
                         "no specialization: %s" % (pt.format_partition(
                             args.lam), args.k, args.r, exc)) from None
    ok = wi.satisfies_wheel(f, p)
    return (0 if ok else 1), {
        "k": args.k, "r": args.r, "n": args.n,
        "lambda": pt.format_partition(args.lam),
        "admissible": admissible, "satisfies_wheel": ok}


def _cmd_wheel_dim(args):
    dim = wi.dim_J(args.k, args.r, args.n, args.d,
                   ParameterSpec(args.k, args.r))
    return 0, {"k": args.k, "r": args.r, "n": args.n, "d": args.d,
               "dim_J": dim}


def _cmd_wheel_basis(args):
    p = ParameterSpec(args.k, args.r)
    basis = wi.basis_I(args.k, args.r, args.n, args.d, p)
    labels = pt.enumerate_admissible(args.k, args.r, args.n, args.d)
    return 0, {"k": args.k, "r": args.r, "n": args.n, "d": args.d,
               "basis": [{"lambda": pt.format_partition(lam),
                          "coefficients": _terms_json(f.coeffs)}
                         for lam, f in zip(labels, basis)]}


def _cmd_current_relation(args):
    if args.field == "rootofunity":
        if args.profile is None:
            raise UsageError("--field rootofunity needs --profile")
        nu = _checked("--profile", ca.check_residue_profile, args.profile,
                      args.k, args.r)
        rel = ca.relation_rootofunity(args.d, nu, args.k, args.r)
        profile = _join(nu)
    else:
        if args.sigma is None:
            raise UsageError("--field generic needs --sigma")
        sigma = _checked("--sigma", check_sigma, args.sigma, args.k, args.r)
        p = ParameterSpec(args.k, args.r)
        rel = ca.relation_generic(args.d, sigma, args.k, args.r, p)
        profile = _join(sigma)
    return 0, {"degree": args.d, "profile": profile, "field": args.field,
               "terms": _terms_json(rel.terms, args.k + 1)}


def _cmd_current_rank(args):
    if args.field == "generic":
        dim = wi.dim_J(args.k, args.r, args.n, args.d)
    else:
        dim = ca.quotient_dim(args.k, args.r, args.n, args.d)
    return 0, {"k": args.k, "r": args.r, "n": args.n, "d": args.d,
               "field": args.field, "quotient_dim": dim,
               "admissible_count": pt.count_admissible(
                   args.k, args.r, args.n, args.d)}


def _cmd_current_reduce(args):
    lam = args.lam
    _checked("--lambda", pt.normalize, lam)
    out = ca.reduce_to_admissible(lam, args.k, args.r)
    return 0, {"input": _join(lam),
               "terms": _terms_json(out.terms, len(lam))}


def _cmd_char_chi(args):
    b = _checked("--b", ca.check_profile, args.b, args.k, args.r)
    chi = ca.chi_C(b, args.k, args.r, args.d_max, args.n_max)
    coeffs = [[d, n, c] for (d, n), c in sorted(chi.coeffs.items())]
    return 0, {"d_max": args.d_max, "n_max": args.n_max, "coefficients": coeffs}


def _cmd_char_recursion(args):
    b = _checked("--b", ca.check_recursion_profile, args.b, args.k, args.r)
    ok = ca.verify_recursion(b, args.k, args.r, args.d_max, args.n_max)
    return (0 if ok else 1), {"b": _join(b), "ok": ok}


def _cmd_char_wdim(args):
    p = ParameterSpec(args.k, args.r)
    b = _checked("--b", ca.check_profile, args.b, args.k, args.r)
    dim = ca.W_space_dim(b, args.k, args.r, args.n, args.d, p)
    return 0, {"k": args.k, "r": args.r, "b": _join(b), "n": args.n,
               "d": args.d, "w_dim": dim}


def _cmd_verify_theorem1(args):
    p = ParameterSpec(args.k, args.r)
    reports = []
    ok = True
    for n in range(args.n_max + 1):
        table = MacdonaldTable(n)
        for d in range(args.d_max + 1):
            rep = wi.verify_theorem1(args.k, args.r, n, d, p, table=table)
            if not (rep["inclusion_ok"] and rep["dims_equal"]):
                ok = False
            reports.append(rep)
    return (0 if ok else 1), {"k": args.k, "r": args.r, "ok": ok,
                              "components": reports}


def _cmd_verify_prop302(args):
    p = ParameterSpec(args.k, args.r)
    if args.b:
        profiles = [_checked("--b", ca.check_profile, args.b, args.k, args.r)]
    else:
        from itertools import combinations_with_replacement
        profiles = list(combinations_with_replacement(range(args.k + 1),
                                                      args.r - 1))
    results = []
    ok = True
    for b in profiles:
        good = ca.verify_prop302(b, args.k, args.r, args.d_max, args.n_max, p)
        ok = ok and good
        results.append({"b": _join(b), "ok": good})
    return (0 if ok else 1), {"k": args.k, "r": args.r, "ok": ok,
                              "profiles": results}


def _cmd_verify_stability(args):
    _checked("--n", check_wheel_size, args.n, args.k)
    p = ParameterSpec(args.k, args.r)
    basis = wi.wheel_kernel_basis(args.k, args.r, args.n, args.d, p)
    if not basis:
        return 0, {"k": args.k, "r": args.r, "n": args.n, "d": args.d,
                   "ok": True, "note": "wheel ideal component is zero"}
    rng = random.Random(args.seed)
    ops = [("D", 1), ("D", 2), ("E", 0), ("E", 1), ("E", 2)]
    ops = [(kind, a) for kind, a in ops if not (kind == "D" and a > args.n)]
    ok, fld = True, CoeffField.laurent(p)
    for _ in range(args.count):
        f = SymPoly.zero(args.n)
        while f.is_zero():
            f = SymPoly.zero(args.n)
            for g in basis:
                f = f + g.scale(UniRatFunc.const(p.N, rng.randint(-5, 5)))
        if not wi.verify_stability(wi.laurent_clear(f, p), p, ops, fld):
            ok = False
            break
    return (0 if ok else 1), {"k": args.k, "r": args.r, "n": args.n,
                              "d": args.d, "combinations": args.count,
                              "ok": ok}


def _cmd_verify_rho(args):
    p = ParameterSpec(args.k, args.r)
    n = args.k + 2 if args.n is None else args.n
    lam = args.lam
    _checked("--n", wi.check_restriction_size, n, args.k)
    _checked("--lambda", pt.pad, lam, n)
    if not pt.is_admissible(lam, args.k, args.r, n):
        raise UsageError("--lambda %s is not (k=%d, r=%d)-admissible in %d "
                         "variables" % (pt.format_partition(lam, n), args.k,
                                        args.r, n))
    ok = wi.verify_rho_inclusion(lam, args.k, args.r, n, args.j_max, p)
    return (0 if ok else 1), {"k": args.k, "r": args.r, "n": n,
                              "lambda": pt.format_partition(lam),
                              "j_max": args.j_max, "ok": ok}


def _cmd_verify_lemma21(args):
    failures = []
    checked = 0
    for n in range(1, args.n_max + 1):
        for d in range(args.size_max + 1):
            for lam in pt.enumerate_admissible(args.k, args.r, n, d):
                checked += 1
                if not pt.check_lemma21(lam, args.k, args.r, n):
                    failures.append({"n": n, "lambda": pt.format_partition(lam)})
    return (0 if not failures else 1), {
        "k": args.k, "r": args.r, "checked": checked,
        "ok": not failures, "failures": failures}


def _cmd_verify_lemma22(args):
    p = ParameterSpec(args.k, args.r)
    failures = []
    checked = 0
    for n in range(1, args.n_max + 1):
        table = MacdonaldTable(n)
        seen = set()
        for d in range(args.size_max + 1):
            for lam in pt.enumerate_admissible(args.k, args.r, n, d):
                cases = {lam}
                for j in pt.addable_rows(lam):
                    mu = pt.add_node(lam, j)
                    if pt.length(mu) <= n:
                        cases.add(mu)
                cases.update(pt.remove_node(lam, j)
                             for j in pt.removable_rows(lam))
                for mu in cases - seen:
                    seen.add(mu)
                    checked += 1
                    try:
                        specialize_P(mu, n, p, table)
                    except PoleError as exc:
                        failures.append({"n": n,
                                         "lambda": pt.format_partition(mu),
                                         "error": str(exc)})
    return (0 if not failures else 1), {
        "k": args.k, "r": args.r, "checked": checked,
        "ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------

_GROUP_HELP = {"macd": "Macdonald polynomial computations",
               "wheel": "wheel-condition ideal",
               "current": "commuting-current relations",
               "char": "character combinatorics",
               "verify": "batch claim verification"}

# options shared by several commands, as (flag, add_argument keywords)
_K = ("--k", {"type": _at_least(1), "required": True,
              "help": "admissibility width"})
_R = ("--r", {"type": _at_least(2), "required": True,
              "help": "admissibility gap (>= 2)"})
_N = ("--n", {"type": _COUNT, "required": True})
# a Macdonald table needs at least one variable
_N1 = ("--n", {"type": _at_least(1), "required": True})
_D = ("--d", {"type": _COUNT, "required": True})
_LAM = ("--lambda", {"dest": "lam", "type": _partition, "required": True})
_FIELD = ("--field", {"choices": ("rootofunity", "generic"),
                      "default": "rootofunity"})
_B = ("--b", {"type": _int_list, "required": True})


def _count(flag, default):
    return (flag, {"type": _COUNT, "default": default})


# (group, command, handler, help, options), in help order
_COMMANDS = (
    ("macd", "compute", _cmd_macd_compute, "expand P_lambda in the m-basis",
     (_N1, _LAM)),
    ("macd", "pieri", _cmd_macd_pieri, "check the three expansion identities",
     (_N1, _LAM)),
    ("macd", "cauchy", _cmd_macd_cauchy, "row Cauchy identity up to a y-degree",
     (_N1, _count("--l-max", 6))),
    ("macd", "integrality", _cmd_macd_integrality,
     "c_lambda P_lambda is polynomial", (_N1, _LAM)),
    ("wheel", "subs", _cmd_wheel_subs, "list the wheel substitutions",
     (_K, _R)),
    ("wheel", "check", _cmd_wheel_check,
     "does specialized P_lambda satisfy the wheel", (_K, _R, _N, _LAM)),
    ("wheel", "dim", _cmd_wheel_dim, "dim of the wheel subspace",
     (_K, _R, _N, _D)),
    ("wheel", "basis", _cmd_wheel_basis, "specialized admissible Macdonald basis",
     (_K, _R, _N1, _D)),
    ("current", "relation", _cmd_current_relation,
     "one Fourier-coefficient relation",
     (_K, _R, _D, _FIELD,
      ("--profile", {"type": _int_list,
                     "help": "residue profile nu, e.g. 1,2 (rootofunity)"}),
      ("--sigma", {"type": _int_list,
                   "help": "cumulative exponents (generic)"}))),
    ("current", "rank", _cmd_current_rank, "graded quotient dimension",
     (_K, _R, _N, _D, _FIELD)),
    ("current", "reduce", _cmd_current_reduce,
     "rewrite e_lambda into admissible terms",
     (_K, _R, ("--lambda", {"dest": "lam", "type": _int_list, "required": True,
                            "help": "all n parts, zeros included, e.g. 2,2,0"}))),
    ("char", "chi", _cmd_char_chi, "chi^C coefficients",
     (_K, _R, ("--b", dict(_B[1], help="prefix bounds, e.g. 1,2")),
      _count("--d-max", 8), _count("--n-max", 8))),
    ("char", "recursion", _cmd_char_recursion, "character recursion in b_0",
     (_K, _R, _B, _count("--d-max", 8), _count("--n-max", 8))),
    ("char", "w-dim", _cmd_char_wdim, "dim of a W-space component",
     (_K, _R, _B, _N, _D)),
    ("verify", "theorem1", _cmd_verify_theorem1, "I = J on a grid of components",
     (_K, _R, _count("--n-max", 4), _count("--d-max", 8))),
    ("verify", "prop302", _cmd_verify_prop302, "W-space dims match chi^C",
     (_K, _R, ("--b", {"type": _int_list,
                       "help": "single profile; default all profiles"}),
      _count("--d-max", 8), _count("--n-max", 4))),
    ("verify", "stability", _cmd_verify_stability,
     "operator stability of the wheel ideal",
     (_K, _R, _N, _D, _count("--count", 20),
      ("--seed", {"type": int, "default": 0}))),
    ("verify", "rho", _cmd_verify_rho,
     "restricted derivatives stay in the ideal",
     (_K, _R, ("--n", {"type": _COUNT, "help": "defaults to k+2"}),
      _LAM, _count("--j-max", 2))),
    ("verify", "lemma21", _cmd_verify_lemma21,
     "non-resonance of admissible exponents",
     (_K, _R, _count("--n-max", 5), _count("--size-max", 12))),
    ("verify", "lemma22", _cmd_verify_lemma22,
     "no poles for admissible +- one node",
     (_K, _R, _count("--n-max", 4), _count("--size-max", 8))),
)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="wheelmac",
        description="Exact Macdonald polynomials at t^(k+1) q^(r-1) = 1 and "
                    "the wheel-condition ideal they span.")
    ap.add_argument("--format", choices=("json", "table"), default="json")
    top = ap.add_subparsers(dest="group", required=True)
    groups = {}
    for group, cmd, fn, text, options in _COMMANDS:
        if group not in groups:
            groups[group] = top.add_parser(
                group, help=_GROUP_HELP[group]).add_subparsers(
                    dest="cmd", required=True)
        sp = groups[group].add_parser(cmd, help=text)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn)
    return ap


def run(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code, payload = args.fn(args)
    except UsageError as exc:
        ap.error(str(exc))
    except (ExactDivisionError, AssertionError) as exc:
        print("internal assertion failed: %s" % exc, file=sys.stderr)
        return 3
    try:
        _emit(args, payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: the verdict stands, and the interpreter's
        # final flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
