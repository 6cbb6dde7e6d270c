import json
import os
import subprocess
import sys

import pytest

import wheelmac
from wheelmac import current_algebra as ca
from wheelmac import wheel_ideal as wi
from wheelmac.cli import UsageError, run


def _python(args, **kwargs):
    """Run this interpreter on args with this checkout's wheelmac first on
    the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wheelmac.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable] + args, env=env, text=True,
                          timeout=60, **kwargs)


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_wheel_dim_example(capsys):
    code, payload = _run_json(capsys, ["wheel", "dim", "--k", "1", "--r", "2",
                                       "--n", "2", "--d", "1"])
    assert code == 0
    assert payload["dim_J"] == 0


def test_macd_compute_example(capsys):
    code, payload = _run_json(capsys, ["macd", "compute", "--n", "2",
                                       "--lambda", "2"])
    assert code == 0
    coeffs = {c["partition"]: c["coefficient"] for c in payload["coefficients"]}
    assert coeffs["2"] == "1"
    assert coeffs["1,1"] == "(q*t - q + t - 1)/(q*t - 1)"


def test_verify_theorem1_small_exit_zero(capsys):
    code, payload = _run_json(capsys, ["verify", "theorem1", "--k", "1",
                                       "--r", "2", "--n-max", "2",
                                       "--d-max", "4"])
    assert code == 0 and payload["ok"]
    assert all(c["dims_equal"] and c["inclusion_ok"]
               for c in payload["components"])


def test_current_and_char_commands(capsys):
    code, payload = _run_json(capsys, ["current", "relation", "--k", "1",
                                       "--r", "2", "--d", "2",
                                       "--profile", "2"])
    assert code == 0
    assert {t["partition"]: t["coefficient"] for t in payload["terms"]} == \
        {"2,0": "2", "1,1": "1"}

    code, payload = _run_json(capsys, ["current", "reduce", "--k", "1",
                                       "--r", "2", "--lambda", "1,1"])
    assert code == 0
    assert payload["terms"] == [{"partition": "2,0", "coefficient": "-2"}]

    code, payload = _run_json(capsys, ["char", "chi", "--k", "1", "--r", "2",
                                       "--b", "1", "--d-max", "3",
                                       "--n-max", "2"])
    assert code == 0
    assert [0, 0, 1] in payload["coefficients"]

    code, payload = _run_json(capsys, ["char", "recursion", "--k", "2",
                                       "--r", "3", "--b", "1,2",
                                       "--d-max", "5", "--n-max", "5"])
    assert code == 0 and payload["ok"]

    code, payload = _run_json(capsys, ["char", "w-dim", "--k", "1", "--r", "2",
                                       "--b", "1", "--n", "2", "--d", "2"])
    assert code == 0 and payload["w_dim"] == 1

    code, payload = _run_json(capsys, ["current", "rank", "--k", "1",
                                       "--r", "2", "--n", "2", "--d", "2"])
    assert code == 0
    assert payload["quotient_dim"] == payload["admissible_count"] == 1


def test_verify_lemma_commands(capsys):
    code, payload = _run_json(capsys, ["verify", "lemma21", "--k", "1",
                                       "--r", "2", "--n-max", "3",
                                       "--size-max", "8"])
    assert code == 0 and payload["ok"]
    code, payload = _run_json(capsys, ["verify", "lemma22", "--k", "1",
                                       "--r", "2", "--n-max", "2",
                                       "--size-max", "4"])
    assert code == 0 and payload["ok"]


def test_verify_stability_and_rho(capsys):
    code, payload = _run_json(capsys, ["verify", "stability", "--k", "1",
                                       "--r", "2", "--n", "2", "--d", "3",
                                       "--count", "3"])
    assert code == 0 and payload["ok"]
    code, payload = _run_json(capsys, ["verify", "rho", "--k", "1", "--r", "2",
                                       "--lambda", "4,2", "--j-max", "2"])
    assert code == 0 and payload["ok"] and payload["n"] == 3


_EVERY_COMMAND = [
    ("macd compute --n 2 --lambda 2", 0, {"n", "lambda", "coefficients"}),
    ("macd pieri --n 2 --lambda 1", 0, {"n", "lambda", "ok", "failures"}),
    ("macd cauchy --n 2 --l-max 2", 0, {"n", "l_max", "ok"}),
    ("macd integrality --n 2 --lambda 2,1", 0, {"n", "lambda", "ok"}),
    ("wheel subs --k 1 --r 2", 0, {"k", "r", "count", "substitutions"}),
    ("wheel check --k 1 --r 2 --n 2 --lambda 2", 0,
     {"k", "r", "n", "lambda", "admissible", "satisfies_wheel"}),
    ("wheel check --k 1 --r 2 --n 2 --lambda 1,1", 1,
     {"k", "r", "n", "lambda", "admissible", "satisfies_wheel"}),
    ("wheel dim --k 1 --r 3 --n 2 --d 3", 0, {"k", "r", "n", "d", "dim_J"}),
    ("wheel basis --k 1 --r 2 --n 2 --d 2", 0, {"k", "r", "n", "d", "basis"}),
    ("current relation --k 1 --r 3 --d 2 --field generic --sigma 1", 0,
     {"degree", "profile", "field", "terms"}),
    ("current rank --k 1 --r 3 --n 2 --d 2 --field generic", 0,
     {"k", "r", "n", "d", "field", "quotient_dim", "admissible_count"}),
    ("current reduce --k 1 --r 2 --lambda 1,1", 0, {"input", "terms"}),
    ("char chi --k 1 --r 2 --b 1 --d-max 3 --n-max 2", 0,
     {"d_max", "n_max", "coefficients"}),
    ("char recursion --k 1 --r 2 --b 1 --d-max 3 --n-max 3", 0, {"b", "ok"}),
    ("char w-dim --k 1 --r 2 --b 1 --n 2 --d 2", 0,
     {"k", "r", "b", "n", "d", "w_dim"}),
    ("verify theorem1 --k 1 --r 2 --n-max 2 --d-max 3", 0,
     {"k", "r", "ok", "components"}),
    ("verify prop302 --k 1 --r 2 --d-max 3 --n-max 2", 0,
     {"k", "r", "ok", "profiles"}),
    ("verify stability --k 1 --r 2 --n 2 --d 3 --count 2", 0,
     {"k", "r", "n", "d", "combinations", "ok"}),
    ("verify rho --k 1 --r 2 --lambda 4,2 --j-max 1", 0,
     {"k", "r", "n", "lambda", "j_max", "ok"}),
    ("verify lemma21 --k 1 --r 2 --n-max 2 --size-max 4", 0,
     {"k", "r", "checked", "ok", "failures"}),
    ("verify lemma22 --k 1 --r 2 --n-max 2 --size-max 3", 0,
     {"k", "r", "checked", "ok", "failures"}),
]


@pytest.mark.parametrize("argv, code, keys", _EVERY_COMMAND,
                         ids=[argv for argv, _, _ in _EVERY_COMMAND])
def test_every_command_runs(capsys, argv, code, keys):
    got, payload = _run_json(capsys, argv.split())
    assert got == code
    assert set(payload) == keys
    if "ok" in payload:
        assert payload["ok"] == (code == 0)


_USAGE_ERRORS = [
    "nonsense",
    "wheel dim --k 0 --r 2 --n 1 --d 1",
    "wheel dim --k 1 --r 1 --n 1 --d 1",
    "macd compute --n 2 --lambda 1,1,1",
    "macd compute --n 2 --lambda 2,x",
    "macd compute --n 2 --lambda 1,2",
    "char chi --k 1 --r 2 --b x",
    "verify prop302 --k 1 --r 2 --b 1,x",
    "char w-dim --k 1 --r 3 --b 0,5 --n 2 --d 2",
    "char recursion --k 1 --r 2 --b 0",
    "current reduce --k 1 --r 2 --lambda 2,x",
    "current reduce --k 1 --r 2 --lambda 1,3",
    "current relation --k 1 --r 3 --d 2",
    "current relation --k 1 --r 3 --d 2 --profile 1",
    "current relation --k 1 --r 3 --d 2 --profile 1,y",
    "current relation --k 2 --r 3 --d 2 --field generic --sigma 1",
    "current relation --k 1 --r 3 --d 2 --field generic --sigma z",
    "current relation --k 1 --r 2 --d 2 --field generic --sigma 5",
    "current relation --k 2 --r 3 --d 2 --field generic --sigma 1,0",
    "wheel check --k 2 --r 2 --n 2 --lambda 1",
    "verify rho --k 1 --r 3 --lambda 3,1",
    "verify rho --k 1 --r 3 --lambda 4,1",
    "verify rho --k 1 --r 2 --n 2 --lambda 2",
    "verify rho --k 1 --r 2 --n 0 --lambda 4,2",
    "macd cauchy --n 2 --l-max -1",
    "verify stability --k 1 --r 2 --n 2 --d 3 --count -3",
    "verify rho --k 1 --r 2 --lambda 4,2 --j-max -1",
    "verify lemma21 --k 1 --r 2 --size-max -2",
    "verify lemma22 --k 1 --r 2 --size-max -2",
    "macd compute --n 0 --lambda 0",
    "macd pieri --n 0 --lambda 0",
    "macd cauchy --n 0",
    "macd integrality --n 0 --lambda 0",
    "wheel basis --k 1 --r 2 --n 0 --d 0",
    "verify stability --k 1 --r 2 --n 1 --d 2",
    "current relation --k 2 --r 3 --d 2 --profile 4,-1",
    "wheel dim --k 1 --r 3 --n 2 --d 3 --mode probe",
    "verify theorem1 --k 1 --r 2 --n-max 2 --d-max 3 --mode exact",
    "verify theorem1 --k 1 --r 2 --probe-seed 1",
]


def test_usage_errors_exit_2(capsys):
    for argv in _USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            run(argv.split())
        assert exc.value.code == 2, argv
        assert "Traceback" not in capsys.readouterr().err
    # a library input rule is reported on the flag and value it refused
    for argv, shown in [
            ("current relation --k 2 --r 3 --d 2 --profile 4,-1",
             "--profile 4,-1: want r-1 = 2 non-negative entries"),
            ("char w-dim --k 1 --r 3 --b 0,5 --n 2 --d 2",
             "--b 0,5: want r-1 = 2 bounds"),
            ("char recursion --k 1 --r 2 --b 0", "--b 0: the recursion"),
            ("verify stability --k 1 --r 2 --n 1 --d 2", "--n 1: need at"),
            ("verify rho --k 1 --r 2 --n 2 --lambda 2", "--n 2: the restr"),
            ("verify rho --k 1 --r 2 --n 0 --lambda 4,2", "--n 0: the restr"),
            ("macd compute --n 2 --lambda 1,1,1", "--lambda 1,1,1: "),
            ("current relation --k 1 --r 2 --d 2 --field generic --sigma 5",
             "--sigma 5: sigma must be")]:
        with pytest.raises(SystemExit):
            run(argv.split())
        assert shown in capsys.readouterr().err, argv
    # the refused partition is shown padded to n, as current reduce shows it
    with pytest.raises(SystemExit) as exc:
        run("verify rho --k 1 --r 2 --lambda 0".split())
    assert exc.value.code == 2
    assert ("--lambda 0,0,0 is not (k=1, r=2)-admissible in 3 variables"
            in capsys.readouterr().err)


_USAGE_ERRORS_UNDER_O = """
import sys
from wheelmac.cli import run
for argv in sys.argv[1:]:
    try:
        run(argv.split())
    except SystemExit as exc:
        if exc.code != 2:
            sys.exit("%s: exit %r" % (argv, exc.code))
    else:
        sys.exit("%s: no usage error" % argv)
"""


def test_usage_errors_exit_2_under_O():
    done = _python(["-O", "-c", _USAGE_ERRORS_UNDER_O] + _USAGE_ERRORS,
                   capture_output=True)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_value_error_while_computing_is_not_a_usage_error(monkeypatch):
    """Only the library's input rules become exit 2: the same ValueError
    raised by the computation after them escapes run() as a bug (exit 1)."""
    def broken(*args, **kwargs):
        raise ValueError("raised while computing")
    for module, name, argv in [
            (ca, "chi_C", "char chi --k 1 --r 2 --b 1"),
            (wi, "satisfies_wheel", "wheel check --k 1 --r 2 --n 2 --lambda 2"),
            (ca, "relation_rootofunity",
             "current relation --k 1 --r 2 --d 2 --profile 2")]:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, broken)
            with pytest.raises(ValueError, match="while computing") as exc:
                run(argv.split())
        assert not isinstance(exc.value, UsageError), argv


def test_python_m_wheelmac():
    done = _python(["-m", "wheelmac", "--help"], capture_output=True)
    assert done.returncode == 0, done.stderr
    assert "usage: wheelmac" in done.stdout


def test_closed_stdout_keeps_the_verdict_code():
    """A reader that closes the pipe early costs the output, not the exit
    code: the verdict's 0 stands and no traceback reaches stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _python(
            ["-m", "wheelmac", "verify", "stability",
             "--k", "2", "--r", "2", "--n", "3", "--d", "6", "--count", "4"],
            stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert "BrokenPipeError" not in done.stderr


def test_failing_check_exits_one(capsys):
    # (1,1) is not admissible and its specialized P is not in the ideal
    code = run(["wheel", "check", "--k", "1", "--r", "2", "--n", "2",
                "--lambda", "1,1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and not out["satisfies_wheel"]


def test_table_format(capsys):
    code = run(["--format", "table", "wheel", "dim", "--k", "1", "--r", "2",
                "--n", "2", "--d", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dim_J" in out and "{" not in out
    # a list of dicts nests one level deeper
    argv = "verify theorem1 --k 1 --r 2 --n-max 2 --d-max 2".split()
    _, payload = _run_json(capsys, argv)
    assert run(["--format", "table"] + argv) == 0
    out = capsys.readouterr().out
    assert "{" not in out and "[" not in out
    assert out.startswith("components:\n")
    assert out.count("dims_equal") == len(payload["components"])


_WRONG_GCD_UNDER_O = """
import sys
from wheelmac import scalars
from wheelmac.cli import run
scalars.qt_gcd = lambda f, g: scalars.QTPoly.q() + 3  # divides neither
sys.exit(run(["macd", "compute", "--n", "3", "--lambda", "2,1"]))
"""


def test_inexact_division_exits_3_under_O():
    """A gcd that does not divide is an exactness violation: exit 3, with
    the one-line message and no traceback, also under python -O."""
    done = _python(["-O", "-c", _WRONG_GCD_UNDER_O], capture_output=True)
    assert done.returncode == 3, done.stderr
    assert "inexact" in done.stderr and "Traceback" not in done.stderr
