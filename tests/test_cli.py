import csv
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from slsolve import cli, meshing, study
from slsolve.cli import main


# q is undefined at the negative collocation points, which loading does not see.
EXPLODING = ("interval = realline\nmap = de\nq = log(x)\nrho = 1\n"
             f"d = {math.pi / 4}\nbeta_l = 1\nbeta_r = 1\ngamma_l = 2\ngamma_r = 2\n")
# Declares DE constants only, so --method se is refused when the study is planned.
DE_ONLY = ("interval = unit\nmap = de\nq = 1/x^2\nrho = 1\nd = 1.5\n"
           "beta_l = 7\nbeta_r = 0.5\ngamma_l = 1\ngamma_r = 1\n")
# d = 1e-300 gives h = 3.1e-300 at n = 2, whose square underflows to 0.
THIN_STRIP = ("interval = unit\nmap = de\nq = 1\nrho = 1\nd = 1e-300\n"
              "beta_l = 1\nbeta_r = 1\ngamma_l = 1\ngamma_r = 1\n")


def read_rows(path):
    """The CLI's CSV as one dict of strings per record."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_single_study(tmp_path, capsys):
    out = tmp_path / "bessel.csv"
    code = main(["--problem", "bessel", "--param", "n=7", "--method", "de",
                 "--balanced", "--n-min", "2", "--n-max", "12",
                 "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 11
    assert all(r["method"] == "de" and r["problem"] == "bessel" for r in rows)
    assert min(float(r["abs_error"]) for r in rows) < 1e-9


def test_compare_mode(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(["--problem", "laguerre", "--param", "alpha=3", "--compare",
                 "--n-min", "2", "--n-max", "8", "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert {r["method"] for r in rows} == {"se", "de"}
    # symmetric and balanced DE series both present
    de_sizes = {(r["M"] == r["N"]) for r in rows if r["method"] == "de"}
    assert de_sizes == {True, False}


def test_singular_compare_includes_adapted(tmp_path):
    out = tmp_path / "singular.csv"
    code = main(["--problem", "singular", "--compare",
                 "--n-min", "3", "--n-max", "8", "--output", str(out)])
    assert code == 0
    names = {r["problem"] for r in read_rows(out)}
    assert names == {"singular", "singular-adapted"}


@pytest.mark.parametrize("flag", [["--kappa", "1"], ["--param", "kappa=1"]])
def test_singular_compare_at_kappa_one_runs_each_series_once(tmp_path, capsys, flag):
    # At kappa = 1 the requested map is the plain one: no de-adapted copy.
    out = tmp_path / "x.csv"
    code = main(["--problem", "singular", *flag, "--compare", "--rate-fit",
                 "--n-min", "3", "--n-max", "5", "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert [(r["method"], r["n"]) for r in rows] == [(m, str(n)) for m in ("se", "de")
                                                      for n in (3, 4, 5)]
    captured = capsys.readouterr()
    fits = [line.split(":")[0] for line in (captured.out + captured.err).splitlines()
            if line.startswith("rate-fit")]
    assert fits == ["rate-fit se", "rate-fit de"]


def test_singular_compare_rejects_stray_param(tmp_path, capsys):
    code = main(["--problem", "singular", "--compare", "--param", "kappa=0.5",
                 "--param", "depth=2", "--n-min", "3", "--n-max", "8",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "['depth']" in capsys.readouterr().err


def test_rate_fit_output(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code = main(["--problem", "laguerre", "--param", "alpha=3", "--method", "de",
                 "--balanced", "--n-min", "2", "--n-max", "20", "--rate-fit",
                 "--output", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "kappa_hat=" in stdout and "r_squared=" in stdout


def test_config_file_problem(tmp_path):
    config = tmp_path / "problem.slp"
    config.write_text(
        "name = demo\n"
        "interval = realline\n"
        "map = de\n"
        "q = x^2\n"
        "rho = 1\n"
        f"d = {math.pi / 4}\n"
        "beta_l = 0.125\n"
        "beta_r = 0.125\n"
        "gamma_l = 2\n"
        "gamma_r = 2\n"
    )
    out = tmp_path / "demo.csv"
    code = main(["--problem", str(config), "--method", "de",
                 "--n-min", "3", "--n-max", "10", "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert all(r["problem"] == "demo" for r in rows)
    # harmonic oscillator: successive differences shrink toward mu_1 = 1
    assert abs(float(rows[-1]["mu"]) - 1.0) < 1e-6


def test_missing_method_is_config_error(tmp_path, capsys):
    code = main(["--problem", "bessel", "--n-min", "2", "--n-max", "5",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_problem_is_config_error(tmp_path):
    code = main(["--problem", "does-not-exist", "--method", "de",
                 "--n-min", "2", "--n-max", "5", "--output", str(tmp_path / "x.csv")])
    assert code == 2


def test_directory_as_problem_is_config_error(tmp_path, capsys):
    code = main(["--problem", str(tmp_path), "--method", "de",
                 "--n-min", "2", "--n-max", "5", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "configuration error: cannot read config file" in capsys.readouterr().err


def test_unwritable_output_is_config_error(tmp_path, capsys, spy):
    # The output is checked before the study runs.
    ran = spy(cli, "convergence_study")
    # A missing directory, and a directory as the destination.
    for out in (tmp_path / "no-such-dir" / "x.csv", tmp_path):
        code = main(["--problem", "bessel", "--method", "de",
                     "--n-min", "2", "--n-max", "3", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(out) in err
    assert ran == []


@pytest.mark.parametrize("config,method,code", [(DE_ONLY, "se", 2), (EXPLODING, "de", 3)],
                         ids=["config-error-in-plan", "solver-error"])
def test_failed_run_leaves_existing_output_unchanged(tmp_path, capsys, config, method, code):
    # Both failures come after the destination is checked, and the study
    # writes nothing it did not finish.
    problem = tmp_path / "problem.slp"
    problem.write_text(config)
    out = tmp_path / "results.csv"
    out.write_bytes(b"earlier results,\r\n")
    assert main(["--problem", str(problem), "--method", method, "--n-min", "3",
                 "--n-max", "6", "--output", str(out)]) == code
    assert out.read_bytes() == b"earlier results,\r\n"
    assert str(out) not in capsys.readouterr().out


@pytest.mark.parametrize("config,flags,code", [(DE_ONLY, ["--eig-index", "0"], 2), (EXPLODING, [], 3)],
                         ids=["config-error-in-plan", "solver-error"])
def test_failed_run_removes_the_output_it_created(tmp_path, config, flags, code):
    # The destination is created when it is checked, before the study.
    problem = tmp_path / "problem.slp"
    problem.write_text(config)
    out = tmp_path / "results.csv"
    assert main(["--problem", str(problem), "--method", "de", *flags, "--n-min", "3",
                 "--n-max", "6", "--output", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--compare", "--method", "se"], ["--method", "se", "--balanced"],
                                   ["--compare", "--balanced"]],
                         ids=["compare-method", "se-balanced", "compare-balanced"])
def test_ignored_flag_combination_is_config_error(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    code = main(["--problem", "bessel", *flags, "--n-min", "2", "--n-max", "5",
                 "--output", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("problem,flags,message", [
    ("de-only", ["--method", "se"], "problem 'custom' declares no se transformation data"),
    ("bessel", ["--param", "n7", "--method", "de"], "--param expects NAME=VALUE, got 'n7'"),
    ("bessel", ["--param", "n=x", "--method", "de"], "--param 'n' must be numeric, got 'x'"),
    ("thin-strip", ["--method", "de"], "problem='custom' method='de' n=2: mesh size "
     "h=3.141592653589793e-300 is out of range: h^2 and 1/h^2 must be finite and positive"),
], ids=["undeclared-method", "param-without-equals", "param-not-numeric", "mesh-size-underflow"])
def test_problem_refusals_are_config_errors(tmp_path, capsys, problem, flags, message):
    configs = {"de-only": DE_ONLY, "thin-strip": THIN_STRIP}
    if problem in configs:
        (tmp_path / problem).write_text(configs[problem])
        problem = tmp_path / problem
    code = main(["--problem", str(problem), *flags, "--n-min", "2", "--n-max", "5",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"slsolve: configuration error: {message}\n"


def test_bad_builtin_parameter_is_config_error(tmp_path, capsys):
    for alpha in ("0.2", "inf", "nan"):
        code = main(["--problem", "laguerre", "--param", f"alpha={alpha}", "--method", "de",
                     "--n-min", "2", "--n-max", "5", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == ("slsolve: configuration error: Laguerre parameter "
                                           f"must be finite and exceed 1/2, got alpha={alpha}\n")


def test_kappa_outside_singular_is_config_error(tmp_path):
    code = main(["--problem", "bessel", "--method", "de", "--kappa", "0.5",
                 "--n-min", "2", "--n-max", "5", "--output", str(tmp_path / "x.csv")])
    assert code == 2


def test_non_integer_bessel_order_is_config_error(tmp_path, capsys):
    for order in ("7.5", "inf", "nan"):
        code = main(["--problem", "bessel", "--param", f"n={order}", "--method", "de",
                     "--n-min", "2", "--n-max", "5", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "Bessel order must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--method", "de"], ["--compare"]])
def test_kappa_flag_is_a_last_kappa_param(tmp_path, mode):
    def rows(*flags):
        out = tmp_path / "x.csv"
        assert main(["--problem", "singular", *flags, *mode, "--n-min", "3", "--n-max", "6",
                     "--output", str(out)]) == 0
        return [(r["method"], r["problem"], r["n"], r["mu"]) for r in read_rows(out)]

    assert rows("--param", "kappa=0.5", "--kappa", "1") == rows("--param", "kappa=1")


@pytest.mark.parametrize("flag", [["--param", "a=1"], ["--kappa", "0.5"]])
def test_builtin_flags_on_config_file_are_config_error(tmp_path, capsys, flag):
    config = tmp_path / "problem.slp"
    config.write_text("interval = realline\nmap = se\nq = x^2\nrho = 1\nd = 0.5\n"
                      "alpha_se = 0.5\nrho_decay_se = 2\n")
    code = main(["--problem", str(config), *flag, "--method", "se",
                 "--n-min", "2", "--n-max", "5", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--param and --kappa only apply to builtin problems" in capsys.readouterr().err


def test_bad_config_file_line_reported(tmp_path, capsys):
    config = tmp_path / "broken.slp"
    config.write_text("interval = unit\nmap = de\nq = log(\nrho = 1\nd = 1\n")
    code = main(["--problem", str(config), "--method", "de",
                 "--n-min", "2", "--n-max", "5", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("flags,code", [
    (["--method", "de"], 0),
    (["--method", "de", "--balanced"], 2),
    (["--compare"], 2),
], ids=["de", "de-balanced", "compare"])
def test_overflowing_mesh_index_is_config_error(tmp_path, capsys, monkeypatch, flags, code):
    # beta_l / beta_r overflows: the balanced mesh's dependent index is
    # infinite, and the symmetric mesh never forms it.
    solves = []
    real = study.solve_generalized
    monkeypatch.setattr(study, "solve_generalized",
                        lambda *args, **kwargs: solves.append(args) or real(*args, **kwargs))
    config = tmp_path / "tiny-beta.slp"
    config.write_text("interval = unit\nmap = de\nq = 48.75/x^2\nrho = 1\n"
                      f"d = {math.pi / 2}\nbeta_l = 7\nbeta_r = 5e-324\ngamma_l = 1\n"
                      "gamma_r = 1\nalpha_se = 1\nrho_decay_se = 1\n")
    assert main(["--problem", str(config), *flags, "--n-min", "2", "--n-max", "4",
                 "--output", str(tmp_path / "x.csv")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert ("configuration error: problem='custom' method='de' n=2: the DE mesh's "
                "dependent truncation index at n=2") in err
        assert "beta_right=5e-324" in err
        # Every series is meshed before any solves, --compare's se and de too.
        assert solves == []


@pytest.mark.parametrize("flags", [["--method", "de", "--balanced"], ["--compare"]],
                         ids=["de-balanced", "compare"])
def test_level_over_the_size_budget_is_config_error(tmp_path, capsys, spy, flags):
    # gamma_l = 1000 gives the balanced DE mesh N = 1000 n: sizes 2,003,
    # 3,004 and 4,005 fit the budget, 5,006 at n = 5 does not.
    config = tmp_path / "lopsided.slp"
    config.write_text("interval = realline\nmap = de\nq = x^2\nrho = 1\n"
                      f"d = {math.pi / 2000}\nbeta_l = 1\nbeta_r = 1\ngamma_l = 1000\n"
                      "gamma_r = 1\n")
    evaluated = spy(meshing, "_qtilde")
    solved = spy(study, "solve_generalized")
    argv = ["--problem", str(config), "--n-min", "2", "--output", str(tmp_path / "x.csv")]
    assert main([*argv, *flags, "--n-max", "10"]) == 2
    # The refusal names the level, as a StudyError does.
    assert ("configuration error: problem='custom' method='de' n=5: pencil size 5006 "
            "(M=5, N=5000) exceeds the size budget 4096") in capsys.readouterr().err
    # A range far past the budget is refused at once, as one just past it is.
    assert main([*argv, *flags, "--n-max", str(10**20)]) == 2
    beyond = capsys.readouterr().err
    assert main([*argv, *flags, "--n-max", "5000"]) == 2
    assert capsys.readouterr().err == beyond and "exceeds the size budget 4096" in beyond
    assert evaluated == [] and solved == []
    # The counters see the symmetric series, whose sizes are 2n + 1; each
    # of its two levels is one half of it, evaluated on its own.
    assert main([*argv, "--method", "de", "--n-max", "3"]) == 0
    assert len(evaluated) == 2 and len(solved) == 2


def test_index_past_a_level_pencil_is_config_error(tmp_path, capsys):
    # The symmetric DE mesh at n = 2 has size 5; the plan refuses the
    # index, as it refuses every level it cannot run.
    out = tmp_path / "x.csv"
    assert main(["--problem", "bessel", "--method", "de", "--n-min", "2", "--n-max", "3",
                 "--eig-index", "4000000", "--output", str(out)]) == 2
    assert capsys.readouterr().err == ("slsolve: configuration error: problem='bessel' "
                                       "method='de' n=2: eigenvalue index 4000000 exceeds "
                                       "matrix dimension 5\n")
    assert not out.exists()


@pytest.mark.parametrize("n_min,n_max", [(1, 1), (1, 3), (4, 4)])
def test_refinement_range_bounds_are_inclusive(tmp_path, n_min, n_max):
    out = tmp_path / "x.csv"
    assert main(["--problem", "bessel", "--method", "de", "--n-min", str(n_min),
                 "--n-max", str(n_max), "--output", str(out)]) == 0
    assert [int(row["n"]) for row in read_rows(out)] == list(range(n_min, n_max + 1))


@pytest.mark.parametrize("n_min,n_max", [(0, 3), (5, 4)])
def test_refinement_range_outside_bounds_is_config_error(tmp_path, capsys, n_min, n_max):
    assert main(["--problem", "bessel", "--method", "de", "--n-min", str(n_min),
                 "--n-max", str(n_max), "--output", str(tmp_path / "x.csv")]) == 2
    assert f"invalid refinement range [{n_min}, {n_max}]" in capsys.readouterr().err


def test_solver_failure_exit_code(tmp_path, capsys):
    config = tmp_path / "exploding.slp"
    config.write_text(EXPLODING)
    code = main(["--problem", str(config), "--method", "de",
                 "--n-min", "3", "--n-max", "6", "--output", str(tmp_path / "x.csv")])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


# Potentials by interval, each with drawn constants c >= 0 and b of either
# sign; with rho = exp(x^2) and b < 0 the weights are graded so steeply
# that the graded solve needs a shift many decades above min A_kk / w_k.
Q_TEMPLATES = {
    "unit": ("{c}/x^2", "{c}/(x*(1-x))", "{c}/x^2 + ({b})*x"),
    "halfline": ("{c}/x^2 + ({b})*x^2", "{c}/x^2 + ({b})*x", "({b})*x^2"),
    "realline": ("x^4 - {c}*x^2", "({b})*x^2", "x^2 + {c}*cos(x)"),
}
RHOS = ("1", "1/(x^2+cos(x))", "exp(-x)", "1+x^2", "exp(x^2)")
MODES = (["--method", "se"], ["--method", "de"], ["--method", "de", "--balanced"],
         ["--compare", "--rate-fit"])


@st.composite
def configs(draw):
    """A whole config file: interval, q, rho, DE and SE decay constants, maybe kappa."""
    interval = draw(st.sampled_from(sorted(Q_TEMPLATES)))
    q = draw(st.sampled_from(Q_TEMPLATES[interval])).format(
        c=draw(st.floats(0.0, 5.0)), b=draw(st.floats(-2.0, 2.0)))
    gammas = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
    d = draw(st.floats(0.05, 1.0)) * math.pi / (2.0 * max(gammas))
    lines = [f"interval = {interval}", "map = de", f"q = {q}", f"rho = {draw(st.sampled_from(RHOS))}",
             f"d = {d!r}", f"beta_l = {draw(st.floats(0.05, 5.0))!r}",
             f"beta_r = {draw(st.floats(0.05, 5.0))!r}", f"gamma_l = {gammas[0]!r}",
             f"gamma_r = {gammas[1]!r}", f"alpha_se = {draw(st.floats(0.1, 3.0))!r}",
             f"rho_decay_se = {draw(st.sampled_from([1, 2]))}"]
    if interval == "realline" and draw(st.booleans()):
        lines.append(f"kappa = {draw(st.floats(1e-3, 1e3))!r}")
    return "\n".join(lines) + "\n"


# q falls to -inf where rho = exp(-x) decays: the graded solve finds no
# shift at n = 6, and every shift it tries overflows s * w_k.
UNBOUNDED_BELOW = ("interval = realline\nmap = de\nq = (-1.47)*x^2\nrho = exp(-x)\nd = 0.7\n"
                   "beta_l = 0.25\nbeta_r = 1\ngamma_l = 1\ngamma_r = 0.5\nalpha_se = 1\n"
                   "rho_decay_se = 1\nkappa = 50.5\n")


@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=configs(), mode=st.sampled_from(MODES), n_max=st.integers(2, 30),
       eig_index=st.integers(1, 3))
@example(config=UNBOUNDED_BELOW, mode=["--method", "de", "--balanced"], n_max=10, eig_index=1)
def test_any_config_runs_or_fails_with_one_message(tmp_path, config, mode, n_max, eig_index):
    # Either every mu of the CSV is finite, or the run exits 2 or 3 with
    # one line on stderr; no exception or warning escapes main.
    (tmp_path / "p.slp").write_text(config)
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    # Under the "error" filter a warning in a study becomes a StudyError,
    # which exits 3 with one line; recorded, it fails the check below.
    with (warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout),
          redirect_stderr(stderr)):
        warnings.simplefilter("always")
        code = main(["--problem", str(tmp_path / "p.slp"), *mode, "--eig-index", str(eig_index),
                     "--n-min", "2", "--n-max", str(n_max), "--output", str(out)])
    assert [str(w.message) for w in caught] == [], config
    if code == 0:
        assert all(math.isfinite(float(r["mu"])) for r in read_rows(out)), config
    else:
        assert code in (2, 3), config
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("slsolve: "), (config, lines)
