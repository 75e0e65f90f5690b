import io
import math

import numpy as np
import pytest

from slsolve import (InsufficientDataError, StudyError, StudyRecord, builtin,
                     compare_methods, convergence_study, emit_csv, parse_problem_config,
                     rate_fit, read_csv, singular_comparison)
from slsolve import study
from slsolve.study import CSV_HEADER


def synthetic(ns, errors, method="de", problem="synthetic", mu=1.0):
    return [
        StudyRecord(method=method, problem=problem, n=n, M=n, N=n, h=1.0 / n,
                    size=2 * n + 1, eig_index=1, mu=mu, abs_error=e,
                    succ_error=None, runtime_ms=1.0)
        for n, e in zip(ns, errors)
    ]


def test_laguerre_study_absolute_errors():
    records = convergence_study(builtin("laguerre", alpha=3.0), "de",
                                range(2, 26), eig_indices=(1,), balanced=True)
    assert all(r.abs_error is not None and r.succ_error is None for r in records)
    assert records[-1].abs_error <= 1e-8
    assert [r.n for r in records] == list(range(2, 26))


def test_singular_study_successive_errors():
    records = convergence_study(builtin("singular"), "de", range(4, 16))
    assert records[0].succ_error is None and records[0].abs_error is None
    assert all(r.succ_error is not None for r in records[1:])
    assert all(r.abs_error is None for r in records)


def test_single_record_study_has_no_error():
    records = convergence_study(builtin("singular"), "de", [6])
    assert len(records) == 1
    assert records[0].abs_error is None and records[0].succ_error is None


def test_study_size_bookkeeping():
    records = convergence_study(builtin("bessel", n=7), "de", range(2, 12), balanced=True)
    for r in records:
        assert r.size == r.M + r.N + 1
    sizes = [r.size for r in records]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_study_error_decays_overall():
    records = convergence_study(builtin("bessel", n=7), "de", range(2, 30), balanced=True)
    errors = [r.abs_error for r in records]
    assert min(errors) <= errors[0]


def test_multiple_eigenvalue_indices():
    records = convergence_study(builtin("laguerre", alpha=3.0), "de",
                                range(10, 14), eig_indices=(1, 2, 3), balanced=True)
    assert len(records) == 4 * 3
    by_n = [r for r in records if r.n == 12]
    assert [r.eig_index for r in by_n] == [1, 2, 3]
    assert by_n[0].mu < by_n[1].mu < by_n[2].mu


def test_compare_methods_bessel_series():
    series = compare_methods(builtin("bessel", n=7), range(2, 8))
    assert set(series) == {"se", "de", "de-balanced"}
    for records in series.values():
        sizes = [r.size for r in records]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_compare_methods_laguerre_series():
    series = compare_methods(builtin("laguerre", alpha=3.0), range(2, 8))
    assert set(series) == {"se", "de", "de-balanced"}
    for records in series.values():
        sizes = [r.size for r in records]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("name,params", [("laguerre", {"alpha": 3.0}), ("singular", {})])
def test_builtin_de_error_decays_overall(name, params):
    records = convergence_study(builtin(name, **params), "de", range(2, 41))
    errors = [r.error() for r in records if r.error() is not None]
    assert min(errors) <= errors[0]


def test_compare_methods_rejects_one_method_before_any_solve(monkeypatch):
    def no_study(*args, **kwargs):
        raise AssertionError("no series may run before the methods are counted")

    monkeypatch.setattr(study, "convergence_study", no_study)
    # Whole-line x^2 with one DE profile, equal tails: one series only.
    problem = parse_problem_config(
        "interval = realline\nmap = de\nq = x^2\nrho = 1\nd = 0.7853981633974483\n"
        "beta_l = 0.125\nbeta_r = 0.125\ngamma_l = 2\ngamma_r = 2\n")
    with pytest.raises(ValueError, match="declares only one method"):
        compare_methods(problem, range(2, 80))


def test_singular_comparison_series():
    series = singular_comparison(range(3, 9))
    assert set(series) == {"se", "de", "de-adapted"}
    assert all(r.problem == "singular" for r in series["de"])
    assert all(r.problem == "singular-adapted" for r in series["de-adapted"])


def test_rate_fit_recovers_planted_slope():
    ns = list(range(5, 45))
    errors = [math.exp(-2.0 * n / math.log(n)) for n in ns]
    kappa_hat, r2 = rate_fit(synthetic(ns, errors))
    assert kappa_hat == pytest.approx(2.0, abs=0.05)
    assert r2 > 0.999


def test_rate_fit_constant_errors():
    kappa_hat, r2 = rate_fit(synthetic(range(5, 15), [1e-3] * 10))
    assert kappa_hat == pytest.approx(0.0, abs=1e-12)
    assert r2 == 0.0


def test_rate_fit_needs_five_records():
    ns = [5, 6, 7, 8]
    errors = [math.exp(-n) for n in ns]
    with pytest.raises(InsufficientDataError):
        rate_fit(synthetic(ns, errors))


def test_rate_fit_excludes_plateau():
    ns = list(range(5, 30))
    errors = [max(math.exp(-2.0 * n / math.log(n)), 1e-15) for n in ns]
    kappa_hat, r2 = rate_fit(synthetic(ns, errors))
    assert kappa_hat == pytest.approx(2.0, abs=0.05)
    assert r2 > 0.99


def test_rate_fit_plateau_cut_is_relative_to_mu():
    # A clean decay down to n = 18, then a plateau of rounding noise
    # around 1e-12 -- about 1e-14 relative to mu = 123 -- holding one
    # stray 5e-14.  The cut falls where the decay meets the relative
    # floor, not at the stray level inside the plateau.
    ns = list(range(2, 41))
    noise = [1.7, 0.6, 2.4, 0.9, 1.3, 3.1, 0.7]
    errors = [math.exp(-4.0 * n / math.log(n)) if n <= 18 else noise[n % 7] * 1e-12
              for n in ns]
    errors[ns.index(33)] = 5e-14
    kappa_hat, r2 = rate_fit(synthetic(ns, errors, mu=122.9))
    assert kappa_hat == pytest.approx(4.0, abs=0.05)
    assert r2 > 0.999


def test_csv_round_trip(tmp_path):
    records = convergence_study(builtin("singular"), "de", range(4, 12))
    records += convergence_study(builtin("laguerre", alpha=3.0), "de", range(4, 10))
    path = tmp_path / "records.csv"
    emit_csv(records, path)
    back = read_csv(path)
    assert back == records


def test_csv_header_and_blank_optionals():
    records = convergence_study(builtin("singular"), "de", [5, 6])
    buffer = io.StringIO()
    emit_csv(records, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    # first record of a reference-free study: both error fields blank
    first = lines[1].split(",")
    assert first[9] == "" and first[10] == ""
    second = lines[2].split(",")
    assert second[9] == "" and second[10] != ""


def test_csv_empty_record_list(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text().strip() == ",".join(CSV_HEADER)
    assert read_csv(path) == []


def test_csv_17_digit_floats(tmp_path):
    mu = 1.0 + np.pi * 1e-7
    record = StudyRecord(method="de", problem="p", n=3, M=3, N=3, h=1.0 / 3.0,
                         size=7, eig_index=1, mu=mu, abs_error=None,
                         succ_error=2.0 ** -40, runtime_ms=0.25)
    path = tmp_path / "one.csv"
    emit_csv([record], path)
    back = read_csv(path)[0]
    assert back.mu == mu
    assert back.h == 1.0 / 3.0
    assert back.succ_error == 2.0 ** -40


def test_study_rejects_bad_inputs():
    problem = builtin("laguerre", alpha=3.0)
    with pytest.raises(ValueError):
        convergence_study(problem, "de", [])
    with pytest.raises(ValueError):
        convergence_study(problem, "de", [3], eig_indices=(0,))
    with pytest.raises(ValueError):
        convergence_study(problem, "de", [3], eig_indices=())
    with pytest.raises(ValueError):
        convergence_study(problem, "qz", [3])


def test_study_checks_index_before_assembly(monkeypatch):
    assembled = []

    def no_assembly(tp, mesh):
        assembled.append(mesh)
        raise AssertionError("assemble must not run for an out-of-range index")

    monkeypatch.setattr(study, "assemble", no_assembly)
    # The symmetric DE mesh at n=2 has size 5.
    with pytest.raises(StudyError, match="eigenvalue index 6 exceeds matrix dimension 5"):
        convergence_study(builtin("singular"), "de", [2], eig_indices=(1, 6))
    assert assembled == []
