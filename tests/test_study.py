import csv
import dataclasses
import io
import math
import sys
import threading
import time

import numpy as np
import pytest

from slsolve import (InsufficientDataError, MeshConfig, Spectrum, StudyError, StudyRecord,
                     TransformedProblem, assemble, builtin, compare_methods,
                     convergence_study, de_mesh, emit_csv, parse_problem_config, rate_fit,
                     solve_generalized, transformed)
from slsolve import study
from slsolve.study import CSV_HEADER
from test_readme import block


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


def test_compare_methods_rejects_one_method_before_any_solve(spy):
    # No series may run before the methods are counted.
    ran = spy(study, "convergence_study")
    # Whole-line x^2 with one DE profile, equal tails: one series only.
    problem = parse_problem_config(
        "interval = realline\nmap = de\nq = x^2\nrho = 1\nd = 0.7853981633974483\n"
        "beta_l = 0.125\nbeta_r = 0.125\ngamma_l = 2\ngamma_r = 2\n")
    with pytest.raises(ValueError, match="declares only one method"):
        compare_methods(problem, range(2, 80))
    assert ran == []


def test_singular_comparison_series():
    series = compare_methods(builtin("singular", kappa=1.0), range(3, 9),
                             adapted=builtin("singular"))
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


def test_rate_fit_refuses_two_records_for_one_level():
    # A study of several indices holds one series per index; fitting them
    # as one would blend their rates.
    records = convergence_study(builtin("laguerre", alpha=3.0), "de", range(2, 12),
                                eig_indices=(1, 2), balanced=True)
    with pytest.raises(ValueError, match=r"^rate fit takes one series, but level n=2 has two "):
        rate_fit(records)
    kappa_hat, _ = rate_fit([r for r in records if r.eig_index == 2])
    assert kappa_hat > 0.0


def test_rate_fit_r_squared_is_the_squared_correlation():
    # Noisy errors, so r^2 is well inside (0, 1); for a straight-line fit
    # it is the squared correlation of x = n/log(n) and y = log(error).
    ns = list(range(5, 40))
    noise = np.random.default_rng(7).standard_normal(len(ns))
    errors = [math.exp(-1.5 * n / math.log(n) + 0.5 * z) for n, z in zip(ns, noise)]
    kappa_hat, r2 = rate_fit(synthetic(ns, errors))
    x = np.array([n / math.log(n) for n in ns])
    y = np.log(errors)
    assert r2 == pytest.approx(np.corrcoef(x, y)[0, 1] ** 2, rel=1e-12)
    assert 0.5 < r2 < 0.99
    assert kappa_hat == pytest.approx(-np.polyfit(x, y, 1)[0], rel=1e-12)


def test_runtime_ms_is_each_level_share_of_the_wall_time():
    problem = builtin("laguerre", alpha=3.0)
    begin = time.perf_counter()
    series = [convergence_study(problem, "de", range(2, 20), eig_indices=(1, 2)),
              *compare_methods(problem, range(2, 12)).values()]
    wall_ms = (time.perf_counter() - begin) * 1000.0
    total_ms = 0.0
    for records in series:
        assert all(math.isfinite(r.runtime_ms) and r.runtime_ms > 0.0 for r in records)
        # The records of one level share its time.
        per_level = {r.n: r.runtime_ms for r in records}
        assert all(r.runtime_ms == per_level[r.n] for r in records)
        total_ms += sum(per_level.values())
    # The levels' times add up to no more than the wall time around the studies.
    assert total_ms <= wall_ms


def write_and_parse(records, path):
    """emit_csv into a file at ``path``, read back as StudyRecords."""
    with open(path, "w", newline="") as handle:
        emit_csv(records, handle)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == CSV_HEADER

    def optional(text):
        return float(text) if text else None

    return [StudyRecord(method=row[0], problem=row[1], n=int(row[2]), M=int(row[3]),
                        N=int(row[4]), h=float(row[5]), size=int(row[6]),
                        eig_index=int(row[7]), mu=float(row[8]), abs_error=optional(row[9]),
                        succ_error=optional(row[10]), runtime_ms=float(row[11]))
            for row in rows[1:]]


def test_csv_round_trip(tmp_path):
    records = convergence_study(builtin("singular"), "de", range(4, 12))
    records += convergence_study(builtin("laguerre", alpha=3.0), "de", range(4, 10))
    assert write_and_parse(records, tmp_path / "records.csv") == records


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


def test_csv_bytes_match_a_reference_formatter():
    # str for ints and strings, 17 significant digits for floats, an empty
    # field for None; a field holding a comma, a quote or a line end is
    # quoted, its quotes doubled.  Records end in CRLF.
    def field(value):
        if value is None:
            return ""
        text = f"{value:.17g}" if isinstance(value, float) else str(value)
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    records = convergence_study(builtin("singular"), "de", range(4, 8))
    records += convergence_study(builtin("laguerre", alpha=3.0), "de", [5, 6], (1, 2))
    odd = dataclasses.replace(records[0], problem='well "a,b"\nrow', runtime_ms=0.1)
    records.append(odd)
    expected = "".join(",".join(field(v) for v in row) + "\r\n"
                       for row in [CSV_HEADER] + [dataclasses.astuple(r) for r in records])
    buffer = io.StringIO(newline="")
    emit_csv(records, buffer)
    assert buffer.getvalue() == expected
    assert expected.endswith(f'"well ""a,b""\nrow",4,4,4,{odd.h:.17g},9,1,{odd.mu:.17g},,,'
                             "0.10000000000000001\r\n")


def test_csv_empty_record_list(tmp_path):
    path = tmp_path / "empty.csv"
    assert write_and_parse([], path) == []
    assert path.read_text().strip() == ",".join(CSV_HEADER)


def test_csv_17_digit_floats(tmp_path):
    mu = 1.0 + np.pi * 1e-7
    record = StudyRecord(method="de", problem="p", n=3, M=3, N=3, h=1.0 / 3.0,
                         size=7, eig_index=1, mu=mu, abs_error=None,
                         succ_error=2.0 ** -40, runtime_ms=0.25)
    back = write_and_parse([record], tmp_path / "one.csv")[0]
    assert back == record
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


def test_balanced_se_study_is_refused_before_any_work(spy):
    # Balanced truncation is a DE mesh; SE has only the symmetric one.
    meshed = spy(study, "se_mesh")
    with pytest.raises(ValueError, match="balanced truncation applies only to the DE method"):
        convergence_study(builtin("laguerre", alpha=3.0), "se", [3, 4], balanced=True)
    assert meshed == []


def test_study_checks_index_before_assembly(spy):
    assembled = spy(study, "assemble")
    # The symmetric DE mesh at n=2 has size 5.
    with pytest.raises(ValueError, match="eigenvalue index 6 exceeds matrix dimension 5"):
        convergence_study(builtin("singular"), "de", [2], eig_indices=(1, 6))
    assert assembled == []


def test_study_checks_index_before_reference(spy):
    # jn_zeros would take time and memory in the index, or overflow.
    looked_up = spy(study, "reference_eigenvalue")
    with pytest.raises(ValueError, match=f"eigenvalue index {10**20} exceeds matrix dimension 5"):
        convergence_study(builtin("bessel"), "de", [2], eig_indices=(10**20,))
    assert looked_up == []


def test_range_past_the_size_budget_is_refused_at_once(spy):
    # Level n has M = N = n on the symmetric DE mesh, so n = 2048 is the
    # first over the budget 4096, however far the range runs past it.
    solved = spy(study, "solve_generalized")
    bessel = builtin("bessel")
    with pytest.raises(ValueError) as raised:
        convergence_study(bessel, "de", range(1, 4097))
    assert str(raised.value) == ("problem='bessel' method='de' n=2048: pencil size 4097 "
                                 "(M=2048, N=2048) exceeds the size budget 4096")
    for n_range in (range(1, 10**20), range(10**20, 0, -1), [10**20, *range(1, 3000)]):
        with pytest.raises(ValueError) as beyond:
            convergence_study(bessel, "de", n_range)
        assert str(beyond.value) == str(raised.value)
    # A stepped range is cut after its first level over the budget, not before it.
    with pytest.raises(ValueError, match="^problem='bessel' method='de' n=3001: pencil size 6003 "):
        convergence_study(bessel, "de", range(1, 10**20, 1000))
    with pytest.raises(ValueError, match="^problem='bessel' method='se' n=2048: pencil size 4097 "):
        compare_methods(bessel, range(1, 10**20))
    assert solved == []


def test_study_meshes_every_level_before_any_solve(spy):
    # (alpha N)^rho overflows from N = 35 on, so only the last level
    # cannot mesh; the error is se_mesh's own, after the level it names.
    problem = parse_problem_config(
        "interval = unit\nmap = se\nq = 48.75/x^2\nrho = 1\nd = 1.5707963267948966\n"
        "alpha_se = 1\nrho_decay_se = 200\n")
    with pytest.raises(ValueError) as direct:
        study.se_mesh(problem.se_profile, 40)
    assembled = spy(study, "assemble")
    solved = spy(study, "solve_generalized")
    with pytest.raises(ValueError) as raised:
        convergence_study(problem, "se", [2, 3, 40])
    assert str(raised.value) == f"problem='custom' method='se' n=40: {direct.value}"
    assert "the SE mesh size at N=40 is not finite" in str(direct.value)
    assert assembled == [] and solved == []


def test_study_checks_every_level_index_before_any_solve(monkeypatch, spy):
    real_mesh = study.de_mesh_symmetric

    def shrinking(profile, n):
        # The last level is smaller than the highest index asks for.
        mesh = real_mesh(profile, n)
        return MeshConfig(h=mesh.h, M=1, N=1) if n == 9 else mesh

    monkeypatch.setattr(study, "de_mesh_symmetric", shrinking)
    solved = spy(study, "solve_generalized")
    with pytest.raises(ValueError) as raised:
        convergence_study(builtin("singular"), "de", [4, 5, 9], eig_indices=(1, 6))
    assert str(raised.value) == ("problem='singular-adapted' method='de' n=9: "
                                 "eigenvalue index 6 exceeds matrix dimension 3")
    assert solved == []


LEVELS = (2, 3, 5, 9, 17, 33, 65, 73, 122, 196, 200)
# Bessel levels end below the first one that fails (ROADMAP item 1):
# SE from n=74, DE balanced from n=123 and DE from n=197.
BESSEL_LAST = {("se", False): 73, ("de", True): 122, ("de", False): 196}


@pytest.mark.xfail(strict=True, raises=StudyError,
                   reason="ROADMAP item 1: the level after BESSEL_LAST does not assemble")
@pytest.mark.parametrize("method,balanced", [("se", False), ("de", False), ("de", True)],
                         ids=["se", "de", "de-balanced"])
def test_bessel_runs_the_level_after_its_last(method, balanced):
    n = BESSEL_LAST[method, balanced] + 1
    records = convergence_study(builtin("bessel", n=7), method, [n], balanced=balanced)
    assert [r.n for r in records] == [n]


@pytest.mark.parametrize("method,balanced", [("se", False), ("de", False), ("de", True)],
                         ids=["se", "de", "de-balanced"])
@pytest.mark.parametrize("name", ["bessel", "laguerre", "singular", "radial-well"])
def test_study_coefficients_match_each_level_alone(monkeypatch, name, method, balanced):
    problem = (parse_problem_config(block("### Problem config files"))
               if name == "radial-well" else builtin(name))
    last = BESSEL_LAST[method, balanced] if name == "bessel" else 200
    evaluations, checked, solved = [], [], []

    def counted_transformed(p, m):
        tp = transformed(p, m)

        def qtilde(t):
            evaluations.append((t.size, len(solved)))
            return tp.qtilde(t)
        return TransformedProblem(qtilde=qtilde, weight=tp.weight)

    def checked_assemble(tp, mesh):
        system = assemble(tp, mesh)
        alone = assemble(transformed(problem, method), mesh)
        assert system.matrix.tobytes() == alone.matrix.tobytes()
        assert system.weights.tobytes() == alone.weights.tobytes()
        checked.append(mesh.size)
        return system

    def no_solve(system, count, near):
        # The systems are what is compared; their spectra follow from them.
        solved.append(system.size)
        return Spectrum(eigenvalues=np.arange(1.0, count + 1.0))

    monkeypatch.setattr(study, "transformed", counted_transformed)
    monkeypatch.setattr(study, "assemble", checked_assemble)
    monkeypatch.setattr(study, "solve_generalized", no_solve)
    ns = [n for n in LEVELS if n <= last]
    records = convergence_study(problem, method, ns, eig_indices=(1, 2, 3), balanced=balanced)
    # Two evaluations: on the nodes of the first ceil(L/2) levels before
    # any solve, and on those of the rest once the first half has solved.
    half = (len(ns) + 1) // 2
    assert evaluations == [(sum(checked[:half]), 0), (sum(checked[half:]), half)]
    assert len(checked) == len(ns) and len(records) == 3 * len(ns)


@pytest.mark.parametrize("method,balanced", [("se", False), ("de", False), ("de", True)],
                         ids=["se", "de", "de-balanced"])
@pytest.mark.parametrize("name", ["bessel", "laguerre", "singular", "radial-well"])
def test_bulk_nodes_and_slices_are_each_level_alone(name, method, balanced):
    problem = (parse_problem_config(block("### Problem config files"))
               if name == "radial-well" else builtin(name))
    plan = study._plan(problem, method, range(2, 61), (1,), balanced)
    served = list(study._level_problems(plan.tp, plan.meshes))
    assert len(served) == len(plan.meshes)
    for tp, mesh in zip(served, plan.meshes):
        nodes = mesh.nodes
        assert tp.qtilde(nodes).tobytes() == plan.tp.qtilde(nodes).tobytes()
        assert tp.weight(nodes).tobytes() == plan.tp.weight(nodes).tobytes()


def test_levels_of_one_size_each_get_their_own_slice():
    # Two meshes of one size, but with different nodes: each level is
    # served its own slice, not the other's.
    tp = transformed(builtin("laguerre", alpha=3.0), "de")
    meshes = [MeshConfig(h=0.5, M=3, N=3), MeshConfig(h=0.25, M=2, N=4)]
    served = [(level.qtilde(mesh.nodes), level.weight(mesh.nodes))
              for level, mesh in zip(study._level_problems(tp, meshes), meshes)]
    assert served[0][0].tobytes() != served[1][0].tobytes()
    for (qvals, wvals), mesh in zip(served, meshes):
        assert qvals.tobytes() == tp.qtilde(mesh.nodes).tobytes()
        assert wvals.tobytes() == tp.weight(mesh.nodes).tobytes()


@pytest.mark.parametrize("series,ns", [
    *(pytest.param(None, range(2, 2 + levels), id=str(levels)) for levels in (1, 2, 5, 6)),
    # The failing problem's last level is the first that fails (conftest.py).
    pytest.param("se", range(19, 23), id="failing-second-half"),
    pytest.param("se", range(21, 24), id="failing-first-half"),
    pytest.param("de-balanced", range(9, 12), id="failing-weight"),
])
def test_study_evaluates_each_half_of_its_levels_once(monkeypatch, failing, series, ns):
    # Laguerre by default.  Each half of the levels is evaluated by one call
    # of qtilde and one of weight on its nodes in a row; when that call
    # raises, each level of the half evaluates its own nodes, so the
    # failing level raises after the levels before it have solved.
    events = []
    real_transformed = study.transformed

    def counted_transformed(p, m):
        tp = real_transformed(p, m)
        return TransformedProblem(
            qtilde=lambda t: events.append(("qtilde", t.size)) or tp.qtilde(t),
            weight=lambda t: events.append(("weight", t.size)) or tp.weight(t))

    real_solve = study.solve_generalized
    monkeypatch.setattr(study, "transformed", counted_transformed)
    monkeypatch.setattr(study, "solve_generalized", lambda system, **kwargs: (
        events.append(("solve", system.size)) or real_solve(system, **kwargs)))
    if series is None:
        records = convergence_study(builtin("laguerre", alpha=3.0), "de", ns)
        sizes, failed = [r.size for r in records], None
    else:
        with pytest.raises(StudyError) as raised:
            failing.study(series, ns)
        sizes = [failing.mesh(series, n).size for n in ns]
        failed = ns.index(raised.value.n)
        q, _ = failing.failures(series, failing.mesh(series, raised.value.n))
    half = (len(ns) + 1) // 2
    expected = []
    for batch in (range(half), range(half, len(ns))):
        calls = [(name, sum(sizes[i] for i in batch)) for name in ("qtilde", "weight")]
        if failed not in batch:
            expected += (calls if batch else []) + [("solve", sizes[i]) for i in batch]
            continue
        # The batch call stops at the first coefficient that fails.
        expected += calls[:1] if q is not None else calls
        for i in batch[:batch.index(failed) + 1]:
            expected += [("qtilde", sizes[i]), ("weight", sizes[i])]
            expected += [("solve", sizes[i])] if i < failed else []
        break
    assert events == expected


@pytest.mark.parametrize("series,ns", [
    ("se", [20, 21, 22]), ("de", [17, 18, 19]), ("de-balanced", [9, 10, 11]),
], ids=["se", "de", "de-balanced"])
def test_failing_level_raises_after_the_levels_before_it(failing, spy, series, ns):
    # The last level is the failing problem's first to fail, by q or by the
    # weight alone; it is the second half, so it evaluates its own nodes.
    method = series[:2]
    assert [failing.failures(series, failing.mesh(series, n)) for n in ns[:-1]] == [
        (None, None)] * (len(ns) - 1)
    q, w = failing.failures(series, failing.mesh(series, ns[-1]))
    assert (q is None) != (w is None)
    k, t, x = q or w
    reason = (f"coefficient q undefined or non-finite at x={x!r}" if q
              else "transformed weight must be positive, got 0.0")
    solved = spy(study, "solve_generalized")
    with pytest.raises(StudyError) as raised:
        failing.study(series, ns)
    assert str(raised.value) == (f"problem='failing' method={method!r} n={ns[-1]}: "
                                 f"{reason} (index k={k}, t={t!r})")
    assert len(solved) == len(ns) - 1


def test_studies_and_direct_solves_are_thread_safe():
    # Threads share one TransformedProblem and run whole studies and
    # direct solves on it at once, with a short switch interval so they
    # interleave; every result must be bitwise what a serial run gives.
    problem = builtin("laguerre", alpha=3.0)
    tp = transformed(problem, "de")
    meshes = [de_mesh(problem.de_profile, n) for n in range(2, 16)]
    assert max(mesh.size for mesh in meshes) < 64

    def direct():
        out = []
        for mesh in meshes:
            system = assemble(tp, mesh)
            out += [system.matrix.tobytes(), system.weights.tobytes(),
                    solve_generalized(system, count=3).eigenvalues.tobytes()]
        return out

    def studies():
        records = (convergence_study(problem, "de", range(2, 16), (1, 2, 3), balanced=True)
                   + convergence_study(problem, "se", range(2, 16))
                   + convergence_study(builtin("singular"), "de", range(2, 16)))
        return [dataclasses.replace(r, runtime_ms=0.0) for r in records]

    jobs = [direct, studies] * 3
    serial = [job() for job in jobs]
    results = [None] * len(jobs)

    def worker(barrier, i):
        barrier.wait(timeout=10)
        results[i] = jobs[i]()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(len(jobs))
        threads = [threading.Thread(target=worker, args=(barrier, i)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == serial


def test_study_refuses_non_integer_levels_and_indices(spy):
    problem = builtin("bessel", n=7)
    solved = spy(study, "solve_generalized")
    with pytest.raises(ValueError, match="^refinement levels must be integers, got 2.5$"):
        convergence_study(problem, "de", [2.5, 3.7], balanced=True)
    with pytest.raises(ValueError, match="^eigenvalue indices must be integers, got 2.0$"):
        convergence_study(problem, "de", [3, 4], eig_indices=(2.0,))
    assert solved == []
    # numpy integers are integers.
    records = convergence_study(problem, "de", np.arange(2, 5), eig_indices=(np.int64(1),))
    plain = convergence_study(problem, "de", [2, 3, 4])
    assert ([dataclasses.replace(r, runtime_ms=0.0) for r in records]
            == [dataclasses.replace(r, runtime_ms=0.0) for r in plain])
    assert [(type(r.n), type(r.eig_index)) for r in records] == [(int, int)] * 3
