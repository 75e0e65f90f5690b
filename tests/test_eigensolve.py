import logging
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special

import oracles
import pencil_oracle
from slsolve import (AssemblyError, DefinitenessError, EvaluationError, GeneralizedSystem,
                     MeshConfig, SolverError, assemble, builtin, convergence_study, de_mesh,
                     de_mesh_symmetric, map_catalog, parse_problem_config, se_mesh,
                     solve_generalized, transform_problem, transformed)
from slsolve import eigensolve
from slsolve.eigensolve import GRADE_LIMIT, WARM_MIN_SIZE, WARM_MIN_SIZE_ONE
from test_readme import block


def charpoly_roots(A, w):
    """Brute-force generalized eigenvalues for dimension <= 3.

    Samples det(A - mu diag(w)) at dim+1 nodes, fits the exact-degree
    polynomial, and returns its sorted real roots.
    """
    dim = A.shape[0]
    nodes = np.linspace(-1.0, 1.0, dim + 1) * (np.abs(A).max() / min(w) + 1.0)
    dets = [np.linalg.det(A - mu * np.diag(w)) for mu in nodes]
    coeffs = np.polyfit(nodes, dets, dim)
    return np.sort(np.roots(coeffs).real)


def test_assemble_one_point_system():
    m = map_catalog("real_line", "DE")
    tp = transform_problem(m, lambda x: 0.0, lambda x: 1.0)
    system = assemble(tp, MeshConfig(h=1.0, M=0, N=0))
    assert system.matrix.shape == (1, 1)
    assert system.matrix[0, 0] == pytest.approx(math.pi**2 / 3.0 - 0.5, abs=1e-14)
    assert system.matrix[0, 0] == pytest.approx(2.7898681336964526, abs=1e-14)
    assert system.weights[0] == pytest.approx(1.0, abs=1e-16)


def test_assemble_dimension_and_symmetry():
    problem = builtin("laguerre", alpha=3.0)
    tp = transformed(problem, "de")
    system = assemble(tp, MeshConfig(h=0.11, M=4, N=7))
    assert system.matrix.shape == (12, 12)
    assert np.max(np.abs(system.matrix - system.matrix.T)) == 0.0


def test_assemble_reports_failing_point():
    m = map_catalog("real_line", "SE")
    tp = transform_problem(m, lambda x: np.log(x), lambda x: 1.0)
    mesh = MeshConfig(h=0.5, M=4, N=4)
    with pytest.raises(AssemblyError) as info:
        assemble(tp, mesh)
    assert info.value.index == -4
    assert info.value.point == -2.0
    # The point is named once; a direct caller of qtilde gets it as t.
    reason = "coefficient q undefined or non-finite at x=-2.0"
    assert str(info.value) == reason + " (index k=-4, t=-2.0)"
    with pytest.raises(EvaluationError) as direct:
        tp.qtilde(mesh.nodes)
    assert str(direct.value) == reason + " (at t=-2.0)"


def _solve_unit_weights(A):
    n = A.shape[0]
    return solve_generalized(GeneralizedSystem(A, np.ones(n), MeshConfig(h=1.0, M=0, N=n - 1)),
                             compute_vectors=True)


def test_standard_solver_examples():
    spectrum = _solve_unit_weights(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    spectrum = _solve_unit_weights(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-14)
    spectrum = _solve_unit_weights(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 3.0], atol=1e-14)


def test_standard_solver_rejects_asymmetric():
    # Both routes refuse a matrix that is not exactly symmetric.
    A = np.array([[2.0, 1.0, 0.0], [5.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    mesh = MeshConfig(h=1.0, M=1, N=1)
    for w, graded in (([1.0, 1.0, 1.0], False), ([1.0, 1e-10, 1e-12], True)):
        assert (max(w) > GRADE_LIMIT * min(w)) == graded
        with pytest.raises(ValueError, match="not symmetric"):
            solve_generalized(GeneralizedSystem(A, np.array(w), mesh))
    with pytest.raises(ValueError, match="shape"):
        solve_generalized(GeneralizedSystem(np.eye(2), np.ones(3), mesh))


@pytest.mark.parametrize("w", [[1.0, 1.0, 1.0], [1.0, 1e-10, 1e-12]], ids=["congruence", "graded"])
def test_solver_names_a_nan_entry_instead_of_asking_for_symmetry(w):
    # A NaN is unequal to itself, so it fails the symmetry check even on
    # the diagonal; symmetrizing cannot mend it.
    A = np.diag([2.0, np.nan, 2.0])
    A[2, 0] = A[0, 2] = np.nan
    with pytest.raises(ValueError, match=r"^matrix A has a NaN entry at row 0, column 2$"):
        solve_generalized(GeneralizedSystem(A, np.array(w), MeshConfig(h=1.0, M=1, N=1)))


def test_standard_solver_residuals():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((40, 40))
    B = 0.5 * (B + B.T)
    spectrum = _solve_unit_weights(B)
    norm = np.linalg.norm(B, "fro")
    for i in range(40):
        z = spectrum.eigenvectors[:, i]
        residual = np.linalg.norm(B @ z - spectrum.eigenvalues[i] * z)
        assert residual <= 1e-10 * norm


def test_generalized_trivial_cases():
    mesh = MeshConfig(h=1.0, M=1, N=1)
    spectrum = solve_generalized(GeneralizedSystem(np.eye(3), np.ones(3), mesh))
    np.testing.assert_allclose(spectrum.eigenvalues, np.ones(3), atol=1e-14)
    spectrum = solve_generalized(GeneralizedSystem(
        np.diag([1.0, 2.0, 3.0]), np.array([1.0, 4.0, 9.0]), mesh))
    np.testing.assert_allclose(spectrum.eigenvalues, [1.0 / 3.0, 0.5, 1.0], atol=1e-14)


def test_generalized_two_by_two_against_characteristic_polynomial():
    # det(A - mu D^2) = 4 mu^2 - 10 mu + 3
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    w = np.array([1.0, 4.0])
    disc = math.sqrt(100.0 - 48.0)
    expected = np.array([(10.0 - disc) / 8.0, (10.0 + disc) / 8.0])
    np.testing.assert_allclose(expected, [0.34861218113400277, 2.1513878188659972], rtol=1e-15)
    mesh = MeshConfig(h=1.0, M=0, N=1)
    spectrum = solve_generalized(GeneralizedSystem(A, w, mesh))
    np.testing.assert_allclose(spectrum.eigenvalues, expected, rtol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_generalized_matches_charpoly_oracle(dim):
    rng = np.random.default_rng(100 + dim)
    mesh = MeshConfig(h=1.0, M=0, N=dim - 1)
    for _ in range(30):
        A = rng.standard_normal((dim, dim))
        A = 0.5 * (A + A.T)
        w = rng.uniform(0.5, 2.0, size=dim)
        spectrum = solve_generalized(GeneralizedSystem(A, w, mesh))
        oracle = charpoly_roots(A, w)
        np.testing.assert_allclose(spectrum.eigenvalues, oracle, rtol=1e-10, atol=1e-10)


def test_generalized_rejects_nonpositive_weight():
    # An exact zero is nonpositive, not non-finite.
    mesh = MeshConfig(h=1.0, M=1, N=1)
    with pytest.raises(DefinitenessError, match="nonpositive weight entry") as info:
        solve_generalized(GeneralizedSystem(np.eye(3), np.array([1.0, 0.0, 1.0]), mesh))
    assert (info.value.index, info.value.point) == (0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kwargs", [{}, {"count": 1}, {"compute_vectors": True}],
                         ids=["whole", "count1", "vectors"])
def test_generalized_rejects_non_finite_weight(bad, kwargs):
    mesh = MeshConfig(h=0.5, M=1, N=1)
    A = np.diag([1.0, 2.0, 3.0]) + 0.1
    w = np.array([1.0, bad, 2.0])
    with pytest.raises(DefinitenessError, match="non-finite weight entry") as info:
        solve_generalized(GeneralizedSystem(A, w, mesh), **kwargs)
    assert (info.value.index, info.value.point) == (0, 0.0)


def test_generalized_names_the_first_bad_weight():
    mesh = MeshConfig(h=0.5, M=1, N=2)
    w = np.array([1.0, -1.0, math.nan, 1.0])
    with pytest.raises(DefinitenessError, match="nonpositive weight entry") as info:
        solve_generalized(GeneralizedSystem(np.eye(4), w, mesh))
    assert (info.value.index, info.value.point) == (0, 0.0)
    w[1] = math.inf
    with pytest.raises(DefinitenessError, match="non-finite weight entry") as info:
        solve_generalized(GeneralizedSystem(np.eye(4), w, mesh))
    assert (info.value.index, info.value.point) == (0, 0.0)


def _bessel_system(n, balanced=True):
    problem = builtin("bessel", n=7)
    tp = transformed(problem, "de")
    mesh = de_mesh(problem.de_profile, n)
    if not balanced:
        mesh = MeshConfig(h=mesh.h, M=n, N=n)
    return assemble(tp, mesh)


def test_scaling_invariance_congruence_route():
    system = _bessel_system(8, balanced=False)
    base = solve_generalized(system).eigenvalues
    scaled = solve_generalized(GeneralizedSystem(
        1e4 * system.matrix, 1e4 * system.weights, system.mesh)).eigenvalues
    np.testing.assert_allclose(scaled, base, rtol=1e-12)


def test_scaling_invariance_graded_route():
    system = _bessel_system(15, balanced=True)
    assert system.weights.max() / system.weights.min() > 1e8
    base = solve_generalized(system).eigenvalues[:6]
    scaled = solve_generalized(GeneralizedSystem(
        1e4 * system.matrix, 1e4 * system.weights, system.mesh)).eigenvalues[:6]
    np.testing.assert_allclose(scaled, base, rtol=1e-12)


@pytest.mark.parametrize("n", [8, 12])
def test_graded_route_against_extended_precision_oracle(n):
    # The same stored pencil, reduced exactly as D^-1 A D^-1 and solved
    # with enough digits to carry the whole weight grading: what remains
    # is the double-precision solver's own rounding error.
    system = _bessel_system(n)
    w = system.weights
    grading = w.max() / w.min()
    assert grading > 1e8
    with mpmath.workdps(int(math.log10(grading)) + 40):
        d = [mpmath.sqrt(mpmath.mpf(float(x))) for x in w]
        B = mpmath.matrix(system.size)
        for j in range(system.size):
            for k in range(system.size):
                B[j, k] = mpmath.mpf(float(system.matrix[j, k])) / (d[j] * d[k])
        oracle = sorted(mpmath.eigsy(B, eigvals_only=True))[:4]
        oracle = np.array([float(x) for x in oracle])
    for count in (None, 4):
        mu = solve_generalized(system, count=count).eigenvalues[:4]
        np.testing.assert_allclose(mu, oracle, rtol=1e-13, atol=0.0)


def test_low_spectrum_real_and_positive():
    for n in (5, 9, 14):
        spectrum = solve_generalized(_bessel_system(n))
        assert spectrum.eigenvalues.dtype.kind == "f"
        assert spectrum.eigenvalues[0] > 0.0
        assert np.all(np.diff(spectrum.eigenvalues) >= 0.0)


def test_generalized_eigenvector_orthogonality():
    system = _bessel_system(15)
    for count in (None, 5):
        spectrum = solve_generalized(system, compute_vectors=True, count=count)
        Z = spectrum.eigenvectors[:, :5]
        gram = Z.T @ (system.weights[:, None] * Z)
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)


def test_generalized_eigenvector_residuals_low_end():
    system = _bessel_system(12)
    spectrum = solve_generalized(system, compute_vectors=True)
    A, w = system.matrix, system.weights
    for i in range(4):
        z = spectrum.eigenvectors[:, i]
        mu = spectrum.eigenvalues[i]
        residual = np.linalg.norm(A @ z - mu * (w * z))
        scale = np.linalg.norm(A @ z) + abs(mu) * np.linalg.norm(w * z)
        assert residual <= 1e-8 * scale


def _is_graded(system):
    return system.weights.max() > GRADE_LIMIT * system.weights.min()


def test_count_on_ungraded_pencils_is_a_slice_of_the_full_solve():
    seen = 0
    for problem in (builtin("bessel"), builtin("laguerre"), builtin("singular")):
        for method in ("se", "de"):
            tp = transformed(problem, method)
            for n in range(2, 61, 7):
                system = assemble(tp, _level_mesh(problem, method, n))
                if _is_graded(system):
                    continue
                seen += 1
                full = solve_generalized(system).eigenvalues
                pairs = solve_generalized(system, compute_vectors=True)
                for k in (1, 2, 3):
                    low = solve_generalized(system, count=k)
                    assert np.array_equal(low.eigenvalues, full[:k])
                    low = solve_generalized(system, compute_vectors=True, count=k)
                    assert np.array_equal(low.eigenvalues, pairs.eigenvalues[:k])
                    assert np.array_equal(low.eigenvectors, pairs.eigenvectors[:, :k])
    assert seen >= 20


def test_congruence_route_rounds_like_the_outer_product():
    # The ungraded route divides A by the products d_j d_k of d = sqrt(w)
    # and calls scipy's ?syevd: pin its eigenvalues, and its eigenvectors
    # scaled by 1/d, bit for bit to numpy's eigvalsh and eigh of the plain
    # numpy expression.  numpy and scipy bundle LAPACK builds of their own,
    # and this is the comparison that pins them to each other.
    seen = 0
    for problem in (builtin("bessel"), builtin("laguerre"), builtin("singular")):
        tp = transformed(problem, "de")
        for n in (3, 5, 9, 14):
            system = assemble(tp, _level_mesh(problem, "de", n))
            if _is_graded(system):
                continue
            seen += 1
            d = np.sqrt(system.weights)
            B = system.matrix / np.outer(d, d)
            reference = np.linalg.eigvalsh(B)
            mu, vectors = np.linalg.eigh(B)
            for k in (1, 3):
                low = solve_generalized(system, count=k).eigenvalues
                assert np.array_equal(low, reference[:k])
                pairs = solve_generalized(system, compute_vectors=True, count=k)
                assert np.array_equal(pairs.eigenvalues, mu[:k])
                assert np.array_equal(pairs.eigenvectors, vectors[:, :k] / d[:, None])
    assert seen >= 8


@pytest.mark.parametrize("name", ["bessel", "laguerre"])
def test_count_on_graded_pencils_matches_the_full_solve(name):
    # Where the count solve and the whole-spectrum solve part by more than
    # 1e-13, the whole spectrum is not taken as truth: the count solve must
    # then lie strictly closer to the problem's exact eigenvalue.
    problem = builtin(name)
    tp = transformed(problem, "de")
    exact = np.array([problem.reference(k) for k in (1, 2, 3)])
    seen = 0
    for n in range(2, 61):
        system = assemble(tp, de_mesh(problem.de_profile, n))
        if not _is_graded(system):
            continue
        seen += 1
        full = solve_generalized(system).eigenvalues
        for k in (1, 2, 3):
            low = solve_generalized(system, count=k).eigenvalues
            assert low.shape == (k,)
            scale = np.maximum(1.0, np.abs(full[:k]))
            near = np.abs(low - full[:k]) <= 1e-13 * scale
            closer = np.abs(low - exact[:k]) < np.abs(full[:k] - exact[:k])
            assert np.all(near | closer), (n, k)
    assert seen >= 20


@pytest.mark.parametrize("n", [4, 15])
def test_count_bounds(n):
    # n=4 takes the congruence route, n=15 the graded one.
    system = _bessel_system(n)
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="count must be an integer >= 1"):
            solve_generalized(system, count=bad)
    full = solve_generalized(system)
    pairs = solve_generalized(system, compute_vectors=True)
    for count in (system.size, system.size + 1, np.int64(system.size)):
        spectrum = solve_generalized(system, count=count)
        assert np.array_equal(spectrum.eigenvalues, full.eigenvalues)
        spectrum = solve_generalized(system, compute_vectors=True, count=count)
        assert np.array_equal(spectrum.eigenvalues, pairs.eigenvalues)
        assert np.array_equal(spectrum.eigenvectors, pairs.eigenvectors)


@pytest.mark.parametrize("vectors", [False, True])
def test_full_graded_solve_is_bitwise_the_whole_spectrum_call(monkeypatch, vectors):
    # The full solve asks ?sygvx for the index range 1..n, where LAPACK
    # takes its all-eigenvalue path: each call must equal range="A".
    sygvx = eigensolve._sygvx
    calls = []

    def both_ranges(a, b, **kwargs):
        whole = {k: v for k, v in kwargs.items() if k not in ("range", "il", "iu")}
        theta, V, m, _, info = sygvx(a.copy(order="F"), b.copy(order="F"), range="A", **whole)
        result = sygvx(a, b, **kwargs)
        assert (result[2], result[4]) == (m, info)
        assert np.array_equal(result[0][:m], theta[:m])
        if vectors:
            assert np.array_equal(result[1][:, :m], V[:, :m])
        calls.append(m)
        return result

    monkeypatch.setattr(eigensolve, "_sygvx", both_ranges)
    for problem in (builtin("bessel"), builtin("laguerre"), builtin("singular", kappa=1.0)):
        for method in ("se", "de"):
            tp = transformed(problem, method)
            for n in range(2, 61, 6):
                system = assemble(tp, _level_mesh(problem, method, n))
                if _is_graded(system):
                    solve_generalized(system, compute_vectors=vectors)
    assert len(calls) >= 20


def _level_mesh(problem, method, n):
    if method == "se":
        return se_mesh(problem.se_profile, n)
    profile = problem.de_profile
    if profile.beta_left != profile.beta_right or profile.gamma_left != profile.gamma_right:
        return de_mesh(profile, n)
    return de_mesh_symmetric(profile, n)


@pytest.mark.parametrize("series,n,kind,fails", [
    ("se", 40, AssemblyError, "q"),
    ("de-balanced", 15, DefinitenessError, "weight"),
    ("de-balanced", 40, AssemblyError, "q left of weight"),
    ("de-balanced", 100, AssemblyError, "q and weight at one k"),
], ids=["se-q", "de-balanced-weight", "de-balanced-q-left-of-weight", "de-balanced-tie"])
def test_assemble_reports_leftmost_failure(failing, series, n, kind, fails):
    # The error names the leftmost failing k, q ahead of w at the same k;
    # where q and w fail follows from the failing problem's formula.
    mesh = failing.mesh(series, n)
    q, w = failing.failures(series, mesh)
    assert fails == ("q" if w is None else "weight" if q is None
                     else "q left of weight" if q[0] < w[0]
                     else "q and weight at one k" if q[0] == w[0] else "weight left of q")
    with pytest.raises(AssemblyError) as info:
        assemble(transformed(failing.problem, series[:2]), mesh)
    assert type(info.value) is kind
    k, t, _ = q if kind is AssemblyError else w
    assert (info.value.index, info.value.point) == (k, t)


@pytest.mark.parametrize("name", ["bessel", "laguerre", "singular"])
@pytest.mark.parametrize("method", ["se", "de"])
def test_builtin_levels_solve_or_raise_typed_error_without_warnings(name, method):
    problem = builtin(name)
    tp = transformed(problem, method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(20, 201, 20):
            try:
                system = assemble(tp, _level_mesh(problem, method, n))
            except AssemblyError:
                continue
            assert np.isfinite(solve_generalized(system).eigenvalues[0])


# -- warm-started levels ------------------------------------------------------

def _warm_level(name="bessel", n=30, count=3):
    """A balanced DE pencil of size >= WARM_MIN_SIZE and its dense lowest eigenvalues."""
    problem = builtin(name)
    system = assemble(transformed(problem, "de"), de_mesh(problem.de_profile, n))
    assert system.size >= WARM_MIN_SIZE
    return system, solve_generalized(system, count=count).eigenvalues


def test_warm_start_refines_to_the_dense_eigenvalues(caplog):
    system, mu = _warm_level()
    for guess in (mu, mu * (1.0 + 1e-10)):
        with caplog.at_level(logging.DEBUG, logger="slsolve"):
            warm = solve_generalized(system, count=3, near=(guess, np.zeros(3))).eigenvalues
        assert caplog.records == []  # served by the warm route, no fallback
        assert not np.array_equal(warm, mu)
        np.testing.assert_allclose(warm, mu, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("cause,index,guess", [
    # Eigenvalue 1, from below by a Cholesky factor.  mu_2's value given
    # for mu_1: mu_1 lies below s = mu_2 - delta, so A - s D^2 is indefinite
    ("not positive definite", 1, lambda mu: mu[1]),
    # a shift half the gap below mu_1: each solve divides the error by
    # about 9, too little to stagnate in 4 solves
    ("no stagnation after 4 solves", 1, lambda mu: mu[0] - (mu[1] - mu[0]) / 2),
    # a guess just below mu_1: the iteration finds mu_1, above g_1 + delta
    ("outside", 1, lambda mu: mu[0] - 1e-4),
    # Eigenvalue 2, from above by a Bunch-Kaufman factor.  mu_3's value
    # given for mu_2: three eigenvalues lie below the shift
    ("3 eigenvalues below the shift", 2, lambda mu: mu[2]),
    # a shift halfway between mu_2 and mu_3: no stagnation in 4 solves
    ("no stagnation after 4 solves", 2, lambda mu: (mu[1] + mu[2]) / 2),
    # a shift just below mu_3: the iteration finds mu_3, above the shift
    ("outside", 2, lambda mu: mu[2] - 1e-4),
], ids=["definiteness", "stagnation-from-below", "bracket-from-below",
        "inertia", "stagnation", "bracket"])
def test_wrong_near_falls_back_to_the_dense_result_bit_for_bit(caplog, cause, index, guess):
    system, mu = _warm_level(count=3)
    near = ([*mu[:index - 1], guess(mu)], [0.0] * index)
    with caplog.at_level(logging.DEBUG, logger="slsolve"):
        spectrum = solve_generalized(system, count=index, near=near)
    assert np.array_equal(spectrum.eigenvalues, mu[:index])
    assert [r.name for r in caplog.records] == ["slsolve.eigensolve"]
    message = caplog.records[0].getMessage()
    assert message.startswith(f"size {system.size}: warm start falls back")
    assert cause in message and f"eigenvalue {index}" in message


@pytest.mark.parametrize("A,w,count,mu,rtol,atol,message", [
    # s = min A_kk / w_k = 1 leaves A + s D^2 indefinite; s = 10 does not,
    # and neither does A + (s/2) D^2.  det(A - mu D^2) = 1e-10 mu^2 -
    # (1 + 1e-10) mu - 3: roots -3e10 / mu_2 and about 1e10 + 4.
    ([[1.0, 2.0], [2.0, 1.0]], [1.0, 1e-10], None, [-3e10 / (1e10 + 4)], 1e-12, 0.0,
     "size 2: A + s D^2 with s = 1 has a leading minor of order 2 that is not positive "
     "definite; solving with s = 10"),
    # min A_kk / w_k = -1 is no shift, so the route searches the decades
    # above |tr A| / sum(w) * 1e-6 = 2e-6 for the first whose half makes
    # A + (s/2) D^2 positive definite: mu_1 is about -1.005, so s = 20 is
    # that decade.  The two lowest eigenvalues of D^-1 A D^-1 in 50-digit
    # mpmath.
    ([[-1.0, 0.1, 0.0], [0.1, 2.0, 0.1], [0.0, 0.1, 3.0]], [1.0, 1e-9, 1.0], 2,
     [-1.0050062499877157, 2.9950062499827657], 1e-14, 0.0,
     "size 3: min A_kk / w_k = -1 is no shift; solving with s = 20"),
    # min A_kk / w_k = 0 = mu_1 is no shift, and A + s D^2 is positive
    # definite for every s > 0: a search from the smallest normal double
    # would take s near 1e-307 and clamp mu_2 and mu_3 to about 2e-291.
    # From |tr A| / sum(w) * 1e-6 = 1.5e-6 it takes the next decade.
    ([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], [1e-9, 1.0, 1.0], 3, [0.0, 1.0, 2.0],
     0.0, 1e-12, "size 3: min A_kk / w_k = 0 is no shift; solving with s = 1.5e-05"),
    # det(A - mu D^2) = 1e-10 mu^2 - 1, up to the diagonal's 1e-290: mu =
    # -+1e5.  The search starts at |tr A| / sum(w) * 1e-6 + tiny, the
    # smallest normal double, or at min A_kk / w_k = 1e-300; Gershgorin's
    # bound 2e5 is below the first decade whose half is a definite shift,
    # so the solve takes it.
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, 1e-10], 2, [-1e5, 1e5], 1e-10, 0.0,
     "size 2: min A_kk / w_k = 0 is no shift; solving with s = 200000"),
    ([[1e-300, 1.0], [1.0, 1e-300]], [1.0, 1e-10], 2, [-1e5, 1e5], 1e-10, 0.0,
     "size 2: A + s D^2 with s = 1e-300 has a leading minor of order 2 that is not positive "
     "definite; solving with s = 200000"),
    # Gershgorin's bound reads 2e50 from the row of weight 1, whose
    # coupling to the weight 1e-100 is 1e50 after scaling, but
    # mu_1 = -1 - 1e100 / 1e100 = -2 wants only s > 4 for the margin, so
    # the solve takes the decade 10.2225 above |tr A| / sum(w) * 1e-6 + tiny
    # = 1.02225e-306.
    ([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 1.0]], [1e300, 1.0, 1e-100], 1, [-2.0],
     1e-10, 0.0, "size 3: min A_kk / w_k = -1 is no shift; solving with s = 10.2225"),
    # -1 / 1e-10 = -1e10 is no shift, and the trace 0 leaves the search at
    # the smallest normal double.  No decade below Gershgorin's bound 2e10
    # makes -1 + (s/2) 1e-10 positive, so the solve takes the bound; each
    # shift past 1.8e8 overflows s * 1e300 to an infinite diagonal entry,
    # without a warning.
    ([[-1.0, 0.0], [0.0, 1.0]], [1e-10, 1e300], 1, [-1e10], 1e-12, 0.0,
     "size 2: min A_kk / w_k = -1e+10 is no shift; solving with s = 2e+10"),
], ids=["indefinite-first-shift", "trace-floor", "zero-eigenvalue", "zero-diagonal",
        "tiny-diagonal", "far-bound", "overflowing-weight"])
def test_graded_route_shift_search(caplog, A, w, count, mu, rtol, atol, message):
    # When min A_kk / w_k is no definite shift, one search finds one and
    # logs what failed and the shift taken.
    system = GeneralizedSystem(np.array(A), np.array(w), MeshConfig(h=1.0, M=len(w) - 2, N=1))
    with caplog.at_level(logging.DEBUG, logger="slsolve"):
        spectrum = solve_generalized(system, count=count)
    np.testing.assert_allclose(spectrum.eigenvalues[:len(mu)], mu, rtol=rtol, atol=atol)
    assert [r.getMessage() for r in caplog.records] == [message]


def test_graded_retry_costs_one_more_sygvx_and_a_bisection(spy):
    # mu_1 is about -399, so the decades s = 10 and 100 above the first
    # shift min A_kk / w_k = 1 are indefinite as well; 1000 is the first
    # whose half is a definite shift.  The decades up to Gershgorin's bound,
    # about 4e6, are bisected by Cholesky factorizations, not solved.
    A = np.array([[1.0, 20.0], [20.0, 1.0]])
    w = np.array([1.0, 1e-10])
    sygvx, potrf = spy(eigensolve, "_sygvx"), spy(eigensolve, "_potrf")
    mu = solve_generalized(GeneralizedSystem(A, w, MeshConfig(h=1.0, M=0, N=1)), count=1)
    # det(A - mu D^2) = 1e-10 mu^2 - (1 + 1e-10) mu - 399: mu_1 = -399e10 / mu_2.
    mu_2 = (1.0 + 1e-10 + math.sqrt((1.0 + 1e-10) ** 2 + 4e-10 * 399.0)) / 2e-10
    assert mu.eigenvalues[0] == pytest.approx(-399e10 / mu_2, rel=1e-12)
    decades = math.ceil(math.log10(2.0 * (20.0 / math.sqrt(1e-10) - 1.0)))
    assert len(sygvx) == 2
    assert len(potrf) <= math.ceil(math.log2(decades)) + 1


def test_near_is_ignored_for_vectors_and_small_pencils():
    system, mu = _warm_level()
    pairs = solve_generalized(system, compute_vectors=True, count=3)
    warm = solve_generalized(system, compute_vectors=True, count=3, near=(mu, np.zeros(3)))
    assert np.array_equal(warm.eigenvalues, pairs.eigenvalues)
    assert np.array_equal(warm.eigenvectors, pairs.eigenvectors)
    small = _bessel_system(15)
    assert small.size < WARM_MIN_SIZE
    dense = solve_generalized(small, count=2).eigenvalues
    assert np.array_equal(solve_generalized(small, count=2, near=(dense, [0.0, 0.0])).eigenvalues,
                          dense)
    # One wanted eigenvalue is served warm from a smaller size, but not below it.
    tiny = _bessel_system(8, balanced=False)
    assert tiny.size < WARM_MIN_SIZE_ONE
    dense = solve_generalized(tiny, count=1).eigenvalues
    assert np.array_equal(solve_generalized(tiny, count=1, near=(dense, [0.0])).eigenvalues,
                          dense)


def test_near_must_hold_count_values():
    system, mu = _warm_level()
    with pytest.raises(ValueError, match="near must hold 3"):
        solve_generalized(system, count=3, near=(mu[:2], np.zeros(2)))


@pytest.mark.parametrize("system,vectors", [
    (lambda: _bessel_system(4, balanced=False), False),
    (lambda: _warm_level()[0], True),
], ids=["small-pencil", "vectors"])
def test_malformed_near_is_refused_where_a_well_formed_one_is_ignored(system, vectors):
    system = system()
    assert vectors or system.size < WARM_MIN_SIZE_ONE
    with pytest.raises(ValueError, match="^near must hold 1 eigenvalues and moves, got 3 and 1$"):
        solve_generalized(system, compute_vectors=vectors, count=1,
                          near=([1.0, 2.0, 3.0], [0.0]))


def _without_warm_route(monkeypatch):
    for name in ("WARM_MIN_SIZE", "WARM_MIN_SIZE_ONE"):
        monkeypatch.setattr(eigensolve, name, math.inf)


def _warm_and_dense_errors(monkeypatch, problem, ns, indices, balanced, reference):
    """Max |mu - reference| over the levels the warm route serves, warm then dense."""
    errors = []
    for warm in (True, False):
        if not warm:
            _without_warm_route(monkeypatch)
        records = convergence_study(problem, "de", ns, indices, balanced=balanced)
        # From size WARM_MIN_SIZE: below it the Bessel study has not
        # converged (1.5e-11 at n = 8, size 33), and the largest error is
        # the discretization's on either route.
        warm_served = [r for r in records if r.n >= min(ns) + 2 and r.size >= WARM_MIN_SIZE]
        errors.append(max(abs(r.mu - reference[r.eig_index - 1]) for r in warm_served))
    return errors


@pytest.mark.parametrize("name,ns,indices,balanced,reference", [
    ("singular", range(32, 121), (1, 2, 3), False, oracles.singular_eigenvalues),
    ("bessel", range(2, 41), (1,), True, lambda: scipy.special.jn_zeros(7, 3) ** 2),
    ("laguerre", range(2, 61), (1, 2, 3), True, lambda: (0.0, 1.0, 2.0)),
], ids=["singular", "bessel", "laguerre"])
def test_warm_route_is_no_less_accurate_than_the_dense_route(monkeypatch, name, ns, indices,
                                                             balanced, reference):
    # The acceptance studies (and singular up to size 241) against independent
    # references: shooting, Bessel zeros, and k - 1.
    warm, dense = _warm_and_dense_errors(monkeypatch, builtin(name), ns, indices, balanced,
                                         reference())
    assert warm <= dense, (warm, dense)
    assert dense <= 1e-11


# The adapted singular problem as a config file.
SINGULAR_CONFIG = """\
name = singular-config
interval = realline
map = de
kappa = 0.4472135954999579
q = x^2 + tanh(x)/log(x^2+1.1)
rho = 1/(x^2+cos(x))
d = 0.7853981633974483
beta_l = 0.025
beta_r = 0.025
gamma_l = 2
gamma_r = 2
"""
# Largest |mu - mu_exact| / f of a warm eigenvalue, against the pencil's
# own eigenvalue.  A sweep of 419 warm eigenvalues (the grid's studies
# over their whole ranges, with singular-config SE, radial-well SE and DE
# balanced, and singular DE with three eigenvalues) read at most 0.34 f.
FLOOR_UNITS = 1.0


@pytest.mark.parametrize("problem,ns,indices,balanced,levels", [
    (lambda: parse_problem_config(SINGULAR_CONFIG), range(2, 49), (1,), False, 5),
    (lambda: builtin("bessel", n=7), range(2, 41), (1,), True, 3),
    (lambda: builtin("laguerre", alpha=3.0), range(2, 61), (1, 2, 3), True, 2),
    (lambda: parse_problem_config(block("### Problem config files")), range(2, 21), (1,), False,
     3),
], ids=["singular-config", "bessel", "laguerre", "radial-well"])
def test_warm_eigenvalues_lie_within_the_pencil_floor(spy, problem, ns, indices, balanced,
                                                      levels):
    # Solver error apart from discretization error: each warm eigenvalue of
    # the last levels of DE studies against the exact eigenvalue of the
    # pencil it was computed from, in units of its rounding floor
    # f = eps |z|^T |A| |z| / z^T D^2 z.
    warm = spy(eigensolve, "_solve_warm")
    convergence_study(problem(), "de", ns, indices, balanced=balanced)
    served = [call for call in warm if call.result is not None][-levels:]
    assert len(served) == levels and warm[-1].result is not None
    for call in served:
        A, w = call.args[:2]
        for mu in call.result.eigenvalues:
            error, floor = pencil_oracle.error_and_floor(A, w, mu)
            assert error <= FLOOR_UNITS * floor, (w.size, mu, error, floor)


def _factorizations_and_dense_solves(spy):
    """The calls to ``_potrf`` and to ``_sytrf``, and those to either dense route in one list."""
    dense = []
    for route in ("_solve_congruence", "_solve_inverted"):
        spy(eigensolve, route, dense)
    return spy(eigensolve, "_potrf"), spy(eigensolve, "_sytrf"), dense


def _sizes(calls):
    return [call.args[0].shape[0] for call in calls]


def test_study_serves_large_levels_warm_without_fallback(spy):
    # A work count, not a timing: every level of the Bessel balanced study,
    # which reads one eigenvalue, from the third on and of size >=
    # WARM_MIN_SIZE_ONE makes one Cholesky factorization of A - s D^2, no
    # Bunch-Kaufman one and no dense solve.
    potrf, sytrf, dense = _factorizations_and_dense_solves(spy)
    records = convergence_study(builtin("bessel", n=7), "de", range(2, 41), balanced=True)
    warm = sum(1 for r in records[2:] if r.size >= WARM_MIN_SIZE_ONE)
    assert warm >= 20
    assert sum(1 for r in records[2:] if WARM_MIN_SIZE_ONE <= r.size < WARM_MIN_SIZE) >= 10
    assert (len(potrf), len(sytrf), len(dense)) == (warm, 0, len(records) - warm)


def test_study_reading_three_eigenvalues_keeps_small_levels_dense(monkeypatch, spy):
    # Each wanted eigenvalue costs its own factorization, so below
    # WARM_MIN_SIZE a three-eigenvalue level is solved dense, bitwise as
    # without the warm route, even where one eigenvalue would be served warm.
    problem, ns = builtin("laguerre", alpha=3.0), range(2, 61)
    potrf, sytrf, dense = _factorizations_and_dense_solves(spy)
    records = convergence_study(problem, "de", ns, (1, 2, 3), balanced=True)
    small = sorted({r.size for r in records if r.size < WARM_MIN_SIZE})
    assert sum(1 for size in small if size >= WARM_MIN_SIZE_ONE) >= 10
    assert min(_sizes(potrf + sytrf)) >= WARM_MIN_SIZE
    assert [size for size in _sizes(dense) if size < WARM_MIN_SIZE] == small
    _without_warm_route(monkeypatch)
    alone = convergence_study(problem, "de", ns, (1, 2, 3), balanced=True)
    assert [r.mu for r in records if r.size < WARM_MIN_SIZE] == \
        [r.mu for r in alone if r.size < WARM_MIN_SIZE]


def test_one_eigenvalue_study_levels_keep_the_generalized_solve_digits():
    # The congruence B = D^-1 A D^-1 loses up to 4.5e-11 of mu_1 on the
    # Bessel DE symmetric levels n = 24..31 (sizes 49-63, grading up to
    # 1e7); served warm from WARM_MIN_SIZE_ONE, a study reading one
    # eigenvalue keeps what ?sygvx gives on the same pencil.
    problem = builtin("bessel", n=7)
    tp = transformed(problem, "de")
    records = convergence_study(problem, "de", range(2, 32))
    checked = 0
    for r in records:
        if r.n < 24:
            continue
        system = assemble(tp, de_mesh_symmetric(problem.de_profile, r.n))
        assert WARM_MIN_SIZE_ONE <= system.size < WARM_MIN_SIZE
        mu = eigensolve._solve_inverted(system.matrix, system.weights, False, 1).eigenvalues[0]
        assert abs(r.mu - mu) <= 1e-13 * abs(mu), (r.n, r.mu, mu)
        checked += 1
    assert checked == 8


def test_warm_factorization_gets_a_blocked_workspace(spy):
    # scipy's default workspace, n, leaves LAPACK the unblocked ?sytf2,
    # two to four times slower at sizes 233-546 with one BLAS thread.
    # Eigenvalues 2 and 3 of each warm level take a Bunch-Kaufman factor.
    sytrf = spy(eigensolve, "_sytrf")
    convergence_study(builtin("bessel", n=7), "de", range(30, 41), (1, 2, 3), balanced=True)
    workspaces = [(n, call.kwargs.get("lwork", n)) for n, call in zip(_sizes(sytrf), sytrf)]
    assert len(workspaces) >= 8
    assert all(lwork >= 2 * n for n, lwork in workspaces), workspaces


def test_study_skips_factorizations_that_cannot_stagnate(monkeypatch, spy, caplog):
    # A work count: Bessel SE with three eigenvalues still moves by 0.1-0.5
    # per level at sizes 65-119, so a shift sits far from its guess against
    # the gap to the nearest other guess and four solves cannot stagnate.
    # Those levels go dense with no factorization, and read as they would
    # without the warm route.
    problem, ns = builtin("bessel", n=7), range(2, 74)
    potrf, sytrf, dense_solves = _factorizations_and_dense_solves(spy)
    with caplog.at_level(logging.DEBUG, logger="slsolve"):
        records = convergence_study(problem, "se", ns, (1, 2, 3))
    unserved = [r.getMessage() for r in caplog.records if "warm start" in r.getMessage()]
    skipped = {int(m.split(":")[0].split()[1]) for m in unserved if "warm start skipped" in m}
    tried = [r.size for r in records[6::3] if r.size >= WARM_MIN_SIZE]
    assert len(skipped) >= 20
    served = len(tried) - len(unserved)
    assert served >= 5
    assert len(dense_solves) == len(ns) - served
    assert len(potrf) + len(sytrf) <= 3 * (len(tried) - len(skipped))
    _without_warm_route(monkeypatch)
    dense = convergence_study(problem, "se", ns, (1, 2, 3))
    assert [r.mu for r in records if r.size in skipped] == \
        [r.mu for r in dense if r.size in skipped]


def test_a_level_falling_back_at_its_highest_eigenvalue_factors_once(spy, caplog):
    # A work count: on Bessel SE with three eigenvalues, the levels of sizes
    # 121-129 stagnate on eigenvalues 1 and 2 but not on eigenvalue 3.
    # Solved from the highest index down, each makes one factorization
    # before it falls back, not three.
    potrf, sytrf, dense = _factorizations_and_dense_solves(spy)
    with caplog.at_level(logging.DEBUG, logger="slsolve"):
        records = convergence_study(builtin("bessel", n=7), "se", range(58, 65), (1, 2, 3))
    sizes = [r.size for r in records[6::3]]
    assert sizes == [121, 123, 125, 127, 129]
    assert [r.getMessage() for r in caplog.records] == [
        f"size {size}: warm start falls back: no stagnation after 4 solves for eigenvalue 3"
        for size in sizes]
    assert (potrf, _sizes(sytrf), len(dense)) == ([], sizes, len(records) // 3)


def test_inertia_counts_one_negative_eigenvalue_per_two_by_two_pivot(spy, caplog):
    # A zero-diagonal tridiagonal A: shifted into the interior of its
    # spectrum the diagonal is too small for 1x1 pivots, so Bunch-Kaufman
    # takes 2x2 ones.  Graded weights break the symmetry under which the
    # ones vector would be orthogonal to the lowest eigenvector.
    n = 64
    A = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    w = np.linspace(1.0, 2.0, n)
    d = np.sqrt(w)
    dense = np.linalg.eigvalsh(A / np.outer(d, d))
    sytrf = spy(eigensolve, "_sytrf")
    system = GeneralizedSystem(A, w, MeshConfig(h=1.0, M=0, N=n - 1))
    with caplog.at_level(logging.DEBUG, logger="slsolve"):
        mu = solve_generalized(system, count=n, near=(dense, np.zeros(n))).eigenvalues
    assert caplog.records == []
    pairs = [np.count_nonzero(call.result[1] < 0) // 2 for call in sytrf]
    # Eigenvalue 1 takes a Cholesky factor, every other one a Bunch-Kaufman factor.
    assert len(pairs) == n - 1 and max(pairs) >= 10
    np.testing.assert_allclose(mu, dense, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("compute_vectors", [False, True])
def test_congruence_route_reports_a_failed_eigensolver(monkeypatch, compute_vectors):
    # info > 0: the eigensolver did not converge.
    monkeypatch.setattr(eigensolve, "_syevd",
                        lambda a, **kwargs: (np.zeros(2), np.zeros((2, 2)), 1))
    system = GeneralizedSystem(np.eye(2), np.ones(2), MeshConfig(h=1.0, M=0, N=1))
    with pytest.raises(SolverError, match=r"^LAPACK syevd failed \(info=1\)$"):
        solve_generalized(system, compute_vectors=compute_vectors)


@pytest.mark.parametrize("A,w,cause", [
    # An infinite coupling makes Gershgorin's bound infinite: no shift
    # makes A + s D^2 positive definite.
    ([[0.0, np.inf], [np.inf, 0.0]], [1.0, 1e-10],
     "overflows, as when q falls to -inf where rho decays"),
    # Every A_kk / w_k overflows, so min A_kk / w_k is no shift and
    # Gershgorin's bound is +inf: the route raises rather than return
    # eigenvalues that overflow.
    ([[1e300, 0.0], [0.0, 1e300]], [1e-10, 1e-300], r"is \+inf: every A_kk / w_k overflows"),
], ids=["infinite-coupling", "overflowing-diagonal"])
def test_graded_route_gives_up_without_a_positive_definite_shift(A, w, cause):
    system = GeneralizedSystem(np.array(A), np.array(w), MeshConfig(h=1.0, M=0, N=1))
    with pytest.raises(SolverError, match=r"^could not find a positive definite shift of "
                                          r"\(A, D\^2\): Gershgorin's lower bound on its "
                                          rf"lowest eigenvalue {cause}$"):
        solve_generalized(system)


def _failing_sygvx(info):
    """A stand-in for ?sygvx that returns ``info`` from every call."""
    return lambda a, b, **kwargs: (np.zeros(2), np.zeros((2, 2)), 0,
                                   np.zeros(2, dtype=np.int32), info)


def test_graded_route_reports_a_failed_sygvx(monkeypatch):
    # info = 1: one eigenvector failed to converge.
    monkeypatch.setattr(eigensolve, "_sygvx", _failing_sygvx(1))
    system = GeneralizedSystem(np.eye(2), np.array([1.0, 1e-10]), MeshConfig(h=1.0, M=0, N=1))
    with pytest.raises(SolverError, match=r"^LAPACK sygvx failed \(info=1\)$"):
        solve_generalized(system)


@pytest.mark.parametrize("info", [1, 2])
def test_graded_route_reports_a_failed_sygvx_without_retrying(monkeypatch, spy, info):
    # 0 < info <= n: eigenvectors failed to converge, which no larger
    # shift mends; only info > n asks for one.
    monkeypatch.setattr(eigensolve, "_sygvx", _failing_sygvx(info))
    calls = spy(eigensolve, "_sygvx")
    system = GeneralizedSystem(np.eye(2), np.array([1.0, 1e-10]), MeshConfig(h=1.0, M=0, N=1))
    with pytest.raises(SolverError, match=rf"^LAPACK sygvx failed \(info={info}\)$"):
        solve_generalized(system)
    assert len(calls) == 1
