import math
import warnings

import mpmath
import numpy as np
import pytest

from slsolve import (AssemblyError, DefinitenessError, GeneralizedSystem,
                     MeshConfig, assemble, builtin, de_mesh, de_mesh_symmetric,
                     map_catalog, se_mesh, solve_generalized,
                     transform_problem, transformed)
from slsolve import eigensolve
from slsolve.eigensolve import GRADE_LIMIT


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
    with pytest.raises(AssemblyError) as info:
        assemble(tp, MeshConfig(h=0.5, M=4, N=4))
    assert info.value.index == -4
    assert info.value.point == -2.0


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
    mesh = MeshConfig(h=1.0, M=1, N=1)
    with pytest.raises(DefinitenessError):
        solve_generalized(GeneralizedSystem(np.eye(3), np.array([1.0, 0.0, 1.0]), mesh))


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
    # The ungraded route divides A by the products d_j d_k of d = sqrt(w):
    # pin its eigenvalues bit for bit to the plain numpy expression.
    seen = 0
    for problem in (builtin("bessel"), builtin("laguerre"), builtin("singular")):
        tp = transformed(problem, "de")
        for n in (3, 5, 9, 14):
            system = assemble(tp, _level_mesh(problem, "de", n))
            if _is_graded(system):
                continue
            seen += 1
            d = np.sqrt(system.weights)
            reference = np.linalg.eigvalsh(system.matrix / np.outer(d, d))
            for k in (1, 3):
                low = solve_generalized(system, count=k).eigenvalues
                assert np.array_equal(low, reference[:k])
    assert seen >= 8


@pytest.mark.parametrize("name", ["bessel", "laguerre"])
def test_count_on_graded_pencils_matches_the_full_solve(name):
    problem = builtin(name)
    tp = transformed(problem, "de")
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
            assert np.all(np.abs(low - full[:k]) <= 1e-13 * scale)
    assert seen >= 20


@pytest.mark.parametrize("n", [4, 15])
def test_count_bounds(n):
    # n=4 takes the congruence route, n=15 the graded one.
    system = _bessel_system(n)
    with pytest.raises(ValueError):
        solve_generalized(system, count=0)
    full = solve_generalized(system)
    pairs = solve_generalized(system, compute_vectors=True)
    for count in (system.size, system.size + 1):
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


@pytest.mark.parametrize("method,n,kind,index,point", [
    ("se", 80, AssemblyError, -80, -19.869176531592203),
    ("de", 140, DefinitenessError, 247, 5.955348338410549),
    ("de", 200, AssemblyError, -200, -3.6531342977946095),
])
def test_assemble_reports_leftmost_failure(method, n, kind, index, point):
    # The tails of the Bessel mesh do not resolve at these levels; the
    # error names the leftmost failing k, q ahead of w at the same k.
    problem = builtin("bessel", n=7)
    with pytest.raises(AssemblyError) as info:
        assemble(transformed(problem, method), _level_mesh(problem, method, n))
    assert type(info.value) is kind
    assert info.value.index == index
    assert info.value.point == point


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
