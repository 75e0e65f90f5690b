"""The shooting oracle, checked on a closed form, then used on ``singular``; the pencil oracle."""

import mpmath
import numpy as np
import pytest

import oracles
import pencil_oracle
from slsolve import assemble, builtin, convergence_study, de_mesh, solve_generalized, transformed


@pytest.fixture(scope="module")
def singular_by_cut():
    # lambda_1, lambda_2, lambda_3 at each cut L
    return {L: oracles.singular_eigenvalues(L) for L in (7.0, 8.0, 9.0)}


def test_oracle_harmonic_oscillator():
    # q = x^2, rho = 1: eigenvalues 1, 3, 5, ...
    for bracket, exact in (((0.5, 1.5), 1.0), ((2.5, 3.5), 3.0)):
        lam = oracles.eigenvalue(lambda x: x * x, lambda x: 1.0, bracket, 8.0)
        assert abs(lam - exact) <= 1e-12


def test_oracle_singular_independent_of_cut(singular_by_cut):
    for values in zip(*singular_by_cut.values()):
        assert max(values) - min(values) <= 1e-13
    assert singular_by_cut[7.0][0] == pytest.approx(0.690888449838, abs=1e-12)


@pytest.mark.parametrize("kappa", [1.0, np.sqrt(0.2)], ids=["plain", "adapted"])
def test_singular_de_matches_oracle(singular_by_cut, kappa):
    records = convergence_study(builtin("singular", kappa=kappa), "de", [40, 50, 60],
                                eig_indices=(1, 2, 3))
    errors = [abs(r.mu - singular_by_cut[8.0][r.eig_index - 1]) for r in records]
    assert max(errors) <= 1e-11, errors


@pytest.mark.parametrize("backend", ["longdouble", "mpmath"])
def test_pencil_oracle_matches_a_50_digit_eigensolve(monkeypatch, backend):
    # A graded Bessel DE pencil: both backends against mpmath's Jacobi
    # eigensolver on D^-1 A D^-1 at 50 digits.  They agree far inside the
    # pencil's rounding floor f, as the longdouble quotient's own rounding,
    # about eps(longdouble) / eps(double) f = 5e-4 f, allows.
    if backend == "longdouble" and pencil_oracle.BACKEND != backend:
        pytest.skip(f"np.longdouble has eps {np.finfo(np.longdouble).eps:.3g}")
    monkeypatch.setattr(pencil_oracle, "BACKEND", backend)
    problem = builtin("bessel", n=7)
    system = assemble(transformed(problem, "de"), de_mesh(problem.de_profile, 5))
    A, w = system.matrix, system.weights
    mu = solve_generalized(system, count=1).eigenvalues[0]
    error, floor = pencil_oracle.error_and_floor(A, w, mu)
    with mpmath.workdps(50):
        d = [mpmath.sqrt(mpmath.mpf(x)) for x in w]
        B = mpmath.matrix([[mpmath.mpf(A[j, k]) / d[j] / d[k] for k in range(w.size)]
                           for j in range(w.size)])
        exact = min(mpmath.eigsy(B, eigvals_only=True))
        assert abs(float(abs(mpmath.mpf(mu) - exact)) - error) <= 1e-3 * floor
