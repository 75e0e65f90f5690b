"""The shooting oracle, checked on a closed form, then used on ``singular``."""

import numpy as np
import pytest

import oracles
from slsolve import builtin, convergence_study


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
