"""Independent eigenvalue oracle for whole-line problems: shooting.

Solves -u'' + q u = lambda rho u on the real line by integrating
u'' = (q - lambda rho) u from both ends of [-L, L] to x = 0 with
``scipy.integrate.solve_ivp`` (DOP853), and finds lambda with ``brentq``
as a zero of the normalized Wronskian of the two solutions at 0.  Each
solution starts from WKB decay, u'/u = +-sqrt(q - lambda rho) at -+L;
integrating toward 0 only amplifies the decaying solution, so the error
of that start dies out like exp(-2 int sqrt(q - lambda rho)).

It shares no code with slsolve: no map, no mesh, no collocation.
"""

import functools

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

RTOL = 1e-13


def _shoot(q, rho, lam, start, end):
    """(u, u') at ``end`` of the solution that decays beyond ``start``."""
    def rhs(x, y):
        return [y[1], (q(x) - lam * rho(x)) * y[0]]

    slope = np.sqrt(q(start) - lam * rho(start)) * np.sign(end - start)
    sol = solve_ivp(rhs, (start, end), [1.0, slope], method="DOP853",
                    rtol=RTOL, atol=1e-300)
    if not sol.success:
        raise RuntimeError(f"shooting from x={start} failed: {sol.message}")
    return sol.y[:, -1]


def wronskian(q, rho, lam, L):
    """Normalized Wronskian at 0 of the solutions decaying at -L and at +L.

    It vanishes exactly when lam is an eigenvalue of the problem cut to
    [-L, L] with decay conditions at both ends.
    """
    ul, dul = _shoot(q, rho, lam, -L, 0.0)
    ur, dur = _shoot(q, rho, lam, L, 0.0)
    return (ul * dur - dul * ur) / np.hypot(ul, dul) / np.hypot(ur, dur)


def eigenvalue(q, rho, bracket, L):
    """The eigenvalue in ``bracket`` = (lo, hi), which must hold exactly one."""
    return brentq(lambda lam: wronskian(q, rho, lam, L), *bracket, xtol=1e-15, rtol=1e-15)


def singular_q(x):
    return x * x + np.tanh(x) / np.log(x * x + 1.1)


def singular_rho(x):
    return 1.0 / (x * x + np.cos(x))


# The Wronskian changes sign across each bracket, and each holds one
# eigenvalue: the fourth is near 15.
SINGULAR_BRACKETS = ((0.5, 0.9), (4.5, 5.5), (8.8, 9.7))


@functools.lru_cache(maxsize=None)
def singular_eigenvalues(L=8.0):
    """The three lowest eigenvalues of the builtin ``singular`` problem, by shooting.

    Cached per cut L: each call shoots for about two seconds.
    """
    return tuple(eigenvalue(singular_q, singular_rho, bracket, L) for bracket in SINGULAR_BRACKETS)
