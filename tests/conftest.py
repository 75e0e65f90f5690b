import math
from types import SimpleNamespace

import numpy as np
import pytest

from slsolve import convergence_study, de_mesh, de_mesh_symmetric, parse_problem_config, se_mesh


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name, calls=None)`` records each call of ``owner.name`` in ``calls``.

    It returns ``calls``, a new list by default.  A call is appended, with
    its ``args`` and ``kwargs``, before it runs, so one that raises counts
    too; its ``result`` is set when it returns.
    """
    def install(owner, name, calls=None):
        calls = [] if calls is None else calls
        real = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(call := SimpleNamespace(args=args, kwargs=kwargs))
            call.result = real(*args, **kwargs)
            return call.result

        monkeypatch.setattr(owner, name, recorded)
        return calls
    return install


class FailingProblem:
    """A real-line problem whose levels fail where its formula says.

    ``q = x^2 + sqrt(x + a)`` is undefined left of x = -a.  ``rho`` is
    ``exp(-1e300 (|x| - 2a + ||x| - 2a|))``: the sum in its exponent is 0
    for |x| <= 2a and twice the excess past it, so the weight is phi'^2
    inside and underflows to 0.0 past |x| = 2a.  The SE map is x = t and
    the DE map x = sinh(t), so the weight sample that transforming takes,
    t in [-3, 3], stays within |x| <= sinh(3) < 2a.  The DE right tail
    decays the slower, so the balanced mesh reaches further right than
    left: its levels fail by the weight alone at n = 11..18, and by q from
    n = 19, with the weight at the same leftmost k from n = 94.  The se
    levels fail by q from n = 22, and the symmetric de ones from n = 19.
    """

    a = 6.0
    config = (f"name = failing\ninterval = realline\nmap = de\nparam a = {a}\n"
              "q = x^2 + sqrt(x + a)\nrho = exp(-1e300*(abs(x) - 2*a + abs(abs(x) - 2*a)))\n"
              f"d = {math.pi / 4}\nbeta_l = 0.125\nbeta_r = 0.5\ngamma_l = 2\ngamma_r = 1\n"
              "alpha_se = 0.5\nrho_decay_se = 2\n")

    def __init__(self):
        self.problem = parse_problem_config(self.config)

    def mesh(self, series, n):
        """Level ``n``'s mesh in ``series``: "se", "de" or "de-balanced"."""
        if series == "se":
            return se_mesh(self.problem.se_profile, n)
        mesh_for = de_mesh if series == "de-balanced" else de_mesh_symmetric
        return mesh_for(self.problem.de_profile, n)

    def study(self, series, ns):
        """``convergence_study`` of the levels ``ns`` in ``series``."""
        return convergence_study(self.problem, series[:2], ns, balanced=series == "de-balanced")

    def failures(self, series, mesh):
        """(k, t, x) of the leftmost node where q fails and where the weight fails, or None."""
        t = mesh.nodes
        # The whole array, as assembly maps it, so x is bitwise the reported point.
        x = t if series == "se" else np.sinh(t)

        def leftmost(bad):
            if not bad.any():
                return None
            i = int(np.argmax(bad))
            return i - mesh.M, float(t[i]), float(x[i])
        return leftmost(x < -self.a), leftmost(np.abs(x) > 2 * self.a)


@pytest.fixture(scope="session")
def failing():
    return FailingProblem()
