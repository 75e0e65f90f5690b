"""The benchmark's workloads, their seeded inputs and their oracles.

Every workload is a closed loop: one process runs one pass after
another, and a pass runs its studies or levels one after another.  A
pass returns one ``Level`` per refinement level it attempted, so the
caller can time, check and count them the same way on every workload.

The oracles use no slsolve code: Bessel eigenvalues come from
``scipy.special.jn_zeros``, the others are closed forms or a constant
verified independently of the package.
"""

import contextlib
import csv
import io
import math
import os
import random
import re
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import scipy.special

from slsolve import eigensolve, meshing, problems, study

# Parameters of the north-star studies; seed 0 reproduces them exactly.
NORTH_STAR = {"bessel_order": 7, "alpha": 3.0, "a": 2.5}
# Ranges the other seeds draw from, narrow enough that every seed does
# the same work: the Bessel order is held at 7, because each step of the
# order changes the balanced DE sizes by about 3 % (the work by about 5 %)
# and order 8 adds a twelfth large-n failure; outside [2.85, 3.15] alpha
# moves the level at which a Laguerre DE series first reaches TIME_TO_TOL.
BESSEL_ORDERS = (7,)
ALPHA_RANGE = (2.85, 3.15)
A_RANGE = (2.25, 2.75)

# First eigenvalue of the built-in ``singular`` problem, confirmed by a
# finite-difference computation of the untransformed equation.
SINGULAR_LAMBDA1 = 0.6908884498379
# Error bound for time_to_tol_s, relative to max(1, |lambda|).
TIME_TO_TOL = 1e-10
DE_SERIES = re.compile(r"/de(-balanced)?$")
# Digits are capped at the double-precision unit roundoff, so an exact
# result does not read as infinitely accurate.
MAX_DIGITS = -math.log10(2.0 ** -53)

ADAPTED_KAPPA = 0.4472135954999579

RADIAL_WELL = """\
name = radial-well
interval = halfline
map = de
param a = {a!r}
q = (a^2-1/4)/x^2 + x^2/16
rho = 1
d = 0.7853981633974483
beta_l = {beta_l!r}
beta_r = 0.03125
gamma_l = 1
gamma_r = 2
alpha_se = 1
rho_decay_se = 1
"""

# The built-in adapted singular problem as a config file.  A config
# carries one strip width d, so the SE profile shares the DE one.
SINGULAR_CONFIG = f"""\
name = singular-config
interval = realline
map = de
kappa = {ADAPTED_KAPPA!r}
q = x^2 + tanh(x)/log(x^2+1.1)
rho = 1/(x^2+cos(x))
d = 0.7853981633974483
beta_l = 0.025
beta_r = 0.025
gamma_l = 2
gamma_r = 2
alpha_se = 0.5
rho_decay_se = 2
"""


def draw_params(seed):
    """Problem parameters for ``seed`` and the generator for its level order."""
    rng = random.Random(seed)
    if seed == 0:
        return dict(NORTH_STAR), rng
    return {
        "bessel_order": rng.choice(BESSEL_ORDERS),
        "alpha": round(rng.uniform(*ALPHA_RANGE), 4),
        "a": round(rng.uniform(*A_RANGE), 4),
    }, rng


def oracle(problem_name, params):
    """Independent reference eigenvalue lambda_k as a function of k >= 1."""
    if problem_name == "bessel":
        zeros = scipy.special.jn_zeros(params["bessel_order"], 3)
        return lambda k: float(zeros[k - 1]) ** 2
    if problem_name == "laguerre":
        return lambda k: float(k - 1)
    if problem_name == "radial-well":
        return lambda k: (params["a"] + 1.0) / 2.0 + k - 1.0
    if problem_name in ("singular", "singular-adapted", "singular-config"):
        return lambda k: SINGULAR_LAMBDA1 if k == 1 else None
    raise ValueError(f"no oracle for problem {problem_name!r}")


def relative_error(mu, ref):
    return abs(mu - ref) / max(1.0, abs(ref))


@dataclass
class Level:
    """One refinement level of one series, as attempted in one pass."""

    series: str
    problem: str
    method: str
    n: int
    size: int = 0
    seconds: Optional[float] = None  # assemble + solve
    eigenvalues: dict = field(default_factory=dict)  # k -> mu
    failure: Optional[dict] = None  # type, message, index, point


@dataclass
class Check:
    """The tolerance a series must meet from level ``n_from`` on.

    Each is set about ten times or more above the largest error seen over
    the parameter ranges, at levels where the method has converged: DE
    series to rounding level, SE series to their slower algebraic-rate
    error at that n.
    """

    n_from: int
    tol: float


def _failure(exc):
    return {"type": type(exc).__name__, "message": str(exc)[:300],
            "index": getattr(exc, "index", None), "point": getattr(exc, "point", None)}


def _levels_from_records(series, records):
    by_n = {}
    for r in records:
        level = by_n.setdefault(r.n, Level(series, r.problem, r.method, r.n, r.size,
                                            r.runtime_ms / 1000.0))
        level.eigenvalues[r.eig_index] = r.mu
    return list(by_n.values())


class Workload:
    """Base: seeded parameters, the problems a user builds, one pass."""

    name = ""

    def __init__(self, seed):
        self.params, self.rng = draw_params(seed)
        self._oracles = {}

    def build(self):
        """Construct the workload's problems, as set-up does."""
        raise NotImplementedError

    def setup(self, workdir):
        """Build the problems and fix the seeded order; ``workdir`` takes files."""
        raise NotImplementedError

    def run_pass(self):
        """Run one pass; returns (levels, extra per-pass facts)."""
        raise NotImplementedError

    def worst_error(self, level):
        """Largest relative error over the level's eigenvalues with a reference."""
        ref = self._oracles.get(level.problem)
        if ref is None:
            ref = self._oracles[level.problem] = oracle(level.problem, self.params)
        return max((relative_error(mu, ref(k)) for k, mu in level.eigenvalues.items()
                    if ref(k) is not None), default=None)

    def tally(self):
        return Tally(self)


class Tally:
    """Oracle checks and DE level timings, folded in pass by pass.

    Levels are not kept, so the benchmark's own memory does not grow with
    the number of passes.  A level fails when it raised or when, at or
    beyond its series' ``n_from``, its relative error exceeds the series'
    tolerance.  Failures are gathered in a ledger, one entry per series,
    level and cause, with the number of passes it occurred in.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.misses = 0
        self.ledger, self.series = {}, {}
        self.de_seconds = {}  # (series, n) -> assemble+solve seconds per timed pass
        self.de_worst = {}  # (series, n) -> relative error

    def add(self, levels, timed):
        for level in levels:
            self.attempted += 1
            info = self.series.setdefault(level.series, {"levels": 0, "failed": 0, "digits_min": None})
            info["levels"] += 1
            failure = level.failure
            worst = None if failure else self.workload.worst_error(level)
            if timed and failure is None and level.method == "de":
                key = (level.series, level.n)
                self.de_seconds.setdefault(key, []).append(level.seconds)
                self.de_worst[key] = worst
            check = self.workload.checks.get(level.series)
            if failure is None and check is not None and level.n >= check.n_from:
                digits = MAX_DIGITS if worst == 0.0 else min(MAX_DIGITS, -math.log10(worst))
                if info["digits_min"] is None or digits < info["digits_min"]:
                    info["digits_min"], info["digits_min_n"] = digits, level.n
                if not worst <= check.tol:
                    self.misses += 1
                    failure = {"type": "tolerance", "index": None, "point": None,
                               "message": f"relative error {worst:.3e} > {check.tol:.0e}"}
            if failure is None:
                continue
            self.failed += 1
            info["failed"] += 1
            entry = self.ledger.setdefault((level.series, level.n, failure["type"]), dict(
                failure, series=level.series, problem=level.problem, method=level.method,
                n=level.n, passes=0))
            entry["passes"] += 1

    def time_to_tol(self, estimate):
        """Seconds to reach TIME_TO_TOL, summed over the DE series.

        A series' time is the sum, in ascending n up to its first level
        within TIME_TO_TOL, of ``estimate`` applied to each level's
        assemble+solve seconds over the timed passes.  Also returns the n
        reached per series (None if never).
        """
        total, reached = 0.0, {}
        for name, n in sorted(self.de_seconds):
            if reached.get(name) is not None:
                continue
            reached[name] = None
            total += estimate(self.de_seconds[(name, n)])
            worst = self.de_worst[(name, n)]
            if worst is not None and worst <= TIME_TO_TOL:
                reached[name] = n
        return total, reached

    def summary(self):
        # digits_min reads the DE series only: they sit at rounding level,
        # so it moves with the solver's precision, while an SE series'
        # digits at a given n are its discretization error.
        digits = [info["digits_min"] for name, info in self.series.items()
                  if info["digits_min"] is not None and DE_SERIES.search(name)]
        return {
            "attempted": self.attempted, "failed": self.failed,
            "correct": self.misses == 0 and bool(digits),
            "digits_min": min(digits) if digits else 0.0,
            "ledger": sorted(self.ledger.values(), key=lambda e: (e["series"], e["n"])),
            "series": self.series,
        }


class Acceptance(Workload):
    name = "acceptance"
    checks = {
        "bessel/de-balanced": Check(10, 1e-10),
        "laguerre/de-balanced": Check(30, 1e-10),
        "singular-adapted/de": Check(20, 1e-10),
    }

    def build(self):
        p = self.params
        built = {
            "bessel": problems.builtin("bessel", n=p["bessel_order"]),
            "laguerre": problems.builtin("laguerre", alpha=p["alpha"]),
            "singular-adapted": problems.builtin("singular"),
        }
        for problem in built.values():
            problems.transformed(problem, "de")
        return built

    def setup(self, workdir):
        built = self.build()
        self.studies = [
            ("bessel/de-balanced", built["bessel"], range(2, 41), (1,), True),
            ("laguerre/de-balanced", built["laguerre"], range(2, 61), (1, 2, 3), True),
            ("singular-adapted/de", built["singular-adapted"], range(2, 41), (1,), False),
        ]
        self.rng.shuffle(self.studies)

    def run_pass(self):
        levels, all_records = [], []
        for series, problem, ns, indices, balanced in self.studies:
            try:
                records = study.convergence_study(problem, "de", ns, indices, balanced=balanced)
                study.rate_fit([r for r in records if r.eig_index == 1])
            except (study.StudyError, study.InsufficientDataError) as exc:
                failure = _failure(exc)
                levels += [Level(series, problem.name, "de", n, failure=failure) for n in ns]
                continue
            levels += _levels_from_records(series, records)
            all_records += records
        buffer = io.StringIO()
        study.emit_csv(all_records, buffer)
        return levels, {"csv_bytes": len(buffer.getvalue())}


class LargeN(Workload):
    name = "large-n"
    checks = {
        "bessel/se": Check(40, 1e-3), "bessel/de-balanced": Check(40, 1e-10),
        "laguerre/se": Check(40, 1e-10), "laguerre/de-balanced": Check(40, 1e-10),
        "singular-adapted/se": Check(40, 1e-5), "singular-adapted/de": Check(40, 1e-10),
    }

    def build(self):
        built = {
            "bessel": problems.builtin("bessel", n=self.params["bessel_order"]),
            "laguerre": problems.builtin("laguerre", alpha=self.params["alpha"]),
            "singular-adapted": problems.builtin("singular"),
        }
        for problem in built.values():
            for method in ("se", "de"):
                problems.transformed(problem, method)
        return built

    def setup(self, workdir):
        # Series run in a fixed order, each in ascending n as a study would.
        # The seed does not reorder them: an n = 20 level, which alone sets
        # time_to_tol_s here, runs up to 20 % slower right after a large
        # solve, so a seeded order made that metric depend on the seed.
        self.levels = []
        for problem in self.build().values():
            profile = problem.de_profile
            balanced = (profile.beta_left != profile.beta_right
                        or profile.gamma_left != profile.gamma_right)
            for method in ("se", "de"):
                label = "de-balanced" if method == "de" and balanced else method
                self.levels += [(f"{problem.name}/{label}", problem, method, balanced, n)
                                for n in range(20, 201, 20)]

    def run_pass(self):
        levels = []
        transformed = {}
        for series, problem, method, balanced, n in self.levels:
            level = Level(series, problem.name, method, n)
            levels.append(level)
            try:
                tp = transformed.get(series)
                if tp is None:
                    tp = transformed[series] = problems.transformed(problem, method)
                if method == "se":
                    mesh = meshing.se_mesh(problem.se_profile, n)
                elif balanced:
                    mesh = meshing.de_mesh(problem.de_profile, n)
                else:
                    mesh = meshing.de_mesh_symmetric(problem.de_profile, n)
                level.size = mesh.size
                start = perf_counter()
                spectrum = eigensolve.solve_generalized(eigensolve.assemble(tp, mesh))
                level.seconds = perf_counter() - start
            except Exception as exc:  # one crashing level must not hide the rest
                level.failure = _failure(exc)
                continue
            level.eigenvalues[1] = float(spectrum.eigenvalues[0])
        return levels, {}


class ConfigCompare(Workload):
    """The ``slsolve`` command, run in-process as the console script runs
    it, with ``--compare --rate-fit`` on two config files."""

    name = "config-compare"
    checks = {
        "radial-well/se": Check(45, 1e-8), "radial-well/de": Check(25, 1e-10),
        "radial-well/de-balanced": Check(25, 1e-10),
        "singular-config/se": Check(40, 1e-3), "singular-config/de": Check(20, 1e-10),
    }
    # Series labels in the order compare_methods returns them.
    labels = {"radial-well": ["se", "de", "de-balanced"], "singular-config": ["se", "de"]}

    def configs(self):
        a = self.params["a"]
        return {"radial-well": RADIAL_WELL.format(a=a, beta_l=a / 2.0),
                "singular-config": SINGULAR_CONFIG}

    def build(self):
        built = [problems.parse_problem_config(text) for text in self.configs().values()]
        for problem in built:
            for method in ("se", "de"):
                problems.transformed(problem, method)
        return built

    def setup(self, workdir):
        self.build()
        self.runs = []
        for name, text in self.configs().items():
            path = os.path.join(workdir, f"{name}.cfg")
            with open(path, "w") as handle:
                handle.write(text)
            argv = ["--problem", path, "--compare", "--rate-fit", "--n-min", "2", "--n-max", "60"]
            self.runs.append((name, argv, os.path.join(workdir, f"{name}.csv")))
        self.rng.shuffle(self.runs)

    def run_pass(self):
        import slsolve.cli

        levels, csv_bytes = [], 0
        for name, argv, csv_path in self.runs:
            if os.path.exists(csv_path):
                os.remove(csv_path)
            # The command's console output is kept for the failure ledger.
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = slsolve.cli.main(argv + ["--output", csv_path])
            labels = self.labels[name]
            got = _levels_from_csv(csv_path, labels) if code == 0 else []
            expected = 59 * len(labels)
            if len(got) != expected:
                # A failed command counts every level it was asked for.
                failure = {"type": f"exit {code}, {len(got)} of {expected} rows",
                           "message": out.getvalue()[-300:], "index": None, "point": None}
                levels += [Level(f"{name}/command", name, "", i, failure=failure)
                           for i in range(expected)]
                continue
            levels += got
            csv_bytes += os.path.getsize(csv_path)
        return levels, {"csv_bytes": csv_bytes}


def _levels_from_csv(path, labels):
    """Split the CLI's CSV into series (a new series restarts at a lower n)."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    levels, series_index, last_n = [], 0, None
    for row in rows:
        n = int(row["n"])
        if last_n is not None and n < last_n:
            series_index += 1
        last_n = n
        label = labels[series_index]
        levels.append(Level(f"{row['problem']}/{label}", row["problem"], row["method"], n,
                            int(row["size"]), float(row["runtime_ms"]) / 1000.0,
                            {int(row["eig_index"]): float(row["mu"])}))
    return levels


WORKLOADS = {w.name: w for w in (Acceptance, LargeN, ConfigCompare)}
