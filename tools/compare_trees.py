"""Compare the studies of two source trees, record by record.

    python tools/compare_trees.py PARENT CHANGE [--n-max 200]

PARENT and CHANGE are checkouts of this repository.  Each is run in its
own child process, which imports ``slsolve`` from the tree's ``src`` and
runs every series: the builtins and the README's ``radial-well`` config,
each with the methods se, de and de-balanced, over n = 2..n_max, reading
eigenvalue indices (1,) and then (1, 2, 3).  A level that fails is
recorded with its error, and the series restarts after it.  Every record
field is compared except ``runtime_ms``, and so are the ``emit_csv``
bytes of each series with ``runtime_ms`` pinned to 0.  Each problem and
method also has an ``assemble`` series: for every level it builds the
level's mesh, assembles the transformed problem on it, and compares the
SHA-256 of the matrix and of the weight bytes, or the error.  Assembly
makes no BLAS call, so these hashes do not depend on the thread count.
Last come the ``cli`` series: ``slsolve.cli.main`` runs in the child on
bessel, laguerre, singular and the radial-well config file, each with
``--method se``, ``--method de``, ``--method de --balanced`` and
``--compare --rate-fit``, at ``--eig-index`` 1 and 2 over
n = 2..min(n_max, 60), and on seven inputs it must refuse.  Each compares
the exit code, the stdout and stderr lines and the CSV bytes.  The runs
share a temporary working directory, named by relative paths only, and
``time.perf_counter`` is pinned, so neither the tree nor the run time
shows in what they print or write.

The output is ``identical``, or the first differing outcome of each
series that differs; the exit status is 0 or 1.  Both children get one
BLAS thread unless the environment says otherwise, since the rounding of
the larger solves can depend on the thread count.
"""

import argparse
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

METHODS = (("se", False), ("de", False), ("de-balanced", True))
INDEX_SETS = ((1,), (1, 2, 3))
BUILTINS = ("bessel", "laguerre", "singular")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_CONFIG = "radial-well.cfg"
CLI_PROBLEMS = ("bessel", "laguerre", "singular", CLI_CONFIG)
CLI_MODES = (("--method", "se"), ("--method", "de"), ("--method", "de", "--balanced"),
             ("--compare", "--rate-fit"))
CLI_N_MAX = 60
# A real-line operator unbounded below: q falls to -inf where rho = exp(-x)
# decays, so the graded solve finds no shift at n = 6.
UNBOUNDED_CONFIG = "unbounded-below.cfg"
UNBOUNDED = ("interval = realline\nmap = de\nq = (-1.47)*x^2\nrho = exp(-x)\nd = 0.7\n"
             "beta_l = 0.25\nbeta_r = 1\ngamma_l = 1\ngamma_r = 0.5\nalpha_se = 1\n"
             "rho_decay_se = 1\nkappa = 50.5\n")
# A real-line q undefined left of x = 0, which every DE level reaches, so
# the study fails at its first level to assemble and the command exits 3.
EXPLODING_CONFIG = "exploding.cfg"
EXPLODING = ("interval = realline\nmap = de\nq = log(x)\nrho = 1\nd = 0.7853981633974483\n"
             "beta_l = 1\nbeta_r = 1\ngamma_l = 2\ngamma_r = 2\n")
# Inputs the command refuses: a range past the size budget, an index past
# every pencil, a malformed parameter, a missing config file, an
# unwritable output, an operator unbounded below and a coefficient that
# a level cannot evaluate.
CLI_REFUSALS = (
    ("--problem", "bessel", "--method", "de", "--n-min", "2", "--n-max", "5000"),
    ("--problem", "bessel", "--method", "de", "--n-min", "2", "--n-max", "3",
     "--eig-index", "4000000"),
    ("--problem", "bessel", "--param", "n", "--method", "de", "--n-min", "2", "--n-max", "3"),
    ("--problem", "missing.cfg", "--method", "de", "--n-min", "2", "--n-max", "3"),
    ("--problem", "bessel", "--method", "de", "--n-min", "2", "--n-max", "3",
     "--output", "missing/out.csv"),
    ("--problem", UNBOUNDED_CONFIG, "--method", "de", "--balanced", "--n-min", "2",
     "--n-max", "10"),
    ("--problem", EXPLODING_CONFIG, "--method", "de", "--n-min", "2", "--n-max", "3"),
)


def readme_config(tree):
    """The config block under the README's "### Problem config files" heading."""
    text = (Path(tree) / "README.md").read_text()
    rest = text[text.index("\n### Problem config files\n"):]
    start = rest.index("```\n") + len("```\n")
    return rest[start:rest.index("```", start)]


def _failing_level(exc):
    """The level a study error names: a StudyError's ``n``, or the ``n=`` of a plan refusal."""
    n = getattr(exc, "n", None)
    if n is None:
        match = re.search(r"\bn=(\d+): ", str(exc))
        n = int(match.group(1)) if match else None
    return n


def _series(slsolve, problem, method, balanced, indices, lo, hi):
    """The records and errors of levels lo..hi, restarting after each failing level."""
    outcomes = []
    while lo <= hi:
        try:
            outcomes += slsolve.convergence_study(problem, method, range(lo, hi + 1),
                                                  indices, balanced=balanced)
            break
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            n = _failing_level(exc)
            if n is None or not lo <= n <= hi:
                outcomes.append(error)
                break
            # The failure dropped the records of the levels before it.
            outcomes += _series(slsolve, problem, method, balanced, indices, lo, n - 1)
            outcomes.append(error)
            lo = n + 1
    return outcomes


def _assembled(slsolve, problem, method, balanced, n_max):
    """Per level n = 2..n_max: [n, matrix hash, weights hash], or [n, "Type: message"]."""
    if method == "se":
        profile, mesh_for = problem.se_profile, slsolve.se_mesh
    else:
        profile = problem.de_profile
        mesh_for = slsolve.de_mesh if balanced else slsolve.de_mesh_symmetric
    outcomes = []
    for n in range(2, n_max + 1):
        try:
            system = slsolve.assemble(slsolve.transformed(problem, method), mesh_for(profile, n))
        except Exception as exc:
            outcomes.append([n, f"{type(exc).__name__}: {exc}"])
        else:
            outcomes.append([n, *(hashlib.sha256(a.tobytes()).hexdigest()
                                  for a in (system.matrix, system.weights))])
    return outcomes


def _cli_runs(n_max):
    """The argument lists of the ``cli`` series, each with an ``--output``."""
    last = str(min(n_max, CLI_N_MAX))
    runs = [("--problem", problem, *mode, "--eig-index", index, "--n-min", "2", "--n-max", last)
            for problem in CLI_PROBLEMS for mode in CLI_MODES for index in ("1", "2")]
    runs += CLI_REFUSALS
    return [run if "--output" in run else (*run, "--output", "out.csv") for run in runs]


def _cli(n_max, config):
    """{"cli ARGS": (outcomes, csv)}: exit code, stdout and stderr lines, and the CSV written."""
    from slsolve import cli
    result = {}
    here, perf_counter = os.getcwd(), time.perf_counter
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        time.perf_counter = lambda: 0.0
        try:
            Path(CLI_CONFIG).write_text(config)
            Path(UNBOUNDED_CONFIG).write_text(UNBOUNDED)
            Path(EXPLODING_CONFIG).write_text(EXPLODING)
            for argv in _cli_runs(n_max):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        outcomes = [f"exit {cli.main(list(argv))}"]
                    except (Exception, SystemExit) as exc:
                        outcomes = [f"raised {type(exc).__name__}: {exc}"]
                outcomes += [f"stdout: {line}" for line in out.getvalue().splitlines()]
                outcomes += [f"stderr: {line}" for line in err.getvalue().splitlines()]
                csv = Path("out.csv")
                result["cli " + " ".join(argv)] = (
                    outcomes, csv.read_bytes().decode() if csv.exists() else "")
                csv.unlink(missing_ok=True)
        finally:
            time.perf_counter = perf_counter
            os.chdir(here)
    return result


def run_tree(src, n_max, config):
    """{series label: (outcomes, csv)} of the slsolve package under ``src``.

    An outcome is a record's fields other than ``runtime_ms``, each as its
    repr, or an error as "Type: message".  An ``assemble`` series has no
    csv, and one outcome per level; a ``cli`` series has one per exit code
    and printed line.
    """
    sys.path.insert(0, str(src))
    import slsolve
    if Path(slsolve.__file__).resolve().parent != (Path(src) / "slsolve").resolve():
        raise RuntimeError(f"imported slsolve from {slsolve.__file__}, not from {src}")
    problems = [slsolve.builtin(name) for name in BUILTINS]
    problems.append(slsolve.parse_problem_config(config))
    names = [f.name for f in dataclasses.fields(slsolve.StudyRecord) if f.name != "runtime_ms"]
    result = {}
    for problem in problems:
        for label, balanced in METHODS:
            method = label.split("-")[0]
            result[f"{problem.name}/{label}/assemble"] = (
                _assembled(slsolve, problem, method, balanced, n_max), "")
            for indices in INDEX_SETS:
                outcomes = _series(slsolve, problem, method, balanced, indices, 2, n_max)
                records = [dataclasses.replace(r, runtime_ms=0.0) for r in outcomes
                           if not isinstance(r, str)]
                handle = io.StringIO(newline="")
                slsolve.emit_csv(records, handle)
                key = f"{problem.name}/{label}/indices={','.join(map(str, indices))}"
                result[key] = ([o if isinstance(o, str) else [repr(getattr(o, f)) for f in names]
                                for o in outcomes], handle.getvalue())
    result.update(_cli(n_max, config))
    return result


def run_child(tree, n_max, config):
    """``run_tree`` of ``tree``'s ``src`` in a child process, with one BLAS thread by default."""
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env.setdefault(name, "1")
    spec = json.dumps({"src": str(Path(tree, "src").resolve()), "n_max": n_max,
                       "config": config})
    done = subprocess.run([sys.executable, __file__, "--child"], input=spec, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"the child for {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare_trees(parent, change, n_max=200):
    """``compare_runs`` of the two trees, each run on the radial-well config of CHANGE's README."""
    config = readme_config(change)
    return compare_runs(run_child(parent, n_max, config), run_child(change, n_max, config))


def compare_runs(before, after):
    """Lines naming the first difference of each differing series; empty when identical."""
    lines = []
    for key in sorted(set(before) | set(after)):
        if key not in before or key not in after:
            lines.append(f"{key}: only in {'change' if key in after else 'parent'}")
            continue
        (old, old_csv), (new, new_csv) = before[key], after[key]
        for k, (a, b) in enumerate(zip(old, new)):
            if a != b:
                lines.append(f"{key}: outcome {k} differs:\n  parent {a}\n  change {b}")
                break
        else:
            if len(old) != len(new):
                lines.append(f"{key}: {len(old)} outcomes in parent, {len(new)} in change")
            elif old_csv != new_csv:
                pairs = zip(old_csv.splitlines(True), new_csv.splitlines(True))
                row = next((k for k, (a, b) in enumerate(pairs) if a != b), None)
                lines.append(f"{key}: emit_csv differs from line {row + 1}" if row is not None
                             else f"{key}: emit_csv differs in length")
    return lines


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv == ["--child"]:
        spec = json.load(sys.stdin)
        json.dump(run_tree(spec["src"], spec["n_max"], spec["config"]), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent tree")
    parser.add_argument("change", help="checkout of the changed tree")
    parser.add_argument("--n-max", type=int, default=200, help="last level of every series")
    args = parser.parse_args(argv)
    lines = compare_trees(args.parent, args.change, args.n_max)
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
