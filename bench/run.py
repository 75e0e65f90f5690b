"""slsolve benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.
Set-up is timed first, in fresh interpreters.  Then one warm pass runs
untimed, and passes repeat until S seconds have passed, with the host's
speed read about once a second from a fixed reference computation
(``speed.py``).  Times are scaled by the run's fastest reference
computation to a reference machine's speed; a pass time is the fastest
pass, scaled.
Every level of every pass is checked against an independent oracle.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics; with ``--trace 1`` traced and untraced passes
alternate and the result carries the per-layer metrics.  The line before
it is a JSON record of the seed, parameters, environment, sample counts,
failure ledger and, in either mode, every metric the run measured.

Exit codes: 0 measured, 2 no package to measure.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import envinfo

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
MIN_PASSES = 3
# Seconds between two measurements of the host's speed during the passes.
SPEED_EVERY_S = 1.0


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    # Metric names and units come from BENCHMARK.json, the benchmark's contract.
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    args = parse_args(argv, spec)
    src = ROOT / "src"
    if not (src / "slsolve" / "__init__.py").is_file():
        print(f"bench: no slsolve package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # BLAS runs on one thread, here and in the set-up probes.
    envinfo.pin_blas_threads()
    heap_kept = envinfo.keep_freed_memory()
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))

    import speed
    import tracing
    import workloads

    reference = speed.Reference()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    reference_s = [reference.measure()]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as workdir:
        probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
        workload.setup(workdir)
        runner = PassRunner(workload, tracing)
        runner.run(traced=False)  # warm-up, not counted
        runner.reset()
        reference_s.append(reference.measure())
        deadline = perf_counter() + args.seconds
        next_speed = perf_counter() + SPEED_EVERY_S
        while True:
            traced = bool(args.trace) and len(runner.untraced) > len(runner.traced)
            runner.run(traced=traced)
            if perf_counter() >= next_speed:
                reference_s.append(reference.measure())
                next_speed = perf_counter() + SPEED_EVERY_S
            enough = len(runner.untraced) >= MIN_PASSES and (not args.trace or len(runner.traced) >= MIN_PASSES)
            if enough and perf_counter() >= deadline:
                break
        reference_s.append(reference.measure())

    scale = speed.scale(reference_s)
    check = runner.tally.summary()
    time_to_tol, reached = runner.tally.time_to_tol(min)
    end_to_end = end_to_end_metrics(runner, probes, check, time_to_tol, scale)
    per_layer = layer_metrics(runner, probes, scale) if args.trace else {}
    walls = [p["wall"] for p in runner.untraced]
    tail = tail_percentile(len(walls))
    record = {
        "workload": args.workload, "seed": args.seed, "params": workload.params,
        "seconds": args.seconds, "trace": args.trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "env": envinfo.describe(), "child_blas_threads": probes[0]["blas_threads"],
        "heap_kept": heap_kept, "scale": scale,
        "reference_s": {"machine": speed.REFERENCE_S, "measured": reference_s},
        "samples": {"setup": len(probes), "untraced_passes": len(runner.untraced),
                    "traced_passes": len(runner.traced)},
        "pass_wall_s": {"min": min(walls), "median": statistics.median(walls),
                        "percentile": tail,
                        "tail": statistics.quantiles(walls, n=100, method="inclusive")[tail - 1]},
        "pass_walls": walls,
        "levels_per_pass": check["attempted"] // (len(runner.untraced) + len(runner.traced)),
        "failed_ratio": check["failed"] / check["attempted"],
        "ledger": check["ledger"],
        "series": check["series"],
        "time_to_tol_reached_n": reached,
        "setup_walls": [p["wall_s"] for p in probes],
        "end_to_end": end_to_end, "per_layer": per_layer,
    }
    print(json.dumps(record, sort_keys=True))
    measured, declared = (per_layer, spec["per_layer"]) if args.trace else (end_to_end, spec["end_to_end"])
    if set(measured) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured metrics {sorted(measured)} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": check["correct"], "attempted": check["attempted"], "failed": check["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def setup_probe(workload, seed):
    """Wall time of a fresh interpreter importing slsolve and building the problems."""
    here = os.path.dirname(os.path.abspath(__file__))
    start = perf_counter()
    done = subprocess.run([sys.executable, os.path.join(here, "child.py"), "setup", workload, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    wall = perf_counter() - start
    return dict(json.loads(done.stdout.strip().splitlines()[-1]), wall_s=wall)


class PassRunner:
    """Runs passes: checks their levels, keeps their walls, work and traces."""

    def __init__(self, workload, tracing):
        self.workload = workload
        self.tracing = tracing
        self.tracer = tracing.Tracer()
        self.reset()

    def reset(self):
        self.tally = self.workload.tally()
        self.untraced = []  # per pass: wall, work
        self.traced = []  # per pass: wall, span deltas, extra facts

    def run(self, traced):
        undo = self.tracing.install(self.tracer) if traced else None
        before = self.tracer.snapshot()
        self.tracer.open("bench.pass")
        try:
            levels, extra = self.workload.run_pass()
        finally:
            wall = self.tracer.close()
            if undo is not None:
                undo()
        self.tally.add(levels, timed=not traced)
        if traced:
            spans = self.tracing.delta(self.tracer.snapshot(), before)
            self.traced.append({"wall": wall, "spans": spans, "extra": extra})
            return
        work = sum(level.size ** 3 for level in levels if level.failure is None)
        self.untraced.append({"wall": wall, "work": work})


def tail_percentile(samples):
    """Highest of p90, p75, p50 with at least ten samples beyond it.

    Below 20 samples none has, and the median (p50) stands in.
    """
    for p in (90, 75):
        if samples * (100 - p) / 100.0 >= 10:
            return p
    return 50


def end_to_end_metrics(runner, probes, check, time_to_tol, scale):
    """Times are scaled to the reference machine by ``scale``."""
    pass_s = min(p["wall"] for p in runner.untraced) * scale
    work = statistics.median(p["work"] for p in runner.untraced)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(p["wall_s"] for p in probes) * scale,
        "pass_s_min": pass_s,
        "time_to_tol_s": time_to_tol * scale,
        "work_rate": work / pass_s,
        "ok_ratio": 1.0 - check["failed"] / check["attempted"],
        "digits_min": check["digits_min"],
        "peak_rss_mb": peak / 1024.0,
    }


def layer_metrics(runner, probes, scale):
    """Times are scaled by ``scale``, as the end-to-end ones are."""
    passes = runner.traced

    def median_of(field, name):
        return statistics.median(p["spans"][field].get(name, 0.0) for p in passes)

    def seconds_of(field, name):
        return median_of(field, name) * scale

    points = sum(p["spans"]["count"].get("maps.points", 0) for p in passes)
    coeff = sum(p["spans"]["total"].get("maps.coeff", 0.0) for p in passes)
    solves = sum(p["spans"]["calls"].get("eigensolve.solve", 0) for p in passes)
    inverted = sum(p["spans"]["count"].get("eigensolve.inverted", 0) for p in passes)
    covered = [p["spans"]["total"]["bench.pass"] - p["spans"]["self"]["bench.pass"] for p in passes]
    untraced = min(p["wall"] for p in runner.untraced)
    traced = min(p["wall"] for p in passes)
    metrics = {
        "maps.coeff_s": seconds_of("total", "maps.coeff"),
        "maps.points": median_of("count", "maps.points"),
        "maps.us_per_point": 1e6 * coeff * scale / points if points else 0.0,
        "problems.q_rho_s": seconds_of("total", "problems.q_rho"),
        "problems.q_rho_calls": median_of("calls", "problems.q_rho"),
        "problems.transform_s": seconds_of("total", "problems.transform"),
        "sinc.diff_matrix_s": seconds_of("total", "sinc.diff_matrix"),
        "sinc.entries": median_of("count", "sinc.entries"),
        "eigensolve.assemble_s": seconds_of("total", "eigensolve.assemble"),
        "eigensolve.assemble_self_s": seconds_of("self", "eigensolve.assemble"),
        "eigensolve.solve_s": seconds_of("total", "eigensolve.solve"),
        "eigensolve.solves": median_of("calls", "eigensolve.solve"),
        "eigensolve.size3_sum": median_of("count", "eigensolve.size3_sum"),
        "eigensolve.inverted_ratio": inverted / solves if solves else 0.0,
        "meshing.mesh_s": seconds_of("total", "meshing.mesh"),
        "meshing.calls": median_of("calls", "meshing.mesh"),
        "study.self_s": seconds_of("self", "study.study"),
        "study.rate_fit_s": seconds_of("total", "study.rate_fit"),
        "study.emit_csv_s": seconds_of("total", "study.emit_csv"),
        "study.csv_bytes": statistics.median(p["extra"].get("csv_bytes", 0) for p in passes),
        "study.records": median_of("count", "study.records"),
        "problems.build_s": statistics.median(p["build_s"] for p in probes) * scale,
        "cli.import_s": statistics.median(p["import_s"] for p in probes) * scale,
        "cli.main_s": seconds_of("total", "cli.main"),
        "trace.overhead": traced / untraced - 1.0,
        "trace.coverage": sum(covered) / sum(p["wall"] for p in passes),
    }
    for name in ("AssemblyError", "DefinitenessError", "SolverError", "other"):
        metrics[f"eigensolve.errors.{name}"] = median_of("count", f"eigensolve.errors.{name}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
