"""memfem benchmark: run one workload for a fixed time, check it, print metrics.

Run from the repository root:

    python3 benchmark/run.py --workload beam_paper --seed 1 --seconds 28 --trace 0
    python3 benchmark/run.py --workload all --seconds 28

``--workload all`` runs every workload in a process of its own, one
after another.  A single workload runs in this process, with BLAS and
OpenMP pinned to one thread:

1. set-up: import memfem afresh (numpy and scipy are imported once
   before, and not counted), load the workload's config and build every
   level's mesh, assembly and oracle reference.  It is timed
   ``SETUP_REPEATS - 1`` times, then once more before every run;
2. runs of the workload, each timed from loaded config to checked
   result, until ``--seconds`` is spent (at least one).  With
   ``--trace 1`` untraced and traced runs alternate; the traced ones give
   the per-layer metrics and their spans, the pair gives the tracing
   overhead.

The end-to-end times are medians over set-ups and untraced runs, each
taken at the reference speed of ``reference.py``: a fixed piece of
reference work runs before and after every set-up and run and about
every half second within a run, and each stretch of work between two
probes is divided by their slowdown.  Other tenants of the host slow it
by up to 2x for minutes; memfem's own speed moves these values, the
host's load much less.  The values as measured are printed as well.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Lines before it
give every metric by name with its unit, the sample counts, failed
runs as a fraction of attempted runs, the checks and the environment.
The full record and the spans of the last traced run are written to
``benchmark/out/``.  Without memfem's sources next to the benchmark the
script exits with code 3 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER, Patches, StepperMeter, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 6

# set before numpy is imported: BLAS and OpenMP use one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("dof_steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def import_memfem():
    """Import memfem afresh: drop every memfem module first."""
    for name in [m for m in sys.modules if m.split(".")[0] == "memfem"]:
        del sys.modules[name]
    importlib.import_module("memfem")
    importlib.import_module("memfem.cli")


def set_up(workload, seed: int, out_dir: Path):
    """One timed set-up; returns (seconds, config)."""
    gc.collect()
    start = perf_counter()
    import_memfem()
    cfg = workload.config(seed, out_dir)
    workload.setup(cfg)
    return perf_counter() - start, cfg


def run_once(workload, cfg: dict, meter, tracer=None) -> dict:
    """One checked run; a failure is recorded, not raised."""
    from reference import at_reference_speed

    gc.collect()
    meter.reset()
    patches = Patches()
    meter.install(patches)
    span = (lambda name, fn: fn)
    if tracer is not None:
        tracer.install(patches)
        span = tracer.span
    outcome, error = None, None
    meter.begin()
    start = perf_counter()
    try:
        outcome = workload.run(cfg, span)
    except Exception:  # a failing run is counted and reported, not fatal
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        wall = meter.end()
        patches.undo()
    rec = {"wall_s": wall, "ok": outcome is not None and outcome.ok,
           "run_s": meter.seconds, "dof_steps": meter.dof_steps,
           "checks": outcome.checks if outcome else {},
           "info": outcome.info if outcome else {}, "error": error}
    if meter.probe is not None:
        # the stepping gets the run's mean slowdown
        rec["probes_s"] = meter.probes
        rec["ref_wall_s"] = at_reference_speed(meter.pieces, meter.probes)
        rec["ref_run_s"] = meter.seconds * rec["ref_wall_s"] / wall
    if rec["run_s"] > 0.0:
        rec["dof_steps_per_s"] = meter.dof_steps / rec["run_s"]
        if "ref_run_s" in rec:
            rec["ref_dof_steps_per_s"] = meter.dof_steps / rec["ref_run_s"]
    if tracer is not None:
        rec["layers"] = tracer.metrics(meter)
        rec["origin"] = start
    return rec


def measure(workload, seed: int, out_dir: Path, seconds: float, traced: bool):
    """Set-ups and untraced runs (traced ones in between) for ``seconds``.

    One set-up precedes every run, so set-up samples spread over the
    same window as the runs.  The reference work runs before and after
    every set-up and untraced run, and within the run.  Returns (set-up
    samples as (seconds, at reference speed), untraced runs, traced runs,
    config, the last tracer).
    """
    import numpy  # noqa: F401  third-party imports are not counted
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    from reference import PROBE_EVERY_S, ReferenceWork, at_reference_speed

    probe = ReferenceWork()
    probe()

    def timed_set_up():
        before = probe()
        secs, cfg = set_up(workload, seed, out_dir)
        return (secs, at_reference_speed([secs], [before, probe()])), cfg

    setups = [timed_set_up()[0] for _ in range(SETUP_REPEATS - 1)]
    meter = StepperMeter(probe, PROBE_EVERY_S)
    plain, with_trace = [], []
    tracer = None
    start = perf_counter()
    while True:
        sample, cfg = timed_set_up()
        setups.append(sample)
        plain.append(run_once(workload, cfg, meter))
        if len(plain) == 1:
            # later runs reuse memory the allocator kept, or add to it
            plain[0]["peak_rss_mb"] = peak_rss_mb()
        if traced:
            tracer = Tracer()
            with_trace.append(run_once(workload, cfg, StepperMeter(), tracer))
        cycles = len(plain)
        elapsed = perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            return setups, plain, with_trace, cfg, tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def environment() -> dict:
    """Machine, library versions, thread pinning and the code's identity."""
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "cpu": cpu_model(),
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "threads": {v: os.environ.get(v) for v in THREAD_VARS}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        env["blas"] = None
    env["commit"] = git_commit()
    digest = hashlib.sha256()
    for path in sorted((SRC / "memfem").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    """HEAD's commit read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def run_workload(workload, args) -> int:
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_samples, plain, with_trace, cfg, tracer = measure(
        workload, args.seed, out_dir, args.seconds, bool(args.trace))
    runs = plain + with_trace
    failed = sum(not r["ok"] for r in runs)

    wall = median_of(plain, "wall_s")
    if args.trace:
        traced_wall = median_of(with_trace, "wall_s")
        metrics = {name: median_of([r["layers"] for r in with_trace], name)
                   for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (traced_wall - wall) / wall
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write_csv(OUT / f"{workload.name}-spans.csv",
                         with_trace[-1]["origin"])
    else:
        metrics = {
            "wall_s": median_of(plain, "ref_wall_s"),
            "setup_s": statistics.median(ref for _, ref in setup_samples),
            "dof_steps_per_s": median_of(plain, "ref_dof_steps_per_s"),
            "peak_rss_mb": plain[0]["peak_rss_mb"],
        }
        units = {name: unit for name, unit, _ in END_TO_END}

    samples = {"setup": len(setup_samples), "untraced": len(plain),
               "traced": len(with_trace)}
    env = environment()
    record = {"workload": workload.name, "why": workload.why,
              "seed": args.seed, "seed_used": workload.seeded,
              "seconds": args.seconds, "trace": args.trace,
              "samples": samples, "setup_samples_s": setup_samples,
              "config": cfg, "environment": env,
              "failed_frac": failed / len(runs),
              "metrics": metrics,
              "runs": [{k: v for k, v in r.items() if k != "origin"}
                       for r in runs]}
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed} " + ("-> " + json.dumps(cfg) if workload.seeded
                                  else "(ignored: fixed protocol)"))
    print(f"samples: {samples['setup']} set-ups, {samples['untraced']} "
          f"untraced and {samples['traced']} traced runs")
    probes = [d for r in plain for d in r["probes_s"]]
    print(f"as measured, medians: wall {wall:.6g} s, set-up "
          f"{statistics.median(secs for secs, _ in setup_samples):.6g} s, "
          f"{median_of(plain, 'dof_steps_per_s'):.6g} dof-steps/s; reference "
          f"work {statistics.median(probes):.6g} s ({len(probes)} probes)")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':28s} {failed}/{len(runs)} = "
          f"{failed / len(runs):.6g} ratio")
    for r in runs:
        for check, ok in r["checks"].items():
            if not ok:
                print(f"  check failed: {check}")
    if "csv_sha256" in plain[-1]["info"]:
        print(f"report csv sha256 {plain[-1]['info']['csv_sha256']}")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def run_all(names, args) -> int:
    """Every workload in its own process; one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{metric}": value for metric, value
                                  in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "memfem" / "__init__.py").is_file():
        print(f"memfem sources not found under {SRC}", file=sys.stderr)
        return 3
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    return run_workload(WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
