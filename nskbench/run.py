"""nskrt benchmark: one workload, timed untraced, optionally traced.

Usage, from the root of a source checkout:

    python3 nskbench/run.py --workload eigen_sweep --seed 0 --seconds 15 --trace 0

The run imports the package from ``src/``, sets the workload up several
times (the median set-up is ``setup_s``), then repeats whole workload
passes until ``--seconds`` have elapsed, checking every output.  With
``--trace 1`` traced passes alternate with the untraced ones, each kind
for ``--seconds``, and give the per-layer metrics; then a child process
repeats the untraced run with ``OPENBLAS_NUM_THREADS=1`` for comparison.  The last line of standard
output is the result object; the line before it is a report with the
environment, the checks and the raw counts, also written under
``nskbench/out/``.  README.md beside this file defines every metric.
"""

from time import perf_counter

T_PROCESS = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit(root: Path):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    return None


def environment(load_at_start) -> dict:
    import scipy

    def blas(show_config):
        try:
            dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}
        except (KeyError, TypeError, AttributeError) as exc:
            return {"error": repr(exc)}

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_numpy": blas(np.show_config),
        "blas_scipy": blas(scipy.show_config),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def timed_passes(wl, ctx, seconds: float, wrappings: list) -> list[dict]:
    """Rounds of one whole pass per wrapping until each had ``seconds``.

    A wrapping is a callable returning the context manager installed around
    its passes.  Interleaving the wrappings pass by pass keeps a slow drift
    of the machine's speed out of the comparison between them.
    """
    results = [{"pass_s": [], "growth_per_pass": [], "ops": [], "modes_swept": 0}
               for _ in wrappings]
    t_start = perf_counter()
    while True:
        for wrapping, res in zip(wrappings, results):
            n_growth, n_modes = len(ctx.growth_s), ctx.modes_swept
            with wrapping():
                t0 = perf_counter()
                ops = wl.run_pass(ctx)
                res["pass_s"].append(perf_counter() - t0)
            res["ops"].extend(ops)
            res["modes_swept"] += ctx.modes_swept - n_modes
            calls = ctx.growth_s[n_growth:]
            if calls:
                res["growth_per_pass"].append(statistics.fmean(calls))
        if perf_counter() - t_start >= seconds * len(wrappings):
            return results


def probe_wrapping(wl, spans, nk, passes: list):
    """Only the workload's solver step is wrapped, to time each call.

    Every pass appends its own ``(starts, durations)`` lists to ``passes``,
    so intervals between step starts never span two passes.
    """
    owner, attr = getattr(nk, wl.probe[0]), wl.probe[1]

    def wrapping():
        starts, durations = [], []
        passes.append((starts, durations))
        return spans.patched([(owner, attr,
                               spans.latency_probe(getattr(owner, attr), starts, durations))])
    return wrapping


def percentiles_ms(values, qs=(50, 90)) -> list[float]:
    return [1e3 * float(v) for v in np.percentile(values, qs)]


def trace_wrapping(tracer, spans, nk):
    """Spans around the public functions of every working layer."""
    import scipy.linalg

    targets = [
        (nk.profiles.DensityProfile, "resample", "profiles.resample"),
        (nk.profiles, "check_admissibility", "profiles.check_admissibility"),
        (nk.operators.Grid, "rfft", "operators.fft"),
        (nk.operators.Grid, "irfft", "operators.fft"),
        (nk.threshold, "mode_threshold", "threshold.mode_threshold"),
        (nk.threshold, "compute_kappa_c", "threshold.compute_kappa_c"),
        (nk.growth, "alpha", "growth.alpha"),
        (nk.growth, "compute_growth", "growth.compute_growth"),
        (scipy.linalg, "eigh", "linalg.eigh"),
        (nk.simulator, "step", "simulator.step"),
        (nk.simulator, "init_state", "simulator.init_state"),
        (nk.simulator, "run", "simulator.run"),
        (nk.simulator, "escape_time", "simulator.escape_time"),
        (nk.diagnostics, "record", "diagnostics.record"),
    ]
    return lambda: spans.patched([(owner, attr, tracer.wrap(name, getattr(owner, attr)))
                                  for owner, attr, name in targets])


def layer_metrics(stats: dict, phase: dict, overhead: float) -> dict:
    passes = len(phase["pass_s"])
    wall = sum(phase["pass_s"])
    modes = phase["modes_swept"]

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def own(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls("simulator.step")
    records = calls("diagnostics.record")
    values = {
        "growth.alpha.calls": (calls("growth.alpha") / passes, "count"),
        "growth.eigensolves_per_mode": (
            ratio(calls("growth.alpha@growth.compute_growth"), modes), "count"),
        "growth.compute_growth.self_s": (own("growth.compute_growth") / passes, "s"),
        "linalg.eigh.calls": (calls("linalg.eigh") / passes, "count"),
        "linalg.eigh.ms_per_call": (1e3 * ratio(total("linalg.eigh"), calls("linalg.eigh")), "ms"),
        "threshold.mode_threshold.calls": (calls("threshold.mode_threshold") / passes, "count"),
        "threshold.mode_threshold.s": (total("threshold.mode_threshold") / passes, "s"),
        "operators.fft.calls_per_step": (ratio(calls("operators.fft@simulator.step"), steps), "count"),
        "operators.fft.s": (total("operators.fft") / passes, "s"),
        "operators.fft.share": (total("operators.fft") / wall, "fraction"),
        "simulator.step.calls": (steps / passes, "count"),
        "simulator.step.self_s": (own("simulator.step") / passes, "s"),
        "simulator.init_state.s": (total("simulator.init_state") / passes, "s"),
        "diagnostics.record.calls": (records / passes, "count"),
        "diagnostics.record.ms_per_call": (1e3 * ratio(total("diagnostics.record"), records), "ms"),
        "diagnostics.record.share": (total("diagnostics.record") / wall, "fraction"),
        "profiles.resample.calls_per_record": (
            ratio(calls("profiles.resample@diagnostics.record"), records), "count"),
        "profiles.check_admissibility.calls": (
            calls("profiles.check_admissibility") / passes, "count"),
        "trace.overhead_frac": (overhead, "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def side_pass(args, deadline: float) -> dict:
    """The untraced run again in a child process with one BLAS thread.

    Skipped, or stopped at ``deadline``, so the whole run ends in time.
    """
    remaining = deadline - perf_counter()
    if remaining < 2.0 * args.seconds:
        return {"error": f"skipped: {remaining:.0f} s left before the deadline"}
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        return {"error": "side pass timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    return {"OPENBLAS_NUM_THREADS": "1", "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "nskrt" / "__init__.py").is_file():
        print(f"no nskrt sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True      # the same import work on every run
    sys.path.insert(0, str(ROOT / "src"))
    import nskrt as nk
    t_imported = perf_counter()
    if Path(nk.__file__).resolve().parent != (ROOT / "src" / "nskrt").resolve():
        print(f"imported nskrt from {nk.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)

    setup_reps, setup_growth = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        ctx = wl.setup()
        setup_reps.append(perf_counter() - t0)
        setup_growth.extend(ctx.growth_s)
    import_s = t_imported - T_PROCESS
    setup_s = import_s + statistics.median(setup_reps)
    ctx.growth_s.clear()

    probed: list = []
    wrappings = [probe_wrapping(wl, spans, nk, probed)]
    if args.trace:
        tracer = spans.Tracer()
        wrappings.append(trace_wrapping(tracer, spans, nk))
    phases = timed_passes(wl, ctx, args.seconds, wrappings)
    phase = phases[0]
    wall_s = statistics.median(phase["pass_s"])
    steps = np.concatenate([d for _, d in probed])
    iters = np.concatenate([np.diff(s) for s, _ in probed])
    step_p50, step_p90 = percentiles_ms(steps)
    iter_p50, iter_p90 = percentiles_ms(iters)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "step_ms_p90": (step_p90, "ms"),
        "iter_ms_p90": (iter_p90, "ms"),
        "growth_s": (statistics.median(phase["growth_per_pass"] or setup_growth), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ops = [op for p in phases for op in p["ops"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(load_at_start),
        "import_s": import_s, "setup_reps_s": setup_reps, "setup_growth_s": setup_growth,
        "pass_s": phase["pass_s"], "step_samples": len(steps), "iter_samples": len(iters),
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        # central statistics, steadier only on a quiet machine (README.md)
        "wall_s": wall_s, "step_ms_p50": step_p50, "iter_ms_p50": iter_p50,
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    if args.trace:
        tphase = phases[1]
        stats = tracer.summary()
        overhead = statistics.median(tphase["pass_s"]) / wall_s - 1.0
        metrics = layer_metrics(stats, tphase, overhead)
        report["traced_pass_s"] = tphase["pass_s"]
        report["spans"] = stats
        report["side_pass_blas1"] = side_pass(args, T_PROCESS + 170.0)

    failed = [(name, err) for name, err in ops if err is not None]
    report["attempted"] = len(ops)
    report["failed"] = [f"{name}: {err}" for name, err in failed]
    report["fail_frac"] = len(failed) / len(ops)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    blas_tag = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-blas{blas_tag}"
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write_csv(out / f"{stem}-spans.csv")

    print(json.dumps(report))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
