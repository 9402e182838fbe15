#!/usr/bin/env python3
"""ellreg benchmark: runs the ``ellreg`` CLI the way a user does.

    python3 perfbench/run.py --workload solve-perturbed --seed 1 --seconds 12 --trace 0

Run it from the repository root.  It builds the workload's inputs from the
seed, runs one untimed warm-up pass, then runs passes over the workload's
CLI ops, one subprocess at a time (a closed loop with one client), until
``--seconds`` have passed; each op is timed from spawn to exit and its output
is checked.  With ``--trace 1`` it instead replays the ops in process with
spans around every layer (see ``layers.py``) and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, median, tail percentile and sample count.
A result file with the samples and the run record (git SHA, host, library
versions, BLAS threads, seed) is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# Pin BLAS threads before numpy loads; children inherit the same setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("ELLREG_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from stats import fmt, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3

E2E_UNITS = {"wall_s": "s", "op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def run_record(args) -> dict:
    """Host, library and repository facts that belong with every result."""
    import mpmath
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__, "openblas": openblas,
        "blas_threads": BLAS_THREADS, "ellreg_threads": "unset",
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':34} {'unit':6} {'median':>11} {'tail':>5} {'value':>11} {'n':>5}")
    for name, unit, s in rows:
        print(f"  {name:34} {unit:6} {fmt(s['median']):>11} {s['tail'] or '-':>5} "
              f"{fmt(s['tail_value']):>11} {s['n']:>5}")


def setup(workload: str, seed: int, inputs_dir: Path):
    """Write the seeded inputs SETUP_REPEATS times; returns (paths, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        paths = workloads.write_inputs(workload, seed, inputs_dir)
        times.append(time.perf_counter() - t0)
    return paths, statistics.median(times)


def untraced(args, ops, cli_argv, env, tmp, first_digests, setup_s):
    """Passes over the ops until the time is up; returns (op results, metrics, rows, extra)."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(workloads.run_pass(ops, cli_argv, env, tmp, first_digests))
    samples = {
        "wall_s": [sum(r.wall_s for r in p) for p in passes],
        "op_s": [r.wall_s for p in passes for r in p],
        "peak_rss_mb": [max(r.rss_mb for r in p) for p in passes],
        "setup_s": [setup_s],
    }
    for kind in dict.fromkeys(op.kind for op in ops):  # per subcommand, e.g. solve_s
        samples[f"{kind}_s"] = [r.wall_s for p in passes for r in p if r.kind == kind]
    summary = {k: summarize(v) for k, v in samples.items()}
    metrics = {k: {"value": summary[k]["median"], "unit": u} for k, u in E2E_UNITS.items()}
    rows = [(k, E2E_UNITS.get(k, "s"), s) for k, s in summary.items()]
    extra = {"passes": len(passes), "samples": samples, "summary": summary}
    return [r for p in passes for r in p], metrics, rows, extra


def traced(args, ops, inputs_dir, tmp, first_digests, env, warm_s):
    """In-process replay, input generation, probe and ladder under the tracer,
    then import times; returns (op results, metrics, rows, extra)."""
    import layers

    tracer = layers.Tracer()
    results = []
    tracer.install()
    try:
        with tracer.span("setup"):
            workloads.write_inputs(args.workload, args.seed, inputs_dir)
        for op in ops:
            try:
                code, wall = layers.replay(tracer, op)
            except Exception as exc:  # counted as a failed op; keep going
                results.append(workloads.OpResult(op.name, op.kind, 0.0, 0.0,
                                                  f"{type(exc).__name__}: {exc}"))
                continue
            with tracer.paused():
                error = workloads.verify(op, code, first_digests)
            results.append(workloads.OpResult(op.name, op.kind, wall, 0.0, error))
        results += layers.probe(tracer, args.seed, tmp)
        ladder_failures = layers.ladder(tracer)
    finally:
        tracer.uninstall()
    imports = layers.import_times(sys.executable, env, tmp)
    agg = tracer.aggregate()
    layer = layers.layer_metrics(agg, imports)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    rows = [(k, u, summarize([] if v is None else [v])) for k, (v, u) in layer.items()]
    replay_s = agg.get("cli.main", {}).get("total_s", 0.0)
    extra = {
        "spans": agg, "unwrapped": tracer.unwrapped, "ladder_failures": ladder_failures,
        "trace_overhead": {"untraced_pass_wall_s": warm_s, "traced_cli_main_s": replay_s,
                           "spans_recorded": len(tracer.spans)},
    }
    return results, metrics, rows, extra


def run(args, tmp: Path) -> int:
    env = child_env(tmp)
    cli_argv = [sys.executable, "-m", "ellreg.cli"]
    inputs_dir, out_dir = tmp / "inputs", tmp / "out"
    inputs_dir.mkdir()
    out_dir.mkdir()
    _, _, code = workloads.run_child([*cli_argv, "--help"], env, tmp, tmp / "preflight.log")
    if code != 0:
        fail("`python -m ellreg.cli` does not start:\n" + (tmp / "preflight.log").read_text())
    record = run_record(args)

    inputs, gen_s = setup(args.workload, args.seed, inputs_dir)
    ops = workloads.build_ops(args.workload, inputs, out_dir)
    first_digests = {}
    warm = workloads.run_pass(ops, cli_argv, env, tmp, first_digests)
    warm_s = sum(r.wall_s for r in warm)
    if args.trace == 0:
        results, metrics, rows, extra = untraced(args, ops, cli_argv, env, tmp, first_digests,
                                                 gen_s + warm_s)
    else:
        results, metrics, rows, extra = traced(args, ops, inputs_dir, tmp, first_digests, env,
                                               warm_s)
    checked = warm + results
    failures = [f"{r.name}: {r.error}" for r in checked if r.error]
    rows.append(("fail_frac", "ratio", summarize([len(failures) / len(checked)])))

    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    result = {"record": record, "input_generation_s": gen_s, "warmup_pass_s": warm_s, **extra,
              "attempted": len(checked), "failures": failures, "metrics": metrics}
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")

    print_table(f"{args.workload} seed={args.seed} trace={args.trace} "
                f"blas_threads={BLAS_THREADS} sha={record['git_sha']}", rows)
    for f in failures:
        print(f"  FAILED {f}")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": len(checked),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ellreg" / "cli.py").is_file():
        fail(f"no ellreg sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
