"""residue-lab benchmark runner.

    python3 bench/run.py --workload continuation|curvature \
        --seed N --seconds S --trace 0|1

Run from the repository root.  One run is one fresh process: it times the
import of numpy, scipy and residue_lab in child processes (setup_s), then
runs rounds of the workload's jobs back to back (closed loop, one client,
one job in flight) until the measured job time reaches S seconds.  Each job
is a ``residue_lab.cli.main`` call with ``--workers 1`` and ``--out`` set to
a scratch file; its output is parsed and every number compared with an
independent oracle (jobs.py).  With ``--trace 1`` the run instead re-runs
round 0 untraced in a child process, then runs traced rounds with timing
wrappers installed from outside the package (spans.py), checks that every
job's traced output is byte-identical to the untraced one and reports
per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end_to_end metrics of BENCHMARK.json with --trace 0, the
per_layer ones with --trace 1).  The oracle table, job times and run
environment are written to .bench_results/.
"""

from __future__ import annotations

import os
import sys

# Pin every thread pool before numpy loads: one BLAS thread (<= nproc) and
# one pair-accumulation worker; cli.main also writes RESIDUE_LAB_WORKERS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["RESIDUE_LAB_WORKERS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

SETUP_SAMPLES = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import numpy, scipy, scipy.special; "
              "import residue_lab.cli, residue_lab.mobius; print('ready', flush=True)")


def fail(msg: str, code: int = 2):
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(code)


def pin_cpu():
    """Run on the highest-numbered allowed CPU; children inherit it.  On a
    2-CPU machine, CPU 0 also serves interrupts and other processes, and
    timings there spread more."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure_setup() -> float:
    """Median time from spawning a fresh interpreter until the imports are done."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        if line != "ready" or rc != 0:
            fail(f"setup child exited {rc} without becoming ready")
    return statistics.median(samples)


def run_job(job, out_path: Path):
    """(exit code, output text, seconds); exit code -1 on an exception."""
    from residue_lab import cli
    import jobs as J
    t0 = time.perf_counter()
    try:
        if job.kind == "mobius":
            text = J.run_mobius(job.params["a"])
            rc = 0
        else:
            rc = cli.main(job.argv + ["--workers", "1", "--out", str(out_path)])
            text = None
    except Exception:  # a job that raises counts as failed, the run goes on
        traceback.print_exc()
        return -1, "", time.perf_counter() - t0
    secs = time.perf_counter() - t0
    if text is None:
        text = out_path.read_text(encoding="utf-8") if rc == 0 else ""
    return rc, text, secs


def run_round(workload, seed, index, workdir: Path, check=True):
    import jobs as J
    results = []
    for i, job in enumerate(J.make_round(workload, seed, index)):
        rc, text, secs = run_job(job, workdir / f"r{index}-{i}.txt")
        rows, error = [], None
        if check and rc == 0:
            try:
                rows = J.check(job, text)
            except (ValueError, KeyError, IndexError) as exc:
                error = f"unparseable output: {exc}"
        elif rc != 0:
            error = f"exit code {rc}"
        results.append({"job": job.name, "rc": rc, "seconds": secs, "text": text,
                        "rows": rows, "error": error})
    return results


def job_verdict(res) -> tuple[bool, bool]:
    """(failed, failed only on known rows)."""
    bad = [r for r in res["rows"] if not r.passed]
    failed = res["error"] is not None or bool(bad)
    return failed, res["error"] is None and all(r.known for r in bad)


def timed_rounds(workload, seed, seconds, workdir, on_round=None):
    """Rounds back to back until the measured job time reaches ``seconds``
    (at least one round)."""
    rounds, measured = [], 0.0
    while not rounds or measured < seconds:
        rounds.append(run_round(workload, seed, len(rounds), workdir))
        if on_round is not None:
            on_round(rounds[-1])
        measured += sum(r["seconds"] for r in rounds[-1])
    return rounds


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "RESIDUE_LAB_WORKERS": os.environ["RESIDUE_LAB_WORKERS"]}


def summarize(rounds):
    attempted = failed = 0
    correct = True
    table = []
    for rnd in rounds:
        for res in rnd:
            attempted += 1
            bad, only_known = job_verdict(res)
            failed += bad
            correct &= (not bad) or only_known
            entry = {k: res[k] for k in ("job", "rc", "seconds", "error",
                                         "frames_built", "frame_nodes") if k in res}
            entry["rows"] = [r.as_dict() for r in res["rows"]]
            table.append(entry)
    return attempted, failed, correct, table


def print_table(table):
    for entry in table:
        head = f"job {entry['job']} rc={entry['rc']} {entry['seconds']:.3f}s"
        if entry.get("frame_nodes"):
            head += (f" frames={entry['frames_built']} nodes={entry['frame_nodes']}"
                     f" (rebuild ratio {entry['frames_built'] / entry['frame_nodes']:.2f})")
        print(head + (f" ERROR {entry['error']}" if entry["error"] else ""))
        for r in entry["rows"]:
            tag = "PASS" if r["pass"] else "FAIL"
            print(f"  {tag} {r['label']}: value={r['value']:.12g} oracle={r['oracle']:.12g} "
                  f"err={r['err']:.3e} tol={r['tol']:.0e}")


def metric_block(names, values) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {n: {"value": values[n], "unit": units[n]} for n in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", help=argparse.SUPPRESS)  # untraced round-0 child
    args = p.parse_args(argv)
    pin_cpu()

    if not (SRC / "residue_lab" / "cli.py").is_file():
        fail(f"no residue_lab sources under {SRC}; run from a repository checkout")
    import jobs as J
    if args.workload not in J.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(J.WORKLOADS)}")
    sys.path.insert(0, str(SRC))

    if args.reference:
        ref = Path(args.reference)
        rnd = run_round(args.workload, args.seed, 0, ref, check=False)
        (ref / "round0.json").write_text(json.dumps(
            [{"rc": r["rc"], "seconds": r["seconds"], "text": r["text"]} for r in rnd]))
        return 0

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args, workdir)
        else:
            result = untraced_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result["record"], indent=1, default=float))
    print_table(result["record"]["table"])
    print("env " + json.dumps(result["record"]["env"]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


def untraced_run(args, workdir) -> dict:
    setup_s = measure_setup()
    import residue_lab.cli  # noqa: F401  (this process's own import, outside timing)
    import residue_lab.mobius  # noqa: F401
    rounds = timed_rounds(args.workload, args.seed, args.seconds, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, correct, table = summarize(rounds)
    walls = [sum(r["seconds"] for r in rnd) for rnd in rounds]
    values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
              "peak_rss_mb": peak_rss_mb, "passed_frac": 1.0 - failed / attempted}
    record = {"workload": args.workload, "seed": args.seed, "trace": 0,
              "env": environment(), "metrics": values, "round_walls": walls,
              "table": table}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metric_block(list(values), values), "record": record}


def traced_run(args, workdir) -> dict:
    from spans import Tracer
    ref_dir = workdir / "reference"
    ref_dir.mkdir()
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", "0", "--reference", str(ref_dir)],
                           cwd=ROOT, timeout=170)
    if child.returncode != 0:
        fail(f"untraced reference round exited {child.returncode}")
    reference = json.loads((ref_dir / "round0.json").read_text())

    import residue_lab.cli  # noqa: F401
    import residue_lab.mobius  # noqa: F401
    tracer = Tracer()
    tracer.install()
    per_round = []

    def collect(rnd):
        per_round.append(tracer.summary())
        for res, frames in zip(rnd, tracer.jobs):
            res.update(frames)
        tracer.reset()

    try:
        rounds = timed_rounds(args.workload, args.seed, args.seconds, workdir,
                              on_round=collect)
    finally:
        tracer.uninstall()
    identical = all(r["text"] == ref["text"] and r["rc"] == ref["rc"]
                    for r, ref in zip(rounds[0], reference))
    if not identical:
        sys.stderr.write("bench: traced output differs from the untraced reference\n")
    attempted, failed, correct, table = summarize(rounds)
    values = {k: statistics.median(s[k] for s in per_round) for k in per_round[0]}
    values["trace.overhead_s"] = (sum(r["seconds"] for r in rounds[0])
                                  - sum(r["seconds"] for r in reference))
    # per round, so the figures do not grow with the number of rounds run
    values["oracle.worst_err_ratio"] = statistics.median(
        max((r.err / r.tol for res in rnd for r in res["rows"]), default=0.0)
        for rnd in rounds)
    values["oracle.failed_jobs"] = statistics.median(
        sum(job_verdict(res)[0] for res in rnd) for rnd in rounds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": 1,
              "env": environment(), "metrics": values, "per_round": per_round,
              "reference_seconds": [r["seconds"] for r in reference],
              "byte_identical": identical, "table": table}
    return {"correct": correct and identical, "attempted": attempted, "failed": failed,
            "metrics": metric_block(names, values), "record": record}


if __name__ == "__main__":
    sys.exit(main())
