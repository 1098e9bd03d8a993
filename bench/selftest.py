"""Quick self-test of the benchmark (about a minute on 2 CPUs).

    python3 bench/selftest.py

Checks that inputs are a pure function of (workload, seed, round), that two
seeds give different inputs within the ranges where the oracles hold, that
the smooth-cutoff oracles reproduce closed forms, and that every job kind of one seed runs, parses and meets its oracle
(rows listed in jobs.KNOWN_FAILURES may fail).  Exits 1 on any failure.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

import run  # pins the thread environment and sets up the import paths

sys.path.insert(0, str(run.SRC))

import jobs as J  # noqa: E402
import oracles  # noqa: E402


RANGES = {("torus", "R"): (1.9, 2.1), ("ellipse", "b"): (0.55, 0.65),
          ("spheroid", "a"): (1.2, 1.8)}
# leading poles of beta: -m - 2j for closed m-manifolds, -n - j for n-balls
POLES = {"torus": (-2, -4, -6), "sphere": (-2, -4, -6), "ellipse": (-1, -3, -5),
         "circle": (-1, -3, -5), "ball": (-3, -4, -5)}


def input_problems(job) -> list[str]:
    """Inputs outside the ranges where the oracles hold."""
    problems = []
    shape = job.params.get("shape")
    if shape is not None:
        for (kind, key), (lo, hi) in RANGES.items():
            if shape["kind"] == kind and not lo <= shape["params"][key] <= hi:
                problems.append(f"{job.name}: {key}={shape['params'][key]} outside [{lo}, {hi}]")
    for z, anchor in zip(job.params.get("zs", ()), job.params.get("anchors", ())):
        poles = POLES[shape["kind"]]
        if z == anchor and anchor in poles:
            continue
        if abs(z - anchor) > 0.1 or min(abs(z - p) for p in poles) < 0.3:
            problems.append(f"{job.name}: z={z} too far from {anchor} or too near a pole")
    avals = job.params.get("avals")
    if avals is not None and not (len(avals) == 6 and 0.5 <= avals[0] < 0.75):
        problems.append(f"{job.name}: sweep values {avals}")
    return problems


def check_inputs() -> list[str]:
    problems = []
    for w in J.WORKLOADS:
        a, b = J.make_round(w, 1, 0), J.make_round(w, 2, 0)
        if [j.argv for j in a] != [j.argv for j in J.make_round(w, 1, 0)]:
            problems.append(f"{w}: same seed gave different inputs")
        same = [x.name for x, y in zip(a, b) if x.argv == y.argv and x.argv is not None]
        if same:
            problems.append(f"{w}: seeds 1 and 2 gave identical inputs for {same}")
        if [j.argv for j in a] == [j.argv for j in J.make_round(w, 1, 1)]:
            problems.append(f"{w}: rounds 0 and 1 share inputs")
        for job in a + b + J.make_round(w, 2, 1):
            problems += input_problems(job)
    return problems


def check_oracles() -> list[str]:
    """The split oracles against values known in closed form."""
    problems = []
    R = 2.0
    area = oracles.torus_area(R, 1.0)
    one0, = oracles.torus_beta(R, 1.0, [0.0])
    nu0, = oracles.torus_beta(R, 1.0, [0.0], "nu")
    if abs(one0 - area ** 2) > 1e-6 * area ** 2:      # B(0) = Area^2
        problems.append(f"torus B(0) {one0} != Area^2 {area ** 2}")
    if abs(nu0) > 1e-6 * area ** 2:                  # int nu dA = 0
        problems.append(f"torus B_nu(0) {nu0} != 0")
    length = oracles.ellipse_length(1.0, 0.6)
    el0, = oracles.ellipse_beta(1.0, 0.6, [0.0])
    if abs(el0 - length ** 2) > 1e-6 * length ** 2:
        problems.append(f"ellipse B(0) {el0} != L^2 {length ** 2}")
    round_nu = oracles.spheroid_values(1.0)["r8_nu"]
    if abs(round_nu - 2.0 * math.pi ** 4 / 3.0) > 1e-10 * round_nu:
        problems.append(f"spheroid(1) R_nu(-8) {round_nu} != 2 pi^4 / 3")
    return problems


def check_jobs() -> list[str]:
    problems = []
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for w in J.WORKLOADS:
            for res in run.run_round(w, 1, 0, Path(tmp)):
                failed, only_known = run.job_verdict(res)
                print(f"{res['job']}: {len(res['rows'])} rows, {res['seconds']:.2f} s, "
                      f"{'FAIL' if failed else 'ok'}{' (known)' if failed and only_known else ''}")
                if failed and not only_known:
                    bad = [r.label for r in res["rows"] if not r.passed and not r.known]
                    problems.append(f"{res['job']}: {res['error'] or bad}")
                if not res["rows"]:
                    problems.append(f"{res['job']}: no oracle rows")
    return problems


def main() -> int:
    problems = check_inputs() + check_oracles() + check_jobs()
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
