"""Workloads: the jobs of one round, generated from a seed, and their checks.

A job is one ``residue_lab.cli.main`` call (or the Moebius report, which has
no CLI command).  ``make_round`` draws every shape parameter and z-point from
the seed and the round index, so no two jobs of a run share an input and an
in-process cache cannot turn repetitions into hits a CLI user would not get.
``check`` parses a job's output and compares every printed number with an
independent reference from ``oracles``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import oracles

WORKLOADS = ("continuation", "curvature")

# Rows that fail at the commit that defined this benchmark.  They are still
# checked and counted in ``failed`` and ``passed_frac``; ``correct`` only
# turns false on a failure that is not listed here.
#  - torus beta below z = -2 and the finite parts at the poles: the
#    empirical profile's values there depend on its cutoff delta (the
#    z = -3 value moves from -162 to -355 as delta goes 0.1 -> 0.07) and
#    disagree with the smooth-cutoff reference by far more than 1e-2.
#  - Moebius image of the spheroid: the finite-difference graph probe gives
#    R(-8) with relative error 6.9e-4 against the 1e-4 tolerance of the
#    acceptance suite.
KNOWN_FAILURES = frozenset({
    ("beta-torus-one", "beta(-3)"),
    ("beta-torus-one", "finite_part(-2)"),
    ("beta-torus-one", "finite_part(-4)"),
    ("beta-torus-nu", "finite_part(-2)"),
    ("mobius-spheroid", "image R(-8)"),
})

TOL_CURVATURE = 1e-6      # curvature-route numbers, as in the acceptance suite
TOL_EXACT_BETA = 1e-6     # closed-form chord profiles (circle, sphere, ball)
TOL_PROFILE_RESIDUE = 1e-4
TOL_EMPIRICAL_BETA = {True: 1e-3, False: 1e-2}   # keyed by "anchor z >= 0"
TOL_FINITE_PART = 1e-2
TOL_MOBIUS = 1e-4         # verify.py: mobius-spheroid-R(-8)


@dataclass
class Job:
    name: str                 # stable across seeds and rounds
    kind: str                 # beta | residues | gw | sweep | mobius
    argv: list | None         # cli.main arguments without --workers/--out
    params: dict = field(default_factory=dict)


@dataclass
class Row:
    job: str
    label: str
    value: float
    oracle: float
    err: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.err <= self.tol)

    @property
    def known(self) -> bool:
        return (self.job, self.label) in KNOWN_FAILURES

    def as_dict(self) -> dict:
        return {"job": self.job, "label": self.label, "value": self.value,
                "oracle": self.oracle, "err": self.err, "tol": self.tol,
                "pass": self.passed}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _beta_job(name, shape, anchors, rng, weight="one", poles=()):
    """z-points: each anchor moved by up to 0.1 (off every pole), then poles."""
    zs = [a + rng.uniform(-0.1, 0.1) for a in anchors] + [float(p) for p in poles]
    argv = ["--cmd", "beta", "--shape", json.dumps(shape),
            "--z", ",".join(_fmt(z) for z in zs)]
    if weight != "one":
        argv += ["--weight", weight]
    return Job(name, "beta", argv, {"shape": shape, "weight": weight, "zs": zs,
                                    "anchors": list(anchors) + list(poles)})


def make_round(workload: str, seed: int, index: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "continuation":
        t1 = {"kind": "torus", "params": {"R": rng.uniform(1.9, 2.1), "r": 1.0}}
        t2 = {"kind": "torus", "params": {"R": rng.uniform(1.9, 2.1), "r": 1.0}}
        el = {"kind": "ellipse", "params": {"a": 1.0, "b": rng.uniform(0.55, 0.65)}}
        return [
            _beta_job("beta-torus-one", t1, (1.0, 0.0, -0.5, -1.0, -3.0), rng,
                      poles=(-2, -4)),
            _beta_job("beta-torus-nu", t2, (1.0, 0.0), rng, weight="nu", poles=(-2,)),
            _beta_job("beta-ellipse", el, (1.0, 0.0), rng, poles=(-1, -3)),
            _beta_job("beta-sphere2", {"kind": "sphere", "params": {"m": 2, "r": 1.0}},
                      (1.0, 0.0, -0.5, -2.5), rng),
            _beta_job("beta-circle", {"kind": "circle", "params": {"r": 1.0}},
                      (1.0, 0.0, -0.5, -1.5), rng),
            _beta_job("beta-ball3", {"kind": "ball", "params": {"n": 3, "r": 1.0}},
                      (1.0, 0.0, -0.5, -3.5), rng),
        ]
    if workload == "curvature":
        tor = {"kind": "torus", "params": {"R": rng.uniform(1.9, 2.1), "r": 1.0}}
        sp1 = {"kind": "spheroid", "params": {"a": rng.uniform(1.2, 1.8)}}
        sp2 = {"kind": "spheroid", "params": {"a": rng.uniform(1.2, 1.8)}}
        off = rng.uniform(0.0, 0.25)
        avals = [0.5 + off + 0.5 * i for i in range(6)]
        return [
            Job("residues-torus", "residues",
                ["--cmd", "residues", "--shape", json.dumps(tor), "--order", "32"],
                {"shape": tor}),
            Job("residues-spheroid", "residues",
                ["--cmd", "residues", "--shape", json.dumps(sp1)], {"shape": sp1}),
            Job("gw-spheroid", "gw", ["--cmd", "gw", "--shape", json.dumps(sp2)],
                {"shape": sp2}),
            # fixed input: the acceptance suite's Moebius check
            Job("mobius-spheroid", "mobius", None, {"a": math.sqrt(2.0)}),
            # three functionals rebuild the frames at the same nodes, 6 rows
            Job("sweep-spheroid", "sweep",
                ["--cmd", "sweep", "--sweep", f"{_fmt(avals[0])}:{_fmt(avals[-1])}:0.5"],
                {"avals": avals}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_mobius(a: float) -> str:
    """The acceptance suite's Moebius R(-8) check, rendered as report text."""
    from residue_lab import mobius
    from residue_lab.manifold import shapes
    mp = mobius.MobiusMap((mobius.Inversion(center=(0.0, 0.0, 0.0, 0.0, 3.0),
                                            radius=1.0),))
    rep = mobius.invariance_report(shapes.spheroid(a), mp, "residue_m8", order=40,
                                   axis_symmetric=True)
    return f"before {_fmt(rep['before'])}\nafter {_fmt(rep['after'])}\n"


# ---------------------------------------------------------------------------
# output parsing and checks
# ---------------------------------------------------------------------------

def _rel(job, label, value, oracle, tol, scale=None) -> Row:
    scale = abs(oracle) if scale is None else scale
    err = abs(value - oracle) / max(scale, 1e-300)
    return Row(job, label, complex(value).real, complex(oracle).real, float(err), tol)


def _anchor(z: float) -> str:
    return format(float(z), "g")


def _check_beta(job: Job, text: str) -> list[Row]:
    from residue_lab import oracles as closed
    lines = text.strip().splitlines()
    if lines[0] != "z,re_value,im_value,method,note" or len(lines) - 1 != len(job.params["zs"]):
        raise ValueError(f"unexpected beta output header or row count: {lines[:2]}")
    shape, p = job.params["shape"], job.params["shape"]["params"]
    zs, anchors = job.params["zs"], job.params["anchors"]
    kind = shape["kind"]
    if kind == "torus":
        ref = oracles.torus_beta(p["R"], p["r"], zs, job.params["weight"])
        res = dict(zip((-2, -4), oracles.torus_residues(p["R"], p["r"], job.params["weight"])))
        scale = (oracles.torus_area(p["R"], p["r"]) ** 2
                 if job.params["weight"] == "nu" else None)
    elif kind == "ellipse":
        ref = oracles.ellipse_beta(p["a"], p["b"], zs)
        res = dict(zip((-1, -3), oracles.ellipse_residues(p["a"], p["b"])))
        scale = None
    elif kind == "sphere":
        ref = [closed.beta_sphere(p["m"] + 1, z) for z in zs]
    elif kind == "circle":
        ref = [closed.beta_sphere(2, z) for z in zs]
    elif kind == "ball":
        ref = [closed.beta_ball(p["n"], z) for z in zs]
    else:
        raise ValueError(kind)
    rows = []
    for line, z, anchor, oracle in zip(lines[1:], zs, anchors, ref):
        zt, re_v, im_v, _method, note = line.split(",", 4)
        if float(zt) != z:
            raise ValueError(f"row z {zt} does not match the requested {z!r}")
        value = complex(float(re_v), float(im_v))
        tag = _anchor(anchor)
        if note.startswith("pole@"):
            fp = float(note.split("finite_part=")[1])
            rows.append(_rel(job.name, f"residue({tag})", value.real, res[int(anchor)],
                             TOL_PROFILE_RESIDUE))
            rows.append(_rel(job.name, f"finite_part({tag})", fp, oracle, TOL_FINITE_PART))
        elif kind in ("torus", "ellipse"):
            rows.append(_rel(job.name, f"beta({tag})", value, oracle,
                             TOL_EMPIRICAL_BETA[anchor >= 0],
                             None if scale is None else max(abs(oracle), scale)))
        else:
            rows.append(_rel(job.name, f"beta({tag})", value, complex(oracle),
                             TOL_EXACT_BETA))
    return rows


def _pairs(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, _, rest = line.partition(" ")
        out[key] = rest
    return out


def _check_residues(job: Job, text: str) -> list[Row]:
    lines = text.strip().splitlines()
    if lines[0] != "RESIDUE-REPORT 1":
        raise ValueError("missing RESIDUE-REPORT header")
    meta, residues = {}, {}
    for line in lines[1:]:
        tok = line.split()
        if tok[0] == "meta":
            meta[tok[1]] = tok[2]
        elif tok[0] == "residue":
            residues[int(float(tok[1]))] = float(tok[2])
    p = job.params["shape"]["params"]
    n = job.name
    if job.params["shape"]["kind"] == "torus":
        r2, r4 = oracles.torus_residues(p["R"], p["r"])
        return [_rel(n, "R(-2)", residues[-2], r2, TOL_CURVATURE),
                _rel(n, "R(-4)", residues[-4], r4, TOL_CURVATURE)]
    ref = oracles.spheroid_values(p["a"])
    unit = max(abs(ref["r8"]), 1.0)
    return [_rel(n, "R(-4)", residues[-4], ref["r4"], TOL_CURVATURE),
            _rel(n, "R(-6)", residues[-6], ref["r6"], TOL_CURVATURE),
            _rel(n, "R(-8)", residues[-8], ref["r8"], TOL_CURVATURE, unit),
            _rel(n, "R(-8) raw", float(meta["r8_raw"]), ref["r8"], TOL_CURVATURE, unit),
            _rel(n, "R_nu(-8)", float(meta["r8_nu"]), ref["r8_nu"], TOL_CURVATURE),
            _rel(n, "R_nu(-8) raw", float(meta["r8_nu_raw"]), ref["r8_nu"],
                 TOL_CURVATURE)]


def _check_gw(job: Job, text: str) -> list[Row]:
    got = {k: float(v) for k, v in _pairs(text).items()}
    ref = oracles.spheroid_values(job.params["shape"]["params"]["a"])
    n, gw = job.name, ref["gw"]
    return [_rel(n, "gw", got["gw"], gw, TOL_CURVATURE),
            _rel(n, "weyl", got["weyl"], 0.0, TOL_CURVATURE, gw),
            _rel(n, "chern", got["chern"], ref["chern"], TOL_CURVATURE),
            _rel(n, "z_energy", got["z_energy"], ref["z_energy"], TOL_CURVATURE),
            _rel(n, "r8", got["r8"], ref["r8"], TOL_CURVATURE, max(abs(ref["r8"]), 1.0)),
            _rel(n, "r8_nu", got["r8_nu"], ref["r8_nu"], TOL_CURVATURE),
            _rel(n, "identity_residual", got["identity_residual"], 0.0, TOL_CURVATURE, gw)]


def _check_sweep(job: Job, text: str) -> list[Row]:
    lines = text.strip().splitlines()
    avals = job.params["avals"]
    if lines[0] != "a,gw,r8,r8_nu" or len(lines) - 1 != len(avals):
        raise ValueError(f"unexpected sweep output: {lines[:2]}")
    rows = []
    for line, a in zip(lines[1:], avals):
        at, gw, r8, r8nu = (float(t) for t in line.split(","))
        if abs(at - a) > 1e-12:
            raise ValueError(f"sweep row a={at} does not match the requested {a!r}")
        ref = oracles.spheroid_values(at)
        k = f"a{avals.index(a)}"
        rows += [_rel(job.name, f"{k} gw", gw, ref["gw"], TOL_CURVATURE),
                 _rel(job.name, f"{k} r8", r8, ref["r8"], TOL_CURVATURE,
                      max(abs(ref["r8"]), 1.0)),
                 _rel(job.name, f"{k} r8_nu", r8nu, ref["r8_nu"], TOL_CURVATURE)]
    return rows


def _check_mobius(job: Job, text: str) -> list[Row]:
    got = {k: float(v) for k, v in _pairs(text).items()}
    r8 = oracles.spheroid_values(job.params["a"])["r8"]
    return [_rel(job.name, "R(-8)", got["before"], r8, TOL_CURVATURE),
            _rel(job.name, "image R(-8)", got["after"], r8, TOL_MOBIUS)]


_CHECKS = {"beta": _check_beta, "residues": _check_residues, "gw": _check_gw,
           "sweep": _check_sweep, "mobius": _check_mobius}


def check(job: Job, text: str) -> list[Row]:
    """Oracle rows for one job's output; raises ValueError on unparseable text."""
    return _CHECKS[job.kind](job, text)
