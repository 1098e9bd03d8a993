"""Command-line front end.

Commands: beta, residues, gw, sweep, verify. Output is deterministic: fixed
quadrature orders, fixed seeds, 17-significant-digit decimals, so identical
configurations produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(including out-of-range flags: --order < 2, --fit-degree < 1, --workers < 1,
--delta not finite and > 0; a --shape that is not JSON or cannot be read;
a --sweep with a non-finite end or too many rows; an --out that cannot be
written), 3 numeric failure (pole guard, reach violation, or a value that
is not finite in double precision).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import conformal, continuation as cont, oracles, residues as res, verify
from ._util import ENV_WORKERS, ConfigError, NumericError, default_workers, fmt_float
from .manifold import shapes


def _parse_shape(arg: str) -> shapes.ManifoldSpec:
    if arg is None:
        raise ConfigError("--shape is required for this command")
    if arg.strip().startswith("{"):
        return shapes.from_config(arg)
    if os.path.exists(arg):
        return shapes.load_config(arg)
    raise ConfigError(f"shape config not found: {arg}")


def _parse_zlist(arg: str) -> list[float]:
    try:
        zs = [float(tok) for tok in arg.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --z list {arg!r}: {exc}") from exc
    if not all(math.isfinite(z) for z in zs):
        raise ConfigError(f"bad --z list {arg!r}: evaluation points must be finite")
    return zs


_MAX_SWEEP_ROWS = 10_000


def _parse_sweep(arg: str) -> np.ndarray:
    try:
        a0, a1, step = (float(t) for t in arg.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad --sweep range {arg!r}") from exc
    if not (math.isfinite(a0) and math.isfinite(a1) and step > 0 and a1 >= a0):
        raise ConfigError("sweep needs finite a0 <= a1 and step > 0")
    npts = round((a1 - a0) / step) + 1
    if npts > _MAX_SWEEP_ROWS:
        raise ConfigError(f"sweep asks for {npts:.3g} rows, more than {_MAX_SWEEP_ROWS}")
    return a0 + step * np.arange(npts)


def _checked(kind, ok, what: str):
    """argparse type: ``kind(arg)``, rejected with exit code 2 unless ``ok``."""
    def parse(arg: str):
        val = kind(arg)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"must be {what}, got {arg!r}")
        return val
    parse.__name__ = kind.__name__
    return parse


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out!r}: {exc.strerror}") from None


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _report(pairs: list[tuple[str, object]]) -> str:
    return "".join(f"{k} {fmt_float(v) if isinstance(v, float) else v}\n"
                   for k, v in pairs)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_beta(args) -> int:
    spec = _parse_shape(args.shape)
    zs = _parse_zlist(args.z) if args.z else [2.0, 1.0, 0.0, -0.5]
    kw = {}
    if args.delta is not None:
        kw["delta"] = args.delta
    if args.fit_degree is not None:
        kw["fit_degree"] = args.fit_degree
    if args.order is not None:
        kw["order"] = args.order
    rows = []
    if spec.kind == "polygon_knot":
        for z in zs:
            be = cont.polygon_beta(spec.params["vertices"], z)
            rows.append(_beta_row(z, be))
    elif spec.is_body:
        prof = cont.body_profile(spec, **kw)
        for z in zs:
            rows.append(_beta_row(z, cont.body_beta(spec, z, profile=prof)))
    else:
        weight = cont.WeightKind(args.weight)
        prof = cont.distance_profile(spec, weight=weight, **kw)
        for z in zs:
            rows.append(_beta_row(z, cont.beta_eval(prof, z)))
    if args.format == "csv":
        _emit(_csv(rows, ["z", "re_value", "im_value", "method", "note"]), args.out)
    else:
        pairs = []
        for z, re_v, im_v, meth, note in rows:
            pairs.append((f"beta[{fmt_float(z)}]", re_v))
            pairs.append((f"method[{fmt_float(z)}]", f"{meth}{' ' + note if note else ''}"))
        _emit(_report(pairs), args.out)
    return 0


def _beta_row(z: float, be: cont.BetaEvaluation):
    if be.at_pole:
        # pole hit: report the residue in place of a value
        return [float(z), float(be.residue), 0.0, be.method,
                f"pole@{fmt_float(be.nearest_pole)};finite_part={fmt_float(be.finite_part.real)}"]
    return [float(z), float(be.value.real), float(be.value.imag), be.method, ""]


def cmd_residues(args) -> int:
    spec = _parse_shape(args.shape)
    order = args.order if args.order is not None else 32
    if spec.kind == "polygon_knot":
        r1, r2 = oracles.polygon_knot_residues(spec.params["vertices"])
        rep = res.ResidueReport(metadata={"kind": spec.kind})
        rep.add(-1.0, r1, "oracle", 0.0)
        rep.add(-2.0, r2, "oracle", 0.0)
    elif spec.is_body:
        rep = res.body_residues(spec, order=order)
        rel = res.relative_residues(spec, order=order)
        for pole, (v, meth, err) in rel.entries.items():
            rep.metadata[f"relative[{fmt_float(pole)}]"] = fmt_float(v)
    else:
        rep = res._add_two_orders(
            res.ResidueReport(metadata={"kind": spec.kind, "m": spec.m}),
            lambda o: (res.residue_first(spec, o), res.residue_second(spec, o)),
            order, (-spec.m, -spec.m - 2))
        if spec.m == 4 and spec.codim == 1:
            r8, r8nu = res.m8_residues(spec, order=args.order or 48)
            rep.add(-8.0, r8["modified"], "curvature-order3", r8["spread"])
            rep.metadata["r8_raw"] = fmt_float(r8["raw"])
            rep.metadata["r8_nu"] = fmt_float(r8nu["modified"])
            rep.metadata["r8_nu_raw"] = fmt_float(r8nu["raw"])
    _emit(rep.to_text(), args.out)
    return 0


def cmd_gw(args) -> int:
    spec = _parse_shape(args.shape)
    order = args.order if args.order is not None else 48
    eb = conformal.energy_breakdown(spec, order=order)
    _emit(_report(eb.rows()), args.out)
    return 0


def cmd_sweep(args) -> int:
    avals = _parse_sweep(args.sweep) if args.sweep else _parse_sweep("0.5:3.0:0.05")
    order = args.order if args.order is not None else 48
    rows = []
    for a in avals:
        a = float(a)
        eb = conformal.energy_breakdown(shapes.spheroid(a), order=order)
        rows.append([a, eb.gw, eb.r8, eb.r8_nu])
    _emit(_csv(rows, ["a", "gw", "r8", "r8_nu"]), args.out)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all()
    text = verify.render_report(results)
    _emit(text, args.out)
    if all(r.passed for r in results):
        return 0
    first = next(r for r in results if not r.passed)
    sys.stderr.write(f"first failing check: {first.name}\n")
    return 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="residue-lab",
        description="Meromorphic Riesz energies of embedded manifolds: "
                    "values, residues, and conformal curvature energies.")
    p.add_argument("--shape", help="path to a JSON shape config, or inline JSON")
    p.add_argument("--cmd", required=True,
                   choices=["beta", "residues", "gw", "sweep", "verify"])
    p.add_argument("--z", help="comma-separated evaluation points")
    p.add_argument("--sweep", help="spheroid parameter range a0:a1:step")
    p.add_argument("--weight", default="one",
                   choices=[w.value for w in cont.WeightKind])
    p.add_argument("--order", help="quadrature order override",
                   type=_checked(int, lambda v: v >= 2, "an integer >= 2"))
    p.add_argument("--delta", help="top e2 of the fitted near zone (the cut)",
                   type=_checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"))
    p.add_argument("--fit-degree", dest="fit_degree",
                   type=_checked(int, lambda v: v >= 1, "an integer >= 1"),
                   help="number of even model coefficients")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", default="csv", choices=["csv", "report"])
    p.add_argument("--workers", type=_checked(int, lambda v: v >= 1, "an integer >= 1"),
                   help=f"worker threads for pair accumulation (default: ${ENV_WORKERS} or 1)")
    return p


def _glue_z(argv: list[str]) -> list[str]:
    """``--z -2,-3`` as ``--z=-2,-3``: argparse reads a value with a leading
    '-' as an option unless it looks like one plain negative number."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--z" and not out[i + 1].startswith("--"):
            out[i:i + 2] = ["--z=" + out[i + 1]]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_z(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse uses code 2 for usage errors already
        return int(exc.code or 0)
    dispatch = {"beta": cmd_beta, "residues": cmd_residues, "gw": cmd_gw,
                "sweep": cmd_sweep, "verify": cmd_verify}
    try:
        if args.workers is None:
            args.workers = default_workers()
        os.environ[ENV_WORKERS] = str(args.workers)
        return dispatch[args.cmd](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
