"""Command-line interface for the wedge eigenanalysis library.

Subcommands
-----------
eig          admissible exponents and null-space structure, as JSON
sweep        smallest-exponent sweep over notch half-angles, as CSV
field        field-component grid for one eigensolution, as CSV
equilibrium  sector force/moment balance report for a plane eigenfield
check        built-in verification suite

Conventions
-----------
Angles are accepted in degrees on the command line and converted to
radians internally once. All numeric output uses 17 significant digits
('%.17g') so values round-trip exactly through text. JSON objects use
sorted keys; CSV uses LF line endings and needs no quoting. '-' as an
output path means standard output. Text goes out through `_write_text`,
which takes one string or an iterable of chunks: `field` streams its CSV
one block of rows at a time and never builds the whole text. An --out
path that cannot be written is a usage error; one whose directory is
missing is refused before any solve.

Exit codes: 0 success, 1 usage error, 2 check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .basis import (EmptyNullSpace, attach_p1, eigenfield,
                    solution_from_amplitudes)
from .equilibrium import QuadratureDisagreement, check_equilibrium
from .eigensolver import (NoRootFound, RootScanOptions, admissible_eigenvalues,
                          smallest_exponents)
from .fields import (ANTIPLANE_FIELD_KEYS, PLANE_FIELD_KEYS,
                     crack_mode_std_amplitudes, field_series_map)
from .model import MaterialParams, Mode, WedgeCase
from .verify import SUITES, run_suite

_MODE_BY_LABEL = {
    "ps-sym": Mode.PLANE_SYM,
    "ps-anti": Mode.PLANE_ANTI,
    "ap": Mode.ANTIPLANE_ODD,
}

_P1_CONSTANT_COUNT = {Mode.PLANE_SYM: 2, Mode.PLANE_ANTI: 1,
                      Mode.ANTIPLANE_ODD: 1}
_P1_CONSTANT_NAMES = {Mode.PLANE_SYM: "c1,c3", Mode.PLANE_ANTI: "c2",
                      Mode.ANTIPLANE_ODD: "e"}

# bounds on the work one command may ask for: a scan up to p = 100 takes
# about 1e5 grid points, a sweep of 10001 angles a few seconds, a field
# grid of 1e6 rows a few hundred megabytes of CSV. The CSV is streamed,
# so a field grid's memory is bounded by its float grid (8 bytes x
# columns x rows, 160 MB for 1e6 plane rows), not by its text
_MAX_P = 100.0
_MAX_SWEEP_ANGLES = 10001
_MAX_FIELD_ROWS = 1_000_000
# field rows turned into Python floats and text at once: what the
# CSV stream holds on top of the float grid
_FIELD_BLOCK_ROWS = 1024
# a coarser refinement leaves roots at their scan points, where the face
# system is too far from singular to give a null vector (from 3e-6 on,
# some roots are reported with nullity 0)
_MAX_TOL = 1e-8

_NU_HELP = ("Poisson ratio in (-1, 0.5); required for plane modes, "
            "ignored for ap")

_ANTIPLANE_EQUILIBRIUM_MSG = (
    "anti-plane sectors are not supported: the in-plane resultants "
    "H, V, T and the corner edge forces all vanish identically for an "
    "anti-plane field, so the plane balance holds trivially and the "
    "out-of-plane resultant is outside the scope of this report. "
    "Use one of: I, II, notch-sym, notch-anti."
)


class UsageError(Exception):
    """Invalid flag combination or out-of-range value (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    """17-significant-digit decimal text; round-trips float exactly."""
    return "%.17g" % float(value)


def _to_json(obj) -> str:
    """Compact JSON with sorted keys and 17-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + _to_json(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _check_out(path: str) -> None:
    """Refuse an --out path whose directory is missing, before any work
    and without creating a file (_write_text catches any other fault)."""
    try:
        # a trailing separator makes the stat fail unless on a directory
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _write_text(path: str, text) -> None:
    """Write `text` to `path` ('-' is standard output).

    `text` is one string or an iterable of string chunks, written in
    order as they are produced. A path that cannot be opened or written
    raises UsageError naming the path and the reason.
    """
    chunks = (text,) if isinstance(text, str) else text
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: "
                         f"{exc.strerror or exc}") from exc


# ----------------------------------------------------------------------
# flag parsing helpers
# ----------------------------------------------------------------------

def _parse_floats(text: str, flag: str) -> tuple:
    try:
        values = tuple(float(piece) for piece in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated numbers, "
                         f"got {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{flag} values must be finite, got {text!r}")
    return values


def _check_angle(angle_deg: float) -> float:
    if not 90.0 <= angle_deg <= 180.0:
        raise UsageError(f"--angle-deg must lie in [90, 180], "
                         f"got {angle_deg:g}")
    return math.radians(angle_deg)


def _resolve_nu(args, mode: Mode) -> float | None:
    """Poisson ratio for plane modes; None for anti-plane (ignored)."""
    if mode is Mode.ANTIPLANE_ODD:
        return None
    if args.nu is None:
        raise UsageError("--nu is required for plane modes")
    if not -1.0 < args.nu < 0.5:
        raise UsageError(f"--nu must lie in (-1, 0.5), got {args.nu:g}")
    return args.nu


def _material(args, nu: float | None) -> MaterialParams:
    if not 0.0 < args.mu < math.inf:
        raise UsageError(f"--mu must be positive and finite, "
                         f"got {args.mu:g}")
    if not 0.0 < args.c < math.inf:
        raise UsageError(f"--c must be positive and finite, got {args.c:g}")
    return MaterialParams(nu=0.0 if nu is None else nu, mu=args.mu, c=args.c)


def _scan_options(args) -> RootScanOptions:
    p_max = getattr(args, "p_max", None)
    tol = getattr(args, "tol", None)
    kwargs = {}
    if p_max is not None:
        if p_max <= 1.0:
            raise UsageError(f"--p-max must exceed 1, got {p_max:g}")
        if not p_max <= _MAX_P:
            raise UsageError(f"--p-max must not exceed {_MAX_P:g}, "
                             f"got {p_max:g}")
        kwargs["p_max"] = p_max
    if tol is not None:
        if not 0.0 < tol <= _MAX_TOL:
            raise UsageError(f"--tol must lie in (0, {_MAX_TOL:g}], "
                             f"got {tol:g}")
        kwargs["refine_tol"] = tol
    return RootScanOptions(**kwargs)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def cmd_eig(args) -> int:
    mode = _MODE_BY_LABEL[args.mode]
    half_angle = _check_angle(args.angle_deg)
    nu = _resolve_nu(args, mode)
    material = _material(args, nu)
    options = _scan_options(args)
    case = WedgeCase(half_angle_a=half_angle, mode=mode)

    entries = admissible_eigenvalues(case, nu, options)
    sols = eigenfield(case, material, np.array([e.p for e in entries]))
    roots = [{
        "p": entry.p,
        "kind": entry.kind,
        "admissible": entry.admissible,
        "nullity": 0 if sol is None else sol.nullity,
        "amplitudes": ([] if sol is None
                       else [list(vec) for vec in sol.amplitudes]),
    } for entry, sol in zip(entries, sols)]

    doc = {
        "case": {
            "mode": args.mode,
            "angle_deg": float(args.angle_deg),
            "nu": nu,
            "mu": args.mu,
            "c": args.c,
        },
        "roots": roots,
    }
    sys.stdout.write(_to_json(doc) + "\n")
    return 0


def _sweep_angles(args) -> list:
    lo, hi, step = args.from_deg, args.to_deg, args.step
    if not 90.0 <= lo <= 180.0 or not 90.0 <= hi <= 180.0:
        raise UsageError(f"sweep range must lie in [90, 180], "
                         f"got [{lo:g}, {hi:g}]")
    if lo > hi:
        raise UsageError(f"--from ({lo:g}) exceeds --to ({hi:g})")
    if not step > 0.0:
        raise UsageError(f"--step must be positive, got {step:g}")
    if not (hi - lo) / step < _MAX_SWEEP_ANGLES:
        raise UsageError(f"a sweep may hold at most {_MAX_SWEEP_ANGLES} "
                         f"angles; --step {step:g} over [{lo:g}, {hi:g}] "
                         f"asks for more")
    angles = []
    i = 0
    while True:
        angle = lo + i * step
        if angle > hi + 1e-9:
            break
        angles.append(min(angle, hi))
        i += 1
    return angles


def cmd_sweep(args) -> int:
    mode = _MODE_BY_LABEL[args.mode]
    nu = _resolve_nu(args, mode)
    angles = _sweep_angles(args)
    _check_out(args.out)
    nu_text = "" if args.nu is None else _fmt(args.nu)

    try:
        summaries = [smallest_exponents(
            WedgeCase(half_angle_a=math.radians(angle_deg), mode=mode), nu)
            for angle_deg in angles]
    except NoRootFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lines = ["angle_deg,nu,mode,p,exp_monopolar,exp_total"]
    for angle_deg, summary in zip(angles, summaries):
        lines.append(",".join([
            _fmt(angle_deg), nu_text, args.mode, _fmt(summary.p),
            _fmt(summary.exp_monopolar), _fmt(summary.exp_total)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _field_radii(args) -> tuple:
    """The --r values, checked with --theta-steps before any solve."""
    radii = _parse_floats(args.r, "--r")
    if not all(r > 0.0 for r in radii):
        raise UsageError("--r values must be positive")
    if args.theta_steps < 2:
        raise UsageError(f"--theta-steps must be at least 2, "
                         f"got {args.theta_steps}")
    if len(radii) * args.theta_steps > _MAX_FIELD_ROWS:
        raise UsageError(f"a field grid may hold at most {_MAX_FIELD_ROWS} "
                         f"rows; {len(radii)} radii x {args.theta_steps} "
                         f"theta steps asks for more")
    return radii


def _field_csv(keys, radii, thetas, grid):
    """The field CSV as chunks: the header, then blocks of rows.

    A block holds at most _FIELD_BLOCK_ROWS rows of one radius. Each row
    is one `%` of its radius' template, which holds the r text and takes
    the theta text (formatted once per step) and the row's values.
    """
    yield "r,theta," + ",".join(keys) + "\n"
    theta_text = [_fmt(theta) for theta in thetas.tolist()]
    values_fmt = ",".join(["%.17g"] * len(keys)) + "\n"
    for r, values in zip(radii, grid):
        row_fmt = _fmt(r) + ",%s," + values_fmt
        for start in range(0, len(thetas), _FIELD_BLOCK_ROWS):
            stop = start + _FIELD_BLOCK_ROWS
            yield "".join([row_fmt % (text, *row) for text, row in zip(
                theta_text[start:stop], values[start:stop].tolist())])


def cmd_field(args) -> int:
    mode = _MODE_BY_LABEL[args.mode]
    half_angle = _check_angle(args.angle_deg)
    nu = _resolve_nu(args, mode)
    material = _material(args, nu)
    radii = _field_radii(args)
    amps = _parse_floats(args.amps, "--amps")
    constants = (None if args.with_p1 is None
                 else _parse_floats(args.with_p1, "--with-p1"))
    _check_out(args.out)
    case = WedgeCase(half_angle_a=half_angle, mode=mode)

    entries = admissible_eigenvalues(case, nu)
    if not 0 <= args.eig_index < len(entries):
        raise UsageError(f"--eig-index {args.eig_index} out of range: "
                         f"{len(entries)} admissible exponents found")
    entry = entries[args.eig_index]
    try:
        sol = eigenfield(case, material, entry.p)
    except EmptyNullSpace as exc:
        raise UsageError(f"no eigenfield at p = {entry.p:.12g}: "
                         f"{exc}") from exc

    if len(amps) != sol.nullity:
        raise UsageError(f"--amps expects {sol.nullity} coefficient(s) "
                         f"(the nullity at p = {entry.p:.12g}), "
                         f"got {len(amps)}")
    if constants is not None:
        if sol.kind == "special_p1":
            raise UsageError("--with-p1 cannot be combined with the p = 1 "
                             "entry; its amplitudes already are the "
                             "constant-strain coefficients")
        expected = _P1_CONSTANT_COUNT[mode]
        if len(constants) != expected:
            raise UsageError(f"--with-p1 expects {expected} constant(s) "
                             f"({_P1_CONSTANT_NAMES[mode]}) for mode "
                             f"{args.mode}, got {len(constants)}")
        sol = attach_p1(sol, constants)
    field = sol.combined_field(list(amps), include_p1=True)

    thetas = np.linspace(-half_angle, half_angle, args.theta_steps)
    keys = PLANE_FIELD_KEYS if mode.is_plane else ANTIPLANE_FIELD_KEYS
    series = field_series_map(field, material)
    grid = np.empty((len(radii), len(thetas), len(keys)))
    r_col, theta_row = np.array(radii)[:, None], thetas[None, :]
    for j, key in enumerate(keys):
        grid[:, :, j] = series[key].eval(r_col, theta_row)
    _write_text(args.out, _field_csv(keys, radii, thetas, grid))
    return 0


def _equilibrium_field(args, mode_flag: str, material: MaterialParams,
                       half_angle: float):
    """Displacement field and exponent for one equilibrium scenario."""
    nu = material.nu
    amps = _parse_floats(args.amps, "--amps")
    if mode_flag in ("I", "II"):
        if abs(args.angle_deg - 180.0) > 1e-9:
            raise UsageError(f"mode {mode_flag} is the crack case; "
                             f"--angle-deg must be 180, "
                             f"got {args.angle_deg:g}")
        mode = Mode.PLANE_SYM if mode_flag == "I" else Mode.PLANE_ANTI
        case = WedgeCase(half_angle_a=half_angle, mode=mode)
        if len(amps) != 2:
            names = "A1,A2" if mode_flag == "I" else "B1,B2"
            raise UsageError(f"mode {mode_flag} expects --amps {names} "
                             f"(2 values), got {len(amps)}")
        std = crack_mode_std_amplitudes(mode_flag, amps, nu)
        sol = solution_from_amplitudes(case, material, 1.5, [std])
        return sol.fields[0], 1.5
    mode = (Mode.PLANE_SYM if mode_flag == "notch-sym" else Mode.PLANE_ANTI)
    case = WedgeCase(half_angle_a=half_angle, mode=mode)
    try:
        p = smallest_exponents(case, nu).p
    except NoRootFound as exc:
        raise UsageError(str(exc)) from exc
    sol = eigenfield(case, material, p)
    if len(amps) != sol.nullity:
        raise UsageError(f"--amps expects {sol.nullity} coefficient(s) "
                         f"(the nullity at p = {p:.12g}), got {len(amps)}")
    return sol.combined_field(list(amps), include_p1=False), p


def cmd_equilibrium(args) -> int:
    if args.mode in ("III", "III-na"):
        print(f"error: {_ANTIPLANE_EQUILIBRIUM_MSG}", file=sys.stderr)
        return 1
    half_angle = _check_angle(args.angle_deg)
    material = _material(args, _resolve_nu(args, Mode.PLANE_SYM))
    if not 0.0 < args.r0 < math.inf:
        raise UsageError(f"--r0 must be positive and finite, "
                         f"got {args.r0:g}")

    field, p = _equilibrium_field(args, args.mode, material, half_angle)
    try:
        report = check_equilibrium(field, material, args.r0, half_angle)
    except QuadratureDisagreement as exc:
        print(f"error: arc quadrature failed to converge: {exc}",
              file=sys.stderr)
        return 2

    corners = report.corners
    verdict = "PASS" if report.passed else "FAIL"
    text = [
        f"sector balance at r0 = {_fmt(args.r0)}, "
        f"half-angle = {_fmt(args.angle_deg)} deg, p = {_fmt(p)}",
        f"arc resultants:  H = {_fmt(report.arc.h)}   "
        f"V = {_fmt(report.arc.v)}   T = {_fmt(report.arc.t)}",
        f"corner force A (theta=+a):  E_r = {_fmt(corners.e_r_a)}   "
        f"E_t = {_fmt(corners.e_t_a)}",
        f"corner force B (theta=-a):  E_r = {_fmt(corners.e_r_b)}   "
        f"E_t = {_fmt(corners.e_t_b)}",
        f"sum Fx = {_fmt(report.sum_fx)}",
        f"sum Fy = {_fmt(report.sum_fy)}",
        f"sum M  = {_fmt(report.sum_moment)}",
        f"result: {verdict} (residuals <= {_fmt(report.tol)} x scale, "
        f"scale = {_fmt(report.scale)})",
    ]
    doc = {
        "mode": args.mode,
        "angle_deg": float(args.angle_deg),
        "nu": args.nu,
        "r0": args.r0,
        "p": p,
        "arc": {"h": report.arc.h, "v": report.arc.v, "t": report.arc.t},
        "corners": {
            "e_r_a": corners.e_r_a, "e_t_a": corners.e_t_a,
            "e_x_a": corners.e_x_a, "e_y_a": corners.e_y_a,
            "e_r_b": corners.e_r_b, "e_t_b": corners.e_t_b,
            "e_x_b": corners.e_x_b, "e_y_b": corners.e_y_b,
        },
        "sum_fx": report.sum_fx,
        "sum_fy": report.sum_fy,
        "sum_moment": report.sum_moment,
        "scale": report.scale,
        "tol": report.tol,
        "passed": report.passed,
    }
    sys.stdout.write("\n".join(text) + "\n" + _to_json(doc) + "\n")
    return 0 if report.passed else 2


def cmd_check(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    lines = []
    for check in report.checks:
        tag = "PASS" if check.passed else "FAIL"
        line = (f"[{tag}] {check.name}: value = {_fmt(check.value)}, "
                f"tol = {_fmt(check.tol)}")
        if check.detail:
            line += f"  ({check.detail})"
        lines.append(line)
    n_pass = sum(1 for check in report.checks if check.passed)
    lines.append(f"{n_pass}/{len(report.checks)} checks passed "
                 f"(suite = {args.suite}, seed = {args.seed})")
    doc = {
        "suite": report.suite,
        "seed": report.seed,
        "passed": report.passed,
        "checks": [{
            "name": check.name,
            "passed": check.passed,
            "value": check.value,
            "tol": check.tol,
            "detail": check.detail,
        } for check in report.checks],
    }
    sys.stdout.write("\n".join(lines) + "\n" + _to_json(doc) + "\n")
    return 0 if report.passed else 2


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def _add_material_flags(parser) -> None:
    parser.add_argument("--mu", type=float, default=1.0,
                        help="shear modulus (default 1)")
    parser.add_argument("--c", type=float, default=1.0,
                        help="gradient coefficient, units length^2 "
                             "(default 1)")


# built once per process: a build costs a large share of a small eig
# request
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gradnotch",
        description="Singular exponents and asymptotic fields for a sharp "
                    "notch in dipolar gradient elasticity.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_eig = sub.add_parser(
        "eig", help="admissible exponents and eigenfield amplitudes (JSON)")
    p_eig.add_argument("--mode", required=True, choices=sorted(_MODE_BY_LABEL))
    p_eig.add_argument("--angle-deg", type=float, required=True,
                       help="notch half-angle in degrees, 90..180")
    p_eig.add_argument("--nu", type=float, default=None,
                       help=_NU_HELP)
    p_eig.add_argument("--p-max", type=float, default=None,
                       help=f"upper end of the exponent scan (default 4, "
                            f"at most {_MAX_P:g})")
    p_eig.add_argument("--tol", type=float, default=None,
                       help=f"root refinement tolerance, in "
                            f"(0, {_MAX_TOL:g}] (default 1e-12)")
    _add_material_flags(p_eig)
    p_eig.set_defaults(func=cmd_eig)

    p_sweep = sub.add_parser(
        "sweep", help="smallest exponent vs. half-angle (CSV)")
    p_sweep.add_argument("--mode", required=True,
                         choices=sorted(_MODE_BY_LABEL))
    p_sweep.add_argument("--nu", type=float, default=None, help=_NU_HELP)
    p_sweep.add_argument("--from", dest="from_deg", type=float, required=True,
                         help="first half-angle in degrees")
    p_sweep.add_argument("--to", dest="to_deg", type=float, required=True,
                         help="last half-angle in degrees")
    p_sweep.add_argument("--step", type=float, default=0.5,
                         help=f"angle increment in degrees (default 0.5); "
                              f"at most {_MAX_SWEEP_ANGLES} angles")
    p_sweep.add_argument("--out", default="-",
                         help="output path, '-' for stdout (default)")
    _add_material_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_field = sub.add_parser(
        "field", help="field components on an (r, theta) grid (CSV)")
    p_field.add_argument("--mode", required=True,
                         choices=sorted(_MODE_BY_LABEL))
    p_field.add_argument("--angle-deg", type=float, required=True)
    p_field.add_argument("--nu", type=float, default=None, help=_NU_HELP)
    p_field.add_argument("--eig-index", type=int, required=True,
                         help="index into the admissible-exponent list "
                              "(0 = constant-strain p = 1 entry)")
    p_field.add_argument("--amps", required=True,
                         help="comma-separated combination coefficients, "
                              "one per independent eigenfield")
    p_field.add_argument("--r", required=True,
                         help="comma-separated radii")
    p_field.add_argument("--theta-steps", type=int, required=True,
                         help="number of theta samples spanning [-a, +a] "
                              f"(radii x steps at most {_MAX_FIELD_ROWS})")
    p_field.add_argument("--with-p1", default=None,
                         help="attach a constant-strain part: c1,c3 for "
                              "ps-sym, c2 for ps-anti, e for ap")
    p_field.add_argument("--out", default="-",
                         help="output path, '-' for stdout (default)")
    _add_material_flags(p_field)
    p_field.set_defaults(func=cmd_field)

    p_eq = sub.add_parser(
        "equilibrium", help="force/moment balance of the sector r <= r0")
    p_eq.add_argument("--mode", required=True,
                      choices=["I", "II", "III", "III-na", "notch-sym",
                               "notch-anti"],
                      help="I/II: crack modes with --amps A1,A2 / B1,B2; "
                           "notch-sym/notch-anti: smallest-root eigenfield "
                           "with null-space coefficients; III is rejected")
    p_eq.add_argument("--angle-deg", type=float, required=True)
    p_eq.add_argument("--amps", required=True)
    p_eq.add_argument("--nu", type=float, default=None,
                      help="Poisson ratio in (-1, 0.5); required")
    p_eq.add_argument("--r0", type=float, default=1.0,
                      help="sector radius (default 1)")
    _add_material_flags(p_eq)
    p_eq.set_defaults(func=cmd_equilibrium)

    p_check = sub.add_parser("check", help="run the verification suite")
    p_check.add_argument("--suite", choices=list(SUITES), default="all")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None
                                                        else 1)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
