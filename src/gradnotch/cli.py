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
one block of rows at a time and never builds the whole text. Its values
go through one numpy kernel (`_g17.csv_blocks`), whose bytes are those
of '%.17g'; the other outputs use '%.17g' itself. An --out
path that cannot be written is a usage error; one whose directory is
missing, or that names a directory, is refused before any solve. No
inf or nan is written: a `field` grid or an `equilibrium` report whose
values overflow a double, in a series coefficient or in the values, is
a usage error (`_OVERFLOW`), and `_to_json` refuses a non-finite float.

Each flag is declared once: `eig`, `field` and `equilibrium` share
--angle-deg, --mu and --c through one parent parser, and `_case` turns
them and --nu into the library's WedgeCase, nu and MaterialParams.
`sweep` takes no --mu or --c, since the exponents do not depend on them.
The records and the scan refuse a range (`_OUT_OF_RANGE` words it),
RootScanOptions a scan that would never end and combined_field a wrong
--amps count; the CLI adds only its own limits on work and on --tol.

Exit codes: 0 success, 1 usage error, 2 check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
import warnings

import numpy as np

from .basis import (EmptyNullSpace, eigenfield, solution_from_amplitudes,
                    special_p1_field)
from .equilibrium import QuadratureDisagreement, check_equilibrium
from .eigensolver import (NoRootFound, RootScanOptions, admissible_eigenvalues,
                          smallest_exponents, sweep_exponents)
from .fields import (ANTIPLANE_FIELD_KEYS, PLANE_FIELD_KEYS,
                     crack_mode_std_amplitudes, field_series_map)
from .model import MaterialParams, Mode, OutOfRange, WedgeCase
from .verify import SUITES, run_suite

_MODE_BY_LABEL = {
    "ps-sym": Mode.PLANE_SYM,
    "ps-anti": Mode.PLANE_ANTI,
    "ap": Mode.ANTIPLANE_ODD,
}
# equilibrium labels of the plane modes; III and III-na are refused
_EQUILIBRIUM_MODES = {
    "I": Mode.PLANE_SYM,
    "II": Mode.PLANE_ANTI,
    "notch-sym": Mode.PLANE_SYM,
    "notch-anti": Mode.PLANE_ANTI,
}

# bounds on the work one command may ask for: a scan up to p = 100 takes
# about 1e5 grid points, a sweep of 10001 angles a few seconds, a field
# grid of 1e6 rows a few hundred megabytes of CSV. The CSV is streamed,
# so a field grid's memory is bounded by its float grid (8 bytes x
# columns x rows, r and theta among the columns: 176 MB for 1e6 plane
# rows), not by its text
_MAX_P = 100.0
_MAX_SWEEP_ANGLES = 10001
# the sweep's last angle may lie this far past --to
_SWEEP_SLACK = 1e-9
_MAX_FIELD_ROWS = 1_000_000
# field rows turned into text at once. The kernel's work arrays take
# about 400 bytes per value of a block (0.6 MB for 64 plane rows) on top
# of the float grid; more rows per block save little time and raise the
# peak resident memory
_FIELD_BLOCK_ROWS = 64
# field rows whose series values are evaluated at once: each evaluation
# holds about 32 bytes per row beyond the grid
_FIELD_TILE_ROWS = 16384
# a coarser refinement leaves roots at their scan points, where the face
# system is too far from singular to give a null vector (from 3e-6 on,
# some roots are reported with nullity 0)
_MAX_TOL = 1e-8

# the message of an overflow (OverflowError), by subcommand
_OVERFLOW = {
    "field": ("the field is not finite at --amps {amps}, --r {r}, --mu "
              "{mu!r} and --c {c!r}: it overflows a double"),
    "equilibrium": ("the sector balance is not finite at --r0 {r0!r}, "
                    "--amps {amps}, --mu {mu!r} and --c {c!r}: it "
                    "overflows a double"),
}
# the message of each library range refusal, by OutOfRange.field_name
_OUT_OF_RANGE = {
    "half_angle_a": "--angle-deg must lie in [90, 180], got {angle_deg!r}",
    "nu": "--nu must lie in (-1, 0.5), got {nu!r}",
    "mu": "--mu must be positive and finite, got {mu!r}",
    "c": "--c must be positive and finite, got {c!r}",
}

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


_json_str = json.encoder.encode_basestring_ascii
_by_key = operator.itemgetter(0)


def _to_json(obj) -> str:
    """Compact JSON with sorted keys and 17-digit floats. A non-finite
    float raises ValueError, as json.dumps(allow_nan=False) does; keys and
    strings take json.dumps's ASCII escapes."""
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"{obj!r} is not a JSON number")
        return _fmt(obj)
    if isinstance(obj, dict):
        return "{" + ",".join([
            _json_str(str(k)) + ":" + _to_json(v)
            for k, v in sorted(obj.items(), key=_by_key)]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_to_json(v) for v in obj]) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _check_out(path: str) -> None:
    """Refuse an --out path whose directory is missing or that names a
    directory, before any work and without creating a file (_write_text
    catches any other fault)."""
    try:
        # a trailing separator makes the stat fail unless on a directory
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc
    if path != "-" and os.path.isdir(path):
        raise UsageError(f"cannot write {path}: Is a directory")


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


def _resolve_nu(args, mode: Mode) -> float | None:
    """Poisson ratio for plane modes; None for anti-plane (ignored)."""
    if mode is Mode.ANTIPLANE_ODD:
        return None
    if args.nu is None:
        raise UsageError("--nu is required for plane modes")
    return args.nu


def _case(args, mode: Mode) -> tuple:
    """(WedgeCase, nu, MaterialParams) from --angle-deg, --nu, --mu and
    --c, which the records refuse in that order; nu is None for ap."""
    case = WedgeCase(math.radians(args.angle_deg), mode)
    nu = _resolve_nu(args, mode)
    return case, nu, MaterialParams(0.0 if nu is None else nu, args.mu, args.c)


def _scan_options(args) -> RootScanOptions:
    """--p-max and --tol under the CLI's upper bounds; RootScanOptions
    refuses the rest."""
    if not args.p_max <= _MAX_P:
        raise UsageError(f"--p-max must not exceed {_MAX_P:g}, "
                         f"got {args.p_max!r}")
    if not 0.0 < args.tol <= _MAX_TOL:
        raise UsageError(f"--tol must lie in (0, {_MAX_TOL:g}], "
                         f"got {args.tol!r}")
    try:
        return RootScanOptions(p_max=args.p_max, refine_tol=args.tol)
    except ValueError as exc:
        raise UsageError(f"--p-max: {exc}") from exc


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def cmd_eig(args) -> int:
    case, nu, material = _case(args, _MODE_BY_LABEL[args.mode])
    entries = admissible_eigenvalues(case, nu, _scan_options(args))
    sols = eigenfield(case, material, np.array([e.p for e in entries]))
    roots = [{
        "p": entry.p,
        "kind": entry.kind,
        "admissible": True,
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


def _sweep_cases(args, mode: Mode) -> tuple:
    """The angles and cases of a sweep; --from and --to are refused first."""
    lo, hi, step = args.from_deg, args.to_deg, args.step
    try:
        for end in (lo, hi):
            WedgeCase(math.radians(end), mode)
    except OutOfRange as exc:
        raise UsageError(f"sweep range must lie in [90, 180], "
                         f"got [{lo!r}, {hi!r}]") from exc
    if lo > hi:
        raise UsageError(f"--from ({lo!r}) exceeds --to ({hi!r})")
    if not 0.0 < step < math.inf:
        raise UsageError(f"--step must be positive and finite, "
                         f"got {step!r}")
    if not (hi - lo + _SWEEP_SLACK) / step < _MAX_SWEEP_ANGLES:
        raise UsageError(f"a sweep may hold at most {_MAX_SWEEP_ANGLES} "
                         f"angles; --step {step!r} over [{lo!r}, {hi!r}] "
                         f"asks for more")
    angles = []
    i = 0
    while True:
        angle = lo + i * step
        if angle > hi + _SWEEP_SLACK:
            break
        angles.append(min(angle, hi))
        i += 1
    return angles, [WedgeCase(math.radians(a), mode) for a in angles]


def cmd_sweep(args) -> int:
    mode = _MODE_BY_LABEL[args.mode]
    nu = _resolve_nu(args, mode)
    angles, cases = _sweep_cases(args, mode)
    _check_out(args.out)
    nu_text = "" if args.nu is None else _fmt(args.nu)

    try:
        summaries = sweep_exponents(cases, nu)
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


def _field_csv(keys, grid):
    """The field CSV as chunks: the header, then the rows of `grid`
    (radii x steps x columns, r and theta first), _FIELD_BLOCK_ROWS rows
    at a time, each value formatted as '%.17g' by `_g17.csv_blocks`."""
    # imported here: compiling it at import would add ~3 ms to the start
    # of every subcommand
    from ._g17 import csv_blocks

    yield "r,theta," + ",".join(keys) + "\n"
    yield from csv_blocks(grid.reshape(-1, grid.shape[-1]), _FIELD_BLOCK_ROWS)


def cmd_field(args) -> int:
    case, nu, material = _case(args, _MODE_BY_LABEL[args.mode])
    radii = _field_radii(args)
    amps = _parse_floats(args.amps, "--amps")
    p1_field = None
    if args.with_p1 is not None:
        # checked before any solve: index 0 is always the p = 1 entry
        constants = _parse_floats(args.with_p1, "--with-p1")
        if args.eig_index == 0:
            raise UsageError("--with-p1 cannot be combined with the p = 1 "
                             "entry; its amplitudes already are the "
                             "constant-strain coefficients")
        try:
            p1_field = special_p1_field(case.mode, constants)
        except ValueError as exc:
            raise UsageError(f"--with-p1: {exc}, "
                             f"got {len(constants)}") from exc
    _check_out(args.out)

    entries = admissible_eigenvalues(case, nu)
    if not 0 <= args.eig_index < len(entries):
        raise UsageError(f"--eig-index {args.eig_index} out of range: "
                         f"{len(entries)} admissible exponents found")
    entry = entries[args.eig_index]
    try:
        sol = eigenfield(case, material, entry.p)
    except EmptyNullSpace as exc:
        raise UsageError(str(exc)) from exc

    field = _combined_field(sol, amps)
    if p1_field is not None:
        field = field + p1_field
    series = field_series_map(field, material)

    keys = PLANE_FIELD_KEYS if case.mode.is_plane else ANTIPLANE_FIELD_KEYS
    grid = _field_grid([series[key] for key in keys], radii,
                       case.half_angle_a, args.theta_steps)
    _write_text(args.out, _field_csv(keys, grid))
    return 0


def _field_grid(series, radii, a, steps):
    """The float grid (radii x steps x columns): r, theta over [-a, a] and
    each series' values, evaluated one tile of at most _FIELD_TILE_ROWS
    rows at a time. A value that is not finite raises OverflowError."""
    grid = np.empty((len(radii), steps, 2 + len(series)))
    grid[:, :, 0] = np.array(radii)[:, None]
    grid[:, :, 1] = np.linspace(-a, a, steps)
    tile_steps = min(steps, _FIELD_TILE_ROWS)
    tile_radii = _FIELD_TILE_ROWS // tile_steps
    for i in range(0, len(radii), tile_radii):
        for k in range(0, steps, tile_steps):
            tile = grid[i:i + tile_radii, k:k + tile_steps]
            r_col, theta_row = tile[:, :1, 0], tile[:1, :, 1]
            # an overflow is refused, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                for j, each in enumerate(series, 2):
                    tile[:, :, j] = each.eval(r_col, theta_row)
            if not np.isfinite(tile).all():
                raise OverflowError("the field grid is not finite")
    return grid


def _combined_field(sol, amps):
    """sol's field of the --amps coefficients, which it counts."""
    try:
        return sol.combined_field(list(amps))
    except ValueError as exc:
        raise UsageError(f"--amps {exc}") from exc


def _equilibrium_field(args, case: WedgeCase, material: MaterialParams):
    """Displacement field and exponent for one equilibrium scenario."""
    amps = _parse_floats(args.amps, "--amps")
    if args.mode in ("I", "II"):
        if abs(args.angle_deg - 180.0) > 1e-9:
            raise UsageError(f"mode {args.mode} is the crack case; "
                             f"--angle-deg must be 180, "
                             f"got {args.angle_deg!r}")
        if len(amps) != 2:
            names = "A1,A2" if args.mode == "I" else "B1,B2"
            raise UsageError(f"mode {args.mode} expects --amps {names} "
                             f"(2 values), got {len(amps)}")
        std = crack_mode_std_amplitudes(args.mode, amps, material.nu)
        sol = solution_from_amplitudes(case, material, 1.5, [std])
        return sol.fields[0], 1.5
    try:
        p = smallest_exponents(case, material.nu).p
    except NoRootFound as exc:
        raise UsageError(str(exc)) from exc
    return _combined_field(eigenfield(case, material, p), amps), p


def cmd_equilibrium(args) -> int:
    if args.mode in ("III", "III-na"):
        raise UsageError(_ANTIPLANE_EQUILIBRIUM_MSG)
    case, _, material = _case(args, _EQUILIBRIUM_MODES[args.mode])
    if not 0.0 < args.r0 < math.inf:
        raise UsageError(f"--r0 must be positive and finite, "
                         f"got {args.r0!r}")

    field, p = _equilibrium_field(args, case, material)
    try:
        # an overflow is refused, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_equilibrium(field, material, args.r0,
                                       case.half_angle_a)
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
        "arc": report.arc._asdict(),
        "corners": corners._asdict(),
        "sum_fx": report.sum_fx,
        "sum_fy": report.sum_fy,
        "sum_moment": report.sum_moment,
        "scale": report.scale,
        "tol": report.tol,
        "passed": report.passed,
    }
    try:
        payload = _to_json(doc)
    except ValueError as exc:
        raise OverflowError("the sector balance is not finite") from exc
    sys.stdout.write("\n".join(text) + "\n" + payload + "\n")
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
        "checks": [dict(c._asdict(), passed=c.passed) for c in report.checks],
    }
    sys.stdout.write("\n".join(lines) + "\n" + _to_json(doc) + "\n")
    return 0 if report.passed else 2


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

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

    # flags shared by several subcommands, each declared once
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", required=True, choices=sorted(_MODE_BY_LABEL))
    nu = argparse.ArgumentParser(add_help=False)
    nu.add_argument("--nu", type=float, default=None, help=_NU_HELP)
    wedge = argparse.ArgumentParser(add_help=False)
    wedge.add_argument("--angle-deg", type=float, required=True,
                       help="notch half-angle in degrees, 90..180")
    wedge.add_argument("--mu", type=float, default=1.0,
                       help="shear modulus (default 1)")
    wedge.add_argument("--c", type=float, default=1.0,
                       help="gradient coefficient, units length^2 "
                            "(default 1)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-",
                     help="output path, '-' for stdout (default)")

    p_eig = sub.add_parser(
        "eig", parents=[mode, nu, wedge],
        help="admissible exponents and eigenfield amplitudes (JSON)")
    p_eig.add_argument("--p-max", type=float, default=RootScanOptions.p_max,
                       help=f"upper end of the exponent scan (default "
                            f"%(default)g, at most {_MAX_P:g})")
    p_eig.add_argument("--tol", type=float,
                       default=RootScanOptions.refine_tol,
                       help=f"root refinement tolerance, in "
                            f"(0, {_MAX_TOL:g}] (default %(default)g)")
    p_eig.set_defaults(func=cmd_eig)

    p_sweep = sub.add_parser(
        "sweep", parents=[mode, nu, out],
        help="smallest exponent vs. half-angle (CSV)")
    p_sweep.add_argument("--from", dest="from_deg", type=float, required=True,
                         help="first half-angle in degrees")
    p_sweep.add_argument("--to", dest="to_deg", type=float, required=True,
                         help="last half-angle in degrees")
    p_sweep.add_argument("--step", type=float, default=0.5,
                         help=f"angle increment in degrees (default 0.5); "
                              f"at most {_MAX_SWEEP_ANGLES} angles")
    p_sweep.set_defaults(func=cmd_sweep)

    p_field = sub.add_parser(
        "field", parents=[mode, nu, wedge, out],
        help="field components on an (r, theta) grid (CSV)")
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
    p_field.set_defaults(func=cmd_field)

    p_eq = sub.add_parser(
        "equilibrium", parents=[nu, wedge],
        help="force/moment balance of the sector r <= r0")
    p_eq.add_argument("--mode", required=True,
                      choices=sorted([*_EQUILIBRIUM_MODES, "III", "III-na"]),
                      help="I/II: crack modes with --amps A1,A2 / B1,B2; "
                           "notch-sym/notch-anti: smallest-root eigenfield "
                           "with null-space coefficients; III is rejected")
    p_eq.add_argument("--amps", required=True)
    p_eq.add_argument("--r0", type=float, default=1.0,
                      help="sector radius (default 1)")
    p_eq.set_defaults(func=cmd_equilibrium)

    p_check = sub.add_parser("check", help="run the verification suite")
    p_check.add_argument("--suite", choices=list(SUITES), default="all")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    # while a command runs, each warning prints as one "warning: <message>"
    # line, without the source path and line of the default format
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits with 0 after --help and 1 on a usage error
            return exc.code
        try:
            return args.func(args)
        except UsageError as exc:
            message = str(exc)
        except OutOfRange as exc:
            message = _OUT_OF_RANGE[exc.field_name].format(**vars(args))
        except OverflowError:
            message = _OVERFLOW[args.command].format(**vars(args))
        print(f"error: {message}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


def entry() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
