"""Output checks for every request the benchmark sends.

Each check takes the captured standard output and exit code of one CLI
call and returns a list of `Problem`s; an empty list means the output is
correct. A request with any problem counts as failed.

`Problem.known` marks the root-scanner limit documented before this
benchmark existed (ROADMAP item 3, the eigensolver docstring), held to what
the program shows on the benchmark's draws. A root may miss `refine_tol`
by up to a multiple of its conditioning (reference.RefRoot.cond):
KNOWN_COND[True] for a touch (even-multiplicity) root, KNOWN_COND[False],
near the double-precision floor, for a simple one. Roots within two scan
cells of another root, which the scan grid cannot separate, may also miss
by up to KNOWN_ROOT_ERR, be merged into one root between them, or lose a
member; where such a cluster holds a touch root (a near-triple root, as at
135 degrees for nu near 0.3612), its roots may miss by any amount that
leaves them nearest their own reference root. A touch root with no other
root that close must be found. Such a request counts in the printed
fail ratio; only a problem outside that class counts in the result's
`failed` and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# documented root refinement tolerance (RootScanOptions.refine_tol)
REFINE_TOL = 1e-12
# the root scanner's grid step (RootScanOptions.grid_step); its three-point
# dip test cannot separate roots within two steps of each other
SCAN_CELL = 1e-3
CLUSTER = 2 * SCAN_CELL
# how far a root may miss and still be the known defect, as a multiple of
# its conditioning, by touch flag. The program misses touch roots by up to
# 1.1e-10 times it (1.4e-12 at 180 degrees, 5.4e-10 at 135 degrees with a
# simple root 4.5e-3 away) and simple roots by up to 7e-17 times it.
KNOWN_COND = {True: 3e-10, False: 1e-15}
# how far a root within CLUSTER of another may miss in any case
KNOWN_ROOT_ERR = 1e-10
SWEEP_ENDPOINT_TOL = 1e-9
SWEEP_HEADER = "angle_deg,nu,mode,p,exp_monopolar,exp_total"
FACE_TRACTION_REL = 1e-8
P1_TRACTION_REL = 1e-12
ROW_MATCH_REL = 1e-12

PLANE_COLUMNS = ("u_r", "u_t", "eps_rr", "eps_tt", "eps_rt", "tau_rr",
                 "tau_tt", "tau_rt", "tau_zz", "m_rrr", "m_rrt", "m_rtt",
                 "m_trr", "m_ttr", "m_ttt", "t_tr", "t_tt", "t_rr", "t_rt",
                 "W")
ANTIPLANE_COLUMNS = ("w", "eps_rz", "eps_tz", "tau_rz", "tau_tz", "m_rrz",
                     "m_rtz", "m_trz", "m_ttz", "t_tz", "W")


@dataclass(frozen=True)
class Problem:
    text: str
    known: bool = False


def _exit(rc) -> list:
    return [] if rc == 0 else [Problem(f"exit code {rc}")]


def check_eig(out: str, rc, ref_roots) -> list:
    """Bracket roots against the high-precision reference set."""
    if rc != 0:
        return _exit(rc)
    try:
        roots = json.loads(out)["roots"]
    except (ValueError, KeyError, TypeError) as exc:
        return [Problem(f"unreadable eig output: {exc}")]
    if not roots or roots[0]["kind"] != "special_p1" or roots[0]["p"] != 1:
        return [Problem("first entry is not the p = 1 constant-strain entry")]
    got = [r["p"] for r in roots if r["kind"] == "bracket_root"]
    if len(got) != len(ref_roots):
        problems = [Problem(f"{len(got)} bracket roots, reference has "
                            f"{len(ref_roots)}: got {got}, reference "
                            f"{[r.p for r in ref_roots]}")]
    else:
        problems = [
            Problem(f"root {p!r} is {abs(p - r.p):.2e} from the reference "
                    f"{r.p!r}{' (touch root)' if r.touch else ''}")
            for p, r in zip(got, ref_roots) if abs(p - r.p) > REFINE_TOL]
    if problems and _scanner_limit_only(got, ref_roots):
        problems = [Problem(p.text, known=True) for p in problems]
    return problems


def _scanner_limit_only(got: list, ref_roots) -> bool:
    """True if every difference from the reference is the documented
    scanner limit (see the module docstring)."""
    ref = [r.p for r in ref_roots]
    cluster = [[q for q in ref_roots if 0 < abs(r.p - q.p) < CLUSTER]
               for r in ref_roots]
    clustered = [bool(c) for c in cluster]
    tol = [math.inf if c and (r.touch or any(q.touch for q in c))
           else max(REFINE_TOL, KNOWN_COND[r.touch] * r.cond,
                    KNOWN_ROOT_ERR if c else 0.0)
           for r, c in zip(ref_roots, cluster)]
    matched = set()
    for p in got:
        k = min(range(len(ref)), key=lambda i: abs(ref[i] - p), default=None)
        if k is None or k in matched:
            return False
        if abs(ref[k] - p) <= tol[k]:
            matched.add(k)
            continue
        merged = [i for i in (k - 1, k + 1) if 0 <= i < len(ref)
                  and abs(ref[i] - ref[k]) < CLUSTER
                  and min(ref[i], ref[k]) <= p <= max(ref[i], ref[k])]
        if not merged or merged[0] in matched:
            return False
        matched.update([k, merged[0]])
    return all(clustered[i] for i in range(len(ref)) if i not in matched)


def eig_smallest(out: str):
    """Smallest bracket root of an eig output, or None."""
    try:
        roots = json.loads(out)["roots"]
    except (ValueError, KeyError, TypeError):
        return None
    ps = [r["p"] for r in roots if r["kind"] == "bracket_root"]
    return min(ps) if ps else None


def check_sweep(out: str, rc, case: dict, n_angles: int,
                shared_p: float | None) -> list:
    """Monotone decrease, endpoint values, and agreement with `eig`."""
    if rc != 0:
        return _exit(rc)
    lines = out.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [Problem("bad sweep header")]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n_angles:
        return [Problem(f"{len(rows)} sweep rows, expected {n_angles}")]
    problems = []
    nu_text = "" if case["nu"] is None else case["nu"]
    if any(r[2] != case["mode"] or (r[1] and float(r[1]) != float(nu_text))
           or (not r[1] and nu_text) for r in rows):
        problems.append(Problem("mode or nu column differs from the request"))
    angles = np.array([float(r[0]) for r in rows])
    p = np.array([float(r[3]) for r in rows])
    exp_m = np.array([float(r[4]) for r in rows])
    exp_t = np.array([float(r[5]) for r in rows])
    if angles[0] != float(case["from"]) or \
            abs(angles[-1] - float(case["to"])) > 1e-9:
        problems.append(Problem("sweep angles do not span the request"))
    if not np.all(np.diff(p) < 0.0):
        i = int(np.argmax(np.diff(p) >= 0.0))
        problems.append(Problem(
            f"p not strictly decreasing at {angles[i + 1]!r} deg"))
    if np.max(np.abs(exp_m - (p - 1.0))) > 1e-15 or \
            np.max(np.abs(exp_t - (p - 3.0))) > 1e-15:
        problems.append(Problem("growth-rate columns are not p-1 and p-3"))
    for angle, value in ((90.0, 2.0), (180.0, 1.5)):
        hit = angles == angle
        if hit.any() and abs(p[hit][0] - value) > SWEEP_ENDPOINT_TOL:
            problems.append(Problem(
                f"p = {p[hit][0]!r} at {angle:g} deg, expected {value:g}"))
    if shared_p is not None and \
            abs(p[0] - shared_p) > REFINE_TOL * max(1.0, shared_p):
        problems.append(Problem(
            f"sweep p = {p[0]!r} at {case['from']} deg differs from eig's "
            f"smallest root {shared_p!r}"))
    return problems


def check_field(out: str, rc, case: dict, half_angle: float, series) -> list:
    """Grid shape, finiteness, face tractions and sampled values.

    series maps each column to an object with eval(r, theta), built from
    the library outside the timed request.
    """
    if rc != 0:
        return _exit(rc)
    columns = PLANE_COLUMNS if case["mode"] != "ap" else ANTIPLANE_COLUMNS
    lines = out.splitlines()
    if not lines or lines[0] != "r,theta," + ",".join(columns):
        return [Problem("bad field header")]
    radii, steps = case["radii"], case["steps"]
    if len(lines) - 1 != len(radii) * steps:
        return [Problem(f"{len(lines) - 1} field rows, expected "
                        f"{len(radii) * steps}")]
    try:
        data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    except ValueError as exc:
        return [Problem(f"unreadable field row: {exc}")]
    if data.shape[1] != len(columns) + 2:
        return [Problem("ragged field rows")]
    if not np.all(np.isfinite(data)):
        return [Problem("non-finite field value")]
    problems = []
    grid_r = np.repeat(np.array(radii), steps)
    grid_t = np.tile(np.linspace(-half_angle, half_angle, steps), len(radii))
    if not (np.array_equal(data[:, 0], grid_r)
            and np.allclose(data[:, 1], grid_t, rtol=0.0, atol=1e-15)):
        problems.append(Problem("(r, theta) grid differs from the request"))

    if not case["with_p1"]:
        # the p = 1 entry has no dipolar stress, so its face tractions are
        # held to roundoff of the monopolar stress instead
        traction = [j + 2 for j, c in enumerate(columns)
                    if c in ("t_tr", "t_tt", "t_tz")]
        dipolar = [j + 2 for j, c in enumerate(columns) if c.startswith("m_")]
        monopolar = [j + 2 for j, c in enumerate(columns)
                     if c.startswith("tau_")]
        faces = np.concatenate([np.arange(len(radii)) * steps,
                                np.arange(len(radii)) * steps + steps - 1])
        for i in faces:
            row = data[i]
            if case["index"] == 0:
                bound = P1_TRACTION_REL * np.max(np.abs(row[monopolar]))
            else:
                bound = (FACE_TRACTION_REL * np.max(np.abs(row[dipolar]))
                         / row[0])
            worst = float(np.max(np.abs(row[traction])))
            if worst > bound:
                problems.append(Problem(
                    f"face traction {worst:.3e} > {bound:.3e} at "
                    f"r = {row[0]!r}, theta = {row[1]!r}"))
                break

    scale = np.max(np.abs(data[:, 2:]), axis=0)
    n = len(data)
    for i in sorted({0, n // 3, (2 * n) // 3, n - 1}):
        r, theta = data[i, 0], data[i, 1]
        for j, key in enumerate(columns):
            ref = series[key].eval(r, theta)
            got = data[i, j + 2]
            if abs(got - ref) > ROW_MATCH_REL * max(abs(ref), scale[j]):
                problems.append(Problem(
                    f"{key} = {got!r} at row {i}, reference {ref!r}"))
                break
    return problems


def check_report(out: str, rc, kind: str) -> list:
    """`check` and `equilibrium`: exit code 0 and every verdict PASS."""
    problems = _exit(rc)
    lines = out.splitlines()
    if kind == "check":
        verdicts = [line for line in lines if line.startswith("[")]
        failed = [line for line in verdicts if not line.startswith("[PASS]")]
        if not verdicts:
            problems.append(Problem("no check verdicts"))
        problems += [Problem(line) for line in failed]
    else:
        results = [line for line in lines if line.startswith("result:")]
        if len(results) != 1 or not results[0].startswith("result: PASS"):
            problems.append(Problem(results[0] if results
                                    else "no equilibrium verdict"))
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        doc = None
    if doc is None or doc.get("passed") is not True:
        problems.append(Problem("JSON summary missing or not passed"))
    return problems
