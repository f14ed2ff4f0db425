"""Seeded request streams for the three workloads.

Each stream is an endless, deterministic sequence of `Request`s: the same
workload and seed always give the same argv lists. Discrete properties
(mode, angle stratum, grid shape) are assigned round-robin so that every
run holds the same shares of them; the seed draws the continuous values
(angles, Poisson ratios, amplitudes, radii). The program receives only
`Request.argv`; `Request.case` carries what the output checks need.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

MODES = ("ps-sym", "ps-anti", "ap")
STRATA = ("endpoint", "near", "interior")
# every `check` request runs the whole suite with the next seed of this list
CHECK_SEEDS = tuple(range(8))
# nullity of the p = 1 constant-strain entry, and the number of constants
# `--with-p1` takes, per mode
P1_NULLITY = {"ps-sym": 2, "ps-anti": 1, "ap": 1}

# one interior eig group in this many is at exactly 135 degrees, where the
# plane modes have touch roots (7/3 and 11/3, or 5/3 and 3)
INTERIOR_PER_135 = 4
EIG_PER_SWEEP = 10
SWEEP_SPAN_DEG = 10.0
SWEEP_STEP = "0.1"
SWEEP_ANGLES = 101
SMALL_PER_LARGE = 8
FIELD_POOL = 12
SMALL_STEPS = (100, 150)
# small grids step through every count in SMALL_STEPS in a fixed order
STEPS_STRIDE = 20
# every large grid has 5000 rows
LARGE_SHAPES = ((1, 5000), (2, 2500), (4, 1250))
# the one eigenfield every large grid plots, the same for every seed, so
# that the long requests of every run carry the same work
LARGE_CASE = {"mode": "ps-sym", "angle": "150", "nu": "0.3",
              "stratum": "interior"}
EQUILIBRIA_PER_CHECK = 120


@dataclass(frozen=True)
class Request:
    """One CLI call. `slot` is "request" for the workload's frequent short
    request and "batch" for its long one (see README)."""

    kind: str
    slot: str
    argv: tuple
    case: dict = field(default_factory=dict, compare=False)


def _text(x: float) -> str:
    return repr(float(x))


def _nu_args(mode: str, nu: str) -> list:
    return [] if mode == "ap" else ["--nu", nu]


def _case_key(mode: str, angle: str, nu: str | None) -> tuple:
    return (mode, angle, None if mode == "ap" else nu)


def _angle(rng: random.Random, stratum: str, k: int) -> str:
    if stratum == "endpoint":
        return ("90", "180")[k % 2]
    if stratum == "near":
        offset = 1.0 - rng.random()          # (0, 1] degrees
        return _text(90.0 + offset) if k % 2 else _text(180.0 - offset)
    return _text(rng.uniform(91.0, 179.0))


def spectrum(seed: int):
    """`eig` over distinct cases in three angle strata, and after every
    EIG_PER_SWEEP of them one 101-angle `sweep`. The anti-plane case at an
    exact angle (endpoint or 135 degrees) has no nu, so it is drawn once
    and later draws of it move near an endpoint."""
    rng = random.Random(f"spectrum:{seed}")
    seen = set()
    block = []
    for k in itertools.count():
        mode = MODES[k % 3]
        stratum = STRATA[(k // 3) % 3]
        nu = _text(0.5 * rng.random())
        angle = _angle(rng, stratum, k // 9)
        if stratum == "interior" and (k // 9) % INTERIOR_PER_135 == 0:
            angle = "135"
        if _case_key(mode, angle, nu) in seen:
            # draw a near-endpoint angle instead so that no case is seen
            # twice
            stratum = "near"
            angle = _angle(rng, stratum, k // 9)
        seen.add(_case_key(mode, angle, nu))
        case = {"mode": mode, "angle": angle,
                "nu": None if mode == "ap" else nu, "stratum": stratum}
        block.append(case)
        yield Request("eig", "request",
                      ("eig", "--mode", mode, "--angle-deg", angle,
                       *_nu_args(mode, nu)), case)
        if len(block) == EIG_PER_SWEEP:
            yield _sweep(rng, k // EIG_PER_SWEEP, block)
            block = []


def _sweep(rng: random.Random, b: int, block: list) -> Request:
    """Sweeps start at an `eig` angle of the block (a shared angle), or
    span an endpoint: [90, 100] or [170, 180]. Shared sweeps take the
    modes in turn (a plane-mode sweep costs about twice an anti-plane
    one, so this keeps the mix alike from seed to seed). Endpoint sweeps
    use the plane modes, whose seeded nu keeps every sweep distinct."""
    kind = ("shared", "from90", "shared", "to180")[b % 4]
    shared = [c for c in block
              if float(c["angle"]) <= 180.0 - SWEEP_SPAN_DEG
              and c["mode"] == MODES[(b // 2) % len(MODES)]]
    if kind == "shared" and shared:
        mode, nu, lo = shared[-1]["mode"], shared[-1]["nu"], \
            shared[-1]["angle"]
        hi = _text(float(lo) + SWEEP_SPAN_DEG)
    else:
        kind = "to180" if kind == "to180" else "from90"
        mode = ("ps-sym", "ps-anti")[(b // 2) % 2]
        nu = _text(0.5 * rng.random())
        lo, hi = ("170", "180") if kind == "to180" else ("90", "100")
    case = {"mode": mode, "from": lo, "to": hi, "nu": nu,
            "shared": kind == "shared"}
    return Request("sweep", "batch",
                   ("sweep", "--mode", mode, *_nu_args(mode, nu),
                    "--from", lo, "--to", hi, "--step", SWEEP_STEP), case)


def field_pool(seed: int) -> list:
    """FIELD_POOL field cases, each mode at an endpoint, near an endpoint
    and at an interior angle, of a seeded draw.

    A request's cost depends on its case (the number of roots grows with
    the angle; near an endpoint, on how a root pair splits), so the pool
    is large enough to hold several of each kind, and the interior angles
    come one from each of as many equal bands of (91, 179) degrees.
    """
    rng = random.Random(f"field-pool:{seed}")
    strata = [STRATA[(i + i // 3) % 3] for i in range(FIELD_POOL)]
    width = 88.0 / strata.count("interior")
    pool = []
    for i, stratum in enumerate(strata):
        mode = MODES[i % 3]
        if stratum == "interior":
            lo = 91.0 + width * strata[:i].count("interior")
            angle = _text(rng.uniform(lo, lo + width))
        else:
            angle = _angle(rng, stratum, i // 3)
        nu = _text(0.5 * rng.random())
        pool.append({"mode": mode, "angle": angle,
                     "nu": None if mode == "ap" else nu, "stratum": stratum})
    return pool


def field(seed: int, touch_flags):
    """`field` requests: SMALL_PER_LARGE small grids (1-4 radii, 100-150
    theta steps) over a small pool of seeded cases, then one large grid of
    5000 rows (1 x 5000, 2 x 2500 or 4 x 1250) of LARGE_CASE's leading
    eigenfield.

    Small requests visit the pool round-robin, each case stepping through
    --eig-index 0, 1, 2 in turn, and every fourth small request of a
    bracket root attaches --with-p1; the number of radii steps through
    1-4 with each pass over the pool, and the theta steps through 100-150
    in a fixed order. A small grid's cost grows with both, so the mix is
    the same for every seed; the seed draws the pool, radii and
    amplitudes. touch_flags(case) tells, per bracket root, whether it is a
    touch root (nullity 2) or a simple one (nullity 1), so that the number
    of --amps is valid.
    """
    rng = random.Random(f"field:{seed}")
    pool = field_pool(seed)
    visits = [0] * len(pool)
    for k in itertools.count():
        j, small = divmod(k, SMALL_PER_LARGE + 1)
        if small < SMALL_PER_LARGE:
            n = j * SMALL_PER_LARGE + small
            slot_i = n % len(pool)
            case = pool[slot_i]
            visit = visits[slot_i]
            visits[slot_i] += 1
            index = visit % (min(2, len(touch_flags(case))) + 1)
            with_p1 = index > 0 and visit % 4 == 3
            n_r = 1 + (n // len(pool)) % 4
            radii = [rng.uniform(0.1, 4.0) for _ in range(n_r)]
            steps = SMALL_STEPS[0] + (n * STEPS_STRIDE) % (
                SMALL_STEPS[1] - SMALL_STEPS[0] + 1)
            slot = "request"
        else:
            case = LARGE_CASE
            index, with_p1 = 1, False
            n_r, steps = LARGE_SHAPES[j % 3]
            radii = [rng.uniform(0.1, 4.0) for _ in range(n_r)]
            slot = "batch"
        touches = touch_flags(case)
        if index == 0:
            nullity = P1_NULLITY[case["mode"]]
        else:
            nullity = 2 if touches[index - 1] else 1
        amps = ["%.6g" % rng.uniform(-1.0, 1.0) for _ in range(nullity)]
        p1 = (["%.6g" % rng.uniform(-1.0, 1.0)
               for _ in range(P1_NULLITY[case["mode"]])] if with_p1 else [])
        radii = ["%.4g" % r for r in radii]
        argv = ["field", "--mode", case["mode"], "--angle-deg", case["angle"],
                *_nu_args(case["mode"], case["nu"]),
                "--eig-index", str(index), "--amps=" + ",".join(amps),
                "--r", ",".join(radii), "--theta-steps", str(steps)]
        if with_p1:
            argv.append("--with-p1=" + ",".join(p1))
        yield Request("field", slot, tuple(argv),
                      dict(case, index=index, with_p1=with_p1,
                           amps=tuple(map(float, amps)),
                           p1=tuple(map(float, p1)),
                           radii=tuple(map(float, radii)), steps=steps))


def verify(seed: int):
    """EQUILIBRIA_PER_CHECK `equilibrium` reports, then one
    `check --suite all` with the next of CHECK_SEEDS, repeated."""
    rng = random.Random(f"verify:{seed}")
    for b in itertools.count():
        for i in range(EQUILIBRIA_PER_CHECK):
            yield _equilibrium(rng, b * EQUILIBRIA_PER_CHECK + i)
        check_seed = CHECK_SEEDS[b % len(CHECK_SEEDS)]
        yield Request("check", "batch",
                      ("check", "--suite", "all", "--seed", str(check_seed)),
                      {"seed": check_seed})


def _equilibrium(rng: random.Random, k: int) -> Request:
    label = ("I", "II", "notch-sym", "notch-anti")[k % 4]
    nu = _text(0.5 * rng.random())
    r0 = "%.6g" % (10.0 ** rng.uniform(-0.7, 0.7))
    if label in ("I", "II"):
        angle, n_amps = "180", 2
    else:
        # touch roots at the endpoints carry a two-dimensional null space
        angle = ("90", "180", None)[(k // 4) % 3] or _text(
            rng.uniform(91.0, 179.0))
        n_amps = 2 if angle in ("90", "180") else 1
    amps = ",".join("%.6g" % rng.uniform(-2.0, 2.0) for _ in range(n_amps))
    return Request("equilibrium", "request",
                   ("equilibrium", "--mode", label, "--angle-deg", angle,
                    "--nu", nu, "--amps=" + amps, "--r0", r0),
                   {"label": label, "angle": angle, "nu": nu})


def quantile(values, q: float):
    """Nearest-rank quantile; None for an empty list."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def stream(workload: str, seed: int, touch_flags=None):
    if workload == "spectrum":
        return spectrum(seed)
    if workload == "field":
        return field(seed, touch_flags)
    if workload == "verify":
        return verify(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("spectrum", "field", "verify")
