"""One workload run in a fresh interpreter (started by run.py).

Drives `gradnotch.cli.main(argv)` in-process as a closed loop with one
client: the next request is sent only when the previous one returned.
Each request's stdout and stderr are captured; its latency covers the
`main` call only. Output checks, reference values and the host-speed
samples (hostspeed.py) run between requests, outside the timed path; in
timed mode a request that runs longer than hostspeed.IN_FLIGHT_AFTER_S is
also sampled in flight, and those samples' time is taken out of its
latency. Latencies are reported raw and scaled to the host's reference
speed. Prints one JSON object on stdout.

Modes:
  timed     requests from the seeded stream until --seconds of request
            time have passed and the minimum sample counts are met, up to
            the end of a cycle (a long request)
  fixed     the first TRACE_REQUESTS[workload] requests of the stream
  traced    the same fixed list with the span tracer installed
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import checks  # noqa: E402
import hostspeed  # noqa: E402

# sample floors for the timed mode: a p90 needs >= 10 samples beyond it;
# four long requests keep verify's `check` seeds 0-3 in every run
MIN_REQUESTS = 100
MIN_BATCHES = 4
# the timed loop stops here even if the floors are not met
WALL_CAP_S = 140.0
TRACE_REQUESTS = {
    "spectrum": 12 * (cases.EIG_PER_SWEEP + 1),
    "field": 10 * (cases.SMALL_PER_LARGE + 1),
    "verify": 2 * (cases.EQUILIBRIA_PER_CHECK + 1),
}
MAX_LISTED_FAILURES = 20


def _import_program():
    """Import the CLI from the checkout's `src/`, which run.py puts on
    PYTHONPATH, and refuse an installed copy."""
    src = HERE.parent / "src"
    import gradnotch
    from gradnotch import cli

    where = Path(gradnotch.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"gradnotch imported from {where}, not from {src}")
    return cli


class Checker:
    """Output checks with references cached per distinct case."""

    def __init__(self):
        self._roots = {}
        self._sols = {}
        self.eig_smallest = {}

    def ref_roots(self, case: dict):
        key = (case["mode"], case["angle"], case["nu"])
        if key not in self._roots:
            import reference
            self._roots[key] = reference.reference_roots(*key)
        return self._roots[key]

    def touch_flags(self, case: dict) -> tuple:
        return tuple(r.touch for r in self.ref_roots(case))

    def __call__(self, req, rc, out: str) -> list:
        c = req.case
        if req.kind == "eig":
            problems = checks.check_eig(out, rc, self.ref_roots(c))
            if rc == 0:
                self.eig_smallest[(c["mode"], c["angle"], c["nu"])] = \
                    checks.eig_smallest(out)
            return problems
        if req.kind == "sweep":
            shared = None
            if c["shared"]:
                shared = self.eig_smallest.get((c["mode"], c["from"], c["nu"]))
            return checks.check_sweep(out, rc, c, cases.SWEEP_ANGLES, shared)
        if req.kind == "field":
            series = self._series(c) if rc == 0 else None
            return checks.check_field(out, rc, c,
                                      math.radians(float(c["angle"])), series)
        return checks.check_report(out, rc, req.kind)

    def _series(self, c: dict) -> dict:
        """field_series_map of the requested field, built like cmd_field."""
        from gradnotch.basis import attach_p1, eigenfield
        from gradnotch.eigensolver import admissible_eigenvalues
        from gradnotch.fields import field_series_map
        from gradnotch.model import MaterialParams, Mode, WedgeCase

        nu = None if c["nu"] is None else float(c["nu"])
        material = MaterialParams(nu=0.0 if nu is None else nu)
        key = (c["mode"], c["angle"], c["nu"], c["index"])
        if key not in self._sols:
            mode = {"ps-sym": Mode.PLANE_SYM, "ps-anti": Mode.PLANE_ANTI,
                    "ap": Mode.ANTIPLANE_ODD}[c["mode"]]
            case = WedgeCase(half_angle_a=math.radians(float(c["angle"])),
                             mode=mode)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                entry = admissible_eigenvalues(case, nu)[c["index"]]
            self._sols[key] = eigenfield(case, material, entry.p)
        sol = self._sols[key]
        if c["with_p1"]:
            sol = attach_p1(sol, c["p1"])
        return field_series_map(
            sol.combined_field(list(c["amps"]), include_p1=True), material)


def _properties(workload: str, done: list, checker: Checker) -> dict:
    """Measured shares of the input properties the workloads vary."""
    props = {}
    if workload == "spectrum":
        eig = [r.case for r in done if r.kind == "eig"]
        for stratum in cases.STRATA:
            props[f"eig_{stratum}_share"] = (
                sum(c["stratum"] == stratum for c in eig) / max(1, len(eig)))
        props["eig_touch_root_share"] = sum(
            any(checker.touch_flags(c)) for c in eig) / max(1, len(eig))
        keys = [(c["mode"], c["angle"], c["nu"]) for c in eig]
        props["case_repeat_share"] = 1.0 - len(set(keys)) / max(1, len(keys))
    elif workload == "field":
        fld = [r.case for r in done]
        keys = [(c["mode"], c["angle"], c["nu"], c["index"]) for c in fld]
        props["case_repeat_share"] = 1.0 - len(set(keys)) / max(1, len(keys))
        rows = [len(c["radii"]) * c["steps"] for c in fld]
        props["rows_per_request"] = {
            "min": min(rows), "p50": cases.quantile(rows, 0.5),
            "p90": cases.quantile(rows, 0.9), "max": max(rows),
            "mean": sum(rows) / len(rows)}
        props["touch_root_share"] = sum(
            c["index"] > 0 and checker.touch_flags(c)[c["index"] - 1]
            for c in fld) / len(fld)
        props["with_p1_share"] = sum(c["with_p1"] for c in fld) / len(fld)
    else:
        eq = [r.case for r in done if r.kind == "equilibrium"]
        notch = [c for c in eq if c["label"].startswith("notch")]
        props["notch_endpoint_share"] = sum(
            c["angle"] in ("90", "180") for c in notch) / max(1, len(notch))
        props["check_seeds"] = sorted({r.case["seed"] for r in done
                                       if r.kind == "check"})
    return props


def run(workload: str, seed: int, seconds: float | None, mode: str) -> dict:
    cli = _import_program()
    checker = Checker()
    stream = cases.stream(workload, seed, checker.touch_flags)
    if mode != "timed":
        stream = itertools.islice(stream, TRACE_REQUESTS[workload])

    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        from gradnotch.eigensolver import NoSignChange

    speed = hostspeed.HostSpeed()
    pooled = hostspeed.HostSpeed(threads=2) if workload == "spectrum" \
        else None
    spans = []
    n_slot = {"request": 0, "batch": 0}
    lines = 0
    busy = 0.0
    done = []
    failures = {"known": [], "unexpected": []}
    n_failed = n_unexpected = 0
    started = time.perf_counter()
    for i, req in enumerate(stream):
        # a timed run stops only after a long request, so that it holds
        # whole cycles of the workload's request mix
        if mode == "timed" and done and done[-1].slot == "batch" \
                and busy >= seconds \
                and n_slot["request"] >= MIN_REQUESTS \
                and n_slot["batch"] >= MIN_BATCHES:
            break
        if mode == "timed" and time.perf_counter() - started > WALL_CAP_S:
            break
        speed.maybe_sample()
        if req.kind == "sweep":
            pooled.sample()
        out, err = io.StringIO(), io.StringIO()
        caught = []
        in_flight = []
        t0 = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if mode == "timed":
                in_flight = stack.enter_context(speed.during())
            if tracer is not None:
                stack.enter_context(tracer.request(i, "cli." + req.kind))
                caught = stack.enter_context(
                    warnings.catch_warnings(record=True))
                warnings.simplefilter("always")
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            try:
                rc = cli.main(list(req.argv))
            except Exception:
                rc = "exception: " + traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if req.kind == "sweep":
            pooled.sample()

        text = out.getvalue()
        spent = t1 - t0 - sum(in_flight)
        busy += spent
        spans.append((t0, t1, spent))
        n_slot[req.slot] += 1
        lines += text.count("\n")
        if tracer is not None:
            tracer.counters["cli.output_bytes"] += len(text.encode())
            for w in caught:
                if issubclass(w.category, NoSignChange):
                    name = ("eigensolver.touch_roots_accepted"
                            if w.message.accepted
                            else "eigensolver.dips_rejected")
                    tracer.counters[name] += 1
        try:
            problems = checker(req, rc, text)
        except Exception:
            problems = [checks.Problem(
                "output check raised: " + traceback.format_exc(limit=2))]
        if isinstance(rc, str):
            problems = [checks.Problem(rc)] + problems
        done.append(req)
        if problems:
            n_failed += 1
            unexpected = any(not p.known for p in problems)
            n_unexpected += unexpected
            listed = failures["unexpected" if unexpected else "known"]
            if len(listed) < MAX_LISTED_FAILURES:
                listed.append({
                    "argv": " ".join(req.argv),
                    "problems": [p.text for p in problems[:3]],
                    "stderr": err.getvalue()[-300:] if rc != 0 else ""})
    if tracer is not None:
        tracer.uninstall()
    speed.sample()
    if pooled is not None:
        pooled.close()
    speed.close()

    raw = {"request": [], "batch": []}
    lat = {"request": [], "batch": []}
    by_kind = {}
    factors = []
    for req, (t0, t1, spent) in zip(done, spans):
        factors.append((pooled if req.kind == "sweep" else speed)
                       .factor(t0, t1))
        raw[req.slot].append(spent)
        lat[req.slot].append(spent * factors[-1])
        by_kind.setdefault(req.kind, []).append(spent * factors[-1])
    result = {
        "workload": workload, "seed": seed, "mode": mode,
        "attempted": len(done), "failed": n_failed,
        "unexpected_failures": n_unexpected, "failures": failures,
        "busy_s": sum(map(sum, lat.values())), "raw_busy_s": busy,
        "lines": lines, "latency_s": lat, "raw_latency_s": raw,
        "by_kind_s": by_kind, "speed_samples": len(speed.samples),
        "speed_factor_p50": cases.quantile(factors, 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "properties": _properties(workload, done, checker),
    }
    if tracer is not None:
        result["layers"] = {
            name: {"calls": s.calls, "self_ms": s.self_s * 1e3,
                   **dict(s.extra)}
            for name, s in tracer.stats.items()}
        result["counters"] = dict(tracer.counters)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "fixed", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float,
                        help="request time to run for (timed mode only)")
    args = parser.parse_args(argv)
    if (args.mode == "timed") != (args.seconds is not None):
        parser.error("--seconds is required in timed mode and only there")
    result = run(args.workload, args.seed, args.seconds, args.mode)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
