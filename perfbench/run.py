"""gradnotch benchmark: one workload run, printed as metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics: `setup_s` from fresh
interpreters that import `gradnotch.cli`, and the request metrics from a
closed loop (one client) in a fresh worker interpreter (worker.py). Every
timed figure is scaled to the host's reference speed (hostspeed.py); the
raw figures are printed next to them.
--trace 1 runs a fixed, seeded list of requests twice in fresh workers,
once with the span tracer installed and once without, and reports the
per-layer metrics, both runs' end-to-end numbers and the tracing
overhead, plus the import-time breakdown from `python -X importtime`.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Its
`failed` counts the requests that fail outside the root-scanner defect
documented before the benchmark existed (checks.py); those inside it are
counted, listed and printed as `fail_ratio` with the rest. The run exits
non-zero without that line when the program source is missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from cases import WORKLOADS, quantile  # noqa: E402

SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
DEADLINE_S = 175.0

# end-to-end metrics: name -> unit; the "request" and "batch" slots are
# each workload's frequent short request and its long one (README.md)
END_TO_END = {
    "setup_s": "s",
    "request_ms_mean": "ms",
    "request_ms_p90": "ms",
    "batch_ms_p50": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
RUN_METRICS = ("request_ms_mean", "request_ms_p90", "batch_ms_p50",
               "rows_per_s", "peak_rss_mb")

# per-layer metrics from the span tracer: (span, statistic, unit)
LAYER_STATS = (
    ("charfn.char_bracket", "calls", "count"),
    ("charfn.char_bracket", "points", "count"),
    ("charfn.char_bracket", "self_ms", "ms"),
    ("eigensolver.find_roots", "calls", "count"),
    ("eigensolver.find_roots", "self_ms", "ms"),
    ("basis.bc_matrix", "calls", "count"),
    ("basis.bc_matrix", "self_ms", "ms"),
    ("basis.bc_det", "calls", "count"),
    ("basis.null_space", "calls", "count"),
    ("basis.null_space", "self_ms", "ms"),
    ("basis.eigenfield", "calls", "count"),
    ("basis.eigenfield", "self_ms", "ms"),
    ("fields.field_series_map", "calls", "count"),
    ("fields.field_series_map", "self_ms", "ms"),
    ("fields.dipolar_series", "calls", "count"),
    ("fields.dipolar_series", "self_ms", "ms"),
    ("fields.total_theta_series", "calls", "count"),
    ("model.PolarSeries.eval", "calls", "count"),
    ("model.PolarSeries.eval", "points", "count"),
    ("model.PolarSeries.eval", "self_ms", "ms"),
    ("equilibrium.check_equilibrium", "calls", "count"),
    ("equilibrium.check_equilibrium", "self_ms", "ms"),
    ("equilibrium.resultant_on_arc", "self_ms", "ms"),
    ("verify.run_suite", "self_ms", "ms"),
    ("verify.det_vs_charfn", "calls", "count"),
    ("verify.det_vs_charfn", "self_ms", "ms"),
    ("cli.eig", "self_ms", "ms"),
    ("cli.sweep", "self_ms", "ms"),
    ("cli.field", "self_ms", "ms"),
    ("cli.equilibrium", "self_ms", "ms"),
    ("cli.check", "self_ms", "ms"),
)
# derived and counted per-layer metrics: name -> unit
LAYER_EXTRA = {
    "eigensolver.roots_found": "count",
    "eigensolver.touch_roots_accepted": "count",
    "eigensolver.dips_rejected": "count",
    "eigensolver.scalar_evals_per_root": "evals/root",
    "basis.eigenfield.empty": "count",
    "model.PolarSeries.created": "count",
    "model.points_per_eval": "points/call",
    "verify.checks_failed": "count",
    "cli.output_bytes": "bytes",
    "import.total_ms": "ms",
    "import.scipy_ms": "ms",
    "import.numpy_ms": "ms",
    "import.gradnotch_ms": "ms",
}
OVERHEAD_UNIT = "%"


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{stat}": unit for span, stat, unit in LAYER_STATS}
    units.update(LAYER_EXTRA)
    for name in RUN_METRICS:
        units["traced." + name] = END_TO_END[name]
        units["untraced." + name] = END_TO_END[name]
        units["overhead." + name] = OVERHEAD_UNIT
    return units


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("deadline reached")
    return left


def _launch(args: list, started: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(args, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=_remaining(started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(args[1:3])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-800:]}")
    return proc


def _launch_time(code: str, started: float) -> float:
    """Seconds from launching a fresh interpreter that runs `code` to the
    end of `code`."""
    t0 = time.perf_counter()
    proc = _launch([sys.executable, "-c",
                    code + "; import time; print(repr(time.perf_counter()))"],
                   started)
    return float(proc.stdout.split()[-1]) - t0


def setup_times(started: float) -> tuple:
    """Seconds from launching a fresh interpreter to `import gradnotch.cli`
    done, one per launch: (raw, scaled to the host's reference speed).

    One untimed launch of each kind writes bytecode first. Each timed
    launch is followed by a launch of the start-up kernel, and is scaled by
    STARTUP_REFERENCE_S over that launch's time (hostspeed.py).
    """
    program = "import gradnotch.cli"
    _launch_time(program, started)
    _launch_time(hostspeed.STARTUP_KERNEL, started)
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        raw.append(_launch_time(program, started))
        kernel = _launch_time(hostspeed.STARTUP_KERNEL, started)
        scaled.append(raw[-1] * hostspeed.STARTUP_REFERENCE_S / kernel)
    return raw, scaled


def _import_breakdown(stderr: str) -> dict:
    """import.* metrics from one `python -X importtime` report.

    Lines are printed children first; a line's nesting depth is its
    indentation. A package's time is the cumulative time of its outermost
    imports, those not nested inside another import of the same package.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue                              # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), self_us, cum_us))
    parents = []
    top = {}
    for depth, name, _, cum in reversed(rows):
        del parents[depth:]
        pkg = name.split(".")[0]
        if not any(p.split(".")[0] == pkg for p in parents):
            top[pkg] = top.get(pkg, 0) + cum
        parents.append(name)
    own = sum(s for _, name, s, _ in rows
              if name.split(".")[0] == "gradnotch")
    return {"import.total_ms": top.get("gradnotch", 0) / 1e3,
            "import.scipy_ms": top.get("scipy", 0) / 1e3,
            "import.numpy_ms": top.get("numpy", 0) / 1e3,
            "import.gradnotch_ms": own / 1e3}


def import_breakdown(started: float) -> dict:
    runs = [_import_breakdown(_launch(
        [sys.executable, "-X", "importtime", "-c", "import gradnotch.cli"],
        started).stderr) for _ in range(IMPORTTIME_LAUNCHES)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def run_worker(workload: str, seed: int, mode: str, started: float,
               seconds: int | None = None) -> dict:
    args = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        args += ["--seconds", str(seconds)]
    proc = _launch(args, started)
    return json.loads(proc.stdout.splitlines()[-1])


def run_metrics(res: dict, prefix: str = "") -> dict:
    """The five run metrics; prefix "raw_" gives them before scaling."""
    lat = res[prefix + "latency_s"]
    req, batch = lat["request"], lat["batch"]
    return {
        "request_ms_mean": statistics.fmean(req) * 1e3,
        "request_ms_p90": quantile(req, 0.9) * 1e3,
        "batch_ms_p50": statistics.median(batch) * 1e3,
        "rows_per_s": res["lines"] / res[prefix + "busy_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def named_metrics(res: dict) -> list:
    """The per-subcommand metrics, as (name, value, unit, samples)."""
    k = res["by_kind_s"]
    out = []

    def add(name, values, scale, unit, p90=False):
        if values:
            out.append((name + "_p50", statistics.median(values) * scale,
                        unit, len(values)))
            if p90 and len(values) >= 100:
                out.append((name + "_p90", quantile(values, 0.9) * scale,
                            unit, len(values)))

    add("eig_ms", k.get("eig"), 1e3, "ms", p90=True)
    add("sweep_ms", k.get("sweep"), 1e3, "ms")
    add("field_ms", k.get("field"), 1e3, "ms")
    if k.get("field"):
        out.append(("field_rows_per_s", res["lines"] / sum(k["field"]),
                    "rows/s", len(k["field"])))
    add("check_s", k.get("check"), 1.0, "s")
    add("equilibrium_ms", k.get("equilibrium"), 1e3, "ms", p90=True)
    return out


def layer_metrics(traced: dict) -> dict:
    layers, counters = traced["layers"], traced["counters"]

    def stat(span, key):
        entry = layers.get(span, {})
        return entry.get(key, 0)

    values = {f"{span}.{key}": stat(span, key)
              for span, key, _ in LAYER_STATS}
    roots = stat("eigensolver.find_roots", "roots_found")
    evals = stat("model.PolarSeries.eval", "calls")
    values.update({
        "eigensolver.roots_found": roots,
        "eigensolver.touch_roots_accepted":
            counters.get("eigensolver.touch_roots_accepted", 0),
        "eigensolver.dips_rejected":
            counters.get("eigensolver.dips_rejected", 0),
        "eigensolver.scalar_evals_per_root":
            stat("charfn.char_bracket", "scalar_calls") / roots if roots
            else 0.0,
        "basis.eigenfield.empty":
            stat("basis.eigenfield", "raised.EmptyNullSpace"),
        "model.PolarSeries.created":
            counters.get("model.PolarSeries.created", 0),
        "model.points_per_eval":
            stat("model.PolarSeries.eval", "points") / evals if evals
            else 0.0,
        "verify.checks_failed": stat("verify.run_suite", "checks_failed"),
        "cli.output_bytes": counters.get("cli.output_bytes", 0),
    })
    return values


def _line(name, value, unit, note="") -> str:
    return f"  {name:<36} {value:>16.6g} {unit:<8} {note}".rstrip()


def _report_failures(results: list) -> list:
    """Every unexpected failure, and the first known-defect ones."""
    lines = []
    for res in results:
        for tag, shown in (("UNEXPECTED", None), ("known defect", 5)):
            listed = res["failures"]["unexpected" if shown is None
                                     else "known"]
            for f in listed[:shown]:
                lines.append(f"  failed ({tag}): {f['argv']}")
                lines += [f"      {p}" for p in f["problems"]]
                if f["stderr"]:
                    lines.append(f"      stderr: {f['stderr'][-200:]!r}")
    return lines


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(human-readable lines, result object)."""
    started = time.monotonic()
    if not (ROOT / "src" / "gradnotch" / "cli.py").is_file():
        raise BenchError(f"program source not found under {ROOT / 'src'}")
    lines = [f"gradnotch benchmark: workload {workload}, seed {seed}, "
             f"trace {trace}; closed loop, 1 client"]
    metrics = {}
    if trace == 0:
        raw_setup, setup = setup_times(started)
        res = run_worker(workload, seed, "timed", started, seconds)
        values = {"setup_s": statistics.median(setup), **run_metrics(res)}
        raw = {"setup_s": statistics.median(raw_setup),
               **run_metrics(res, "raw_")}
        counts = {"setup_s": f"(median of n={len(setup)} launches)",
                  "request_ms_mean": f"(n={len(res['latency_s']['request'])})",
                  "request_ms_p90": f"(n={len(res['latency_s']['request'])})",
                  "batch_ms_p50": f"(n={len(res['latency_s']['batch'])})",
                  "rows_per_s": f"({res['lines']} rows in "
                                f"{res['busy_s']:.3f} s of requests)",
                  "peak_rss_mb": "(worker process)"}
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(_line(name, values[name], unit, counts[name]))
        lines.append("  raw, before scaling to the reference host speed "
                     f"(median factor {res['speed_factor_p50']:.3f} over "
                     f"{res['speed_samples']} speed samples):")
        lines += [_line(name, raw[name], END_TO_END[name])
                  for name in END_TO_END if name != "peak_rss_mb"]
        lines.append("  per subcommand:")
        lines += [_line(n, v, u, f"(n={c})") for n, v, u, c in
                  named_metrics(res)]
        results = [res]
    else:
        traced = run_worker(workload, seed, "traced", started)
        plain = run_worker(workload, seed, "fixed", started)
        values = layer_metrics(traced)
        values.update(import_breakdown(started))
        on, off = run_metrics(traced), run_metrics(plain)
        for name in RUN_METRICS:
            values["traced." + name] = on[name]
            values["untraced." + name] = off[name]
            ratio = (off[name] / on[name] if name == "rows_per_s"
                     else on[name] / off[name])
            values["overhead." + name] = (ratio - 1.0) * 100.0
        for name, unit in per_layer_units().items():
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(_line(name, values[name], unit))
        lines.append(f"  fixed list: {traced['attempted']} requests per pass")
        results = [traced, plain]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    unexpected = sum(r["unexpected_failures"] for r in results)
    lines.append(_line("fail_ratio", failed / attempted, "-",
                       f"({failed} of {attempted} failed, "
                       f"{failed - unexpected} known defect, "
                       f"{unexpected} unexpected)"))
    lines += _report_failures(results)
    lines.append("  properties: " + json.dumps(results[0]["properties"]))
    result = {"correct": unexpected == 0, "attempted": attempted,
              "failed": unexpected, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gradnotch benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run stops the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        lines, result = measure(args.workload, args.seed, args.seconds,
                                args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
