import json
import re
from pathlib import Path

import cases
import run

BENCH = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_lists_match_the_runner():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in BENCH["workloads"]] == list(cases.WORKLOADS)


def test_fields_are_within_the_contract_limits():
    names = [w["name"] for w in BENCH["workloads"]] + [
        m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= BENCH["run_seconds"] <= 60
