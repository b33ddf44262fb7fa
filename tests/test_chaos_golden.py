"""Golden pin for the chaos engine: every single-group catalog scenario's
sim report (`describe()` + `to_dict()` minus the trace path) and the
`repro chaos --list` table, byte for byte.

Sim reports repeat exactly across processes, so a refactor of the runner
either keeps `tests/fixtures/chaos_golden.json` identical or shows up here
as a reviewable diff.  The fixture was recorded from the code *before* the
one-runner refactor; regenerate it (only when an output change is the
point) with `PYTHONPATH=src python tests/test_chaos_golden.py`.
"""

import contextlib
import io
import json
import os
import tempfile

from repro.chaos import get_scenario, run_scenario
from repro.cli import main as cli_main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "chaos_golden.json")

SIM_SCENARIOS = (
    "replica-crash-restart", "leader-crash-failover", "partition-heal",
    "drop-reorder-burst", "clock-skew-sweep", "truetime-epsilon-sweep",
    "gryff-smoke", "spanner-smoke",
)


def _sim_report(name, trace_dir):
    report = run_scenario(get_scenario(name), backend="sim",
                          trace_dir=trace_dir)
    payload = report.to_dict()
    del payload["trace"]
    return {"describe": report.describe(), "to_dict": payload}


def _list_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["chaos", "--list"]) == 0
    return out.getvalue()


def _render(payload):
    return json.dumps(payload, indent=1) + "\n"


def _golden():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_sim_reports_match_the_golden_fixture(tmp_path):
    golden = _golden()["scenarios"]
    assert tuple(golden) == SIM_SCENARIOS
    for name in SIM_SCENARIOS:
        current = _sim_report(name, str(tmp_path / name))
        assert _render(current) == _render(golden[name]), name


def test_list_stdout_matches_the_golden_fixture():
    assert _list_stdout() == _golden()["list_stdout"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = {
            "list_stdout": _list_stdout(),
            "scenarios": {name: _sim_report(name, os.path.join(scratch, name))
                          for name in SIM_SCENARIOS},
        }
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        handle.write(_render(recorded))
    print(f"wrote {FIXTURE}")
