"""Chaos scenarios end to end: timelines, fault windows, the catalog, and
`run_scenario` on both backends (checker-verified verdicts).

Live runs here use the short CI smoke scenarios; the full catalog runs on
both backends in the chaos-smoke CI job (`python -m repro chaos`).
"""

import json

import pytest

from repro.chaos import (
    ChaosReport,
    FaultEvent,
    Scenario,
    all_scenarios,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.cli import main as cli_main


# --------------------------------------------------------------------------- #
# Timeline validation and fault windows
# --------------------------------------------------------------------------- #
class TestScenarioModel:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown action"):
            FaultEvent(10.0, "meteor-strike", "replica0")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="at_ms"):
            FaultEvent(-1.0, "crash", "replica0")

    def test_crashed_nodes_deduplicated_in_order(self):
        scenario = Scenario(name="s", protocol="gryff-rsc", description="",
                            events=[FaultEvent(500, "crash", "b"),
                                    FaultEvent(100, "crash", "a"),
                                    FaultEvent(900, "crash", "a")])
        assert scenario.crashed_nodes() == ["a", "b"]

    def test_fault_windows_pair_openers_with_closers(self):
        scenario = Scenario(
            name="s", protocol="spanner-rss", description="",
            duration_ms=2_000, op_timeout_ms=400, window_slack_ms=100,
            events=[
                FaultEvent(100, "crash", "shard0"),
                FaultEvent(500, "restart", "shard0"),
                FaultEvent(200, "partition", args={"groups": [["a"], ["b"]]}),
                FaultEvent(800, "heal"),
                FaultEvent(300, "skew", "shard1", args={"offset_ms": 5.0}),
                FaultEvent(600, "skew", "shard1", args={"offset_ms": 0.0}),
                FaultEvent(900, "drop", args={"probability": 0.5}),
            ])
        windows = scenario.fault_windows()
        # Closed windows get the slack; the unclosed drop rule runs to the
        # end of the run (duration + op timeout + slack).
        assert (100, 600) in windows
        assert (200, 900) in windows
        assert (300, 700) in windows
        assert (900, 2_500) in windows

    def test_epsilon_sweep_closes_on_restore(self):
        scenario = Scenario(
            name="s", protocol="spanner-rss", description="",
            window_slack_ms=50,
            events=[
                FaultEvent(400, "epsilon", args={"epsilon_ms": 4.0}),
                FaultEvent(1_000, "epsilon", args={"epsilon_ms": 20.0}),
                FaultEvent(1_600, "epsilon", args={"epsilon_ms": 10.0,
                                                   "restore": True}),
            ])
        assert scenario.fault_windows() == [(400, 1_650)]


# --------------------------------------------------------------------------- #
# The catalog
# --------------------------------------------------------------------------- #
class TestCatalog:
    REQUIRED = {
        "replica-crash-restart", "leader-crash-failover", "partition-heal",
        "drop-reorder-burst", "clock-skew-sweep", "truetime-epsilon-sweep",
        "gryff-smoke", "spanner-smoke",
    }

    def test_catalog_covers_the_required_scenarios(self):
        names = set(scenario_names())
        assert self.REQUIRED <= names
        assert len(names) >= 6

    def test_every_scenario_is_well_formed(self):
        for scenario in all_scenarios().values():
            assert scenario.protocol in ("gryff-rsc", "spanner-rss")
            assert scenario.events, scenario.name
            # A migration opens no fault window (it must be invisible to
            # clients); every other scenario licenses some misbehavior.
            migrates = any(e.action == "migrate" for e in scenario.events)
            assert bool(scenario.fault_windows()) != migrates, scenario.name
            assert scenario.backends == (
                ("live",) if scenario.num_groups > 1 else ("sim", "live"))
            crashed = set(scenario.crashed_nodes())
            restarted = {e.target for e in scenario.events
                         if e.action == "restart"}
            assert crashed == restarted, \
                f"{scenario.name}: every crash must have a restart"

    def test_get_scenario_returns_fresh_objects(self):
        first = get_scenario("gryff-smoke")
        first.events.append(FaultEvent(1, "heal"))
        assert len(get_scenario("gryff-smoke").events) != len(first.events)

    def test_unknown_scenario_lists_the_known_ones(self):
        with pytest.raises(KeyError, match="replica-crash-restart"):
            get_scenario("nope")

    def test_skew_on_gryff_is_rejected(self):
        scenario = Scenario(name="bad", protocol="gryff-rsc", description="",
                            events=[FaultEvent(10, "skew", "replica0",
                                               args={"offset_ms": 5.0})])
        with pytest.raises(ValueError, match="skew"):
            run_scenario(scenario, backend="sim")


# --------------------------------------------------------------------------- #
# run_scenario: sim backend
# --------------------------------------------------------------------------- #
class TestRunScenarioSim:
    def test_gryff_smoke_crash_restart_partition_heal(self, tmp_path):
        report = run_scenario(get_scenario("gryff-smoke"), backend="sim",
                              trace_dir=str(tmp_path))
        assert isinstance(report, ChaosReport)
        assert report.ok, report.describe()
        assert report.backend == "sim" and report.protocol == "gryff-rsc"
        assert report.ops > 0
        # The crashed replica recovered its exact pre-crash durable state.
        assert report.recoveries and all(r.matches for r in report.recoveries)
        # The partition actually dropped traffic.
        assert report.fault_counters["dropped"] > 0
        # Violations, if any, stayed inside the declared fault windows.
        assert report.violations_outside_windows == []
        assert (tmp_path / "trace.jsonl").exists()

    def test_leader_crash_failover_bumps_the_lease_term(self, tmp_path):
        report = run_scenario(get_scenario("leader-crash-failover"),
                              backend="sim", trace_dir=str(tmp_path))
        assert report.ok, report.describe()
        assert report.recoveries and all(r.matches for r in report.recoveries)
        # The crashed leader's lease expired and re-election fenced it with
        # a higher term.
        terms = [term for _, _, term in
                 report.lease_transitions.get("shard1", [])]
        assert terms and max(terms) >= 2

    def test_expect_clean_scenario_must_fully_satisfy(self, tmp_path):
        report = run_scenario(get_scenario("clock-skew-sweep"), backend="sim",
                              trace_dir=str(tmp_path))
        assert report.expect_clean
        assert report.ok, report.describe()
        assert report.satisfied and report.violations == []

    def test_every_run_starts_from_empty_durable_state(self, tmp_path):
        """A second run into the same directory must not recover the first
        run's WALs (it used to: ops=83 then ops=71 with a violation), and
        resetting touches only what the engine itself writes there."""
        (tmp_path / "notes.txt").write_text("mine")
        scenario = get_scenario("clock-skew-sweep")
        first = run_scenario(scenario, backend="sim",
                             trace_dir=str(tmp_path)).to_dict()
        second = run_scenario(scenario, backend="sim",
                              trace_dir=str(tmp_path)).to_dict()
        assert first["ok"] and first == second
        assert (tmp_path / "notes.txt").read_text() == "mine"

    def test_report_roundtrips_to_json(self, tmp_path):
        report = run_scenario(get_scenario("truetime-epsilon-sweep"),
                              backend="sim", trace_dir=str(tmp_path))
        assert report.ok, report.describe()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["scenario"] == "truetime-epsilon-sweep"
        assert payload["ok"] is True


# --------------------------------------------------------------------------- #
# run_scenario: live backend (real asyncio TCP on ephemeral ports)
# --------------------------------------------------------------------------- #
class TestRunScenarioLive:
    def test_gryff_smoke_live(self, tmp_path):
        report = run_scenario(get_scenario("gryff-smoke"), backend="live",
                              trace_dir=str(tmp_path))
        assert report.ok, report.describe()
        assert report.backend == "live"
        assert report.ops > 0
        assert report.recoveries and all(r.matches for r in report.recoveries)

    def test_spanner_smoke_live(self, tmp_path):
        report = run_scenario(get_scenario("spanner-smoke"), backend="live",
                              trace_dir=str(tmp_path))
        assert report.ok, report.describe()
        assert report.recoveries and all(r.matches for r in report.recoveries)


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestChaosCli:
    def test_list_prints_the_catalog(self, capsys):
        assert cli_main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in TestCatalog.REQUIRED:
            assert name in out

    def test_run_scenario_writes_a_json_report(self, tmp_path, capsys):
        verdict = str(tmp_path / "report.json")
        code = cli_main(["chaos", "--scenario", "replica-crash-restart",
                         "--backend", "sim", "--trace-dir", str(tmp_path),
                         "--json", verdict])
        assert code == 0
        assert "OK" in capsys.readouterr().out
        with open(verdict) as handle:
            reports = json.load(handle)
        assert reports[0]["scenario"] == "replica-crash-restart"
        assert reports[0]["ok"] is True

    @pytest.mark.parametrize("argv, code, says", [
        # A fleet scenario is live-only: asking for the sim says so...
        (["chaos", "--scenario", "reshard-crash", "--backend", "sim"],
         2, "only the live backend"),
        # ...`both` means the backends the scenario supports...
        (["chaos", "--scenario", "reshard-crash", "--backend", "both"],
         0, "scenario reshard-crash [live] protocol=gryff-rsc model=rsc: OK"),
        # ...and the monitor resolves the name like any other catalog entry.
        (["monitor", "{trace}", "--idle-timeout", "0",
          "--scenario", "reshard-crash"], 0, "CLEAN"),
    ])
    def test_fleet_scenario_comes_from_the_catalog(self, argv, code, says,
                                                   tmp_path, capsys):
        clean = run_scenario(get_scenario("gryff-smoke"),
                             backend="sim", trace_dir=str(tmp_path))
        argv = [arg.format(trace=clean.trace_path) for arg in argv]
        assert cli_main(argv) == code
        captured = capsys.readouterr()
        assert says in captured.out + captured.err
        assert "[sim]" not in captured.out
