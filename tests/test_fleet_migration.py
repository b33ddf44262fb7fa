"""Migration plans, journal-based placement recovery, and the live
crash/recover path.

The central property (acceptance criterion of the fleet subsystem): a
kill -9 of the migration controller at *any* journal prefix recovers, via
:func:`~repro.fleet.migration.recover_placement`, to a placement in which
every key has exactly one owner — the pre-flip placement before the
``flipped`` record is durable, the post-flip placement after.  The
hypothesis test replays every prefix of synthetic journals written in the
controller's exact record format; the live test is the ``reshard-crash``
chaos scenario: a real controller crashed mid-copy under load, recovered
from its journal, and re-run to the flip.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.migration import (
    MIGRATION_JOURNAL_SCHEMA,
    MigrationPlan,
    recover_placement,
)
from repro.fleet.ring import POINT_SPACE, PlacementMap
from repro.storage.wal import WriteAheadLog


class TestMigrationPlanParse:
    def test_split(self):
        plan = MigrationPlan.parse("800:split:0.25:g1")
        assert (plan.at_ms, plan.kind, plan.frac_lo, plan.frac_hi, plan.dst) \
            == (800.0, "split", 0.25, None, "g1")

    def test_merge(self):
        plan = MigrationPlan.parse("2000:merge:0.9:g0")
        assert plan.kind == "merge" and plan.dst == "g0"

    def test_move(self):
        plan = MigrationPlan.parse("100:move:0.25-0.375:g1")
        assert plan.kind == "move"
        assert (plan.frac_lo, plan.frac_hi) == (0.25, 0.375)

    def test_describe_round_trips(self):
        for text in ("800:split:0.25:g1", "2000:merge:0.9:g0",
                     "100:move:0.25-0.375:g1"):
            plan = MigrationPlan.parse(text)
            assert MigrationPlan.parse(plan.describe()) == plan

    @pytest.mark.parametrize("bad", [
        "800:split:0.25",                 # missing dst
        "800:split:0.25:g1:extra",        # too many fields
        "800:resize:0.25:g1",             # unknown kind
        "800:split:1.5:g1",               # fraction out of range
        "800:move:0.5:g1",                # move without lo-hi
        "800:move:0.5-0.25:g1",           # inverted range
        "800:move:0.5-1.25:g1",           # hi out of range
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            MigrationPlan.parse(bad)


class TestMigrationPlanResolve:
    def test_split_bisects_containing_range(self):
        placement = PlacementMap.build(["g0", "g1"])
        plan = MigrationPlan.parse("0:split:0.5:g1")
        lo, hi = plan.resolve(placement)
        point = int(0.5 * POINT_SPACE)
        containing = next(r for r in placement.ranges()
                          if r.contains(point))
        assert (lo, hi) == ((containing.lo + containing.hi) // 2,
                            containing.hi)

    def test_merge_takes_whole_range(self):
        placement = PlacementMap.build(["g0", "g1"])
        plan = MigrationPlan.parse("0:merge:0.5:g0")
        lo, hi = plan.resolve(placement)
        containing = next(r for r in placement.ranges()
                          if r.contains(int(0.5 * POINT_SPACE)))
        assert (lo, hi) == (containing.lo, containing.hi)

    def test_move_uses_explicit_fractions(self):
        placement = PlacementMap.build(["g0", "g1"])
        plan = MigrationPlan.parse("0:move:0.25-0.5:g1")
        assert plan.resolve(placement) == (POINT_SPACE // 4, POINT_SPACE // 2)

    def test_too_narrow_split_rejected(self):
        from repro.fleet.ring import PlacementRange

        # [0, 1) is one point wide: bisecting it would produce an empty half.
        narrow = PlacementMap([PlacementRange(0, 1, "g0"),
                               PlacementRange(1, POINT_SPACE, "g1")])
        plan = MigrationPlan.parse("0:split:0.0:g1")
        with pytest.raises(ValueError, match="too narrow"):
            plan.resolve(narrow)


# --------------------------------------------------------------------------- #
# Journal-prefix recovery property
# --------------------------------------------------------------------------- #
def _journal_records(mig_id, placement, lo, hi, dst):
    """One migration's journal records, in the controller's exact shapes."""
    pre = placement.to_dict()
    placement.move(lo, hi, dst)
    post = placement.to_dict()
    return [
        {"schema": MIGRATION_JOURNAL_SCHEMA, "kind": "begin",
         "mig_id": mig_id, "lo": lo, "hi": hi, "dst": dst,
         "placement": pre},
        {"kind": "mirror_on", "mig_id": mig_id},
        {"kind": "copied", "mig_id": mig_id, "keys": 7},
        {"kind": "fenced", "mig_id": mig_id},
        {"kind": "flipped", "mig_id": mig_id, "placement": post},
        {"kind": "purged", "mig_id": mig_id, "removed": 7},
        {"kind": "done", "mig_id": mig_id},
    ]


_slice = st.tuples(
    st.integers(min_value=0, max_value=POINT_SPACE - 2),
    st.integers(min_value=1, max_value=POINT_SPACE),
    st.sampled_from(["g0", "g1", "g2"]),
).map(lambda t: (t[0], min(POINT_SPACE, max(t[0] + 1, t[1])), t[2]))


class TestRecoverPlacement:
    @settings(max_examples=25, deadline=None)
    @given(slices=st.lists(_slice, min_size=1, max_size=3),
           seed=st.integers(min_value=0, max_value=99))
    def test_every_journal_prefix_recovers_single_owner(
            self, tmp_path_factory, slices, seed):
        """kill -9 between any two journal appends -> valid placement."""
        initial = PlacementMap.build(["g0", "g1", "g2"], seed=seed)
        rolling = initial.copy()
        records = []
        for index, (lo, hi, dst) in enumerate(slices):
            records.extend(_journal_records(f"mig{index + 1}", rolling,
                                            lo, hi, dst))
        base = tmp_path_factory.mktemp("journal")
        for cut in range(len(records) + 1):
            path = str(base / f"prefix{cut}.journal")
            wal = WriteAheadLog(path)
            for record in records[:cut]:
                wal.append(record)
            wal.close()
            placement, unfinished = recover_placement(path, initial)
            placement.validate()          # exactly-one-owner tiling
            # Recovery is all-or-nothing per migration: the placement is
            # either the snapshot before a migration or after it, and the
            # in-flight one (if any) is reported unfinished.
            done = sum(1 for r in records[:cut] if r["kind"] == "done")
            flipped = sum(1 for r in records[:cut] if r["kind"] == "flipped")
            expected = initial.copy()
            for lo, hi, dst in slices[:flipped]:
                expected.move(lo, hi, dst)
            assert placement.to_dict() == expected.to_dict()
            begun = sum(1 for r in records[:cut] if r["kind"] == "begin")
            if begun > done:
                assert unfinished == f"mig{begun}"
            else:
                assert unfinished is None

    def test_missing_journal_returns_initial(self, tmp_path):
        initial = PlacementMap.build(["g0", "g1"])
        placement, unfinished = recover_placement(
            str(tmp_path / "absent.journal"), initial)
        assert placement.to_dict() == initial.to_dict()
        assert unfinished is None

    def test_recovery_drops_transient_state(self, tmp_path):
        initial = PlacementMap.build(["g0", "g1"])
        initial.freeze(0, 100)
        initial.set_mirror(0, 100, "g1")
        placement, _ = recover_placement(
            str(tmp_path / "absent.journal"), initial)
        assert not placement.has_frozen() and not placement.has_mirrors()


# --------------------------------------------------------------------------- #
# Live crash/recover (real controller, real journal, load running)
# --------------------------------------------------------------------------- #
class TestLiveCrashRecovery:
    def test_reshard_crash_scenario_recovers_and_finishes_the_reshard(
            self, tmp_path):
        """Fleet x chaos, end to end on the live backend: the controller
        dies mid-copy under load, its journal recovers the pre-flip
        placement, a fresh controller re-runs the plan to the flip, and one
        history across crash, recovery and flip satisfies the checker."""
        from repro.chaos import get_scenario, run_scenario

        report = run_scenario(get_scenario("reshard-crash"), backend="live",
                              trace_dir=str(tmp_path))
        assert report.ok, report.describe()
        assert report.ops > 0
        # expect_clean: a migration excuses nothing, crashed or not.
        assert report.fault_windows == []
        assert report.satisfied and report.violations == []

        recovered, final = report.recoveries
        assert recovered.node == final.node == "migration-controller"
        # recover_controller: the journal gave back the untouched pre-flip
        # placement the clients still route by, flagged unfinished...
        assert recovered.matches and "mig1 unfinished" in recovered.detail
        # ...and at the end of the run it agrees with the live placement
        # again, with nothing left unfinished.
        assert final.matches and "nothing unfinished" in final.detail

        wal = WriteAheadLog(
            str(tmp_path / "wal" / "migration-controller.wal"))
        try:
            records = wal.recover().records
        finally:
            wal.close()
        # The first controller died with the copy half done (no `copied`
        # record); the second ran the same plan to completion.
        assert [record["kind"] for record in records] == [
            "begin", "mirror_on",
            "begin", "mirror_on", "copied", "fenced", "flipped", "purged",
            "done"]
        crashed_begin, rerun_begin, flipped = (records[0], records[2],
                                               records[6])
        assert rerun_begin["placement"] == crashed_begin["placement"]
        assert records[4]["keys"] > 0
        # The flip advanced the placement epoch.
        assert (flipped["placement"]["version"]
                == crashed_begin["placement"]["version"] + 1)
