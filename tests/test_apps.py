"""Tests for the photo-sharing application: Table 1 scenarios and the
runnable app on top of Spanner-RSS + messaging + libRSS."""

import pytest

from repro.apps.invariants import album_photos_all_present, worker_jobs_all_resolvable
from repro.apps.messaging import MessageQueueClient, MessageQueueServer
from repro.apps.photo_sharing import PhotoSharingApp, table1_scenarios
from repro.core.checkers import TRANSACTIONAL_MODELS
from repro.sim.engine import Environment
from repro.sim.network import Network, single_dc
from repro.spanner.cluster import SpannerCluster
from repro.spanner.config import SpannerConfig, Variant


# --------------------------------------------------------------------- #
# Messaging service
# --------------------------------------------------------------------- #
def test_message_queue_fifo_round_trip():
    env = Environment()
    network = Network(env, single_dc(["CA"], rtt_ms=1.0))
    MessageQueueServer(env, network, name="mq", site="CA")
    client = MessageQueueClient(env, network, name="producer", site="CA")
    consumer = MessageQueueClient(env, network, name="consumer", site="CA",
                                  history=client.history)
    out = []

    def workload():
        yield from client.enqueue("jobs", "a")
        yield from client.enqueue("jobs", "b")
        out.append((yield from consumer.dequeue("jobs")))
        out.append((yield from consumer.dequeue("jobs")))
        out.append((yield from consumer.dequeue("jobs")))

    env.process(workload())
    env.run()
    assert out == ["a", "b", None]
    ops = client.history.operations()
    assert len(ops) == 5
    assert all(op.service == "queue" for op in ops)


# --------------------------------------------------------------------- #
# Table 1 scenarios
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("scenario", table1_scenarios(), ids=lambda s: s.name)
def test_table1_scenarios_match_expected_verdicts(scenario):
    for model, expected_admitted in scenario.admitted_by.items():
        checker = TRANSACTIONAL_MODELS[model]
        result = checker(scenario.history, scenario.spec)
        assert bool(result) == expected_admitted, (
            f"{scenario.name}: {model} expected "
            f"{'admitted' if expected_admitted else 'rejected'}, got "
            f"{'admitted' if result else 'rejected'} ({result.reason})"
        )


def test_table1_invariants_summary():
    """I1 holds under all three models; I2 fails only under PO serializability."""
    scenarios = {s.name: s for s in table1_scenarios()}
    i1 = scenarios["i1_violation"]
    i2 = scenarios["i2_violation"]
    assert not any(i1.admitted_by.values())
    assert i2.admitted_by["po_serializability"]
    assert not i2.admitted_by["rss"]
    assert not i2.admitted_by["strict_serializability"]


def test_table1_a3_is_only_temporarily_possible_under_rss():
    scenarios = {s.name: s for s in table1_scenarios()}
    assert scenarios["a3_during_write"].admitted_by["rss"] is True
    assert scenarios["a3_after_write_completes"].admitted_by["rss"] is False


# --------------------------------------------------------------------- #
# Runnable application
# --------------------------------------------------------------------- #
def build_app(variant=Variant.SPANNER_RSS):
    from repro.api import open_store

    store = open_store(SpannerCluster(SpannerConfig(variant=variant)))
    app = PhotoSharingApp(store)
    return store.cluster, app


def test_photo_sharing_end_to_end_invariants():
    cluster, app = build_app()
    alice_server = app.new_web_server("CA", name="alice-web")
    bob_server = app.new_web_server("VA", name="bob-web")
    worker = app.new_web_server("IR", name="worker")

    def alice():
        yield from app.add_photo(alice_server, "alice", "p1", "photo-1-bytes")
        yield from app.add_photo(alice_server, "alice", "p2", "photo-2-bytes")

    def background_worker():
        processed = 0
        while processed < 2:
            result = yield from app.process_next_job(worker)
            if result is None:
                yield cluster.env.timeout(50)
            else:
                processed += 1

    def bob(delay):
        yield cluster.env.timeout(delay)
        yield from app.view_album(bob_server, "alice")

    cluster.spawn(alice())
    cluster.spawn(background_worker())
    cluster.spawn(bob(1500))
    cluster.spawn(bob(3000))
    cluster.run()

    # I2: every job the worker processed resolved to photo data.
    assert len(app.job_results) == 2
    assert worker_jobs_all_resolvable(app.job_results)
    # I1: every album view contains data for every referenced photo.
    assert app.album_views
    assert album_photos_all_present(app.album_views)
    # The final view (well after both adds) contains both photos.
    assert set(app.album_views[-1]) == {"p1", "p2"}
    # The kv-store part of the execution satisfies RSS.
    kv_history = cluster.history.restricted_to_service("kv")
    assert kv_history.operations()
    result = cluster.check_consistency()
    assert result.satisfied, result.reason


def test_photo_sharing_librss_issues_fences_on_service_switches():
    cluster, app = build_app()
    server = app.new_web_server("CA", name="web")

    def workload():
        yield from app.add_photo(server, "alice", "p1", "bytes")

    cluster.spawn(workload())
    cluster.run()
    # add_photo switches kv -> queue, so exactly one kv fence is issued.
    assert app.librss.fences_issued(server.name) == 1
    assert [record.service for record in app.librss.fence_log] == ["kv"]


def test_photo_sharing_worker_switches_back_and_forth():
    cluster, app = build_app()
    server = app.new_web_server("CA", name="web")
    worker = app.new_web_server("VA", name="worker")

    def workload():
        yield from app.add_photo(server, "alice", "p1", "bytes")
        result = yield from app.process_next_job(worker)
        assert result == ("p1", "bytes")

    cluster.spawn(workload())
    cluster.run()
    # The worker switches queue -> kv, issuing a queue fence (a no-op).
    assert app.librss.fences_issued(worker.name) == 1
    assert worker_jobs_all_resolvable(app.job_results)


def test_photo_sharing_view_album_empty():
    cluster, app = build_app()
    server = app.new_web_server("CA")
    views = []

    def workload():
        view = yield from app.view_album(server, "nobody")
        views.append(view)

    cluster.spawn(workload())
    cluster.run()
    assert views == [{}]


def test_photo_sharing_rejects_unsuitable_stores():
    from repro.api import UnsupportedOperationError, open_store

    with pytest.raises(UnsupportedOperationError, match="multi_key_txn"):
        PhotoSharingApp(open_store("sim-gryff"))
