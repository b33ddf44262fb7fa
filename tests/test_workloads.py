"""Unit tests for the workload generators and client drivers."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Environment
from repro.workloads.clients import (ClosedLoopDriver, OpenLoopDriver,
                                     PartlyOpenDriver)
from repro.workloads.retwis import RETWIS_MIX, RetwisWorkload
from repro.workloads.ycsb import YcsbWorkload
from repro.workloads.zipf import ZipfGenerator


# --------------------------------------------------------------------- #
# Zipf
# --------------------------------------------------------------------- #
def test_zipf_range_and_determinism():
    gen1 = ZipfGenerator(1000, 0.9, rng=random.Random(7))
    gen2 = ZipfGenerator(1000, 0.9, rng=random.Random(7))
    samples1 = [gen1.sample() for _ in range(500)]
    samples2 = [gen2.sample() for _ in range(500)]
    assert samples1 == samples2
    assert all(0 <= s < 1000 for s in samples1)


def test_zipf_skew_concentrates_mass():
    skewed = ZipfGenerator(10_000, 0.99, rng=random.Random(1))
    uniform = ZipfGenerator(10_000, 0.0, rng=random.Random(1))
    skewed_hot = sum(1 for _ in range(5000) if skewed.sample() < 10)
    uniform_hot = sum(1 for _ in range(5000) if uniform.sample() < 10)
    assert skewed_hot > 20 * max(uniform_hot, 1)


def test_zipf_higher_skew_is_hotter():
    low = ZipfGenerator(100_000, 0.5, rng=random.Random(3))
    high = ZipfGenerator(100_000, 0.9, rng=random.Random(3))
    low_hot = sum(1 for _ in range(5000) if low.sample() < 100)
    high_hot = sum(1 for _ in range(5000) if high.sample() < 100)
    assert high_hot > low_hot


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfGenerator(0, 0.5)
    with pytest.raises(ValueError):
        ZipfGenerator(10, -1.0)


def test_zipf_theta_one_supported():
    gen = ZipfGenerator(100, 1.0, rng=random.Random(5))
    samples = [gen.sample() for _ in range(200)]
    assert all(0 <= s < 100 for s in samples)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10_000),
       st.floats(min_value=0.0, max_value=1.2),
       st.integers(min_value=0, max_value=1000))
def test_zipf_samples_always_in_range(n, theta, seed):
    gen = ZipfGenerator(n, theta, rng=random.Random(seed))
    for _ in range(50):
        assert 0 <= gen.sample() < n


def _reference_zipf_stream(n, theta, seed, count):
    """The seed implementation's sampling loop, kept as a bit-exactness
    oracle for the hoisted-constant fast path."""
    import math

    rng = random.Random(seed)
    if theta == 0.0:
        return [rng.randrange(n) for _ in range(count)]

    def _pow(x):
        return math.exp(-theta * math.log(x))

    def _h(x):
        if theta == 1.0:
            return math.log(x)
        return (x ** (1.0 - theta)) / (1.0 - theta)

    def _h_inv(x):
        if theta == 1.0:
            return math.exp(x)
        return (x * (1.0 - theta)) ** (1.0 / (1.0 - theta))

    h_x1 = _h(1.5) - 1.0
    h_n = _h(n + 0.5)
    s = 2.0 - _h_inv(_h(2.5) - _pow(2.0))
    out = []
    while len(out) < count:
        u = h_n + rng.random() * (h_x1 - h_n)
        x = _h_inv(u)
        k = math.floor(x + 0.5)
        if k - x <= s:
            out.append(int(k) - 1)
        elif u >= _h(k + 0.5) - _pow(k):
            out.append(int(k) - 1)
    return out


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.9, 1.0, 1.3])
def test_zipf_fast_path_bit_identical_to_reference(theta):
    gen = ZipfGenerator(5_000, theta, rng=random.Random(17))
    stream = [gen.sample() for _ in range(400)]
    assert stream == _reference_zipf_stream(5_000, theta, 17, 400)


@pytest.mark.parametrize("theta", [0.0, 0.9, 1.0])
def test_zipf_sample_many_consumes_rng_like_single_draws(theta):
    single = ZipfGenerator(1_000, theta, rng=random.Random(23))
    batched = ZipfGenerator(1_000, theta, rng=random.Random(23))
    expected = [single.sample() for _ in range(50)]
    got = batched.sample_many(20)
    got += [batched.sample() for _ in range(10)]
    got += batched.sample_many(20)
    assert got == expected
    assert batched.sample_many(0) == []


def test_zipf_key_prefix():
    gen = ZipfGenerator(10, 0.0, rng=random.Random(0))
    assert gen.sample_key("user").startswith("user")


# --------------------------------------------------------------------- #
# Retwis
# --------------------------------------------------------------------- #
def test_retwis_mix_proportions():
    workload = RetwisWorkload(num_keys=10_000, zipf_skew=0.5, seed=11)
    for _ in range(4000):
        workload.next_transaction()
    fractions = workload.mix_fractions()
    expected = {name: probability for name, probability, *_ in RETWIS_MIX}
    for name, probability in expected.items():
        assert fractions[name] == pytest.approx(probability, abs=0.04)


def test_retwis_transaction_shapes():
    workload = RetwisWorkload(num_keys=1000, zipf_skew=0.7, seed=3)
    shapes = {name: (reads, writes, ro) for name, _, reads, writes, ro in RETWIS_MIX}
    for _ in range(300):
        txn = workload.next_transaction()
        reads, writes, read_only = shapes[txn.name]
        assert txn.read_only == read_only
        if read_only:
            assert 1 <= len(txn.read_keys) <= 10
            assert not txn.write_keys
        else:
            assert len(txn.read_keys) == reads
            assert len(txn.write_keys) == writes
            assert len(set(txn.write_keys)) == len(txn.write_keys)


def test_retwis_unique_values():
    workload = RetwisWorkload(num_keys=100, zipf_skew=0.5)
    values = {workload.unique_value() for _ in range(100)}
    assert len(values) == 100


# --------------------------------------------------------------------- #
# YCSB
# --------------------------------------------------------------------- #
def test_ycsb_write_ratio_and_conflicts():
    workload = YcsbWorkload("c1", write_ratio=0.3, conflict_rate=0.25, seed=9)
    hot = 0
    for _ in range(2000):
        op = workload.next_operation()
        if op.key == workload.hot_key:
            hot += 1
        if op.kind == "write":
            assert op.value is not None
        else:
            assert op.value is None
    assert workload.observed_write_ratio() == pytest.approx(0.3, abs=0.05)
    assert hot / 2000 == pytest.approx(0.25, abs=0.05)


def test_ycsb_private_keys_are_per_client():
    a = YcsbWorkload("alice", write_ratio=0.5, conflict_rate=0.0, seed=1)
    b = YcsbWorkload("bob", write_ratio=0.5, conflict_rate=0.0, seed=1)
    keys_a = {a.next_operation().key for _ in range(100)}
    keys_b = {b.next_operation().key for _ in range(100)}
    assert not keys_a & keys_b


def test_ycsb_validation():
    with pytest.raises(ValueError):
        YcsbWorkload("c", write_ratio=1.5, conflict_rate=0.0)
    with pytest.raises(ValueError):
        YcsbWorkload("c", write_ratio=0.5, conflict_rate=-0.1)


def test_ycsb_unique_written_values():
    workload = YcsbWorkload("c1", write_ratio=1.0, conflict_rate=0.0, seed=2)
    values = [workload.next_operation().value for _ in range(200)]
    assert len(set(values)) == 200


# --------------------------------------------------------------------- #
# Client drivers (with a trivial in-memory executor)
# --------------------------------------------------------------------- #
class FakeWorkload:
    def __init__(self):
        self.issued = 0

    def next_operation(self):
        self.issued += 1
        return {"op": self.issued}


class FakeClient:
    def __init__(self, name):
        self.name = name
        self.executed = []
        self.sessions_reset = 0


def make_executor(env, service_time=5.0):
    def executor(client, spec):
        yield env.timeout(service_time)
        client.executed.append(spec)
    return executor


def _pairs(clients):
    return [(client, FakeWorkload()) for client in clients]


def test_closed_loop_driver_operation_count():
    env = Environment()
    clients = [FakeClient("a"), FakeClient("b")]
    driver = ClosedLoopDriver(env, _pairs(clients), make_executor(env),
                              operations_per_client=10)
    driver.start()
    env.run()
    assert all(len(c.executed) == 10 for c in clients)
    assert driver.completed == 20


def test_closed_loop_driver_duration_bound():
    env = Environment()
    clients = [FakeClient("a")]
    driver = ClosedLoopDriver(env, _pairs(clients), make_executor(env, 10.0),
                              duration_ms=95.0)
    driver.start()
    env.run()
    assert len(clients[0].executed) == 10


def test_closed_loop_driver_validation():
    env = Environment()
    with pytest.raises(ValueError):
        ClosedLoopDriver(env, _pairs([FakeClient("a")]), make_executor(env))
    with pytest.raises(TypeError, match=r"\(session, workload\) pair"):
        ClosedLoopDriver(env, [FakeClient("a")], make_executor(env),
                         duration_ms=10)
    with pytest.raises(TypeError, match="executor"):
        ClosedLoopDriver(env, _pairs([FakeClient("a")]), duration_ms=10)


def test_partly_open_driver_requires_rate_and_duration():
    env = Environment()
    with pytest.raises(TypeError, match="arrival_rate_per_client"):
        PartlyOpenDriver(env, _pairs([FakeClient("a")]), make_executor(env),
                         duration_ms=100.0)
    with pytest.raises(TypeError, match="duration_ms"):
        PartlyOpenDriver(env, _pairs([FakeClient("a")]), make_executor(env),
                         arrival_rate_per_client=0.1)


def test_partly_open_driver_sessions_and_resets():
    env = Environment()
    clients = [FakeClient("a"), FakeClient("b")]

    def reset(client):
        client.sessions_reset += 1

    driver = PartlyOpenDriver(
        env, _pairs(clients), make_executor(env, 2.0),
        arrival_rate_per_client=0.01,   # one session every ~100 ms per client
        duration_ms=5_000.0,
        continue_probability=0.9,
        reset_session=reset,
        seed=4,
    )
    driver.start()
    env.run()
    assert driver.stats.sessions > 10
    assert driver.stats.transactions > driver.stats.sessions
    assert sum(c.sessions_reset for c in clients) == driver.stats.sessions
    # Average session length should be roughly 1 / (1 - p) = 10 transactions.
    average = driver.stats.transactions / driver.stats.sessions
    assert 5.0 < average < 20.0


def test_partly_open_driver_respects_duration():
    env = Environment()
    clients = [FakeClient("a")]
    driver = PartlyOpenDriver(
        env, _pairs(clients), make_executor(env, 1.0),
        arrival_rate_per_client=0.05, duration_ms=500.0, seed=2,
    )
    driver.start()
    env.run()
    assert env.now <= 520.0


# --------------------------------------------------------------------- #
# Open-loop driver (coordinated-omission-correct arrivals)
# --------------------------------------------------------------------- #
def test_open_loop_driver_fixed_schedule_hits_the_rate():
    env = Environment()
    clients = [FakeClient("a"), FakeClient("b"), FakeClient("c")]
    driver = OpenLoopDriver(env, _pairs(clients), make_executor(env, 0.5),
                            rate_per_s=1_000.0, duration_ms=100.0,
                            arrival="fixed")
    driver.start()
    env.run()
    stats = driver.stats()
    assert stats["offered"] == 100          # 1/ms for 100 ms
    assert stats["completed"] == 100
    assert stats["abandoned"] == 0
    assert 900.0 < stats["achieved_rate_per_s"] <= 1_100.0
    assert sum(len(c.executed) for c in clients) == 100


def test_open_loop_driver_charges_queueing_to_the_response_time():
    """The coordinated-omission correction: with one slow session, each
    arrival keeps its *intended* timestamp while queued, so the recorded
    response times grow linearly even though every attempt's service time
    is a flat 10 ms.  A closed-loop client would have reported ~10 ms."""
    from repro.sim.stats import LatencyRecorder

    env = Environment()
    recorder = LatencyRecorder()
    driver = OpenLoopDriver(env, _pairs([FakeClient("a")]),
                            make_executor(env, 10.0),
                            rate_per_s=500.0, duration_ms=40.0,
                            arrival="fixed", recorder=recorder,
                            drain_timeout_ms=10_000.0)
    driver.start()
    env.run()
    stats = driver.stats()
    assert stats["offered"] == 20           # every 2 ms for 40 ms
    assert stats["completed"] == 20         # drained after the schedule
    assert stats["backlog_peak"] > 10       # the pool saturated immediately
    samples = recorder.sorted_samples("txn")
    assert len(samples) == 20
    # Arrivals every 2 ms into a 10 ms server: the last response waited
    # roughly 19 service times minus its arrival offset.
    assert samples[-1] > 100.0
    assert samples[0] == pytest.approx(10.0, abs=2.0)


def test_open_loop_driver_abandons_backlog_at_the_drain_timeout():
    env = Environment()
    driver = OpenLoopDriver(env, _pairs([FakeClient("a")]),
                            make_executor(env, 50.0),
                            rate_per_s=1_000.0, duration_ms=20.0,
                            arrival="fixed", drain_timeout_ms=100.0)
    driver.start()
    env.run()
    stats = driver.stats()
    assert stats["offered"] == 20
    assert stats["completed"] < 20
    assert stats["abandoned"] == stats["offered"] - stats["completed"]
    assert stats["abandoned"] > 0


def test_open_loop_driver_poisson_is_seeded_and_reproducible():
    def run(seed):
        env = Environment()
        driver = OpenLoopDriver(env, _pairs([FakeClient("a"),
                                             FakeClient("b")]),
                                make_executor(env, 1.0),
                                rate_per_s=2_000.0, duration_ms=50.0,
                                arrival="poisson", seed=seed)
        driver.start()
        env.run()
        return driver.stats()

    first, second = run(7), run(7)
    assert first == second
    assert run(8) != first                  # a different schedule
    assert 40 < first["offered"] < 200      # ~100 expected arrivals


def test_open_loop_driver_validation():
    env = Environment()
    pairs = _pairs([FakeClient("a")])
    with pytest.raises(TypeError, match="rate_per_s and duration_ms"):
        OpenLoopDriver(env, pairs, make_executor(env))
    with pytest.raises(ValueError, match="positive"):
        OpenLoopDriver(env, pairs, make_executor(env),
                       rate_per_s=0.0, duration_ms=10.0)
    with pytest.raises(ValueError, match="arrival schedule"):
        OpenLoopDriver(env, pairs, make_executor(env),
                       rate_per_s=10.0, duration_ms=10.0, arrival="uniform")
    with pytest.raises(ValueError, match="at least one"):
        OpenLoopDriver(env, [], make_executor(env),
                       rate_per_s=10.0, duration_ms=10.0)
