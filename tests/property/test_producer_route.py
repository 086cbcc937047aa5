"""The plain ``Producer.send`` path writes what a per-send lookup writes.

A plain send resolves its topic to a route once per cluster generation
and its key to a partition and a float row's size once per partition
count.  Here a stream of sends (keys ``None``, ASCII and not, values of
five types, headers absent, empty or set, timestamps given or not) over
a one-replica and a three-replica topic of the same partition count and
a wider one-replica topic, with brokers failing and recovering in
between, goes through a plain producer on one cluster and through a
by-hand reference on a twin cluster: every send hashes
its key with ``stable_hash`` (or takes the next round-robin slot),
appends through ``LogCluster.append_row`` and is priced with
``record_size``.  Every replica's columns and header map, every
returned coordinate or raised error, ``sent`` and ``bytes_sent`` must
be the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eventlog import LogCluster, Producer, TopicConfig, record_size
from repro.util.errors import BrokerDown
from repro.util.ids import stable_hash

BROKERS = 3
#: topic -> (replication, partitions beyond the drawn count): two
#: topics share a partition count, and so a key memo
TOPICS = {"r1": (1, 0), "r3": (3, 0), "wide": (1, 3)}

keys = st.one_of(st.none(), st.sampled_from(
    ["", "a", "k0", "bed-7:hr", "é", "straße", "中文", "😀x"]))
values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-2**70, max_value=2**70),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers() | st.floats(),
                    max_size=2),
    st.none())
headers = st.one_of(st.none(), st.just({}),
                    st.dictionaries(st.text(max_size=3), st.text(max_size=3),
                                    min_size=1, max_size=2))
sends = st.tuples(st.just("send"), st.sampled_from(sorted(TOPICS)), values,
                  keys, st.one_of(st.none(), st.floats(0, 1e6)), headers)
faults = st.tuples(st.sampled_from(["fail", "recover"]),
                   st.integers(0, BROKERS - 1))
streams = st.lists(st.one_of(sends, sends, sends, faults), max_size=60)


def _cluster(partitions):
    cluster = LogCluster(num_brokers=BROKERS)
    for topic, (replication, extra) in TOPICS.items():
        cluster.create_topic(TopicConfig(topic, partitions=partitions + extra,
                                         replication=replication))
    return cluster


def _reference_send(cluster, cursors, topic, value, key, timestamp,
                    headers):
    partitions = cluster.partition_count(topic)
    if key is None:
        partition = cursors.get(topic, 0) % partitions
        cursors[topic] = cursors.get(topic, 0) + 1
    else:
        partition = stable_hash(key) % partitions
    offset = cluster.append_row(
        topic, partition, value, key,
        0.0 if timestamp is None else timestamp,
        dict(headers) if headers else headers)
    return partition, offset


def _outcome(send, *args):
    try:
        return send(*args)
    except BrokerDown as exc:
        return "BrokerDown", str(exc)


def _replicas(cluster):
    """Every replica log's columns and header map, by broker.  Both
    twins hold the very objects sent, so a NaN compares equal to itself
    (list equality tries identity first)."""
    return {(b, tp): (log._values, log._keys, log._timestamps, log._headers)
            for b, broker in cluster.brokers.items()
            for tp, log in sorted(broker.replicas.items())}


@settings(max_examples=150, deadline=None)
@given(partitions=st.integers(1, 4), stream=streams)
def test_plain_sends_equal_a_per_send_lookup(partitions, stream):
    cluster, twin = _cluster(partitions), _cluster(partitions)
    producer = Producer(cluster)
    cursors, sent, priced = {}, 0, 0
    # A leader fails and recovers mid-stream whatever the draw
    stream = stream[:len(stream) // 2] + [("fail", 0)] \
        + stream[len(stream) // 2:] + [("recover", 0)] + stream[:4]
    for op in stream:
        if op[0] == "fail":
            cluster.fail_broker(op[1])
            twin.fail_broker(op[1])
            continue
        if op[0] == "recover":
            cluster.recover_broker(op[1])
            twin.recover_broker(op[1])
            continue
        _, topic, value, key, timestamp, hdrs = op
        got = _outcome(producer.send, topic, value, key, timestamp, hdrs)
        want = _outcome(_reference_send, twin, cursors, topic, value, key,
                        timestamp, hdrs)
        assert got == want, op
        if want[0] != "BrokerDown":
            sent += 1
            priced += record_size(value, key, hdrs)
    assert _replicas(cluster) == _replicas(twin)
    assert (producer.sent, producer.bytes_sent) == (sent, priced)
