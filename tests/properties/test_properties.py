"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.net import serialization
from repro.net.packets import (
    AckPacket,
    DataPacket,
    LostPacket,
    NeedAckPacket,
    RoutingEntry,
    RoutingPacket,
    SyncPacket,
    XLDataPacket,
    MAX_CONTROL_PAYLOAD,
    MAX_DATA_PAYLOAD,
    MAX_ROUTING_ENTRIES,
)
from repro.net.queues import SendQueue
from repro.net.reliable import split_payload
from repro.net.routing_table import RoutingTable
from repro.phy.airtime import time_on_air
from repro.phy.modulation import Bandwidth, CodingRate, LoRaParams, SpreadingFactor
from repro.phy.regions import EU868, DutyCycleAccountant
from repro.workload.probes import make_probe, parse_probe

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
addresses = st.integers(min_value=1, max_value=0xFFFF)
unicast = st.integers(min_value=1, max_value=0xFFFD)  # 0xFFFE is "me" below
seq_ids = st.integers(min_value=0, max_value=0xFF)
numbers = st.integers(min_value=0, max_value=0xFFFF)

routing_entries = st.builds(
    RoutingEntry,
    address=addresses,
    metric=st.integers(min_value=0, max_value=255),
    role=st.integers(min_value=0, max_value=255),
)

packets = st.one_of(
    st.builds(
        RoutingPacket,
        src=addresses,
        entries=st.lists(routing_entries, max_size=MAX_ROUTING_ENTRIES).map(tuple),
    ),
    st.builds(
        DataPacket,
        dst=addresses,
        src=addresses,
        via=addresses,
        payload=st.binary(max_size=MAX_DATA_PAYLOAD),
    ),
    st.builds(
        NeedAckPacket,
        dst=addresses, src=addresses, via=addresses, seq_id=seq_ids, number=numbers,
        payload=st.binary(max_size=MAX_CONTROL_PAYLOAD),
    ),
    st.builds(AckPacket, dst=addresses, src=addresses, via=addresses, seq_id=seq_ids, number=numbers),
    st.builds(LostPacket, dst=addresses, src=addresses, via=addresses, seq_id=seq_ids, number=numbers),
    st.builds(
        SyncPacket,
        dst=addresses, src=addresses, via=addresses, seq_id=seq_ids, number=numbers,
        total_bytes=st.integers(min_value=0, max_value=0xFFFFFFFF),
    ),
    st.builds(
        XLDataPacket,
        dst=addresses, src=addresses, via=addresses, seq_id=seq_ids, number=numbers,
        payload=st.binary(max_size=MAX_CONTROL_PAYLOAD),
    ),
)

lora_params = st.builds(
    LoRaParams,
    spreading_factor=st.sampled_from(SpreadingFactor),
    bandwidth=st.sampled_from(Bandwidth),
    coding_rate=st.sampled_from(CodingRate),
    preamble_symbols=st.integers(min_value=6, max_value=20),
    crc_enabled=st.booleans(),
    explicit_header=st.booleans(),
)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestSerializationProperties:
    @given(packet=packets)
    def test_roundtrip_identity(self, packet):
        assert serialization.decode(serialization.encode(packet)) == packet
        assert serialization._decode(serialization.encode(packet)) == packet

    @given(packet=packets)
    def test_memoized_decode_matches_the_decoder(self, packet):
        # encode() seeds the decode memo with the packets the decoder
        # would rebuild; what the memo returns must equal what parsing
        # the bytes would build.
        frame = serialization.encode(packet)
        assert serialization.decode(frame) == serialization._decode(frame)

    @given(packet=packets)
    def test_encoded_size_is_exact(self, packet):
        assert len(serialization.encode(packet)) == serialization.encoded_size(packet)

    @given(packet=packets)
    def test_frames_fit_phy_limit(self, packet):
        assert len(serialization.encode(packet)) <= 255

    @given(buffer=st.binary(max_size=300))
    def test_decode_never_crashes_on_garbage(self, buffer):
        try:
            packet = serialization.decode(buffer)
        except serialization.DecodeError:
            return
        # Anything that decodes must re-encode to the same bytes.
        assert serialization.encode(packet) == buffer

    @given(packet=packets, index=st.integers(min_value=0), flip=st.integers(1, 255))
    def test_bitflip_decodes_differently_or_fails(self, packet, index, flip):
        frame = bytearray(serialization.encode(packet))
        frame[index % len(frame)] ^= flip
        try:
            decoded = serialization.decode(bytes(frame))
        except serialization.DecodeError:
            return
        assert decoded != packet


# ----------------------------------------------------------------------
# Airtime
# ----------------------------------------------------------------------
class TestAirtimeProperties:
    @given(params=lora_params, size=st.integers(0, 255))
    def test_airtime_positive_and_finite(self, params, size):
        toa = time_on_air(size, params)
        assert 0 < toa < 15.0  # even SF12 CR4/8 255 B is well bounded

    @given(params=lora_params, a=st.integers(0, 254))
    def test_airtime_monotonic_in_payload(self, params, a):
        assert time_on_air(a + 1, params) >= time_on_air(a, params)

    @given(size=st.integers(0, 255), sf_index=st.integers(0, 4))
    def test_airtime_monotonic_in_sf(self, size, sf_index):
        sfs = list(SpreadingFactor)
        lower = LoRaParams(spreading_factor=sfs[sf_index])
        higher = LoRaParams(spreading_factor=sfs[sf_index + 1])
        assert time_on_air(size, higher) > time_on_air(size, lower)


# ----------------------------------------------------------------------
# Routing table
# ----------------------------------------------------------------------
hello_events = st.lists(
    st.tuples(
        unicast,  # neighbour the hello came from
        st.lists(routing_entries, max_size=10),
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    ),
    max_size=30,
)


class TestRoutingTableProperties:
    @given(events=hello_events)
    def test_invariants_after_arbitrary_hellos(self, events):
        me = 0xFFFE  # excluded from the unicast strategy above
        table = RoutingTable(me, max_metric=16)
        for src, entries, now in events:
            table.process_hello(src, entries, now)
        for entry in table:
            assert entry.address != me
            assert 1 <= entry.metric <= 16
            assert entry.via in table  # the via is itself routable
            assert table.get(entry.via).is_neighbour

    @given(events=hello_events)
    def test_snapshot_always_encodable(self, events):
        me = 0xFFFE
        table = RoutingTable(me, max_metric=16)
        for src, entries, now in events:
            table.process_hello(src, entries, now)
        rows = table.snapshot()
        assert rows[0].address == me
        # The snapshot must fit the hello packet machinery.
        for start in range(0, len(rows), MAX_ROUTING_ENTRIES):
            chunk = tuple(rows[start : start + MAX_ROUTING_ENTRIES])
            serialization.encode(RoutingPacket(src=me, entries=chunk))

    @given(events=hello_events, cutoff=st.floats(min_value=0.0, max_value=2000.0))
    def test_purge_removes_only_stale(self, events, cutoff):
        me = 0xFFFE
        table = RoutingTable(me, route_timeout=100.0)
        for src, entries, now in events:
            table.process_hello(src, entries, now)
        table.purge(cutoff)
        for entry in table:
            assert cutoff - entry.updated_at <= 100.0


# ----------------------------------------------------------------------
# Reliable transport fragmentation
# ----------------------------------------------------------------------
class TestFragmentationProperties:
    @given(payload=st.binary(max_size=5000), size=st.integers(1, 244))
    def test_split_reassembles_identically(self, payload, size):
        fragments = split_payload(payload, size)
        assert b"".join(fragments) == payload
        assert all(len(f) <= size for f in fragments)

    @given(payload=st.binary(min_size=1, max_size=5000), size=st.integers(1, 244))
    def test_fragment_count_is_ceiling_division(self, payload, size):
        fragments = split_payload(payload, size)
        assert len(fragments) == math.ceil(len(payload) / size)


# ----------------------------------------------------------------------
# Queues
# ----------------------------------------------------------------------
queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push_data"), st.integers(0, 200)),
        st.tuples(st.just("push_ack"), st.integers(0, 255)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=60,
)


class TestQueueProperties:
    @given(ops=queue_ops, capacity=st.integers(1, 16))
    def test_size_never_exceeds_capacity(self, ops, capacity):
        queue = SendQueue(capacity)
        pushed = popped = dropped = 0
        for op, arg in ops:
            if op == "push_data":
                ok = queue.push(DataPacket(dst=1, src=2, via=1, payload=bytes([arg % 256])))
                pushed += ok
                dropped += not ok
            elif op == "push_ack":
                ok = queue.push(AckPacket(dst=1, src=2, via=1, seq_id=arg, number=0))
                pushed += ok
                dropped += not ok
            else:
                popped += queue.pop() is not None
            assert len(queue) <= capacity
        assert len(queue) == pushed - popped
        assert queue.dropped == dropped

    @given(ops=queue_ops, capacity=st.integers(1, 16))
    def test_control_packets_always_pop_first(self, ops, capacity):
        queue = SendQueue(capacity)
        for op, arg in ops:
            if op == "push_data":
                queue.push(DataPacket(dst=1, src=2, via=1, payload=b""))
            elif op == "push_ack":
                queue.push(AckPacket(dst=1, src=2, via=1, seq_id=arg, number=0))
            else:
                item = queue.pop()
                if isinstance(item, DataPacket):
                    # No control packet may remain queued behind it.
                    assert not any(isinstance(x, AckPacket) for x in queue._control)


# ----------------------------------------------------------------------
# Duty cycle
# ----------------------------------------------------------------------
transmissions = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
        st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
    ),
    max_size=50,
)


class TestDutyCycleProperties:
    @given(txs=transmissions)
    def test_paced_schedule_never_violates_budget(self, txs):
        acct = DutyCycleAccountant(EU868)
        budget = EU868.duty_cycle * EU868.window_s
        for start, airtime in sorted(txs):
            allowed_at = acct.next_allowed_time(start, airtime)
            assert allowed_at >= start
            acct.record(allowed_at, airtime)
            assert acct.window_utilisation(allowed_at) <= EU868.duty_cycle + 1e-9

    @given(txs=transmissions)
    def test_utilisation_matches_recorded_airtime(self, txs):
        acct = DutyCycleAccountant(EU868)
        recorded = []
        for start, airtime in sorted(txs):
            if acct.can_transmit(start, airtime):
                acct.record(start, airtime)
                recorded.append((start, airtime))
        if recorded:
            now = recorded[-1][0]
            in_window = sum(a for s, a in recorded if s > now - EU868.window_s)
            assert acct.window_utilisation(now) * EU868.window_s == (
                __import__("pytest").approx(in_window)
            )


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
class TestProbeProperties:
    @given(
        src=addresses,
        seq=st.integers(0, 2**32 - 1),
        t=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        size=st.integers(16, 200),
    )
    def test_probe_roundtrip(self, src, seq, t, size):
        probe = parse_probe(make_probe(src, seq, t, size=size))
        assert (probe.src, probe.seq, probe.sent_at, probe.size) == (src, seq, t, size)
