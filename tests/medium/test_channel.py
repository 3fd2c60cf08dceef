"""Tests for the shared medium: delivery, collisions, capture, sensing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.medium.channel import DropReason, Medium, Transmission
from repro.phy.link import LinkBudget
from repro.phy.modulation import LoRaParams, SpreadingFactor
from repro.phy.pathloss import LogDistancePathLoss
from repro.radio.driver import Radio
from repro.radio.frames import ReceivedFrame
from repro.sim.kernel import Simulator

from tests.conftest import build_radios


def collect_frames(radio):
    """Attach a list-collector to a radio's receive callback."""
    frames = []
    radio.on_receive = frames.append
    return frames


class TestDelivery:
    def test_in_range_frame_is_delivered(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        frames = collect_frames(b)
        a.transmit(b"hello")
        sim.run(until=1.0)
        assert len(frames) == 1
        assert frames[0].payload == b"hello"
        assert frames[0].crc_ok

    def test_out_of_range_frame_is_silent(self, sim, medium, params):
        a, b = build_radios(sim, medium, [(0.0, 0.0), (500.0, 0.0)], params)
        frames = collect_frames(b)
        a.transmit(b"hello")
        sim.run(until=1.0)
        assert frames == []
        assert medium.outcome_counts()[DropReason.BELOW_SENSITIVITY] == 1

    def test_sender_does_not_hear_itself(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        frames = collect_frames(a)
        a.transmit(b"hello")
        sim.run(until=1.0)
        assert frames == []

    def test_rssi_and_snr_reported(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        frames = collect_frames(b)
        a.transmit(b"x" * 10)
        sim.run(until=1.0)
        frame = frames[0]
        assert -130 < frame.rssi_dbm < 0
        assert frame.snr_db == pytest.approx(frame.rssi_dbm + 117.03, abs=0.1)

    def test_delivery_happens_at_frame_end(self, sim, medium, params, radio_pair):
        from repro.phy.airtime import time_on_air

        a, b = radio_pair
        times = []
        b.on_receive = lambda f: times.append(sim.now)
        a.transmit(b"x" * 20)
        sim.run(until=1.0)
        assert times[0] == pytest.approx(time_on_air(20, params))

    def test_broadcast_reaches_all_listeners(self, sim, medium, params):
        radios = build_radios(
            sim, medium, [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)], params
        )
        collectors = [collect_frames(r) for r in radios[1:]]
        radios[0].transmit(b"bcast")
        sim.run(until=1.0)
        assert all(len(c) == 1 for c in collectors)


class TestDeliveryContract:
    """``Medium`` builds one ReceivedFrame per heard (frame, listener)
    pair and ``Radio.deliver`` hands that object on unchanged."""

    def test_heard_frame_is_the_mediums_object(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        handed, seen = [], []
        deliver = b.deliver
        b.deliver = lambda frame: (handed.append(frame), deliver(frame))
        b.on_receive = lambda frame: seen.append((frame, sim.now))
        a.transmit(b"x" * 12)
        sim.run(until=1.0)
        assert len(handed) == 1 and len(seen) == 1
        frame, heard_at = seen[0]
        assert frame is handed[0]
        assert frame.received_at == heard_at
        quality = medium.link_budget.evaluate(a.position, b.position, params)
        assert frame.rssi_dbm == quality.rssi_dbm
        assert frame.snr_db == quality.snr_db
        assert frame.crc_ok
        assert frame.sender_id == a.node_id
        assert frame.params is params
        assert (b.frames_received, b.bytes_received) == (1, 12)

    def test_collided_frame_arrives_crc_failed_and_counted(self, sim, medium, params):
        a, b, c = build_radios(
            sim, medium, [(0.0, 0.0), (100.0, 0.0), (50.0, 0.0)], params
        )
        frames = collect_frames(c)
        a.transmit(b"from-a" + bytes(20))
        b.transmit(b"from-b" + bytes(20))
        sim.run(until=1.0)
        assert [f.crc_ok for f in frames] == [False, False]
        assert {f.sender_id for f in frames} == {a.node_id, b.node_id}
        assert c.frames_crc_failed == 2
        assert c.frames_received == 0
        assert medium.outcome_counts()[DropReason.COLLISION] == 2

    def test_powered_off_radio_ignores_deliver(self, sim, medium, params, radio_pair):
        _, b = radio_pair
        frames = collect_frames(b)
        b.power_off()
        frame = ReceivedFrame(
            payload=b"late", rssi_dbm=-80.0, snr_db=5.0, crc_ok=True,
            received_at=0.0, params=params, sender_id=1,
        )
        b.deliver(frame)
        b.deliver(ReceivedFrame(
            payload=b"bad", rssi_dbm=-80.0, snr_db=5.0, crc_ok=False,
            received_at=0.0, params=params, sender_id=1,
        ))
        assert frames == []
        assert (b.frames_received, b.bytes_received, b.frames_crc_failed) == (0, 0, 0)

    @pytest.mark.parametrize("module", ["repro.radio", "repro.medium"])
    def test_package_imports_first_in_a_fresh_interpreter(self, module):
        # The medium imports ReceivedFrame from repro.radio, whose driver
        # names Medium only in annotations: either package imported
        # first must not hit a partially initialised module.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestHalfDuplex:
    def test_receiver_in_standby_misses_frame(self, sim, medium, params):
        a, b = build_radios(sim, medium, [(0.0, 0.0), (50.0, 0.0)], params, listen=False)
        a.start_receive()
        frames = collect_frames(b)  # b stays in STANDBY
        a.transmit(b"hello")
        sim.run(until=1.0)
        assert frames == []
        assert medium.outcome_counts()[DropReason.NOT_LISTENING] == 1

    def test_transmitting_radio_misses_concurrent_frame(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        a_frames = collect_frames(a)
        b_frames = collect_frames(b)
        a.transmit(b"from-a" + bytes(50))
        sim.run(until=0.001)
        b.transmit(b"from-b" + bytes(50))  # b is deaf to a's frame now
        sim.run(until=2.0)
        # b was transmitting during the tail of a's frame -> lost for b.
        assert b_frames == []
        # a resumed RX only after its own tx -> missed b's start -> lost too.
        assert a_frames == []

    def test_late_rx_entry_misses_frame_start(self, sim, medium, params):
        a, b = build_radios(sim, medium, [(0.0, 0.0), (50.0, 0.0)], params, listen=False)
        a.start_receive()
        frames = collect_frames(b)
        a.transmit(b"hello-world")
        sim.run(until=0.01)
        b.start_receive()  # too late: the preamble already passed
        sim.run(until=1.0)
        assert frames == []


class TestCollisions:
    def test_equal_power_same_sf_collision_corrupts_both(self, sim, medium, params):
        # Two senders equidistant from the listener transmit simultaneously.
        a, b, c = build_radios(
            sim, medium, [(0.0, 0.0), (100.0, 0.0), (50.0, 0.0)], params
        )
        frames = collect_frames(c)
        a.transmit(b"from-a" + bytes(20))
        b.transmit(b"from-b" + bytes(20))
        sim.run(until=1.0)
        # Both frames arrive as CRC failures (collision), none clean.
        assert len(frames) == 2
        assert all(not f.crc_ok for f in frames)

    def test_capture_effect_strong_frame_survives(self, sim, medium, params):
        # a is 10 m from c, b is 120 m away: a's frame captures.
        a, b, c = build_radios(
            sim, medium, [(40.0, 0.0), (170.0, 0.0), (50.0, 0.0)], params
        )
        frames = collect_frames(c)
        a.transmit(b"strong" + bytes(20))
        b.transmit(b"weak--" + bytes(20))
        sim.run(until=1.0)
        good = [f for f in frames if f.crc_ok]
        assert len(good) == 1
        assert good[0].payload.startswith(b"strong")

    def test_partial_overlap_still_collides(self, sim, medium, params):
        a, b, c = build_radios(
            sim, medium, [(0.0, 0.0), (100.0, 0.0), (50.0, 0.0)], params
        )
        frames = collect_frames(c)
        a.transmit(b"first" + bytes(40))
        # Start b's frame halfway through a's.
        sim.run(until=0.05)
        b.transmit(b"second" + bytes(40))
        sim.run(until=2.0)
        assert all(not f.crc_ok for f in frames)

    def test_non_overlapping_frames_both_delivered(self, sim, medium, params):
        a, b, c = build_radios(
            sim, medium, [(0.0, 0.0), (100.0, 0.0), (50.0, 0.0)], params
        )
        frames = collect_frames(c)
        a.transmit(b"first" + bytes(10))
        sim.run(until=0.5)
        b.transmit(b"second" + bytes(10))
        sim.run(until=2.0)
        assert len([f for f in frames if f.crc_ok]) == 2

    def test_different_frequency_no_interference(self, sim, medium, params):
        other_freq = params.replace(frequency_mhz=869.5)
        a = Radio(sim, medium, 1, (0.0, 0.0), params)
        b = Radio(sim, medium, 2, (100.0, 0.0), other_freq)
        c = Radio(sim, medium, 3, (50.0, 0.0), params)
        c.start_receive()
        frames = collect_frames(c)
        a.transmit(b"on-868" + bytes(20))
        b.transmit(b"on-869" + bytes(20))
        sim.run(until=1.0)
        good = [f for f in frames if f.crc_ok]
        assert len(good) == 1
        assert good[0].payload.startswith(b"on-868")

    def test_wrong_sf_listener_hears_nothing(self, sim, medium, params):
        sf9 = params.replace(spreading_factor=SpreadingFactor.SF9)
        a = Radio(sim, medium, 1, (0.0, 0.0), params)
        b = Radio(sim, medium, 2, (50.0, 0.0), sf9)
        b.start_receive()
        frames = collect_frames(b)
        a.transmit(b"sf7 frame")
        sim.run(until=1.0)
        assert frames == []
        assert medium.outcome_counts()[DropReason.WRONG_PARAMS] == 1


class TestLossInjection:
    def test_injector_drops_frames(self, sim, params):
        medium = Medium(
            sim,
            LinkBudget(LogDistancePathLoss()),
            loss_injector=lambda tx, rx_id: True,
        )
        a, b = build_radios(sim, medium, [(0.0, 0.0), (50.0, 0.0)], params)
        frames = collect_frames(b)
        a.transmit(b"doomed")
        sim.run(until=1.0)
        assert frames == []
        assert medium.outcome_counts()[DropReason.INJECTED_LOSS] == 1

    def test_injector_sees_listener_id(self, sim, params):
        seen = []
        medium = Medium(
            sim,
            LinkBudget(LogDistancePathLoss()),
            loss_injector=lambda tx, rx_id: seen.append((tx.sender_id, rx_id)) or False,
        )
        a, b = build_radios(sim, medium, [(0.0, 0.0), (50.0, 0.0)], params)
        a.transmit(b"x")
        sim.run(until=1.0)
        assert seen == [(1, 2)]


class TestSensing:
    def test_channel_busy_during_transmission(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        a.transmit(b"x" * 50)
        sim.run(until=0.01)
        assert medium.channel_busy((50.0, 0.0), params)
        sim.run(until=1.0)
        assert not medium.channel_busy((50.0, 0.0), params)

    def test_channel_quiet_out_of_range(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        a.transmit(b"x" * 50)
        sim.run(until=0.01)
        assert not medium.channel_busy((5000.0, 0.0), params)

    def test_active_count(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        assert medium.active_count() == 0
        a.transmit(b"x" * 50)
        sim.run(until=0.01)
        assert medium.active_count() == 1


class TestAttachment:
    def test_duplicate_node_id_rejected(self, sim, medium, params):
        Radio(sim, medium, 7, (0.0, 0.0), params)
        with pytest.raises(ValueError):
            Radio(sim, medium, 7, (1.0, 0.0), params)

    def test_detached_radio_gets_nothing(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        frames = collect_frames(b)
        medium.detach(b.node_id)
        a.transmit(b"x")
        sim.run(until=1.0)
        assert frames == []

    def test_powered_off_radio_leaves_the_rx_mirror(self, sim, medium, params):
        """A powered-off radio that changes state (here: a retune) is no
        listener any more: it must not be counted among the listeners a
        frame reaches in aggregate."""
        a, b, far, dead = build_radios(
            sim, medium, [(0.0, 0.0), (50.0, 0.0), (-5000.0, 0.0), (5000.0, 0.0)], params
        )
        dead.power_off()
        dead.configure(params)
        a.transmit(b"x")
        sim.run(until=1.0)
        counts = medium.outcome_counts()
        assert counts[DropReason.DELIVERED] == 1
        assert counts[DropReason.BELOW_SENSITIVITY] == 1
        assert counts[DropReason.NOT_LISTENING] == 0

    def test_transmissions_total_counter(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        a.transmit(b"1")
        sim.run(until=1.0)
        b.transmit(b"2")
        sim.run(until=2.0)
        assert medium.transmissions_total == 2


class TestTransmissionRecord:
    def test_overlap_detection(self):
        p = LoRaParams()
        t1 = Transmission(0, 1, (0, 0), p, b"", 0.0, 1.0)
        t2 = Transmission(1, 2, (0, 0), p, b"", 0.5, 1.5)
        t3 = Transmission(2, 3, (0, 0), p, b"", 1.0, 2.0)
        assert t1.overlaps(t2)
        assert not t1.overlaps(t3)  # touching endpoints do not overlap

    def test_airtime_property(self):
        t = Transmission(0, 1, (0, 0), LoRaParams(), b"", 2.0, 3.5)
        assert t.airtime == pytest.approx(1.5)
