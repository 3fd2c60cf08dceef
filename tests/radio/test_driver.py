"""Tests for the SX127x-style radio driver."""

import pytest

from repro.phy.airtime import time_on_air
from repro.phy.modulation import LoRaParams, SpreadingFactor
from repro.radio.driver import Radio, RadioBusyError, RadioError
from repro.radio.states import RadioState

from tests.conftest import build_radios


class TestStates:
    def test_starts_in_standby(self, sim, medium, params):
        radio = Radio(sim, medium, 1, (0.0, 0.0), params)
        assert radio.state is RadioState.STANDBY

    def test_start_receive_enters_rx(self, sim, medium, params):
        radio = Radio(sim, medium, 1, (0.0, 0.0), params)
        radio.start_receive()
        assert radio.state is RadioState.RX
        assert radio.rx_params_throughout(sim.now, sim.now) == params

    def test_rx_params_none_outside_rx(self, sim, medium, params):
        radio = Radio(sim, medium, 1, (0.0, 0.0), params)
        assert radio.rx_params_throughout(sim.now, sim.now) is None

    def test_sleep_and_standby(self, sim, medium, params):
        radio = Radio(sim, medium, 1, (0.0, 0.0), params)
        radio.sleep()
        assert radio.state is RadioState.SLEEP
        radio.standby()
        assert radio.state is RadioState.STANDBY

    def test_only_rx_can_hear(self):
        assert RadioState.RX.can_hear
        assert not RadioState.TX.can_hear
        assert not RadioState.SLEEP.can_hear


class TestTransmit:
    def test_transmit_returns_airtime(self, sim, medium, params, radio_pair):
        a, _ = radio_pair
        airtime = a.transmit(b"x" * 30)
        assert airtime == pytest.approx(time_on_air(30, params))

    def test_transmit_enters_tx_then_returns_to_rx(self, sim, medium, params, radio_pair):
        a, _ = radio_pair
        a.transmit(b"hello")
        assert a.state is RadioState.TX
        assert a.transmitting
        sim.run(until=1.0)
        assert a.state is RadioState.RX

    def test_tx_done_callback_fires(self, sim, medium, params, radio_pair):
        a, _ = radio_pair
        done = []
        a.on_tx_done = lambda: done.append(sim.now)
        a.transmit(b"hello")
        sim.run(until=1.0)
        assert done == [pytest.approx(time_on_air(5, params))]

    def test_transmit_while_transmitting_raises(self, sim, medium, params, radio_pair):
        a, _ = radio_pair
        a.transmit(b"first")
        with pytest.raises(RadioBusyError):
            a.transmit(b"second")

    def test_oversized_payload_rejected(self, sim, medium, params, radio_pair):
        a, _ = radio_pair
        with pytest.raises(RadioError):
            a.transmit(bytes(256))

    def test_state_changes_forbidden_during_tx(self, sim, medium, params, radio_pair):
        a, _ = radio_pair
        a.transmit(b"x")
        with pytest.raises(RadioBusyError):
            a.sleep()
        with pytest.raises(RadioBusyError):
            a.standby()
        with pytest.raises(RadioBusyError):
            a.start_receive()

    def test_counters(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        a.transmit(b"x" * 10)
        sim.run(until=1.0)
        assert a.frames_sent == 1
        assert a.bytes_sent == 10
        assert a.tx_airtime_s > 0
        assert b.frames_received == 1
        assert b.bytes_received == 10


class TestConfigure:
    def test_configure_changes_params(self, sim, medium, params):
        radio = Radio(sim, medium, 1, (0.0, 0.0), params)
        sf9 = params.replace(spreading_factor=SpreadingFactor.SF9)
        radio.configure(sf9)
        assert radio.params == sf9

    def test_configure_mid_rx_loses_in_flight_frame(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        frames = []
        b.on_receive = frames.append
        a.transmit(b"x" * 60)
        sim.run(until=0.01)
        b.configure(params)  # retune drops out of RX momentarily
        sim.run(until=2.0)
        assert frames == []

    def test_configure_restores_rx(self, sim, medium, params, radio_pair):
        _, b = radio_pair
        b.configure(params.replace(spreading_factor=SpreadingFactor.SF8))
        assert b.state is RadioState.RX


class TestPower:
    def test_power_off_detaches(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        frames = []
        b.on_receive = frames.append
        b.power_off()
        assert not b.powered
        a.transmit(b"x")
        sim.run(until=1.0)
        assert frames == []

    def test_power_on_reattaches(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        frames = []
        b.on_receive = frames.append
        b.power_off()
        b.power_on()
        b.start_receive()
        a.transmit(b"x")
        sim.run(until=1.0)
        assert len(frames) == 1

    def test_operations_on_dead_radio_raise(self, sim, medium, params, radio_pair):
        _, b = radio_pair
        b.power_off()
        with pytest.raises(RadioError):
            b.transmit(b"x")
        with pytest.raises(RadioError):
            b.start_receive()

    def test_power_off_is_idempotent(self, sim, medium, params, radio_pair):
        _, b = radio_pair
        b.power_off()
        b.power_off()
        assert not b.powered


class TestMobility:
    def test_move_changes_reception(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        frames = []
        b.on_receive = frames.append
        b.move_to((5000.0, 0.0))
        a.transmit(b"x")
        sim.run(until=1.0)
        assert frames == []
        b.move_to((50.0, 0.0))
        a.transmit(b"y")
        sim.run(until=2.0)
        assert len(frames) == 1


class TestSensing:
    def test_channel_activity(self, sim, medium, params, radio_pair):
        a, b = radio_pair
        assert not b.channel_activity()
        a.transmit(b"x" * 50)
        sim.run(until=0.01)
        assert b.channel_activity()


class TestEnergyBookkeeping:
    def test_state_times_accumulate(self, sim, medium, params):
        radio = Radio(sim, medium, 1, (0.0, 0.0), params)
        radio.start_receive()
        sim.run(until=10.0)
        radio.sleep()
        sim.run(until=15.0)
        times = radio.state_times()
        assert times[RadioState.RX] == pytest.approx(10.0)
        assert times[RadioState.SLEEP] == pytest.approx(5.0)

    def test_current_stay_included(self, sim, medium, params):
        radio = Radio(sim, medium, 1, (0.0, 0.0), params)
        radio.start_receive()
        sim.run(until=7.0)
        assert radio.state_times()[RadioState.RX] == pytest.approx(7.0)

    def test_tx_time_matches_airtime(self, sim, medium, params, radio_pair):
        a, _ = radio_pair
        airtime = a.transmit(b"x" * 40)
        sim.run(until=5.0)
        assert a.state_times()[RadioState.TX] == pytest.approx(airtime)
