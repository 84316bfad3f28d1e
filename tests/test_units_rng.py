"""Unit helpers and RNG utilities."""

import math

import numpy as np
import pytest

from repro import units
from repro.rng import derive_seed, ensure_rng, spawn


class TestUnits:
    def test_mg_roundtrip(self):
        assert units.mps2_to_mg(units.mg_to_mps2(60.0)) == pytest.approx(60.0)
        assert units.mg_to_mps2(1000.0) == pytest.approx(units.G0)

    def test_angular_frequency(self):
        assert units.hz_to_rad(1.0) == pytest.approx(2 * math.pi)
        assert units.rad_to_hz(units.hz_to_rad(64.0)) == pytest.approx(64.0)

    def test_time_helpers(self):
        assert units.ms(5) == pytest.approx(5e-3)
        assert units.us(100) == pytest.approx(1e-4)
        assert units.minutes(2) == pytest.approx(120.0)
        assert units.hours(1.5) == pytest.approx(5400.0)

    def test_electrical_helpers(self):
        assert units.mA(26.8) == pytest.approx(26.8e-3)
        assert units.uA(0.5) == pytest.approx(0.5e-6)
        assert units.mW(13.2) == pytest.approx(13.2e-3)
        assert units.uJ(227) == pytest.approx(227e-6)
        assert units.MHz(8) == 8e6
        assert units.kHz(125) == 125e3

    def test_thermal_voltage_room_temperature(self):
        assert units.thermal_voltage(300.15) == pytest.approx(0.02585, rel=1e-3)

    def test_capacitor_energy_voltage(self):
        e = units.capacitor_energy(0.55, 2.8)
        assert e == pytest.approx(0.5 * 0.55 * 2.8**2)
        assert units.capacitor_voltage(0.55, e) == pytest.approx(2.8)
        assert units.capacitor_voltage(0.55, 0.0) == 0.0


class TestRng:
    def test_ensure_rng_accepts_int(self):
        a = ensure_rng(42)
        b = ensure_rng(42)
        assert a.uniform() == b.uniform()

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_spawn_children_independent(self):
        parent = ensure_rng(1)
        children = spawn(parent, 3)
        values = [c.uniform() for c in children]
        assert len(set(values)) == 3

    def test_spawn_reproducible(self):
        a = [c.uniform() for c in spawn(ensure_rng(7), 3)]
        b = [c.uniform() for c in spawn(ensure_rng(7), 3)]
        assert a == b

    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
        assert derive_seed(None, 3) == derive_seed(None, 3)

    def test_derive_seed_range(self):
        for base in (0, 1, 2**40):
            for comp in range(5):
                s = derive_seed(base, comp)
                assert 0 <= s < 2**63

    def test_seed_base(self):
        from repro.rng import seed_base

        assert seed_base(None) == 0
        assert seed_base(7) == 7 and seed_base(np.int64(7)) == 7
        assert type(seed_base(np.uint32(7))) is int
        draw = int(np.random.default_rng(3).integers(0, 2**31 - 1))
        assert seed_base(np.random.default_rng(3)) == draw
        with pytest.raises(TypeError):
            seed_base(5.0)
