"""Solar panel, regulator, and frontend models."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.harvester.frontend import HarvestingFrontend
from repro.harvester.regulator import BoostRegulator, IdealRegulator
from repro.harvester.solar import FULL_SUN_IRRADIANCE, SolarPanel, diurnal_irradiance
from repro.harvester.trace import PowerTrace


class TestSolarPanel:
    def test_paper_panel_full_sun_power(self):
        """The paper's 5 cm^2, 22 % panel produces ~90-110 mW in full sun."""
        panel = SolarPanel(area_cm2=5.0, efficiency=0.22, fill_factor=1.0)
        power = panel.power_from_irradiance(FULL_SUN_IRRADIANCE)
        assert power == pytest.approx(0.11, rel=0.01)

    def test_power_scales_linearly_with_irradiance(self):
        panel = SolarPanel()
        assert panel.power_from_irradiance(500.0) == pytest.approx(
            panel.power_from_irradiance(1000.0) / 2.0
        )

    def test_negative_irradiance_rejected(self):
        with pytest.raises(ValueError):
            SolarPanel().power_from_irradiance(-1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SolarPanel(area_cm2=0.0)
        with pytest.raises(ConfigurationError):
            SolarPanel(efficiency=1.5)

    def test_trace_from_irradiance(self):
        panel = SolarPanel()
        trace = panel.trace_from_irradiance(
            np.array([0.0, 100.0, 200.0]), sample_period=60.0
        )
        assert isinstance(trace, PowerTrace)
        assert trace.powers[0] == 0.0
        assert trace.powers[2] == pytest.approx(2 * trace.powers[1])

    def test_diurnal_irradiance_dark_at_night(self):
        irradiance = diurnal_irradiance(duration=24 * 3600.0, sample_period=600.0)
        assert irradiance.min() == 0.0
        assert irradiance.max() > 0.0

    def test_diurnal_irradiance_validation(self):
        with pytest.raises(ValueError):
            diurnal_irradiance(duration=0.0)

    @pytest.mark.parametrize("samples", [1, 2, 3, 7])
    def test_diurnal_irradiance_short_timelines_keep_their_shape(self, samples):
        """Timelines shorter than the cloud-smoothing window (even shorter
        than its 3-sample floor) must come back sample for sample:
        np.convolve's "same" mode returns the *kernel's* length when the
        kernel is the longer operand."""
        irradiance = diurnal_irradiance(
            duration=samples * 5.0, sample_period=5.0, sunrise=0.0, sunset=600.0
        )
        assert irradiance.shape == (samples,)
        assert (irradiance >= 0.0).all()


class TestRegulators:
    def test_ideal_regulator_is_lossless(self):
        regulator = IdealRegulator()
        assert regulator.delivered_power(1e-3, 2.0) == pytest.approx(1e-3)

    def test_boost_regulator_efficiency_rises_with_power(self):
        regulator = BoostRegulator()
        assert regulator.efficiency(10e-3, 3.0) > regulator.efficiency(50e-6, 3.0)

    def test_boost_regulator_cold_start_penalty(self):
        regulator = BoostRegulator()
        assert regulator.efficiency(1e-3, 1.0) <= regulator.cold_start_efficiency

    def test_boost_regulator_zero_below_quiescent(self):
        regulator = BoostRegulator(quiescent_power=1e-6)
        assert regulator.delivered_power(0.5e-6, 3.0) == 0.0

    def test_boost_validation(self):
        with pytest.raises(ConfigurationError):
            BoostRegulator(peak_efficiency=0.0)
        with pytest.raises(ConfigurationError):
            BoostRegulator(half_efficiency_power=0.0)


class TestFrontend:
    def test_step_accumulates_ledger(self, steady_trace):
        frontend = HarvestingFrontend(steady_trace)
        energy = frontend.step(0.0, 1.0, buffer_voltage=2.0)
        assert energy == pytest.approx(5e-3)
        assert frontend.raw_energy_offered == pytest.approx(5e-3)
        assert frontend.energy_delivered == frontend.raw_energy_offered

    def test_step_with_boost_regulator_loses_energy(self, steady_trace):
        frontend = HarvestingFrontend(steady_trace, regulator=BoostRegulator())
        energy = frontend.step(0.0, 1.0, buffer_voltage=3.0)
        assert energy < 5e-3
        assert frontend.energy_delivered < frontend.raw_energy_offered

    def test_reset_clears_ledger(self, steady_trace):
        frontend = HarvestingFrontend(steady_trace)
        frontend.step(0.0, 1.0, 2.0)
        frontend.reset()
        assert frontend.raw_energy_offered == 0.0

    def test_step_rejects_nonpositive_dt(self, steady_trace):
        frontend = HarvestingFrontend(steady_trace)
        with pytest.raises(ValueError):
            frontend.step(0.0, 0.0, 2.0)

    def test_power_after_trace_end_is_zero(self, steady_trace):
        frontend = HarvestingFrontend(steady_trace)
        assert frontend.raw_power(steady_trace.duration + 10.0) == 0.0
