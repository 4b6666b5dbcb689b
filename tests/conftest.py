"""Shared fixtures for the test suite.

Simulation-based tests use short synthetic traces and a coarse timestep so
the whole suite stays fast; the full-length evaluation lives in the
benchmark harness and the ``react-repro`` CLI.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.sim.batch as batch_module
from repro.buffers.morphy_batch import MorphyBatchKernel
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.react_batch import ReactBatchKernel
from repro.buffers.static import StaticBatchKernel, StaticBuffer
from repro.harvester.synthetic import rf_trace
from repro.harvester.trace import PowerTrace
from repro.platform.mcu import MSP430FR5994
from repro.sim.engine import Simulator
from repro.sim.system import BatterylessSystem
from repro.units import microfarads


@pytest.fixture
def short_rf_trace() -> PowerTrace:
    """A 90-second office-RF style trace for fast end-to-end tests."""
    return rf_trace(
        duration=90.0, mean_power=1.5e-3, coefficient_of_variation=1.0, seed=5
    )


@pytest.fixture
def steady_trace() -> PowerTrace:
    """A constant 5 mW supply: enough to keep any buffer charged."""
    return PowerTrace(np.full(60, 5e-3), sample_period=1.0, name="steady")


@pytest.fixture
def weak_trace() -> PowerTrace:
    """A constant 50 uW supply: below every workload's running draw."""
    return PowerTrace(np.full(60, 50e-6), sample_period=1.0, name="weak")


@pytest.fixture
def small_static_buffer() -> StaticBuffer:
    return StaticBuffer(microfarads(770.0), name="770 uF")


@pytest.fixture
def react_buffer() -> ReactBuffer:
    return ReactBuffer()


def build_simulator(trace, buffer, workload, **kwargs) -> Simulator:
    """Simulator with test-friendly defaults (coarse steps, short drain)."""
    system = BatterylessSystem.build(trace, buffer, workload, mcu=MSP430FR5994())
    defaults = dict(dt_on=0.02, dt_off=0.1, max_drain_time=120.0)
    defaults.update(kwargs)
    return Simulator(system, **defaults)


@pytest.fixture
def simulator_factory():
    """Factory fixture so tests can build simulators with custom pieces."""
    return build_simulator


class LaneFloors:
    """Sets the lockstep kernels' lane floors and reports which kernels ran.

    Calling it sets floors for the rest of the test: ``lane_floors(1)``
    gives every kernel a floor of one (pure lockstep: nothing starts or
    ends on the scalar engine), and the keywords ``static=``, ``morphy=``
    and ``react=`` set one kernel's floor.  :meth:`built` and
    :meth:`entered` count, per kernel class name, the kernels built and the
    ``BatchSimulator`` runs that entered the lockstep loop since the test
    began, in this process and in any worker forked from it (the
    ``pool+batch`` pool), so a test can assert that it reached a kernel.
    """

    KERNELS = {
        "static": StaticBatchKernel,
        "morphy": MorphyBatchKernel,
        "react": ReactBatchKernel,
    }

    def __init__(self, monkeypatch, log_path) -> None:
        self._monkeypatch = monkeypatch
        self._log = log_path
        self._log.touch()
        build = batch_module.build_batch_kernel
        retire_finished = batch_module._LockstepRun.retire_finished

        def recording_build(buffers):
            kernel = build(buffers)
            if kernel is not None:
                self._record("built", kernel)
            return kernel

        def recording_retire_finished(run):
            if run.iterations == 0:
                self._record("entered", run.kernel)
            return retire_finished(run)

        monkeypatch.setattr(batch_module, "build_batch_kernel", recording_build)
        monkeypatch.setattr(
            batch_module._LockstepRun, "retire_finished", recording_retire_finished
        )

    def __call__(self, floor=None, **per_kernel) -> None:
        unknown = set(per_kernel) - set(self.KERNELS)
        assert not unknown, f"no such kernel: {sorted(unknown)}"
        for name, kernel_class in self.KERNELS.items():
            value = per_kernel.get(name, floor)
            if value is not None:
                self._monkeypatch.setattr(kernel_class, "min_lanes", value)

    def _record(self, event: str, kernel) -> None:
        with open(self._log, "a") as log:
            log.write(f"{event} {type(kernel).__name__}\n")

    def _count(self, event: str) -> Counter:
        lines = self._log.read_text().splitlines()
        return Counter(line.split()[1] for line in lines if line.split()[0] == event)

    def built(self) -> Counter:
        """Kernels built, per kernel class name."""
        return self._count("built")

    def entered(self) -> Counter:
        """Runs that entered the lockstep loop, per kernel class name."""
        return self._count("entered")


@pytest.fixture
def lane_floors(monkeypatch, tmp_path) -> LaneFloors:
    """Per-test lane floors and a record of the kernels reached (see
    :class:`LaneFloors`)."""
    return LaneFloors(monkeypatch, tmp_path / "kernels.log")
