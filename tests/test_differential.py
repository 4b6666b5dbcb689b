"""Property-based differential testing of the fast-forward engine.

The ROADMAP item landed: randomized synthetic traces and system
configurations are simulated twice — once with every fast path enabled and
once with ``Simulator(fast_forward=False)`` as the step-by-step oracle —
and the runs must agree exactly (``tests/oracle.py``): counters, the
per-step additive time accumulations, workload metrics and energy ledgers.

The generator is a hand-rolled seeded sampler rather than a hypothesis
dependency: the case space (trace shape × buffer family × workload ×
timestep) is small enough to cover with a deterministic, reproducible
sweep, and every failure prints its case seed for replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.buffers.capybara import CapybaraBuffer
from repro.buffers.dewdrop import DewdropBuffer
from repro.buffers.morphy import MorphyBuffer
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.static import StaticBuffer
from repro.harvester.trace import PowerTrace
from repro.platform.mcu import MSP430FR5994
from repro.sim.batch import BatchSimulator
from repro.sim.engine import Simulator
from repro.sim.system import BatterylessSystem
from repro.workloads.data_encryption import DataEncryption
from repro.workloads.packet_forwarding import PacketForwarding
from repro.workloads.radio_transmit import RadioTransmit
from repro.workloads.sense_compute import SenseAndCompute

from oracle import assert_results_equivalent


def random_trace(rng: np.random.Generator) -> PowerTrace:
    """A synthetic trace with dark stretches, bursts, and ramps.

    The shape deliberately mixes the regimes that stress different engine
    paths: dead air (off-phase fast forwarding into drain tests), strong
    bursts (overvoltage clipping, long on stretches for the quiescence
    protocol), and borderline power (enable/brown-out cycling around the
    gate thresholds).
    """
    samples = int(rng.integers(60, 140))
    sample_period = float(rng.choice([0.5, 1.0, 2.0]))
    powers = np.zeros(samples)
    position = 0
    while position < samples:
        kind = rng.integers(0, 3)
        length = int(rng.integers(3, 18))
        end = min(position + length, samples)
        if kind == 0:
            powers[position:end] = 0.0
        elif kind == 1:
            powers[position:end] = rng.uniform(2e-4, 6e-3)
        else:
            powers[position:end] = np.linspace(
                rng.uniform(0.0, 2e-3), rng.uniform(0.0, 6e-3), end - position
            )
        position = end
    return PowerTrace(powers, sample_period=sample_period, name="synthetic")


def random_buffer(rng: np.random.Generator):
    family = int(rng.integers(0, 5))
    if family == 0:
        return StaticBuffer(float(rng.uniform(3e-4, 2e-2)), name="static")
    if family == 1:
        return DewdropBuffer(float(rng.uniform(2e-3, 2e-2)))
    if family == 2:
        return MorphyBuffer(
            unit_capacitance=float(rng.uniform(5e-4, 3e-3)),
        )
    if family == 3:
        return ReactBuffer()
    return CapybaraBuffer(
        base_capacitance=float(rng.uniform(3e-4, 2e-3)),
        task_capacitance=float(rng.uniform(4e-3, 2e-2)),
    )


def random_workload(rng: np.random.Generator):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return DataEncryption(unit_time=float(rng.uniform(0.05, 0.4)))
    if kind == 1:
        return SenseAndCompute(period=float(rng.uniform(2.0, 8.0)))
    if kind == 2:
        return RadioTransmit(
            data_period=float(rng.uniform(1.0, 5.0)),
            use_longevity_guarantee=bool(rng.integers(0, 2)),
        )
    return PacketForwarding(
        mean_interarrival=float(rng.uniform(3.0, 10.0)),
        seed=int(rng.integers(0, 1000)),
        use_longevity_guarantee=bool(rng.integers(0, 2)),
    )


def run_case(case_seed: int, fast_forward: bool):
    rng = np.random.default_rng(case_seed)
    trace = random_trace(rng)
    buffer = random_buffer(rng)
    workload = random_workload(rng)
    dt_on = float(rng.choice([0.01, 0.02, 0.04]))
    dt_off = dt_on * int(rng.integers(2, 6))
    max_drain = float(rng.choice([30.0, 120.0]))
    system = BatterylessSystem.build(trace, buffer, workload, mcu=MSP430FR5994())
    return Simulator(
        system,
        dt_on=dt_on,
        dt_off=dt_off,
        max_drain_time=max_drain,
        fast_forward=fast_forward,
    ).run()


@pytest.mark.parametrize("case_seed", range(20))
def test_fast_forward_matches_step_by_step_oracle(case_seed):
    reference = run_case(case_seed, fast_forward=False)
    fast = run_case(case_seed, fast_forward=True)
    context = f"case_seed={case_seed} {reference.buffer_name}/{reference.workload_name}"
    assert_results_equivalent(reference, fast, context)


def build_batch_case(case_seed: int):
    """A randomized trace-sharing lane mix for the batch engine.

    One shared synthetic trace, one shared timestep pair, and 3–6 lanes of
    random batchable buffers and workloads — cycling between the
    static-kernel family (statics and Dewdrop mixed in one kernel), the
    Morphy kernel family (topology-sharing arrays with random unit
    capacitances), and the REACT kernel family (config-sharing banks with
    random per-lane polling hints), since one lockstep kernel only batches
    one family.  Returns a fresh-systems factory plus the simulator kwargs
    so the scalar oracle and the batch run each simulate untouched systems.
    """
    rng = np.random.default_rng(77_000 + case_seed)
    trace = random_trace(rng)
    dt_on = float(rng.choice([0.01, 0.02, 0.04]))
    dt_off = dt_on * int(rng.integers(2, 6))
    max_drain = float(rng.choice([30.0, 120.0]))
    family = case_seed % 3
    lane_seeds = [
        int(seed) for seed in rng.integers(0, 2**31, size=int(rng.integers(3, 7)))
    ]

    def lane_buffer(lane_rng: np.random.Generator):
        if family == 0:
            return MorphyBuffer(
                unit_capacitance=float(lane_rng.uniform(5e-4, 3e-3)),
            )
        if family == 1:
            # The polling hint is per-lane kernel state, not part of the
            # batch key, so hint-diverse REACT lanes share one kernel.
            return ReactBuffer(
                active_current_hint=float(lane_rng.uniform(5e-4, 3e-3)),
            )
        if int(lane_rng.integers(0, 2)):
            return StaticBuffer(float(lane_rng.uniform(3e-4, 2e-2)), name="static")
        return DewdropBuffer(float(lane_rng.uniform(2e-3, 2e-2)))

    def systems():
        built = []
        for lane_seed in lane_seeds:
            lane_rng = np.random.default_rng(lane_seed)
            built.append(
                BatterylessSystem.build(
                    trace,
                    lane_buffer(lane_rng),
                    random_workload(lane_rng),
                    mcu=MSP430FR5994(),
                )
            )
        return built

    return systems, dict(dt_on=dt_on, dt_off=dt_off, max_drain_time=max_drain)


@pytest.mark.parametrize("case_seed", range(10))
def test_batch_lane_mix_matches_step_by_step_oracle(case_seed):
    """The batch engine under the same differential discipline.

    Every randomized lane of a trace-sharing batch — including lanes that
    fast-forward whole segments while their neighbours step, brown out,
    or retire — must agree with the step-by-step scalar oracle on the
    exact counters and ledgers.
    """
    systems, kwargs = build_batch_case(case_seed)
    reference = [
        Simulator(system, fast_forward=False, **kwargs).run()
        for system in systems()
    ]
    batched = BatchSimulator(systems(), scalar_tail_lanes=0, **kwargs).run()
    for lane, (oracle, fast) in enumerate(zip(reference, batched)):
        context = (
            f"case_seed={case_seed} lane={lane} "
            f"{oracle.buffer_name}/{oracle.workload_name}"
        )
        assert_results_equivalent(oracle, fast, context)


def build_mixed_grid_case(case_seed: int):
    """A randomized REACT + static/Dewdrop lane mix on one shared trace.

    Models what the batch backend sees on a heterogeneous grid cell: lanes
    from different kernel families interleaved in submission order.  The
    test partitions them by ``batch_key`` exactly like the backend before
    handing each group to its own :class:`BatchSimulator`.
    """
    rng = np.random.default_rng(88_000 + case_seed)
    trace = random_trace(rng)
    dt_on = float(rng.choice([0.01, 0.02, 0.04]))
    dt_off = dt_on * int(rng.integers(2, 6))
    max_drain = float(rng.choice([30.0, 120.0]))
    lane_seeds = [
        int(seed) for seed in rng.integers(0, 2**31, size=int(rng.integers(6, 10)))
    ]

    def systems():
        built = []
        for lane, lane_seed in enumerate(lane_seeds):
            lane_rng = np.random.default_rng(lane_seed)
            if lane % 2:
                buffer = ReactBuffer(
                    active_current_hint=float(lane_rng.uniform(5e-4, 3e-3)),
                )
            elif int(lane_rng.integers(0, 2)):
                buffer = StaticBuffer(
                    float(lane_rng.uniform(3e-4, 2e-2)), name="static"
                )
            else:
                buffer = DewdropBuffer(float(lane_rng.uniform(2e-3, 2e-2)))
            built.append(
                BatterylessSystem.build(
                    trace, buffer, random_workload(lane_rng), mcu=MSP430FR5994()
                )
            )
        return built

    return systems, dict(dt_on=dt_on, dt_off=dt_off, max_drain_time=max_drain)


@pytest.mark.parametrize("case_seed", range(4))
def test_mixed_react_static_grid_matches_step_by_step_oracle(case_seed):
    """REACT and static-family lanes of one grid, each batched per family.

    Interleaved REACT and static/Dewdrop lanes are partitioned by
    ``batch_key`` (the backend's contract) into per-family lockstep
    kernels; every lane must agree with the step-by-step scalar oracle on
    the exact counters and ledgers.
    """
    systems, kwargs = build_mixed_grid_case(case_seed)
    reference = [
        Simulator(system, fast_forward=False, **kwargs).run()
        for system in systems()
    ]
    lanes = systems()
    groups = {}
    for index, system in enumerate(lanes):
        groups.setdefault(system.buffer.batch_key(), []).append(index)
    assert len(groups) >= 2, "case must actually mix kernel families"
    batched = [None] * len(lanes)
    for indices in groups.values():
        results = BatchSimulator(
            [lanes[i] for i in indices], scalar_tail_lanes=0, **kwargs
        ).run()
        for index, result in zip(indices, results):
            batched[index] = result
    for lane, (oracle, fast) in enumerate(zip(reference, batched)):
        context = (
            f"case_seed={case_seed} lane={lane} "
            f"{oracle.buffer_name}/{oracle.workload_name}"
        )
        assert_results_equivalent(oracle, fast, context)
