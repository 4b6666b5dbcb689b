"""Property-based tests on the shared EnergyBuffer contract.

Every buffer architecture, whatever its internal topology, must obey the
same physical invariants: energy is never created, the ledger balances, and
voltages stay within the component ratings.  Hypothesis drives random
harvest/draw/housekeeping sequences against each implementation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers.base import EnergyBuffer
from repro.buffers.capybara import CapybaraBuffer
from repro.buffers.dewdrop import DewdropBuffer
from repro.buffers.morphy import MorphyBuffer
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.static import StaticBuffer
from repro.core.config import BankSpec, ReactConfig
from repro.units import microfarads, millifarads


def small_react_config() -> ReactConfig:
    return ReactConfig(
        last_level_capacitance=microfarads(770.0),
        banks=(
            BankSpec(unit_capacitance=microfarads(220.0), count=3),
            BankSpec(unit_capacitance=microfarads(880.0), count=3),
        ),
    )


BUFFER_FACTORIES = {
    "static": lambda: StaticBuffer(millifarads(1.0)),
    "morphy": lambda: MorphyBuffer(),
    "react": lambda: ReactBuffer(config=small_react_config()),
    "capybara": lambda: CapybaraBuffer(),
    "dewdrop": lambda: DewdropBuffer(millifarads(10.0)),
}

#: One random step of the buffer exercise: (harvested energy, load current, dt).
STEP = st.tuples(
    st.floats(0.0, 5e-3),
    st.floats(0.0, 20e-3),
    st.floats(1e-3, 0.5),
)


@pytest.mark.parametrize("kind", sorted(BUFFER_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=30))
def test_energy_is_never_created(kind, steps):
    buffer = BUFFER_FACTORIES[kind]()
    time = 0.0
    for harvested, current, dt in steps:
        buffer.harvest(harvested, dt)
        buffer.draw(current, dt)
        buffer.housekeeping(time, dt, system_on=bool(int(time * 10) % 2))
        time += dt

    ledger = buffer.ledger
    # Conservation: what was stored either went to the load, leaked, was lost
    # in switching, or is still in the buffer.
    remaining = ledger.stored - ledger.delivered - ledger.leaked
    assert buffer.stored_energy <= remaining + 1e-6
    # Nothing in the ledger can exceed what the environment offered.
    assert ledger.stored <= ledger.offered + 1e-9
    assert ledger.delivered <= ledger.offered + 1e-9
    assert ledger.clipped >= -1e-9
    assert ledger.leaked >= -1e-9
    assert ledger.switching_loss >= -1e-9


@pytest.mark.parametrize("kind", sorted(BUFFER_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=30))
def test_voltage_stays_within_ratings(kind, steps):
    buffer = BUFFER_FACTORIES[kind]()
    time = 0.0
    for harvested, current, dt in steps:
        buffer.harvest(harvested, dt)
        buffer.draw(current, dt)
        buffer.housekeeping(time, dt, system_on=True)
        time += dt
        assert -1e-9 <= buffer.output_voltage <= 3.6 + 1e-6
        assert buffer.stored_energy >= -1e-12
        assert buffer.capacitance > 0.0


@pytest.mark.parametrize("kind", sorted(BUFFER_FACTORIES))
def test_reset_restores_cold_start(kind):
    buffer = BUFFER_FACTORIES[kind]()
    buffer.harvest(5e-3, 1.0)
    buffer.draw(1e-3, 0.1)
    buffer.housekeeping(0.0, 0.1, system_on=True)
    buffer.reset()
    assert buffer.stored_energy == pytest.approx(0.0, abs=1e-12)
    assert buffer.output_voltage == pytest.approx(0.0, abs=1e-9)
    assert buffer.ledger.offered == 0.0
    assert buffer.longevity_request == 0.0


@pytest.mark.parametrize("kind", sorted(BUFFER_FACTORIES))
def test_longevity_api_contract(kind):
    buffer = BUFFER_FACTORIES[kind]()
    buffer.request_longevity(1e-3)
    assert buffer.longevity_request == pytest.approx(1e-3)
    # An empty buffer can never satisfy a non-trivial request.
    assert not buffer.longevity_satisfied()
    buffer.clear_longevity()
    assert buffer.longevity_request == 0.0
    assert buffer.longevity_satisfied()
    with pytest.raises(ValueError):
        buffer.request_longevity(-1.0)


#: Which buffers run a fused whole-segment replay; the rest run the hook loop.
FUSED = {
    "static": True,
    "morphy": True,
    "react": True,
    "capybara": False,
    "dewdrop": True,
}


@pytest.mark.parametrize("kind", sorted(BUFFER_FACTORIES))
def test_one_scalar_replay_entry_point(kind):
    """``fast_forward`` is the one scalar entry point and ``replay_hooks``
    the one hook loop; a buffer brings only its own ``_replay``."""
    buffer = BUFFER_FACTORIES[kind]()
    overrides = {
        name
        for cls in type(buffer).__mro__
        if cls is not EnergyBuffer
        for name in ("fast_forward", "fast_forward_on", "replay_hooks")
        if name in vars(cls)
    }
    assert overrides == set()
    assert buffer.follows_recurrence() is FUSED[kind]
    assert (type(buffer)._replay is not EnergyBuffer._replay) is FUSED[kind]
