"""The in-process executor's scratch is one arena handed out by phase
(``InlineScratch``): what a phase may rely on, whatever it asks for and
however the arena has to grow while it does."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vectorized.executor import InlineScratch

DTYPES = (np.int64, np.float64, np.float32, np.uint8)

requests = st.lists(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from(DTYPES), st.integers(1, 5000)),
    min_size=1,
    max_size=12,
)


@given(st.lists(requests, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_a_phase_keeps_what_it_was_handed(phases):
    scratch = InlineScratch()
    occupancy = scratch.ensure("occupancy", np.int64, 3, keep=True)
    occupancy[:3] = (7, 8, 9)
    for number, phase in enumerate(phases):
        scratch.begin_phase()
        assert scratch.used == 0
        held = {}
        for name, dtype, size in phase:
            array = scratch.ensure(name, dtype, size)
            assert array.dtype == dtype and len(array) >= size
            if name in held and held[name][0] is not array:
                del held[name]  # asked to grow (or retyped): a new buffer
            # Ensured again at a size it already holds: the same memory.
            assert scratch.ensure(name, dtype, size) is array is scratch[name]
            # Filled with a value no other buffer of the run carries.
            array[:] = (len(held) + 1) % 251
            held[name] = (array, (len(held) + 1) % 251)
        # Nothing handed out this phase overlaps anything else handed
        # out this phase — including what was ensured before the arena
        # ran out mid-phase and a later buffer got a block of its own.
        arrays = [array for array, _mark in held.values()]
        for index, (array, mark) in enumerate(held.values()):
            assert (array == mark).all(), (number, index)
            for other in arrays[index + 1 :]:
                assert not np.shares_memory(array, other)
        assert scratch.used >= sum(array.nbytes for array in arrays)
        # The kept array is no tenant of the arena: every reset and
        # every buffer of every phase leaves it alone.
        assert scratch["occupancy"] is occupancy
        assert occupancy[:3].tolist() == [7, 8, 9]
        assert not any(np.shares_memory(occupancy, array) for array in arrays)


def test_the_arena_settles_at_the_largest_phase_not_the_sum():
    scratch = InlineScratch()
    for _cycle in range(3):
        scratch.begin_phase()  # "refresh": 3 MB
        scratch.ensure("jitter", np.float32, 500_000)
        scratch.ensure("prop_a", np.int64, 125_000)
        scratch.begin_phase()  # "ranking": 2 MB, reusing the same bytes
        first = scratch.ensure("targets", np.int64, 125_000)
        scratch.ensure("senders", np.float64, 125_000)
    arena = scratch._arena
    assert 3_000_000 <= len(arena) < 2 * 3_000_000
    assert np.shares_memory(first, arena)  # a view of it, at its start
    scratch.begin_phase()
    assert scratch._arena is arena  # steady state: nothing is reallocated
    assert np.shares_memory(scratch.ensure("jitter", np.float32, 500_000), first)
