"""Unit tests for the struct-of-arrays node store."""

import numpy as np
import pytest

from repro.vectorized.state import EMPTY, ArrayState, column_spec


def make_state(n=20, view_size=4, seed=0):
    state = ArrayState(view_size=view_size, capacity=4)
    rng = np.random.default_rng(seed)
    state.add_nodes(rng.random(n), rng.random(n))
    state.fill_empty_slots(rng)
    return state, rng


class TestGrowth:
    def test_rejects_bad_view_size(self):
        with pytest.raises(ValueError):
            ArrayState(view_size=0)

    def test_ids_are_contiguous_and_stable(self):
        state, _rng = make_state(n=10)
        ids = state.add_nodes(np.array([0.5]), np.array([0.5]))
        assert list(ids) == [10]
        assert state.size == 11

    def test_capacity_grows_past_initial(self):
        state = ArrayState(view_size=4, capacity=2)
        state.add_nodes(np.zeros(100), np.zeros(100))
        assert state.capacity == 2 + 1024  # never fewer than 1024 rows more
        assert state.view_ids.shape == (state.capacity, 4)

    def test_growth_adds_a_quarter_and_keeps_every_row(self):
        state = ArrayState(view_size=3, capacity=8000)
        state.enable_window(12)
        state.add_nodes(np.zeros(8000), np.zeros(8000))
        rng = np.random.default_rng(2)
        before = {}
        for name in column_spec(3, 12):
            column = getattr(state, name)
            column[:] = rng.integers(0, 100, column.shape)
            before[name] = column.copy()
        state.add_nodes(np.ones(1), np.ones(1))
        assert state.capacity == 8000 + 8000 // 4
        for name, rows in before.items():
            column = getattr(state, name)
            assert len(column) == state.capacity, name
            assert np.array_equal(column[:8000], rows), name

    def test_add_preserves_existing_rows(self):
        state, _rng = make_state(n=5)
        before_attr = state.attribute[:5].copy()
        before_view = state.view_ids[:5].copy()
        state.add_nodes(np.ones(50), np.ones(50))
        assert np.array_equal(state.attribute[:5], before_attr)
        assert np.array_equal(state.view_ids[:5], before_view)

    def test_mismatched_lengths_rejected(self):
        state, _rng = make_state()
        with pytest.raises(ValueError):
            state.add_nodes(np.zeros(3), np.zeros(2))


class TestLiveness:
    def test_live_ids_excludes_removed(self):
        state, _rng = make_state(n=10)
        state.remove_nodes(np.array([2, 5]))
        assert list(state.live_ids()) == [0, 1, 3, 4, 6, 7, 8, 9]
        assert state.live_count == 8
        assert not state.is_alive(2)
        assert state.is_alive(3)

    def test_out_of_range_not_alive(self):
        state, _rng = make_state(n=3)
        assert not state.is_alive(99)
        assert not state.is_alive(-1)


class TestChurnBookkeeping:
    """Dead-node view entries must be purged (the ISSUE invariant)."""

    def test_purge_removes_dead_pointers(self):
        state, _rng = make_state(n=20)
        victims = np.array([0, 1, 2])
        assert any((state.view_ids[state.live_ids()] == v).any() for v in victims)
        state.remove_nodes(victims)
        assert state.maybe_dead_entries
        purged = state.purge_dead_entries(state.live_ids())
        assert purged > 0
        # A purge never clears the flag itself (threads may each purge
        # a row subset); whoever knows all live rows are done does.
        assert state.maybe_dead_entries
        live_views = state.view_ids[state.live_ids()]
        for victim in victims:
            assert not (live_views == victim).any()

    def test_purge_is_idempotent(self):
        state, _rng = make_state(n=20)
        state.remove_nodes(np.array([3]))
        state.purge_dead_entries()
        assert state.purge_dead_entries() == 0

    def test_fill_after_purge_restores_full_views(self):
        state, rng = make_state(n=30)
        state.remove_nodes(np.arange(10))
        state.purge_dead_entries()
        state.fill_empty_slots(rng)
        live = state.live_ids()
        view = state.view_ids[live]
        occupied = view != EMPTY
        # Refilled entries point at live nodes only.
        assert state.alive[np.where(occupied, view, 0)][occupied].all()

    def test_removing_everything_but_two_keeps_state_consistent(self):
        state, rng = make_state(n=10)
        state.remove_nodes(np.arange(8))
        state.purge_dead_entries()
        state.fill_empty_slots(rng)
        assert state.live_count == 2


class TestViewInvariants:
    def test_no_self_pointers_after_bootstrap(self):
        state, _rng = make_state(n=50)
        live = state.live_ids()
        assert not (state.view_ids[live] == live[:, None]).any()

    def test_no_duplicates_within_a_row(self):
        state, _rng = make_state(n=50, view_size=8)
        for row in state.view_ids[state.live_ids()]:
            filled = row[row != EMPTY]
            assert len(filled) == len(set(filled.tolist()))

    def test_blank_duplicates_keeps_first(self):
        state, _rng = make_state(n=10, view_size=4)
        state.view_ids[0] = np.array([3, 3, 5, EMPTY])
        state.view_ages[0] = np.array([1, 2, 3, 0], dtype=np.int32)
        state._blank_duplicates(np.array([0]))
        row = state.view_ids[0]
        assert list(row) == [3, EMPTY, 5, EMPTY]

    def test_fill_empty_slots_noop_with_one_live_node(self):
        state = ArrayState(view_size=4)
        state.add_nodes(np.array([0.5]), np.array([0.5]))
        state.fill_empty_slots(np.random.default_rng(0))
        assert (state.view_ids[0] == EMPTY).all()
