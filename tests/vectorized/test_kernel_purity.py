"""What worker threads share, and processes did not, is the Python
objects: a kernel writes array *elements* — rows of the state's
columns, its slices of the scratch arrays — and never an attribute of
the state, the scratch or the telemetry (``size``, the liveness cache
and ``maybe_dead_entries`` are the driver's).  One regression that
rule was found by, and a source-level guard that holds it."""

import ast
import inspect
import textwrap

import numpy as np

from repro.core.slices import SlicePartition
from repro.vectorized.executor import InlineScratch
from repro.vectorized.kernels import DISPATCH, ShardContext
from repro.vectorized.metrics import PartitionArrays
from repro.vectorized.state import EMPTY, ArrayState

#: The names kernels know the objects by that every shard's thread
#: holds the same instance of, and the shard's own context.
SHARED = {
    "state": ArrayState,
    "scratch": InlineScratch,
    "geometry": PartitionArrays,
    "telemetry": None,
}
OWNERS = {**SHARED, "ctx": ShardContext}


def _owner_name(node):
    """``state`` for ``state.x`` and for ``ctx.state.x``."""
    owner = node.value
    return owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")


def _class_of(function):
    for cls in (ArrayState, InlineScratch, PartitionArrays, ShardContext):
        if inspect.getattr_static(cls, function.__name__, None) is function:
            return cls
    return None


def test_purging_one_shard_leaves_the_flag_for_the_others():
    """Two shards on one state, dead pointers in both halves: after
    shard 0 aged and purged its rows, shard 1 must still purge its own
    — a purge of a row subset used to clear ``maybe_dead_entries`` for
    everyone (harmless only while each pool worker held a private
    ``ArrayState`` and was re-sent the flag with every command)."""
    n = 40
    state = ArrayState(view_size=4, capacity=n)
    rng = np.random.default_rng(5)
    state.add_nodes(rng.random(n), rng.random(n))
    state.fill_empty_slots(rng)
    victims = np.array([3, 27])
    state.view_ids[:, 0] = np.where(np.arange(n) < n // 2, victims[1], victims[0])
    state.remove_nodes(victims)
    geometry = PartitionArrays(SlicePartition.equal(4))
    scratch = InlineScratch()
    scratch.ensure("occupancy", np.int64, 2)
    shards = [
        ShardContext(state, lo, hi, geometry, scratch)
        for lo, hi in ((0, n // 2), (n // 2, n))
    ]
    for index, ctx in enumerate(shards):
        DISPATCH["refresh_age"](ctx, uniform=False, shard=index)
        assert state.maybe_dead_entries, "a kernel cleared the driver's flag"
    live = state.live_ids()
    view = state.view_ids[live]
    assert not np.isin(view, victims).any()
    assert (view[:, 0] == EMPTY).all()
    assert scratch["occupancy"][:2].sum() == len(live) == n - 2


def _attribute_writes(function):
    """``(lineno, source)`` of every assignment in ``function`` whose
    target is an attribute — not an element — of a shared object."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    shared = set(SHARED)
    if _class_of(function) not in (None, ShardContext):
        shared.add("self")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        flat = []
        for target in targets:
            flat += target.elts if isinstance(target, ast.Tuple) else [target]
        for target in flat:
            # A name or an element (``state.value[rows] = ...``) is fine.
            if isinstance(target, ast.Attribute) and _owner_name(target) in shared:
                found.append((node.lineno, ast.unparse(node)))
    return found


def _callees(function):
    """The repro functions ``function`` may call: names resolved in its
    module, ``owner.member`` resolved against the owner's class
    (properties included)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    owners = {**OWNERS, "self": _class_of(function)}
    for node in ast.walk(tree):
        candidate = None
        if isinstance(node, ast.Name):
            candidate = function.__globals__.get(node.id)
        elif isinstance(node, ast.Attribute):
            cls = owners.get(_owner_name(node))
            member = inspect.getattr_static(cls, node.attr, None) if cls else None
            candidate = getattr(member, "fget", member)
        if inspect.isfunction(candidate) and candidate.__module__.startswith("repro."):
            yield candidate


def test_no_kernel_assigns_an_attribute_of_a_shared_object():
    seen, queue = set(), list(DISPATCH.values())
    while queue:
        function = queue.pop()
        if function in seen:
            continue
        seen.add(function)
        queue.extend(_callees(function))
    # The walk reaches the real work, not just the command wrappers.
    reached = {function.__qualname__ for function in seen}
    assert {
        "ArrayState.purge_dead_entries",
        "ArrayState.apply_fill",
        "_swap_views",
        "window_push",
        "wave_exchange",
        "select_exchanges",
        "PartitionArrays.boundary_distance",
    } <= reached, sorted(reached)
    writes = {
        f"{function.__module__}.{function.__qualname__}": found
        for function in seen
        if (found := _attribute_writes(function))
    }
    assert not writes, writes


def test_the_guard_sees_what_it_guards_against():
    """The guard's own check: the driver-side methods that *do* write
    the shared metadata are flagged when walked."""
    assert _attribute_writes(ArrayState.remove_nodes)
    assert _attribute_writes(ArrayState.live_ids)
    assert _attribute_writes(PartitionArrays.slice_distance_matrix)
    assert not _attribute_writes(ArrayState.purge_dead_entries)
