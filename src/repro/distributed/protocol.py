"""Wire protocol of the distributed backend: what each shard command
carries down to a worker and what comes back up.

The driver issues the bulk cycle's command stream verbatim (same
:data:`repro.distributed.migration.DISPATCH` kernels, same phase
ordering, same :class:`~repro.bulk.CyclePlan`), but nothing is shared
between the processes — every buffer the in-process executor's threads
simply share with the driver crosses a message transport instead:

* **column replication.**  Workers hold a full-capacity local replica
  of the :class:`~repro.vectorized.state.ArrayState`.  The *light*
  columns every kernel may read about any peer —
  :data:`REPLICATED_COLUMNS` (``attribute``/``value``/``alive``/
  ``joined_at``, the gossip payload and membership) — are kept
  consistent on every worker and the driver via explicit delta
  messages at each phase boundary.  The *heavy* columns (views,
  rank counters, window buffers) are authoritative only on the
  owning shard; cross-shard view exchanges move the few partner rows
  they need explicitly (the ``fetch_rows`` / guest-row path).
* **scratch inputs** (:data:`COMMAND_INPUTS`) — the plan blocks a
  command consumes, shipped from the driver's scratch with the command
  message;
* **scratch outputs** (:data:`collect_outputs`) — the segments a
  worker writes (proposals, targets, exchange outcomes, migration
  staging), extracted worker-side and merged into the driver's scratch
  from the reply;
* **state updates** — ``(column, rows, values)`` deltas of replicated
  columns (and returned guest view rows), routed by the driver: light
  columns to everyone, view rows to their owner only.

The driver stays the single planner and the workers pure appliers, so
runs remain bitwise identical to the vectorized/sharded backends at
every worker count.  No metric has a row in these tables: the driver
computes them all from the replicated columns (plus ``obs_total``,
pulled through ``dump_state`` when ``confident_fraction`` asks).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "REPLICATED_COLUMNS",
    "HEAVY_COLUMNS",
    "WINDOW_HEAVY_COLUMNS",
    "COMMAND_INPUTS",
    "INPUT_SLICERS",
    "collect_outputs",
    "collect_updates",
    "heavy_columns",
]

#: Columns every worker (and the driver) keeps consistent: the ones
#: protocol kernels read about arbitrary peers.  ``attribute`` and
#: ``joined_at`` change only through churn; ``alive`` through churn
#: and rebalancing; ``value`` is the gossip payload itself, updated by
#: the exchange phases and re-broadcast at each phase boundary.
REPLICATED_COLUMNS = ("attribute", "value", "alive", "joined_at")

#: Columns owned by exactly one shard (plus their sliding-window
#: extension); other replicas hold stale bytes that are never read.
HEAVY_COLUMNS = ("view_ids", "view_ages", "obs_le", "obs_total")
WINDOW_HEAVY_COLUMNS = ("win_bits", "win_pos", "win_len")


def heavy_columns(state) -> Tuple[str, ...]:
    """The partitioned columns of ``state`` (window included iff the
    exact sliding window is enabled)."""
    if state.window is not None:
        return HEAVY_COLUMNS + WINDOW_HEAVY_COLUMNS
    return HEAVY_COLUMNS


#: Scratch arrays each command consumes.  Arrays the driver has not
#: allocated yet are skipped — kernels only read an input when the
#: configuration that allocates it is active (e.g. ``u1`` exists only
#: when the boundary bias is ablated).
COMMAND_INPUTS: Dict[str, Tuple[str, ...]] = {
    "refresh_fill_partners": ("fill_ids", "jitter"),
    "refresh_swap": ("wave_a", "wave_b"),
    "rank_targets": ("u1", "u2"),
    "rank_apply": ("targets", "senders"),
    "ord_select": ("u1",),
    "conc_wave": ("wave_a", "wave_b", "wave_d", "wave_s"),
    "conc_req": ("del_r", "del_s", "del_p", "del_t"),
    "conc_ack": ("del_r", "del_s", "del_t", "x_ackv"),
    "fault_deliver": ("del_r", "del_a", "del_p"),
    "rebalance_pack": ("mig_live",),
    "rebalance_unpack": ("mig_bytes", "mig_map"),
}


# ----------------------------------------------------------------------
# Per-worker input slicing
# ----------------------------------------------------------------------
#
# Most commands read only a contiguous, payload-determined run of each
# input — this shard's live rows' jitter, this shard's wave pairs, this
# shard's uniforms.  A *slicer* maps ``(payload, state)`` to
# ``{name: (offset, count) | None}``: the driver ships each worker only
# ``scratch[name][offset : offset + count]`` (tagged with the offset so
# the mirror lands it at the right place), and ``None`` means the
# worker genuinely reads the whole array (e.g. scattered slot lookups).
# When a slicer exists its keys are authoritative over
# :data:`COMMAND_INPUTS`.  Commands without a slicer ship their inputs
# in full.


def _slice_refresh_fill_partners(payload, state):
    c = state.view_size
    return {
        "fill_ids": (payload["fill_offset"], payload["fill_count"]),
        "jitter": (payload["jitter_offset"] * c, payload["live_count"] * c),
    }


def _slice_rank_targets(payload, state):
    span = (payload["offset"], payload["count"])
    return {"u1": span, "u2": span}


def _slice_ord_select(payload, state):
    return {"u1": (payload["offset"], payload["count"])}


def _slice_span(*names):
    def slicer(payload, state):
        span = (payload["offset"], payload["count"])
        return {name: span for name in names}

    return slicer


def _slice_conc_ack(payload, state):
    span = (payload["offset"], payload["count"])
    # del_t holds *global* exchange-slot indices: the ACK values the
    # kernel gathers from x_ackv are scattered, so that one ships full.
    return {"del_r": span, "del_s": span, "del_t": span, "x_ackv": None}


def _slice_rebalance_unpack(payload, state):
    row_bytes = getattr(state, payload["column"]).strides[0]
    start = payload["lo"] - payload["base"]
    rows = max(0, payload["hi"] - payload["lo"])
    spans = {"mig_bytes": (start * row_bytes, rows * row_bytes)}
    if payload["column"] == "view_ids":  # the only column that relabels
        spans["mig_map"] = None
    return spans


INPUT_SLICERS = {
    "refresh_fill_partners": _slice_refresh_fill_partners,
    "refresh_swap": _slice_span("wave_a", "wave_b"),
    "rank_targets": _slice_rank_targets,
    "rank_apply": _slice_span("targets", "senders"),
    "ord_select": _slice_ord_select,
    "conc_wave": _slice_span("wave_a", "wave_b", "wave_d", "wave_s"),
    "conc_req": _slice_span("del_r", "del_s", "del_p", "del_t"),
    "conc_ack": _slice_conc_ack,
    "fault_deliver": _slice_span("del_r", "del_a", "del_p"),
    "rebalance_pack": lambda payload, state: {
        "mig_live": (payload["base"] + payload["offset"], payload["count"])
    },
    "rebalance_unpack": _slice_rebalance_unpack,
}

# ----------------------------------------------------------------------
# Worker-side reply builders
# ----------------------------------------------------------------------
#
# An *output* is ``(name, index, values)`` into a driver scratch array:
# ``index`` is an integer start (contiguous segment) or an int64 index
# array (scattered writes, e.g. per-exchange outcome slots).  An
# *update* is ``(column, rows, values)`` into the state itself.


def _segment(scratch, name: str, start: int, count: int):
    return (name, int(start), np.array(scratch[name][start : start + count]))


def _out_refresh_age(ctx, payload, result):
    shard = payload["shard"]
    return [("occupancy", shard, np.array(ctx.scratch["occupancy"][shard : shard + 1]))]


def _out_refresh_fill_partners(ctx, payload, result):
    count = int(result["props"])
    if count == 0:  # uniform-oracle fill, or no live rows on the shard
        return []
    return [
        _segment(ctx.scratch, "prop_a", ctx.lo, count),
        _segment(ctx.scratch, "prop_b", ctx.lo, count),
    ]


def _out_rank_targets(ctx, payload, result):
    count = len(ctx.cache.get("rows", ()))
    if count == 0:
        return []
    segments = [
        _segment(ctx.scratch, "tgt1", ctx.lo, count),
        _segment(ctx.scratch, "tgt2", ctx.lo, count),
        _segment(ctx.scratch, "sattr", ctx.lo, count),
    ]
    if payload.get("sids"):
        segments.append(_segment(ctx.scratch, "sid", ctx.lo, count))
    return segments


def _out_ord_select(ctx, payload, result):
    count = int(result["props"])
    return [
        _segment(ctx.scratch, "prop_a", ctx.lo, count),
        _segment(ctx.scratch, "prop_b", ctx.lo, count),
        _segment(ctx.scratch, "prop_x", ctx.lo, count),
    ]


def _exchange_slots(ctx, payload, slot_array: str):
    offset, count = int(payload["offset"]), int(payload["count"])
    return np.array(ctx.scratch[slot_array][offset : offset + count])


def _out_conc_wave(ctx, payload, result):
    if not payload["count"]:
        return []
    slots = _exchange_slots(ctx, payload, "wave_s")
    scratch = ctx.scratch
    return [
        ("x_resp", slots, np.array(scratch["x_resp"][slots])),
        ("x_reqs", slots, np.array(scratch["x_reqs"][slots])),
        ("x_ackv", slots, np.array(scratch["x_ackv"][slots])),
    ]


def _out_conc_req(ctx, payload, result):
    if not payload["count"]:
        return []
    slots = _exchange_slots(ctx, payload, "del_t")
    scratch = ctx.scratch
    return [
        ("x_resp", slots, np.array(scratch["x_resp"][slots])),
        ("x_ackv", slots, np.array(scratch["x_ackv"][slots])),
    ]


def _out_conc_ack(ctx, payload, result):
    if not payload["count"]:
        return []
    slots = _exchange_slots(ctx, payload, "del_t")
    return [("x_reqs", slots, np.array(ctx.scratch["x_reqs"][slots]))]


def _out_rebalance_pack(ctx, payload, result):
    count = int(payload["count"])
    if count == 0:
        return []
    row_bytes = getattr(ctx.state, payload["column"]).strides[0]
    start = int(payload["offset"]) * row_bytes
    return [_segment(ctx.scratch, "mig_bytes", start, count * row_bytes)]


_OUTPUTS = {
    "refresh_age": _out_refresh_age,
    "refresh_fill_partners": _out_refresh_fill_partners,
    "rank_targets": _out_rank_targets,
    "ord_select": _out_ord_select,
    "conc_wave": _out_conc_wave,
    "conc_req": _out_conc_req,
    "conc_ack": _out_conc_ack,
    "rebalance_pack": _out_rebalance_pack,
}


def collect_outputs(ctx, command: str, payload: dict, result) -> List[tuple]:
    """The scratch segments this command wrote, for the reply."""
    builder = _OUTPUTS.get(command)
    if builder is None:
        return []
    return builder(ctx, payload, result)


def _upd_value_rows(ctx, rows: np.ndarray) -> List[tuple]:
    if len(rows) == 0:
        return []
    return [("value", np.array(rows), np.array(ctx.state.value[rows]))]


def _upd_rank_apply(ctx, payload, result):
    return _upd_value_rows(ctx, ctx.cache["live"])


def _upd_conc_wave(ctx, payload, result):
    offset, count = int(payload["offset"]), int(payload["count"])
    if count == 0:
        return []
    scratch = ctx.scratch
    rows = np.concatenate(
        [
            scratch["wave_a"][offset : offset + count],
            scratch["wave_b"][offset : offset + count],
        ]
    )
    return _upd_value_rows(ctx, rows)


def _upd_deliver(ctx, payload, result):
    offset, count = int(payload["offset"]), int(payload["count"])
    if count == 0:
        return []
    return _upd_value_rows(ctx, ctx.scratch["del_r"][offset : offset + count])


_UPDATES = {
    "rank_apply": _upd_rank_apply,
    "conc_wave": _upd_conc_wave,
    "conc_req": _upd_deliver,
    "conc_ack": _upd_deliver,
    # Matured delayed mail rewrites receiver values like any other
    # one-sided delivery; the frozen sender attributes ride del_a.
    "fault_deliver": _upd_deliver,
}


def collect_updates(ctx, command: str, payload: dict, result) -> List[tuple]:
    """The replicated-column deltas this command produced (plus, for
    the view-swap path, the rewritten guest rows — those are built by
    the worker's ``refresh_swap`` handler directly)."""
    builder = _UPDATES.get(command)
    if builder is None:
        return []
    return builder(ctx, payload, result)
