"""Property tests for the structure-of-arrays entry pool.

The pool is the foundation the SoA core stands on; these tests pin its
three load-bearing invariants directly, without a core in the loop:

* **Tokens never alias.**  However alloc/free/retire interleave, a
  token handed out for one allocation never validates for a different
  one — recycled slots get strictly newer sequence numbers and freed
  slots validate nothing (``seq_of == -1``).
* **free() is the squash.**  Releasing a slot restores every dynamic
  field to the state a never-allocated slot has: squash recovery in the
  core *is* this array reset, so a recycled slot must be
  indistinguishable from a fresh one (identity fields are exempt by
  contract — every ``alloc`` overwrites them).
* **Occupancy accounting is exact.**  ``pool.live`` is what telemetry's
  interval sampler cross-checks against ROB occupancy; live/pinned must
  track alloc/retire/free exactly, and a full in-flight population must
  equal the ROB+wrong-path population the core reports.

A fresh slot must also match the declarative ``_SCALAR_DEFAULTS`` table,
the spec of the field-by-field reset code in ``_grow`` and ``free``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa import assemble
from repro.uarch.config import base_config, hybrid_config, vp_config
from repro.uarch.core import OutOfOrderCore
from repro.uarch.entry import _SCALAR_DEFAULTS, IDX_MASK, SEQ_SHIFT, EntryPool
from repro.workloads.random_program import random_program

#: Identity fields: written unconditionally by every alloc, so free()
#: deliberately leaves them stale (seq_of is the exception — it is the
#: token validity word and must read -1 for a free slot).
_IDENTITY = {"meta", "outcome", "dispatch_cycle", "is_load", "is_store",
             "is_mem", "is_control", "writes_hi_lo"}

_DYNAMIC_DEFAULTS = [(name, default) for name, default in _SCALAR_DEFAULTS
                     if name not in _IDENTITY]


class _FakeMeta:
    """Minimal meta carrying just the flags alloc copies."""

    def __init__(self, is_load=False, is_store=False, is_control=False):
        self.is_load = is_load
        self.is_store = is_store
        self.is_mem = is_load or is_store
        self.is_control = is_control
        self.writes_hi_lo = False


_KINDS = [_FakeMeta(), _FakeMeta(is_load=True), _FakeMeta(is_store=True),
          _FakeMeta(is_control=True)]


def _assert_pristine(pool, i):
    for name, default in _DYNAMIC_DEFAULTS:
        assert getattr(pool, name)[i] == default, \
            f"free() left {name}[{i}] = {getattr(pool, name)[i]!r}"
    assert pool.seq_of[i] == -1
    assert pool.producers[i] == {}
    assert pool.src_values[i] == {}
    assert pool.consumers[i] == []
    assert pool.buf_a[i] == {} and pool.buf_b[i] == {}
    assert pool.used_values[i] is pool.buf_a[i]


#: Fields only a memory (or, for current_addr, control) op's lifetime
#: can write; free() resets them exactly under those conditions.
_MEM_ONLY = {"used_addr", "addr_known_cycle", "forwarded_from",
             "issue_addr"}
_MEM_OR_CONTROL = {"current_addr"}  # indirect jumps record a target too
_CONTROL_ONLY = {"prediction", "believed_taken", "believed_target",
                 "resolved_final", "last_resolution_cycle", "checkpoint",
                 "rename_snapshot"}


def _smudge(pool, i):
    """Write a sentinel into every dynamic field this op could touch.

    Mirrors the reset contract: a non-memory op can never dirty the
    address fields, a non-control op never the control fields, so
    free() is entitled to skip them.
    """
    is_mem = pool.is_mem[i]
    is_control = pool.is_control[i]
    for name, _default in _DYNAMIC_DEFAULTS:
        if name in _MEM_ONLY and not is_mem:
            continue
        if name in _MEM_OR_CONTROL and not (is_mem or is_control):
            continue
        if name in _CONTROL_ONLY and not is_control:
            continue
        getattr(pool, name)[i] = 0xDEAD
    pool.retired[i] = False  # counters: the slot is still live
    pool.producers[i][3] = 0
    pool.src_values[i][3] = 7
    pool.consumers[i].append(123)
    pool.buf_a[i][1] = 2
    pool.buf_b[i][4] = 5
    pool.used_values[i] = pool.buf_b[i]


# ---------------------------------------------------------------- aliasing --


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.integers(0, 2), min_size=1, max_size=200),
       capacity=st.integers(1, 8))
def test_tokens_never_alias_across_recycling(ops, capacity):
    """No recycling pattern can make a stale token validate.

    Ops: 0 = alloc, 1 = free oldest live, 2 = free newest live.  Every
    token ever issued is remembered; at each step exactly the tokens of
    currently-live allocations may validate.
    """
    pool = EntryPool(capacity)
    seq = 0
    live = {}  # token -> slot
    dead = set()
    for op in ops:
        if op == 0:
            seq += 1
            i = pool.alloc(seq, _KINDS[seq % len(_KINDS)], None, cycle=seq)
            tok = (seq << SEQ_SHIFT) | i
            live[tok] = i
        elif live:
            tok, i = (next(iter(live.items())) if op == 1
                      else list(live.items())[-1])
            pool.free(i)
            del live[tok]
            dead.add(tok)
        for tok in live:
            assert pool.valid(tok), "live token stopped validating"
        for tok in dead:
            assert not pool.valid(tok), "freed token still validates"
    assert pool.live == len(live)
    assert len(pool.free_list) == pool.capacity - len(live)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rounds=st.integers(1, 300))
def test_recycled_ids_never_collide_with_live(rounds):
    """A LIFO-recycled id reused immediately still gets a unique token."""
    pool = EntryPool(2)
    seq = 0
    prev_tok = None
    for _ in range(rounds):
        seq += 1
        i = pool.alloc(seq, _KINDS[0], None, cycle=seq)
        tok = pool.token(i)
        if prev_tok is not None:
            assert tok != prev_tok
            assert not pool.valid(prev_tok)
        pool.free(i)
        prev_tok = tok


# ------------------------------------------------------------ array reset --


def test_fresh_slots_match_scalar_defaults():
    """The explicit ``_grow`` matches the ``_SCALAR_DEFAULTS`` spec table."""
    pool = EntryPool(8)
    for field, default in _SCALAR_DEFAULTS:
        column = getattr(pool, field)
        assert len(column) == 8, field
        for value in column:
            assert value == default, field
            assert type(value) is type(default), field


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.integers(0, 3), retire_first=st.booleans(),
       data=st.data())
def test_free_restores_pristine_state(kind, retire_first, data):
    """After free(), a slot is indistinguishable from a never-used one.

    This is the squash-as-array-reset property: the core's recovery
    walk is nothing but ``drop_edges`` + ``free`` per victim, so the
    reset must cover every field an execution could have dirtied —
    including the gated groups, which stay on in a bare pool.
    """
    pool = EntryPool(4)
    assert pool.reset_vp and pool.reset_ir and pool.reset_reexec
    i = pool.alloc(1, _KINDS[kind], None, cycle=5)
    _smudge(pool, i)
    pool.seq_of[i] = 1  # _smudge clobbered it; restore the real seq
    if retire_first:
        pool.refs[i] = 0
        pool.retire(i)  # refs == 0: retire frees immediately
    else:
        pool.refs[i] = 0
        pool.free(i)
    _assert_pristine(pool, i)
    assert pool.live == 0 and pool.pinned == 0
    # The slot is immediately reusable and starts clean.
    j = pool.alloc(2, _KINDS[data.draw(st.integers(0, 3))], None, cycle=9)
    assert j == i  # LIFO free list hands the slot straight back
    assert pool.completed[j] is False
    assert pool.producers[j] == {}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), size=st.integers(10, 50),
       config=st.sampled_from([base_config, vp_config, hybrid_config]))
def test_squash_leaves_only_preserved_state(seed, size, config):
    """After a full run, every non-live slot in the core's pool is
    pristine: each squash range was restored by pure array resets."""
    program = assemble(random_program(seed, size=size))
    core = OutOfOrderCore(config(), program)
    core.run(max_cycles=200_000)
    pool = core.pool
    live = set(core.rob)
    for i in range(pool.capacity):
        if i in live or pool.seq_of[i] != -1:
            continue  # live, or retired-but-pinned (seq still valid)
        _assert_pristine(pool, i)


# ------------------------------------------------------------- occupancy --


class _OccupancyCore(OutOfOrderCore):
    """Core that cross-checks pool occupancy against the ROB each cycle."""

    def __init__(self, config, program):
        super().__init__(config, program)
        self.mismatches = []

    def step(self):
        super().step()
        # pool.live counts exactly the ROB-resident population — the
        # same quantity telemetry samples as rob_occupancy.
        if self.pool.live != len(self.rob):
            self.mismatches.append(
                (self.cycle, self.pool.live, len(self.rob)))
        counted = sum(1 for s in self.pool.seq_of if s != -1)
        if counted != self.pool.live + self.pool.pinned:
            self.mismatches.append(
                ("slots", self.cycle, counted,
                 self.pool.live, self.pool.pinned))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**18), size=st.integers(10, 60),
       config=st.sampled_from([base_config, vp_config, hybrid_config]))
def test_pool_occupancy_matches_rob(seed, size, config):
    program = assemble(random_program(seed, size=size))
    core = _OccupancyCore(config(), program)
    core.run(max_cycles=200_000)
    assert not core.mismatches, core.mismatches[:5]
    assert core.pool.live == 0, "run ended with leaked live slots"


def test_telemetry_occupancy_rows_match_pool():
    """The interval rows telemetry writes sample len(core.rob) — the
    quantity test_pool_occupancy_matches_rob proves equals pool.live."""
    program = assemble(random_program(3, size=40))
    core = _OccupancyCore(base_config(), program)
    core.enable_telemetry(interval=16, events=False)
    core.run(max_cycles=200_000)
    assert not core.mismatches
    series = core.telemetry.series
    assert len(series), "telemetry produced no interval rows"
    rob_col = series.column("rob_occupancy")
    lsq_col = series.column("lsq_occupancy")
    for rob_occ, lsq_occ in zip(rob_col, lsq_col):
        assert 0 <= rob_occ <= core.config.rob_size
        assert 0 <= lsq_occ <= core.config.lsq_size
