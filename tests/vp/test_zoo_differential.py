"""Differential fuzz: the predictor zoo over generated workloads.

The repository's strongest invariant, extended to the full zoo: for ANY
generated program — at every corner of the generator's knob space — and
ANY predictor configuration (base, IR, VP_Magic/LVP/stride/FCM/the
hybrid selector/the perfect oracle, with and without the variable-fetch-
rate frontend), the timing core must commit architectural state
byte-identical to the in-order functional simulator.
``verify_commits=True`` checks every committed destination write in
lockstep, so a pass covers the whole commit stream.

A second, independent checking path is a ``core.on_commit`` observer
that replays each committed :class:`~repro.uarch.entry.InflightOp` on a
functional simulator stepped in lockstep — architectural-state equality
*at commit*, per instruction, not just at halt.  The tiny-window class
drives the same programs through a 6-entry ROB, so squashes hit a
nearly full window over and over.

Hypothesis runs with ``derandomize=True``: the CI fuzz job is
deterministic and time-bounded, per the repository determinism contract.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.functional import FunctionalSimulator
from repro.isa import NUM_REGS, assemble
from repro.uarch.config import (
    PredictorKind,
    base_config,
    ir_config,
    vfr_config,
    vp_config,
)
from repro.uarch.core import OutOfOrderCore
from repro.workloads import GeneratorKnobs, generated_program

#: Every predictor kind end-to-end, plus IR and the throttled frontend.
ZOO_CONFIGS = (
    [base_config(), ir_config()]
    + [vp_config(kind) for kind in PredictorKind]
    + [vp_config(PredictorKind.FCM, verify_latency=1),
       vp_config(PredictorKind.HYBRID_SELECT, verify_latency=1),
       vfr_config(),  # throttled frontend, no VP
       vfr_config(PredictorKind.HYBRID_SELECT)]
)

#: The generator's knob-space corners plus the centre point.
KNOB_CORNERS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                (0.5, 0.5)]

# Small programs keep the full (corner x config) product CI-affordable;
# a generated program's structure does not grow with trips.
_SIZE = 24
_TRIPS = 4


def _nonzero_pages(memory):
    """Memory as {page: bytes}, ignoring pages that are all zero.

    Untouched memory reads as zero, so a page one simulator allocated
    but never wrote nonzero bytes to is architecturally invisible.
    """
    return {number: page
            for number, page in memory.snapshot_pages().items()
            if any(page)}


def check_generated(knobs: GeneratorKnobs, configs=ZOO_CONFIGS,
                    max_cycles=400_000):
    program = assemble(generated_program(knobs))
    reference = FunctionalSimulator(program)
    reference.run(max_instructions=500_000)
    assert reference.halted, f"{knobs.name} did not halt functionally"
    reference_pages = _nonzero_pages(reference.state.memory)
    for config in configs:
        config = dataclasses.replace(config, verify_commits=True)
        core = OutOfOrderCore(config, program)
        stats = core.run(max_cycles=max_cycles)
        assert stats.halted, f"{config.name} did not halt on {knobs.name}"
        assert stats.committed == reference.instructions_retired, (
            f"{config.name} on {knobs.name}: committed {stats.committed}, "
            f"functional ran {reference.instructions_retired}")
        for reg in range(NUM_REGS):
            assert core.spec.regs[reg] == reference.state.regs[reg], (
                f"{config.name} on {knobs.name}: "
                f"register {reg} diverged")
        assert _nonzero_pages(core.spec.memory) == reference_pages, (
            f"{config.name} on {knobs.name}: memory diverged")


class _CommitLockstep:
    """``on_commit`` observer replaying each commit on a reference.

    Checks every committed instruction's architectural effect — PC,
    register writes, memory access, control outcome, next PC — against
    an in-order functional simulator stepped in lockstep.
    """

    _FIELDS = ("operand_a", "operand_b", "next_pc", "result",
               "result_hi", "writes", "mem_addr", "mem_value", "taken")

    def __init__(self, program):
        self.reference = FunctionalSimulator(program)
        self.mismatches = []

    def __call__(self, view, cycle):
        reference = self.reference
        if reference.halted:
            self.mismatches.append(
                (view.seq, "commit after the reference halted"))
            return
        expect = reference.step()
        got = view.outcome
        if view.inst.pc != expect.inst.pc:
            # The commit streams diverged; later field diffs are noise.
            self.mismatches.append(
                (view.seq,
                 f"pc {view.inst.pc:#x} != {expect.inst.pc:#x}"))
            return
        for field in self._FIELDS:
            if field == "next_pc" and reference.halted:
                # step() pins the halt's next_pc to its own address; the
                # core's outcome records the (never-fetched) fall-through.
                continue
            if getattr(got, field) != getattr(expect, field):
                self.mismatches.append(
                    (view.seq, f"pc={view.inst.pc:#x}",
                     f"{field}: {getattr(got, field)!r} != "
                     f"{getattr(expect, field)!r}"))


#: The lockstep sweep uses one representative per scheme family — the
#: observer cost is per commit, so the full zoo product is reserved for
#: the end-state check above.
LOCKSTEP_CONFIGS = [base_config(), ir_config(),
                    vp_config(PredictorKind.STRIDE),
                    vp_config(PredictorKind.HYBRID_SELECT),
                    vfr_config()]


def check_commit_lockstep(knobs: GeneratorKnobs, configs=None,
                          max_cycles=400_000):
    program = assemble(generated_program(knobs))
    for config in (LOCKSTEP_CONFIGS if configs is None else configs):
        core = OutOfOrderCore(config, program)
        observer = _CommitLockstep(program)
        core.on_commit = observer
        stats = core.run(max_cycles=max_cycles)
        assert stats.halted, f"{config.name} did not halt on {knobs.name}"
        assert not observer.mismatches, (
            f"{config.name} on {knobs.name}: commit stream diverged: "
            f"{observer.mismatches[:5]}")
        assert observer.reference.halted, (
            f"{config.name} on {knobs.name}: core halted before the "
            f"reference")
        assert observer.reference.instructions_retired == stats.committed


class TestKnobCorners:
    """One deterministic seed at every corner of the knob space."""

    @pytest.mark.parametrize("redundancy,entropy", KNOB_CORNERS)
    def test_corner(self, redundancy, entropy):
        check_generated(GeneratorKnobs(
            seed=1, size=_SIZE, trips=_TRIPS,
            result_redundancy=redundancy, branch_entropy=entropy))


class TestCommitLockstep:
    """Per-commit architectural equality through the commit observer."""

    @pytest.mark.parametrize("redundancy,entropy", KNOB_CORNERS)
    def test_corner(self, redundancy, entropy):
        check_commit_lockstep(GeneratorKnobs(
            seed=1, size=_SIZE, trips=_TRIPS,
            result_redundancy=redundancy, branch_entropy=entropy))

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           redundancy=st.sampled_from([0.0, 0.5, 1.0]),
           entropy=st.sampled_from([0.0, 0.5, 1.0]))
    def test_lockstep_fuzz(self, seed, redundancy, entropy):
        check_commit_lockstep(GeneratorKnobs(
            seed=seed, size=_SIZE, trips=_TRIPS,
            result_redundancy=redundancy, branch_entropy=entropy))


class TestTinyWindows:
    """Squash pressure: windows far smaller than the program.

    A 6-entry ROB over a dynamic stream hundreds of instructions long
    keeps the window full, so squashes keep landing on entries that
    were dispatched a cycle or two earlier and still sit in the event
    heap, the wakeup queue and their producers' consumer lists.
    """

    _TINY = [dataclasses.replace(config, rob_size=6, lsq_size=4,
                                 fetch_queue_size=4,
                                 max_unresolved_branches=4)
             for config in (base_config(), ir_config(),
                            vp_config(PredictorKind.HYBRID_SELECT),
                            vfr_config())]

    @pytest.mark.parametrize("redundancy,entropy", KNOB_CORNERS)
    def test_corner(self, redundancy, entropy):
        knobs = GeneratorKnobs(seed=2, size=_SIZE, trips=_TRIPS,
                               result_redundancy=redundancy,
                               branch_entropy=entropy)
        check_generated(knobs, configs=self._TINY)
        check_commit_lockstep(knobs, configs=self._TINY)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_recycling_fuzz(self, seed):
        check_generated(
            GeneratorKnobs(seed=seed, size=_SIZE, trips=8,
                           result_redundancy=0.5, branch_entropy=0.5),
            configs=self._TINY)


class TestFuzz:
    """Hypothesis sweeps seeds and knobs (derandomized: CI-stable)."""

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           redundancy=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
           entropy=st.sampled_from([0.0, 0.5, 1.0]))
    def test_zoo_matches_functional(self, seed, redundancy, entropy):
        check_generated(GeneratorKnobs(
            seed=seed, size=_SIZE, trips=_TRIPS,
            result_redundancy=redundancy, branch_entropy=entropy))

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_new_predictors_on_larger_programs(self, seed):
        """The new kinds alone, on bigger/longer programs: more dynamic
        instructions per config without the full config product."""
        check_generated(
            GeneratorKnobs(seed=seed, size=48, trips=12,
                           result_redundancy=0.6, branch_entropy=0.4),
            configs=[vp_config(PredictorKind.FCM),
                     vp_config(PredictorKind.HYBRID_SELECT),
                     vfr_config(PredictorKind.FCM)])
