"""Unit tests for the fetch unit (Table 1 front-end constraints)."""

from repro.isa import assemble
from repro.uarch.branch_predictor import BranchPredictorUnit
from repro.uarch.config import BranchPredictorConfig, base_config
from repro.uarch.fetch import VFR_LOW_CONF_WIDTH, FetchUnit


def make_fetch(source, config=None):
    config = config or base_config()
    program = assemble(source)
    predictor = BranchPredictorUnit(config.bpred)
    return FetchUnit(config, program, predictor), program


def warm(fetch, cycles=40):
    """Step until the first fetch lands (cold I-cache misses resolved)."""
    cycle = 0
    while not fetch.queue and cycle < cycles:
        cycle += 1
        fetch.step(max(cycle, fetch.stall_until))
    return cycle


class TestFetchWidth:
    def test_fetches_up_to_four(self):
        fetch, _ = make_fetch("main:" + "\n nop" * 16 + "\n halt")
        cycle = warm(fetch)
        assert len(fetch.queue) == 4

    def test_respects_queue_capacity(self):
        fetch, _ = make_fetch("main:" + "\n nop" * 32 + "\n halt")
        for cycle in range(1, 6):
            fetch.step(cycle)
        assert len(fetch.queue) <= fetch.config.fetch_queue_size

    def test_line_boundary_stops_group(self):
        # 32-byte lines hold 8 instructions; start 2 before a boundary.
        source = "main:" + "\n nop" * 32 + "\n halt"
        fetch, program = make_fetch(source)
        fetch.fetch_pc = program.entry_point + 6 * 4  # 2 insts left in line
        warm(fetch)
        assert len(fetch.queue) == 2

    def test_icache_miss_stalls(self):
        fetch, _ = make_fetch("main:" + "\n nop" * 16 + "\n halt")
        assert fetch.step(cycle=1) == 0 or fetch.stall_until <= 1
        # first access cold-misses: next fetch happens after miss latency
        fetch2, _ = make_fetch("main:" + "\n nop" * 16 + "\n halt")
        fetch2.icache.sets = [[] for _ in range(fetch2.icache.num_sets)]
        got = fetch2.step(cycle=1)
        if got == 0:
            assert fetch2.stall_until == 1 + fetch2.config.icache.miss_latency


class TestControlFlow:
    def test_one_taken_branch_per_cycle(self):
        source = """
        main: j next
        next: j after
        after: halt
        """
        fetch, _ = make_fetch(source)
        # warm the icache line first
        fetch.step(cycle=1)
        fetched_per_cycle = [len(fetch.queue)]
        assert fetched_per_cycle[0] <= 1 or fetch.queue[0][0].opcode.name == "j"

    def test_taken_branch_redirects(self):
        source = """
        main: j target
              nop
              nop
        target: halt
        """
        fetch, program = make_fetch(source)
        while not fetch.queue and fetch.fetch_pc == program.entry_point:
            fetch.step(fetch.stall_until + 1)
        assert fetch.fetch_pc == program.symbol("target")

    def test_halt_blocks_fetch(self):
        fetch, _ = make_fetch("main: halt\n nop")
        cycle = 1
        while not fetch.queue:
            cycle = max(cycle + 1, fetch.stall_until)
            fetch.step(cycle)
        assert fetch.blocked

    def test_invalid_pc_blocks(self):
        fetch, program = make_fetch("main: nop\n halt")
        fetch.fetch_pc = 0xDEAD000
        fetch.step(cycle=1)
        assert fetch.blocked

    def test_redirect_clears_queue_and_unblocks(self):
        fetch, program = make_fetch("main: halt\n target: nop\n halt")
        cycle = 1
        while not fetch.queue:
            cycle = max(cycle + 1, fetch.stall_until)
            fetch.step(cycle)
        fetch.redirect(program.symbol("target"), cycle)
        assert len(fetch.queue) == 0
        assert not fetch.blocked
        assert fetch.fetch_pc == program.symbol("target")


class TestPredictionsAttached:
    def test_branches_carry_predictions(self):
        source = """
        main: beq $t0, $t1, main
              halt
        """
        fetch, _ = make_fetch(source)
        cycle = 1
        while not fetch.queue:
            cycle = max(cycle + 1, fetch.stall_until)
            fetch.step(cycle)
        op, prediction, _ = fetch.queue[0]
        assert op.opcode.name == "beq"
        assert prediction is not None

    def test_plain_ops_have_no_prediction(self):
        fetch, _ = make_fetch("main: nop\n halt")
        cycle = 1
        while not fetch.queue:
            cycle = max(cycle + 1, fetch.stall_until)
            fetch.step(cycle)
        assert fetch.queue[0][1] is None

    def test_call_pushes_ras_for_return(self):
        source = """
        main: jal fn
              halt
        fn:   jr $ra
        """
        fetch, program = make_fetch(source)
        for cycle in range(1, 30):
            fetch.step(max(cycle, fetch.stall_until))
            if fetch.queue and fetch.queue[-1][0].is_return:
                break
        returns = [f for f in fetch.queue if f[0].is_return]
        if returns:
            assert returns[0][1].target == program.symbol("main") + 4


class TestVariableFetchRate:
    """The confidence-throttled frontend (config.variable_fetch_rate)."""

    SOURCE = """
    main: nop
          beq $zero, $zero, next
    next: nop
          nop
          nop
          nop
          nop
          nop
          nop
          nop
          halt
    """

    def make_vfr(self):
        from repro.uarch.config import vfr_config
        return make_fetch(self.SOURCE, config=vfr_config())

    def test_weak_branch_ends_group_and_throttles(self):
        fetch, _ = self.make_vfr()
        warm(fetch)
        # Fresh gshare counters are weak: the branch ends the group...
        assert fetch.vfr_throttles == 1
        assert len(fetch.queue) == 2
        # ...and the next cycle runs at the reduced width.
        landed = fetch.queue[-1][2]
        fetch.step(landed + 1)
        assert len(fetch.queue) == 2 + VFR_LOW_CONF_WIDTH
        # The cycle after that is back to full width.
        fetch.step(landed + 2)
        assert len(fetch.queue) == 2 + VFR_LOW_CONF_WIDTH + 4

    def test_confident_branch_does_not_throttle(self):
        fetch, _ = self.make_vfr()
        # Saturate every direction counter: high confidence everywhere.
        fetch.predictor.gshare.counters = bytearray(
            [3] * len(fetch.predictor.gshare.counters))
        warm(fetch)
        assert fetch.vfr_throttles == 0

    def test_base_config_never_throttles(self):
        fetch, _ = make_fetch(self.SOURCE)
        cycle = warm(fetch)
        fetch.step(cycle + 1)
        assert fetch.vfr_throttles == 0
        assert not fetch.config.variable_fetch_rate

    def test_jumps_do_not_throttle(self):
        from repro.uarch.config import vfr_config
        source = """
        main: j next
        next: nop
              nop
              halt
        """
        fetch, _ = make_fetch(source, config=vfr_config())
        cycle = warm(fetch)
        fetch.step(cycle + 1)
        assert fetch.vfr_throttles == 0

    def test_redirect_clears_pending_throttle(self):
        fetch, program = self.make_vfr()
        warm(fetch)
        assert fetch.vfr_throttles == 1
        landed = fetch.queue[-1][2]
        fetch.redirect(program.symbol("next"), landed)
        # The throttling branch was squashed: the next group is full.
        fetch.step(landed + 1)
        assert len(fetch.queue) == 4
