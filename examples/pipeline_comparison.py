#!/usr/bin/env python3
"""Reproduce Figure 2: a dependent chain through three pipelines.

The paper's Figure 2 walks instructions I, J, K (each dependent on the
previous) through (i) the base superscalar, (ii) a pipeline with VP, and
(iii) a pipeline with IR:

* base: I, J, K execute serially — the chain commits in cycle 6;
* VP:   predicted inputs let all three execute in parallel — commit in 4;
* IR:   the whole chain is reused at decode — commit in cycle 3.

This example runs a real I-J-K chain (warmed up so the VPT/RB know it)
and prints, from the Figure-2 rows of the chain's last ``commit`` events
(:func:`repro.telemetry.events.figure2_rows`), the cycle each
instruction committed in, relative to the chain's fetch cycle.

Run:  python examples/pipeline_comparison.py
"""

from repro import OutOfOrderCore, assemble, base_config, ir_config, vp_config
from repro.telemetry.events import figure2_rows

# The observed chain lives in a loop so the predictor/reuse-buffer have
# seen it; we report timing for a late iteration (steady state).
SOURCE = """
main:   li $s0, 50
loop:   li $t0, 7          # I:  t0 = 7
        add $t1, $t0, $t0  # J:  t1 = I + I   (depends on I)
        add $t2, $t1, $t1  # K:  t2 = J + J   (depends on J)
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""

CHAIN_NAMES = {0: "I (li)", 1: "J (add)", 2: "K (add)"}


def chain_rows(config):
    """The Figure-2 rows of the chain's last iteration, I first."""
    program = assemble(SOURCE)
    core = OutOfOrderCore(config, program)
    sink = core.enable_telemetry()
    core.run(max_cycles=20_000)
    loop_start = program.symbol("loop")
    last = {}
    for event in sink.trace.select(kinds=["commit"]):
        offset = (event.pc - loop_start) // 4
        if offset in CHAIN_NAMES:
            last[offset] = event
    return figure2_rows(last[offset] for offset in sorted(last))


def main() -> None:
    print("Dependent chain I -> J -> K (steady state, relative cycles)")
    print()
    print(f"{'pipeline':<12} {'inst':<8} {'decoded':>8} {'committed':>10} "
          f"{'chain commit spread':>20}")
    print("-" * 62)
    for config in (base_config(), vp_config(), ir_config()):
        rows = chain_rows(config)
        commits = [row[5] for row in rows]
        spread = max(commits) - min(commits)
        for offset, (_, _, dispatch, _, _, commit, _) in enumerate(rows):
            print(f"{config.name:<12} {CHAIN_NAMES[offset]:<8} "
                  f"{dispatch:>8} {commit:>10}"
                  + (f" {spread:>19}" if offset == 2 else ""))
        print()
    print("Figure 2's point: in the base pipeline the chain commits over")
    print("several cycles (serial execution); with VP and IR the whole")
    print("chain completes together because the dependences collapsed.")


if __name__ == "__main__":
    main()
