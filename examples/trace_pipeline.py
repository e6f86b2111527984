#!/usr/bin/env python3
"""Watch instructions flow through the pipeline under each technique.

Records each run's pipeline events with a telemetry sink and prints
the Figure-2-style table of its ``commit`` events
(:func:`repro.telemetry.events.figure2_table`) — dispatch / issue /
completion / commit cycle per instruction, plus how its value was
obtained — for the base, VP and IR machines over the same redundant
loop (steady state).

Run:  python examples/trace_pipeline.py
"""

from repro import OutOfOrderCore, assemble, base_config, ir_config, vp_config
from repro.telemetry.events import figure2_table

SOURCE = """
main:   li $s0, 40
loop:   li $t0, 6          # a redundant four-instruction chain
        add $t1, $t0, $t0
        add $t2, $t1, $t1
        add $t3, $t2, $t2
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""


def main() -> None:
    for config in (base_config(), vp_config(), ir_config()):
        core = OutOfOrderCore(config, assemble(SOURCE))
        sink = core.enable_telemetry()
        core.run(max_cycles=20_000)
        # Skip the first ~25 commits so the VPT/RB are warm.
        commits = sink.trace.select(kinds=["commit"], since=30)
        print(f"=== {config.name} ===")
        print(figure2_table(commits[:7]))
        print()
    print("Reading the 'how' column: 'executed' instructions waited for")
    print("their operands; 'predicted' ones issued immediately on VPT")
    print("values and verified at execute; 'reused' ones never touched a")
    print("functional unit — they completed at dispatch.")


if __name__ == "__main__":
    main()
