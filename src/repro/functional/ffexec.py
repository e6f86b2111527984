"""The functional fast-forward dispatch loop.

Every warm-up path in the tree — ``core.skip``, ``checkpoint.capture``
and the compiled lane of ``FunctionalSimulator.run`` — is the same
three-way loop over the per-static-instruction closures built by
:mod:`repro.functional.compiled`; this module is that loop, factored
once for all three call sites.

The halt sentinel is *passed in* rather than imported: the closures and
their sentinel stay in ``functional/compiled.py``, and identity
comparison against a caller-supplied object keeps this module free of
imports, so ``simulator.py`` (which ``compiled.py`` imports) can import
it at module level.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

#: Loop outcomes: the instruction budget ran out first, a halt
#: instruction was reached, or the PC left the program.
FF_BUDGET: int = 0
FF_HALT: int = 1
FF_BAD_PC: int = 2

#: Budget meaning "run to halt" (past any reachable instruction count).
FF_UNBOUNDED: int = 1 << 62


def run_ff(ff_entry: Callable[[int], Optional[Any]], halt: Any,
           state: Any, pc: int, budget: int,
           execute_halt: bool) -> Tuple[int, int, int]:
    """Drive fast-forward closures from *pc* for at most *budget* steps.

    Returns ``(pc, executed, status)``.  On ``FF_HALT`` the PC sits on
    the halt instruction; *execute_halt* decides whether the halt
    counts as executed (the functional simulator's convention) or is
    left for the caller's front end (the timing core's / checkpoint
    capture's convention).  On ``FF_BAD_PC`` the state reflects every
    instruction executed before the PC went off the program; raising is
    the caller's job (each site wants its own message).
    """
    executed = 0
    while executed < budget:
        fn = ff_entry(pc)
        if fn is None:
            return (pc, executed, FF_BAD_PC)
        if fn is halt:
            if execute_halt:
                executed += 1
            return (pc, executed, FF_HALT)
        pc = fn(state)
        executed += 1
    return (pc, executed, FF_BUDGET)
