"""Completion-event heap and wakeup (issue) queue of the timing core.

Both structures keep their backing list as a *public attribute* on
purpose: the core binds ``eventq.heap`` / ``wakeq.tokens`` once and
walks them with local-variable speed in its per-cycle loop, while
mutations that must uphold an invariant (heap order, sortedness
bookkeeping) go through the methods.  Neither attribute is ever rebound
here — only mutated in place — so a borrowed reference stays valid for
the life of the queue.  (:meth:`WakeupQueue.replace` rebinds by
contract; callers re-borrow after it.)
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

#: Event kinds carried in the heap tuples.
EVENT_COMPLETE: int = 0
EVENT_RESOLVE: int = 1


class EventQueue:
    """Min-heap of ``(cycle, seq, kind, entry_id)`` completion events.

    Ordering by ``(cycle, seq)`` makes same-cycle delivery age-ordered,
    which the golden corpus pins; *kind* and *entry_id* never decide the
    order because ``seq`` is unique per dynamic instruction.
    """

    heap: List[Tuple[int, int, int, int]]

    def __init__(self) -> None:
        self.heap = []

    def push(self, cycle: int, seq: int, kind: int, idx: int) -> None:
        heappush(self.heap, (cycle, seq, kind, idx))

    def pop(self) -> Tuple[int, int, int, int]:
        return heappop(self.heap)

    def __len__(self) -> int:
        return len(self.heap)


class WakeupQueue:
    """The issue/wakeup queue: tokens of ops that may want to issue.

    Tokens are ``(seq << SEQ_SHIFT) | id``, so plain integer order *is*
    age order.  Appends are usually already in age order; :meth:`add`
    notes the exception (re-adding an older op after a re-execution
    wake) in ``dirty`` and :meth:`ensure_sorted` restores order with one
    sort at the top of the issue phase — amortised, never per-append.
    """

    tokens: List[int]
    dirty: bool

    def __init__(self) -> None:
        self.tokens = []
        self.dirty = False

    def add(self, tok: int) -> None:
        tokens = self.tokens
        if tokens and tokens[-1] > tok:
            self.dirty = True  # re-add of an older op: re-sort later
        tokens.append(tok)

    def ensure_sorted(self) -> None:
        if self.dirty:
            # Tokens order by seq (the high bits), so a plain sort is
            # exactly sort-by-age.
            self.tokens.sort()
            self.dirty = False

    def replace(self, tokens: List[int]) -> None:
        """Adopt the survivor list an issue scan kept (already sorted)."""
        self.tokens = tokens

    def __len__(self) -> int:
        return len(self.tokens)
