"""Order-2 finite-context-method (FCM) value predictor (extension).

Sazeides & Smith's two-level design: a first-level table records, per
static instruction, the last *order* committed values (the *context*);
a second-level table maps a hash of that context to the value that
followed it last time, with a 2-bit confidence counter.  Where the
last-value and stride predictors capture constant and arithmetic
sequences, FCM captures *repeating patterns* — exactly the
context-sensitive slice of the paper's Figure 8 redundancy taxonomy
that neither VP_LVP nor a stride predictor can reach (e.g. a result
alternating between two values trains FCM to full confidence while
destroying a last-value predictor).

Both levels are finite and direct-mapped, so the predictor is a fixed
hardware budget like the paper's VPT: ``config.entries`` context slots
and ``config.entries`` value slots, tags checked on both.  All hashing
is explicit integer mixing (never the salted builtin ``hash``), so
predictions are bit-reproducible across processes — the determinism
contract the sweep cache depends on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..uarch.config import VPConfig

# Knuth/Murmur-style 32-bit mixing constants.
_MIX_A = 0x9E3779B1
_MIX_B = 0x85EBCA77
_MIX_C = 0xC2B2AE3D
_MASK32 = 0xFFFFFFFF


def mix_context(key: int, values: Tuple[int, ...]) -> int:
    """Deterministic 32-bit hash of (table key, recent values)."""
    acc = (key * _MIX_A) & _MASK32
    for value in values:
        acc ^= (value * _MIX_B) & _MASK32
        acc = ((acc << 13 | acc >> 19) & _MASK32) * _MIX_C & _MASK32
    return acc


class FCMTable:
    """Two-level finite-context state shared by result/address streams.

    Level 1 (contexts) and level 2 (values) are separate direct-mapped
    arrays of ``config.entries`` slots each; a level-1 conflict evicts
    the old context, a level-2 conflict steals the slot only once the
    incumbent's confidence has decayed to zero.
    """

    def __init__(self, config: VPConfig):
        self.config = config
        self.order = max(1, config.fcm_order)
        size = max(1, config.entries)
        self.index_mask = size - 1
        if size & self.index_mask:
            raise ValueError("FCM table sizes must be a power of two")
        # Level 1: per-static-instruction context (tag, recent values).
        self.ctx_tags: List[Optional[int]] = [None] * size
        self.ctx_values: List[Tuple[int, ...]] = [()] * size
        # Level 2: context hash -> (tag, predicted value, confidence).
        self.val_tags: List[Optional[int]] = [None] * size
        self.val_values: List[int] = [0] * size
        self.val_conf: List[int] = [0] * size

    # -- level 1 ----------------------------------------------------------------

    def context(self, key: int) -> Optional[Tuple[int, ...]]:
        """The complete context for *key*, or ``None`` if not yet built."""
        slot = key & self.index_mask
        if self.ctx_tags[slot] != key:
            return None
        values = self.ctx_values[slot]
        return values if len(values) == self.order else None

    def push_value(self, key: int, value: int) -> None:
        """Shift *value* into the context (evicting on a tag conflict)."""
        slot = key & self.index_mask
        if self.ctx_tags[slot] == key:
            self.ctx_values[slot] = \
                (self.ctx_values[slot] + (value,))[-self.order:]
        else:
            self.ctx_tags[slot] = key
            self.ctx_values[slot] = (value,)

    # -- level 2 ----------------------------------------------------------------

    def peek(self, key: int, ahead: int = 1) -> Optional[int]:
        """The confident value *ahead* steps past *key*'s context.

        ``ahead=1`` is the plain FCM lookup.  Larger values chain the
        level-2 table forward through its own predictions — the FCM
        analogue of the stride predictor's ``outstanding`` multiplier:
        with k predicted instances still in flight, the next instance's
        context is the committed context advanced by those k predicted
        values, so a tight loop with several iterations in flight stays
        on-pattern.  Every link must be confident; any miss aborts the
        whole prediction.
        """
        context = self.context(key)
        if context is None:
            return None
        value: Optional[int] = None
        for _ in range(max(1, ahead)):
            value = self._lookup(key, context)
            if value is None:
                return None
            context = (context + (value,))[-self.order:]
        return value

    def _lookup(self, key: int, context: Tuple[int, ...]) -> Optional[int]:
        signature = mix_context(key, context)
        slot = signature & self.index_mask
        if self.val_tags[slot] != signature:
            return None
        if self.val_conf[slot] < self.config.confidence_threshold:
            return None
        return self.val_values[slot]

    def train(self, key: int, actual: int) -> None:
        """Record that *actual* followed the current context, then shift
        it into the context."""
        context = self.context(key)
        if context is not None:
            signature = mix_context(key, context)
            slot = signature & self.index_mask
            if self.val_tags[slot] == signature:
                if self.val_values[slot] == actual:
                    self.val_conf[slot] = min(self.config.max_confidence,
                                              self.val_conf[slot] + 1)
                else:
                    self.val_conf[slot] -= 1
                    if self.val_conf[slot] <= 0:
                        self.val_values[slot] = actual
                        self.val_conf[slot] = 1
            elif self.val_conf[slot] <= 0 or self.val_tags[slot] is None:
                self.val_tags[slot] = signature
                self.val_values[slot] = actual
                self.val_conf[slot] = 1
            else:
                # Conflict with a still-confident incumbent: decay it.
                self.val_conf[slot] -= 1
        self.push_value(key, actual)

    def occupied_contexts(self) -> int:
        return sum(1 for tag in self.ctx_tags if tag is not None)


class InFlight:
    """Per-key count of predictions whose instances have neither
    committed nor been squashed; the base of the FCM and selector models.

    With k predictions in flight, the next prediction for the key looks
    k+1 steps past the last committed value (see :meth:`FCMTable.peek`).
    """

    def __init__(self) -> None:
        self.outstanding: Dict[int, int] = {}

    def ahead(self, key: int) -> int:
        """How many steps past the committed value the next prediction
        for *key* lies."""
        return self.outstanding.get(key, 0) + 1

    def enter(self, key: int) -> None:
        """One more prediction for *key* is in flight."""
        self.outstanding[key] = self.outstanding.get(key, 0) + 1

    def retire(self, key: int) -> None:
        """One predicted instance of *key* committed or was squashed."""
        pending = self.outstanding.get(key, 0)
        if pending > 1:
            self.outstanding[key] = pending - 1
        elif pending:
            del self.outstanding[key]

    # The model protocol's squash notification.
    abort = retire


class FCMModel(InFlight):
    """The FCM predictor over an :class:`FCMTable`."""

    def __init__(self, config: VPConfig):
        super().__init__()
        self.table = FCMTable(config)

    def predict(self, key: int, oracle: int) -> Optional[int]:
        value = self.table.peek(key, self.ahead(key))
        if value is not None:
            self.enter(key)
        return value

    def train(self, key: int, actual: int, predicted: Optional[int]) -> None:
        self.table.train(key, actual)
        if predicted is not None:
            self.retire(key)

    def snapshot(self) -> dict:
        return {"fcm_order": self.table.order,
                "fcm_contexts": self.table.occupied_contexts()}
