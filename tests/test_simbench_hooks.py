"""simbench's timing wraps still find every method they name.

``simbench/run.py --trace 1`` times each pipeline phase and runner
layer by replacing class attributes, and it skips a name the class no
longer defines without an error: a renamed method would read 0 host
time instead of failing.  This test records every (class, attribute)
the benchmark's ``instrument`` asks to wrap and checks that the class
defines each one.  It only reads ``simbench/``; nothing gets wrapped.
"""

import importlib.util
import sys
from pathlib import Path

from repro.uarch.core import OutOfOrderCore

RUN_PY = Path(__file__).resolve().parents[1] / "simbench" / "run.py"
MODULE = "simbench_run_under_test"

#: Wraps the benchmark still lists for methods deleted on purpose.
KNOWN_MISSING = {(OutOfOrderCore, "_fast_forward")}


def wrap_targets():
    """Every (owner, attr) ``instrument(probe, trace=True)`` wraps."""
    spec = importlib.util.spec_from_file_location(MODULE, RUN_PY)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its defining module up in sys.modules.
    sys.modules[MODULE] = module
    try:
        spec.loader.exec_module(module)
        probe = module.Probe()
        targets = []
        probe._replace = (
            lambda owner, attr, make: targets.append((owner, attr)))
        try:
            module.instrument(probe, trace=True)
        finally:
            probe.channel.close()
    finally:
        del sys.modules[MODULE]
    return targets


def test_every_wrapped_method_exists():
    targets = wrap_targets()
    assert (OutOfOrderCore, "_dispatch") in targets
    missing = {(owner, attr) for owner, attr in targets
               if attr not in owner.__dict__}
    assert missing <= KNOWN_MISSING, sorted(
        f"{owner.__name__}.{attr}" for owner, attr in missing)
