"""Positive + negative fixture per lint rule.

Each rule gets at least one fixture that must trip it and one that must
stay clean — the clean one being the sanctioned idiom the rule's
docstring points to.
"""

import pytest


def rules_hit(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


# -- no-wallclock -----------------------------------------------------------------

def test_wallclock_flagged_in_model_package(lint_one):
    findings = lint_one("repro/uarch/mod.py", """\
        import time
        from datetime import datetime
    """)
    hits = rules_hit(findings, "no-wallclock")
    assert len(hits) == 2
    assert hits[0].line == 1 and hits[1].line == 2


def test_wallclock_allowed_outside_model_packages(lint_one):
    findings = lint_one("repro/telemetry/mod.py", """\
        import time

        def stamp():
            return time.time()
    """)
    assert not rules_hit(findings, "no-wallclock")


# -- sorted-serialization ---------------------------------------------------------

def test_unsorted_json_dump_flagged(lint_one):
    findings = lint_one("repro/metrics/mod.py", """\
        import json

        def save(payload):
            return json.dumps(payload)
    """)
    hits = rules_hit(findings, "sorted-serialization")
    assert len(hits) == 1 and "sort_keys" in hits[0].message


def test_unordered_feed_flagged(lint_one):
    findings = lint_one("repro/metrics/mod.py", """\
        import json

        def save(writer, payload):
            writer.writerows(payload.values())
            return json.dumps(list(payload.keys()), sort_keys=True)
    """)
    hits = rules_hit(findings, "sorted-serialization")
    assert len(hits) == 2
    assert all("sorted(...)" in f.message for f in hits)


def test_sorted_serialization_clean(lint_one):
    findings = lint_one("repro/metrics/mod.py", """\
        import json

        def save(writer, payload):
            writer.writerows(sorted(payload.items()))
            return json.dumps(payload, indent=1, sort_keys=True)
    """)
    assert not rules_hit(findings, "sorted-serialization")


# -- no-builtin-hash --------------------------------------------------------------

def test_builtin_hash_flagged(lint_one):
    findings = lint_one("repro/experiments/mod.py", """\
        def key(config):
            return hash(config)
    """)
    assert len(rules_hit(findings, "no-builtin-hash")) == 1


def test_hashlib_is_clean(lint_one):
    findings = lint_one("repro/experiments/mod.py", """\
        import hashlib

        def key(config):
            return hashlib.sha256(repr(config).encode()).hexdigest()
    """)
    assert not rules_hit(findings, "no-builtin-hash")


# -- atomic-write -----------------------------------------------------------------

def test_handrolled_atomic_write_flagged(lint_one):
    findings = lint_one("repro/experiments/mod.py", """\
        import os
        import tempfile

        def store(path, data):
            fd, tmp = tempfile.mkstemp(dir=".")
            os.replace(tmp, path)
    """)
    messages = [f.message for f in rules_hit(findings, "atomic-write")]
    assert len(messages) == 2
    assert any("tempfile.mkstemp" in m for m in messages)
    assert any("os.replace" in m for m in messages)


def test_atomic_write_allowed_in_util(lint_one):
    findings = lint_one("repro/util/mod.py", """\
        import os
        import tempfile

        def atomic(path, data):
            fd, tmp = tempfile.mkstemp(dir=".")
            os.replace(tmp, path)
    """)
    assert not rules_hit(findings, "atomic-write")


def test_helper_call_is_clean(lint_one):
    findings = lint_one("repro/experiments/mod.py", """\
        from ..util.locking import atomic_write_text

        def store(path, data):
            atomic_write_text(path, data)
    """)
    assert not rules_hit(findings, "atomic-write")


def test_raw_write_in_helper_flagged_at_the_write(lint_one):
    # A helper raw-writing a path its caller derives from a store
    # directory is flagged at the write, whoever calls it.
    findings = lint_one("repro/experiments/store.py", """\
        def dump(path, payload):
            path.write_text(payload)


        def persist(cache_dir, payload):
            dump(cache_dir / "results.json", payload)
    """)
    hits = rules_hit(findings, "atomic-write")
    assert [f.line for f in hits] == [2]
    assert "raw write .write_text()" in hits[0].message


RAW_WRITES = {
    "write_text": "path.write_text(text)",
    "write_bytes": "path.write_bytes(data)",
    "open-w": 'open(path, "w")',
    "open-mode-a": 'open(path, mode="a")',
    "path-open-x": 'path.open("x")',
    "io-open-w+": 'io.open(path, "w+")',
    "os-fdopen-wb": 'os.fdopen(fd, "wb")',
}

READS = {
    "open": "open(path)",
    "open-rb": 'open(path, "rb")',
    "read_text": "path.read_text()",
    "os-open": 'os.open("wax.lock", os.O_RDONLY)',
}


def _io_module(call):
    return f"""\
        import io
        import os

        def touch(path, fd, text, data):
            return {call}
    """


@pytest.mark.parametrize("call", list(RAW_WRITES.values()),
                         ids=list(RAW_WRITES))
def test_raw_write_flagged(lint_one, call):
    findings = lint_one("repro/telemetry/mod.py", _io_module(call))
    hits = rules_hit(findings, "atomic-write")
    assert [f.line for f in hits] == [5]
    assert hits[0].message.startswith("raw write ")


@pytest.mark.parametrize("call", list(READS.values()), ids=list(READS))
def test_reads_are_clean(lint_one, call):
    findings = lint_one("repro/telemetry/mod.py", _io_module(call))
    assert not rules_hit(findings, "atomic-write")


@pytest.mark.parametrize("call", list(RAW_WRITES.values()),
                         ids=list(RAW_WRITES))
def test_raw_write_allowed_in_util(lint_one, call):
    findings = lint_one("repro/util/mod.py", _io_module(call))
    assert not rules_hit(findings, "atomic-write")


# -- telemetry-purity -------------------------------------------------------------

def test_telemetry_mutation_flagged(lint_one):
    findings = lint_one("repro/telemetry/mod.py", """\
        class Sink:
            def observe(self, core):
                core.cycle = 0
                core.stats.committed += 1
                core.rob[0] = None
    """)
    hits = rules_hit(findings, "telemetry-purity")
    assert len(hits) == 3
    assert all("'core'" in f.message for f in hits)


def test_telemetry_observation_is_clean(lint_one):
    findings = lint_one("repro/telemetry/mod.py", """\
        class Sink:
            def observe(self, core):
                self.last_cycle = core.cycle
                self.rows[core.cycle] = core.stats.committed
                snapshot = dict(core.stats.__dict__)
    """)
    assert not rules_hit(findings, "telemetry-purity")


def test_telemetry_purity_scoped_to_telemetry(lint_one):
    findings = lint_one("repro/uarch/mod.py", """\
        def tick(core):
            core.cycle += 1
    """)
    assert not rules_hit(findings, "telemetry-purity")


# -- main-guard -------------------------------------------------------------------

def test_unguarded_cli_flagged(lint_one):
    findings = lint_one("repro/experiments/cli_mod.py", """\
        import argparse

        def main():
            parser = argparse.ArgumentParser()
            parser.parse_args()

        main()
    """)
    hits = rules_hit(findings, "main-guard")
    assert len(hits) == 1 and hits[0].line == 0


def test_guarded_cli_clean(lint_one):
    findings = lint_one("repro/experiments/cli_mod.py", """\
        import argparse

        def main():
            parser = argparse.ArgumentParser()
            parser.parse_args()

        if __name__ == "__main__":
            main()
    """)
    assert not rules_hit(findings, "main-guard")


def test_non_cli_module_needs_no_guard(lint_one):
    findings = lint_one("repro/experiments/mod.py", """\
        def helper():
            return 1
    """)
    assert not rules_hit(findings, "main-guard")


# -- select / framework behaviour -------------------------------------------------

def test_select_restricts_rules(lint_one):
    findings = lint_one("repro/uarch/mod.py", """\
        import time

        def key(x):
            return hash(x)
    """, select=["no-builtin-hash"])
    assert {f.rule for f in findings} == {"no-builtin-hash"}


def test_syntax_error_raises(lint_one):
    with pytest.raises(SyntaxError) as excinfo:
        lint_one("repro/uarch/mod.py", "def broken(:\n")
    assert excinfo.value.filename.endswith("repro/uarch/mod.py")
    assert excinfo.value.lineno == 1
