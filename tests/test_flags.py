"""Call-time switch semantics for the one remaining flag.

``repro.flags`` re-reads the environment on every call.  The subprocess
test proves the end-to-end claim: a process that imports everything, runs,
*then* flips the env sees the flip take effect immediately (an import-time
read would not).
"""

import subprocess
import sys

import pytest

from repro import flags


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_DISABLE_QUERY_CACHE", raising=False)


def test_flags_module_exports_only_the_query_cache_switch():
    assert flags.__all__ == ["env_flag", "query_cache_enabled"]


class TestCallTimeReads:
    def test_query_cache_env_flip_mid_process(self, monkeypatch):
        assert flags.query_cache_enabled()
        monkeypatch.setenv("REPRO_DISABLE_QUERY_CACHE", "true")
        assert not flags.query_cache_enabled()
        monkeypatch.delenv("REPRO_DISABLE_QUERY_CACHE")
        assert flags.query_cache_enabled()


_SUBPROCESS_SCRIPT = """
import os
from repro import flags
from repro.transducers import FairScheduler, Network, TransducerNetwork, section4_protocols

bundle = section4_protocols()[0]
network = Network(["n1", "n2"])

def run_once():
    net = TransducerNetwork(network, bundle.transducer, bundle.policy(network))
    run = net.new_run(bundle.instance)
    return run.run_to_quiescence(scheduler=FairScheduler(0)), run.metrics

# Everything imported, defaults active: the step cache counts its lookups.
assert flags.query_cache_enabled()
baseline, metrics = run_once()
assert metrics.cache_hits + metrics.cache_misses > 0

# Flip the switch mid-process — *after* import and first use.
os.environ["REPRO_DISABLE_QUERY_CACHE"] = "1"
assert not flags.query_cache_enabled()

# And the runtime actually honors the flip: freshly built transducers
# bypass the step cache yet compute the same output.
bundle = section4_protocols()[0]
uncached, metrics = run_once()
assert uncached == baseline
assert metrics.cache_hits + metrics.cache_misses == 0
print("MID_PROCESS_FLIP_OK")
"""


def test_mid_process_env_flip_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "MID_PROCESS_FLIP_OK" in result.stdout
