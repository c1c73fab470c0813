"""Master invariant: squash reuse never changes architectural results.

Every workload runs on the O3 core under baseline, MSSR and RI, with
the functional emulator stepped commit by commit alongside it
(:func:`repro.obs.run_lockstep`): every committed pc, destination value
and store must match, and so must the final registers and memory. A
divergence is reported at the exact first wrong commit. This is the
test that catches register-lifetime and RGID-soundness bugs.

Every run is on a :class:`~tests.invariants.CheckedCore` that checks
the machine's structures at the start of every ``_STRIDE``-th cycle
(``tests/test_invariants.py`` checks every cycle of one workload per
configuration).
"""

import pytest

from repro.obs import run_lockstep
from repro.pipeline import baseline_config, mssr_config, ri_config
from repro.workloads import get_workload

from tests.invariants import checked

_SCALE = 0.08

# A representative subset per scheme keeps runtime reasonable; the full
# matrix runs in the benchmark suite.
_BASELINE_SET = ["nested-mispred", "bfs", "tc", "xz", "deepsjeng",
                 "omnetpp", "perlbench"]
_MSSR_SET = ["nested-mispred", "linear-mispred", "bfs", "cc", "xz",
             "astar", "leela", "exchange2"]
_RI_SET = ["nested-mispred", "bfs", "xz", "gobmk", "mcf17"]


#: Cycles between two invariant checks.
_STRIDE = 128


def _cosim(name, config):
    workload = get_workload(name)
    _mod, prog = workload.build(_SCALE)
    outcome = run_lockstep(prog, config,
                           core_factory=checked(every=_STRIDE))
    assert outcome.ok, "%s:\n%s" % (name, outcome.divergence.format())


@pytest.mark.parametrize("name", _BASELINE_SET)
def test_baseline_cosim(name):
    _cosim(name, baseline_config())


@pytest.mark.parametrize("name", _MSSR_SET)
def test_mssr_cosim(name):
    _cosim(name, mssr_config(num_streams=4))


@pytest.mark.parametrize("name", _MSSR_SET[:4])
def test_mssr_two_stream_cosim(name):
    _cosim(name, mssr_config(num_streams=2, wpb_entries=32,
                             squash_log_entries=128))


@pytest.mark.parametrize("name", _RI_SET)
def test_ri_cosim(name):
    _cosim(name, ri_config(num_sets=64, assoc=2))
