"""Eager validation of the configuration dataclasses.

Historically a typo'd ``memory_hazard_scheme`` (``"blooom"``) silently
fell back to verify-mode behaviour and an unknown predictor name only
blew up deep inside ``build_predictor`` — these tests pin the new
fail-at-construction behaviour with did-you-mean suggestions.
"""

import pytest

from repro.frontend.predictors import build_predictor
from repro.harness.jobs import build_scheme
from repro.pipeline.config import (MEMORY_HAZARD_SCHEMES, PREDICTOR_KINDS,
                                   CoreConfig, MemConfig, MSSRConfig,
                                   RIConfig, baseline_config, mssr_config,
                                   ri_config)


# ---------------------------------------------------------------------------
# MSSRConfig
# ---------------------------------------------------------------------------
def test_mssr_scheme_typo_rejected_with_suggestion():
    with pytest.raises(ValueError) as excinfo:
        MSSRConfig(memory_hazard_scheme="blooom")
    message = str(excinfo.value)
    assert "blooom" in message
    assert 'did you mean "bloom"' in message
    assert "verify" in message          # choices are listed


def test_mssr_valid_schemes_accepted():
    for scheme in MEMORY_HAZARD_SCHEMES:
        assert MSSRConfig(memory_hazard_scheme=scheme) \
            .memory_hazard_scheme == scheme


@pytest.mark.parametrize("field", ["num_streams", "wpb_entries",
                                   "squash_log_entries", "rgid_bits",
                                   "reconvergence_timeout", "bloom_bits",
                                   "bloom_hashes"])
def test_mssr_rejects_non_positive(field):
    with pytest.raises(ValueError, match=field):
        MSSRConfig(**{field: 0})
    with pytest.raises(ValueError, match=field):
        MSSRConfig(**{field: -1})


def test_mssr_config_helper_still_validates():
    with pytest.raises(ValueError):
        mssr_config(num_streams=0)


# ---------------------------------------------------------------------------
# CoreConfig
# ---------------------------------------------------------------------------
def test_predictor_typo_rejected_with_suggestion():
    with pytest.raises(ValueError) as excinfo:
        CoreConfig(predictor="tage-slc")
    message = str(excinfo.value)
    assert 'did you mean "tage-scl"' in message


def test_every_declared_predictor_is_buildable():
    """The closed choice set and the factory can never drift apart."""
    for kind in PREDICTOR_KINDS:
        assert build_predictor(kind) is not None
        CoreConfig(predictor=kind)


@pytest.mark.parametrize("field", ["width", "rob_entries",
                                   "fetch_blocks_per_cycle",
                                   "fetch_block_insts",
                                   "lq_entries", "sq_entries",
                                   "max_cycles"])
def test_core_rejects_non_positive(field):
    with pytest.raises(ValueError, match=field):
        CoreConfig(**{field: 0})


@pytest.mark.parametrize("field", ["l1d_size", "dram_latency"])
def test_mem_rejects_non_positive(field):
    with pytest.raises(ValueError, match=field):
        MemConfig(**{field: 0})


def test_core_rejects_too_few_phys_regs():
    with pytest.raises(ValueError, match="physical registers"):
        CoreConfig(num_phys_regs=0)


def test_core_rejects_non_power_of_two_btb_sets():
    with pytest.raises(ValueError, match="power of two"):
        CoreConfig(btb_sets=100)
    assert CoreConfig(btb_sets=256).btb_sets == 256


def test_ri_rejects_non_positive():
    with pytest.raises(ValueError, match="num_sets"):
        RIConfig(num_sets=0)
    with pytest.raises(ValueError, match="assoc"):
        RIConfig(assoc=-2)
    assert ri_config(num_sets=64, assoc=2).ri.num_sets == 64


@pytest.mark.parametrize("key, value", [("dir.num_sets", 0),
                                        ("dir.assoc", 0),
                                        ("dir.num_sets", -4)])
def test_dir_rejects_non_positive(key, value):
    """DIR's reuse-buffer geometry is range-checked like RI's table, so
    a bad value fails at construction, not mid-simulation."""
    name = key.partition(".")[2]
    with pytest.raises(ValueError, match="%s must be >= 1" % name):
        build_scheme("dir", {key: value})
    assert getattr(build_scheme("dir", {key: 2}).config, name) == 2


def test_defaults_still_construct():
    assert baseline_config().width == 8
    assert mssr_config(num_streams=4).mssr.num_streams == 4
