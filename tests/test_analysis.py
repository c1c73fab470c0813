"""Experiment harness plumbing."""

from repro.analysis import (
    run_workload, geomean_improvement, format_table,
    table2_storage, table4_synthesis,
)
from repro.analysis.experiments import speedup, distance_cdf, \
    multi_stream_fraction
from repro.analysis.tables import pct
from repro.harness import build_config, clear_memo
import pytest


def test_config_for():
    assert build_config("baseline").mssr is None
    mssr = build_config("mssr", streams=2, wpb=8, log=32)
    assert mssr.mssr.num_streams == 2
    assert mssr.mssr.wpb_entries == 8
    assert mssr.mssr.squash_log_entries == 32
    ri = build_config("ri", sets=128, ways=2)
    assert ri.ri.num_sets == 128 and ri.ri.assoc == 2
    with pytest.raises(ValueError):
        build_config("quantum")


def test_run_workload_caches(tmp_path, monkeypatch):
    # A private result cache and an empty memo: the test neither reads
    # nor writes the user's cache, and leaves no memo entry behind.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memo()
    try:
        a = run_workload("linear-mispred", "baseline", scale=0.05)
        b = run_workload("linear-mispred", "baseline", scale=0.05)
    finally:
        clear_memo()
    assert a is b
    assert a.committed_insts > 0


def test_speedup_sign():
    class S:
        def __init__(self, cycles):
            self.cycles = cycles
    assert speedup(S(90), S(100)) > 0
    assert speedup(S(110), S(100)) < 0


def test_geomean():
    assert geomean_improvement([]) == 0.0
    assert abs(geomean_improvement([0.1, 0.1]) - 0.1) < 1e-12
    mixed = geomean_improvement([0.21, -0.1])
    assert abs(mixed - (((1.21 * 0.9) ** 0.5) - 1)) < 1e-12


def test_distance_cdf():
    cdf = distance_cdf({1: 50, 2: 30, 4: 20})
    assert cdf == [(1, 0.5), (2, 0.8), (4, 1.0)]
    assert distance_cdf({}) == []


def test_multi_stream_fraction():
    fractions, avg = multi_stream_fraction({
        "a": (0.8, 0.1, 0.1),
        "b": (1.0, 0.0, 0.0),
    })
    assert abs(fractions["a"] - 0.2) < 1e-12
    assert abs(avg - 0.1) < 1e-12


def test_format_table():
    text = format_table(["name", "value"], [["x", 1.5], ["yy", "2"]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1]
    assert "1.500" in text


def test_pct():
    assert pct(0.123) == "+12.30%"
    assert pct(-0.01) == "-1.00%"


def test_hw_tables_accessible():
    assert round(table2_storage()["total_kb"], 2) == 3.53
    synth = table4_synthesis()
    assert len(synth["reconvergence_detection"]) == 3
    assert len(synth["reuse_test"]) == 3
