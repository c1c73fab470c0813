"""Benchmark note: SimPoint-sampled simulation speed and accuracy.

Acceptance target: a sampled run reaches <= 1/3 of the full detailed
run's wall clock on at least one SPEC-like workload, at usable
accuracy. Measured on leela at scale 2.0 (~110k dynamic instructions,
6000-instruction intervals, k=3 of 18 intervals, defaults otherwise),
three runs on a 2-vCPU VM with CPython 3.11:

    wall-clock ratio sampled/full : 0.14-0.18 (0.24-0.33 with every
                                    interval in-process: taskset -c 0)
    detailed instructions         : 21000 / 110176 (19%)
    IPC error vs full run         : +2.77%

The sampled run simulates its intervals on forked workers, one per
usable CPU but one, so its wall clock depends on the CPUs it may use.

The sampler's cost is (profiling + checkpointing, both emulator-speed)
plus k * (detail_warmup + interval) detailed instructions, so the
speedup grows with program length; at the micro suite's ~12k
instructions sampling does not pay yet (the same intervals cover most
of the run), which is why this note pins a long SPEC-like workload.

Wall clock is machine-dependent, so the hard assertion here is on the
deterministic detailed-instruction ratio (the wall-clock driver); the
measured wall ratio is printed and checked only against a loose bound
to stay robust on noisy CI machines.
"""

import time

from repro.pipeline.core import O3Core
from repro.sampling import SamplingSpec, run_sampled
from repro.workloads.registry import get_workload


def test_sampled_speed_note():
    _mod, prog = get_workload("leela").build(2.0)

    t0 = time.time()
    full = O3Core(prog).run()
    t_full = time.time() - t0

    spec = SamplingSpec(interval_insts=6000)
    t0 = time.time()
    res = run_sampled(prog, spec=spec)
    t_sampled = time.time() - t0

    err = (res.ipc - full.stats.ipc) / full.stats.ipc
    inst_ratio = res.detailed_insts / res.total_insts
    wall_ratio = t_sampled / t_full
    print()
    print("sampled-speed note: leela scale=2.0 interval=6000")
    print("  full    : IPC %.3f in %.2fs (%d insts)"
          % (full.stats.ipc, t_full, full.stats.committed_insts))
    print("  sampled : IPC %.3f in %.2fs (%d of %d insts detailed, "
          "k=%d of %d intervals)"
          % (res.ipc, t_sampled, res.detailed_insts, res.total_insts,
             res.selection.k, res.selection.num_intervals))
    print("  error %+.2f%%  inst ratio %.2f  wall ratio %.2f"
          % (100 * err, inst_ratio, wall_ratio))

    # The deterministic driver of the speedup: at most 1/3 of the
    # program is simulated in detail.
    assert inst_ratio <= 1.0 / 3.0
    # Wall clock tracks it; keep slack for CI noise (measured: 0.14-0.33).
    assert wall_ratio < 0.6
    # And the estimate stays usable.
    assert abs(err) < 0.10
