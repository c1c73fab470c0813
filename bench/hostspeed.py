"""Host-speed reference: time a fixed pure-Python probe next to every
timed call and scale the call's time to a reference host speed.

The benchmark's host is shared. Its speed drifts by tens of percent over
seconds to minutes, and each of its CPUs drifts on its own, so raw
wall-clock times of the same work differ from run to run by more than
the regressions the benchmark must catch. The probe slows down with the
CPU it runs on but not with the simulator: it imports nothing from
``src/``, so no change there moves it. A time scaled by
``(NOMINAL_S / probe time) ** SENSITIVITY`` reads in seconds of a host
on which the probe takes ``NOMINAL_S``.

:class:`ScaledTimer` probes in the benchmark's own process, so it
measures the CPU that process runs on. Work that runs in forked worker
processes (the harness batch's jobs) runs on other CPUs; there
:func:`probed` wraps the function each worker calls per job, probes in
the worker after every call, and :func:`worker_speed` turns the probes
into one scale factor for the whole batch.

The probe's work mixes what the simulator spends its time on: attribute
access on slotted objects, dict and list updates, and small integer
arithmetic.
"""

import functools
import gc
import json
import os
import random
import time

#: The median probe time on the reference host, a shared 2-CPU x86-64
#: VM running CPython 3.11 (see README.md); it defines the scaled second.
NOMINAL_S = 0.0216

#: How closely the simulator's time follows the probe's. The host's slow
#: phases slow the probe's small loop more than the simulator: fitting
#: log(cell seconds) against log(probe seconds), cell by cell, over 100
#: to 140 samples per workload on the reference host gave 0.55-0.60 for
#: the cells of listing1, gap-mem and sampled, and 0.6 also gave the
#: harness batch a smaller spread than 1.0 did (README.md).
SENSITIVITY = 0.6

#: Runs per probe. The fastest run is the probe's time, so a burst that
#: slows one run of about 20 ms does not count.
PROBE_RUNS = 3

#: Runs per probe in a worker. A worker probes after every job, so one
#: run keeps the probes to about 5 % of the batch's work.
WORKER_PROBE_RUNS = 1

_ROUNDS = 25


class _Op:
    __slots__ = ("dst", "src", "val")

    def __init__(self, dst, src):
        self.dst = dst
        self.src = src
        self.val = 0


def _work():
    rng = random.Random(7)
    ops = [_Op(rng.randrange(32), rng.randrange(32)) for _ in range(2000)]
    regs = {}
    lines = {}
    window = []
    hits = 0
    for _ in range(_ROUNDS):
        for op in ops:
            op.val = (regs.get(op.src, 0) * 31 + op.dst) & 0xFFFF
            line = op.val >> 6
            if line in lines:
                hits += 1
                del lines[line]
            elif len(lines) > 64:
                del lines[next(iter(lines))]
            lines[line] = True
            window.append(op)
            if len(window) > 8:
                done = window.pop(0)
                regs[done.dst] = done.val
    return hits


def probe(runs=PROBE_RUNS):
    """Seconds the probe's work takes on this process's CPU now: the
    fastest of ``runs`` runs."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def factor(before, after):
    """Scale factor for a call between probes of ``before`` and
    ``after`` seconds."""
    return (2 * NOMINAL_S / (before + after)) ** SENSITIVITY


class ScaledTimer:
    """Times calls in wall-clock seconds and in scaled seconds.

    The probe runs after every timed call. A call's scale factor comes
    from the mean of the probes just before and just after it, so a
    slowdown that starts or ends during a long call is half counted.
    Garbage is collected before each call, outside its time, so every
    call starts from a heap like a fresh process's.
    """

    def __init__(self):
        self.last_probe = probe()

    def time(self, fn):
        """``(fn(), wall seconds, scaled seconds)``."""
        gc.collect()
        start = time.perf_counter()
        result = fn()
        took = time.perf_counter() - start
        after = probe()
        scaled = took * factor(self.last_probe, after)
        self.last_probe = after
        return result, took, scaled


def probed(fn, directory):
    """``fn`` wrapped for calls made in forked worker processes.

    Each process probes before its first call and after every call, and
    appends ``[call seconds, probe before, probe after]`` for each call to
    ``directory/probe-<pid>.jsonl``, which :func:`worker_speed` reads.
    The probes fall outside the call's time but inside the batch's.
    """
    last = {}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pid = os.getpid()
        if pid not in last:
            last[pid] = probe(WORKER_PROBE_RUNS)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            after = probe(WORKER_PROBE_RUNS)
            path = os.path.join(directory, "probe-%d.jsonl" % pid)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps([took, last[pid], after]) + "\n")
            last[pid] = after
    return wrapper


def worker_speed(directory):
    """Read and delete the files :func:`probed` wrote; returns the scale
    factor of the calls they record, or None when there are none.

    Each call has the :func:`factor` of its probes, and the result is
    their mean weighted by call time. A batch's wall time times the
    result reads in seconds of the reference host.
    """
    weighted = total = 0.0
    for name in os.listdir(directory):
        if not (name.startswith("probe-") and name.endswith(".jsonl")):
            continue
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                took, before, after = json.loads(line)
                weighted += took * factor(before, after)
                total += took
        os.remove(path)
    return weighted / total if total > 0 else None
