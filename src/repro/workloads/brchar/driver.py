"""Direct predictor-characterization driver.

Feeds deterministic synthetic branch traces straight into a predictor
instance, mimicking the core's prediction discipline (speculative
predict, history repair on a wrong prediction, training at commit) —
but without a pipeline in the way. That makes probe sweeps cheap and
lets the aliasing probes use scaled-down table geometries, where
destructive interference is visible at trace lengths a unit test can
afford.

A probe is a deterministic generator of ``(pc, taken)`` pairs;
:func:`characterize` returns the misprediction signature of one
predictor on one probe. The signatures asserted by the benchmark suite
(``benchmarks/test_brchar_signatures.py``) and the ``harness brchar``
CLI both come from here.
"""

from repro.frontend.predictors import build_predictor
from repro.utils.rng import XorShift64

#: Base address for synthetic branch PCs (arbitrary, word-aligned).
_PC_BASE = 0x10000


class Probe:
    """A named deterministic branch-trace generator."""

    def __init__(self, name, description, gen):
        self.name = name
        self.description = description
        self._gen = gen

    def trace(self, n):
        """Yield ``n`` ``(pc, taken)`` pairs."""
        return self._gen(n)

    def __repr__(self):
        return "<Probe %s>" % self.name


def trip_probe(trip):
    """A single loop-closing branch: ``trip - 1`` taken then one
    not-taken, repeated. Predicting the exit needs either ``trip``
    outcomes of history or an iteration counter."""
    def gen(n):
        pc = _PC_BASE
        for i in range(n):
            yield pc, (i % trip) != (trip - 1)
    return Probe("trip%d" % trip,
                 "loop-closing branch with trip count %d" % trip, gen)


def pattern_probe(period, seed=0x5EED):
    """A pseudo-random ``period``-periodic direction pattern on one
    branch: pure history correlation with no countable structure."""
    rng = XorShift64(seed)
    pattern = [bool(rng.randint(0, 1)) for _ in range(period)]

    def gen(n):
        pc = _PC_BASE
        for i in range(n):
            yield pc, pattern[i % period]
    return Probe("pattern%d" % period,
                 "pseudo-random period-%d direction pattern" % period, gen)


def biased_probe(permille=900, seed=0xB1A5):
    """A single branch taken ``permille``/1000 of the time, with the
    outcome stream statistically independent of the history — tagged
    history entries are pure noise, bias tracking is everything."""
    def gen(n):
        pc = _PC_BASE
        rng = XorShift64(seed)
        for _ in range(n):
            yield pc, rng.randint(0, 999) < permille
    return Probe("bias%d" % permille,
                 "history-uncorrelated branch, %.0f%% taken"
                 % (permille / 10.0), gen)


def alias_probe(num_pcs=256, permille=950, seed=0xA11A5):
    """``num_pcs`` distinct branches visited round-robin with
    alternating strong biases: adjacent PCs index adjacent entries of
    untagged tables, so scaled-down geometries alias oppositely-biased
    branches onto shared counters."""
    def gen(n):
        rng = XorShift64(seed)
        i = 0
        while i < n:
            for k in range(num_pcs):
                if i >= n:
                    return
                biased_taken = rng.randint(0, 999) < permille
                yield _PC_BASE + 4 * k, \
                    biased_taken if k % 2 == 0 else not biased_taken
                i += 1
    return Probe("alias%d" % num_pcs,
                 "%d round-robin branches with alternating bias"
                 % num_pcs, gen)


def characterize(kind, probe, n=20000, warmup_frac=0.5, **kwargs):
    """Misprediction signature of predictor ``kind`` on ``probe``.

    The first ``warmup_frac`` of the trace trains without being scored,
    so signatures reflect steady state, not table warmup. Returns a
    dict with ``branches``, ``mispredicts`` and ``mpb`` (mispredicts
    per scored branch).
    """
    predictor = build_predictor(kind, **kwargs)
    warmup = int(n * warmup_frac)
    scored = mispredicts = 0
    for i, (pc, taken) in enumerate(probe.trace(n)):
        pred_taken, meta = predictor.predict(pc)
        if pred_taken != taken:
            # Same repair the core applies when the branch resolves.
            predictor.recover_branch(pc, taken, meta)
        predictor.update(pc, taken, meta)
        if i >= warmup:
            scored += 1
            mispredicts += (pred_taken != taken)
    return {
        "predictor": kind,
        "probe": probe.name,
        "branches": scored,
        "mispredicts": mispredicts,
        "mpb": mispredicts / scored if scored else 0.0,
    }


#: The standard characterization matrix: (probe, predictor kinds,
#: predictor kwargs per kind). Signature assertions and the CLI table
#: both iterate this.
def standard_probes():
    return [
        trip_probe(8),
        trip_probe(48),
        trip_probe(160),
        pattern_probe(6),
        biased_probe(900),
        alias_probe(256),
    ]


#: Scaled-down geometries for the aliasing probe: small enough that
#: 256 branches collide hard in untagged tables, while TAGE's tags
#: still discriminate.
ALIAS_KWARGS = {
    "bimodal": {"num_entries": 64},
    "gshare": {"num_entries": 64, "history_bits": 4},
    "tage": {"base_entries": 64, "table_entries": 64},
}


def characterization_table(n=20000, kinds=("gshare", "tage", "tage-scl")):
    """The full signature matrix as a list of result dicts."""
    rows = []
    for probe in standard_probes():
        for kind in kinds:
            kwargs = {}
            if probe.name.startswith("alias"):
                kwargs = ALIAS_KWARGS.get(kind, {})
            rows.append(characterize(kind, probe, n=n, **kwargs))
    return rows


def signature_checks(rows):
    """Evaluate the headline predictor signatures over a matrix from
    :func:`characterization_table`.

    Returns ``[(name, passed, detail), ...]`` — one entry per
    signature, with the measured numbers in ``detail`` for diagnosis.
    Used by ``harness brchar --check`` (the CI smoke gate) and usable
    interactively.
    """
    mpb = {(r["probe"], r["predictor"]): r["mpb"] for r in rows}

    def fmt(probe):
        return ", ".join("%s=%.4f" % (k, v)
                         for (p, k), v in sorted(mpb.items()) if p == probe)

    checks = [
        ("tage-history-length",
         mpb[("trip48", "gshare")] > 0.015
         and mpb[("trip48", "tage")] == 0.0,
         "trip48: %s" % fmt("trip48")),
        ("loop-exit",
         mpb[("trip160", "tage")] > 0.004
         and mpb[("trip160", "tage-scl")] == 0.0,
         "trip160: %s" % fmt("trip160")),
        ("sc-bias-recovery",
         mpb[("bias900", "tage-scl")] <= mpb[("bias900", "tage")]
         < mpb[("bias900", "gshare")],
         "bias900: %s" % fmt("bias900")),
        ("tag-aliasing",
         mpb[("alias256", "gshare")] > 0.3
         and mpb[("alias256", "tage")] < 0.1,
         "alias256: %s" % fmt("alias256")),
    ]
    return checks
