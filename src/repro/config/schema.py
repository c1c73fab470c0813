"""Typed schema of the model configuration.

The schema is *derived* from the dataclasses that already define the
simulator's knobs (:class:`~repro.pipeline.config.CoreConfig`,
:class:`~repro.pipeline.config.MSSRConfig`,
:class:`~repro.pipeline.config.RIConfig`, the DIR reuse-buffer geometry
and :class:`~repro.sampling.sampler.SamplingSpec`), so a field added to
a dataclass automatically appears in job snapshots, the ``--set``
surface, the sweep DSL and the generated configuration reference. Every
key can change simulated results, so every key enters configuration
hashes. Runtime settings (worker counts, cache directories, log level)
are not keys: they are ``REPRO_*`` variables of the env-var registry
(:mod:`repro.config.envreg`).

Keys are dotted ``section.field`` names::

    core.width          mssr.num_streams        sampling.interval_insts
    ri.num_sets         dir.assoc               mem.model
"""

import dataclasses
import difflib

#: Bumped whenever the schema or the canonical serialisation changes in
#: a way that alters configuration hashes; folded into job specs and the
#: harness cache fingerprint so results hashed under an older scheme are
#: never misattributed to the new one. v4: a runtime key for
#: shared-image batching (since removed). v5: ``mem.*``
#: section (port-based memory system). v6: the flat model reads
#: ``mem.*`` too, and the core section lost its own L1/L2/DRAM keys.
CONFIG_SCHEMA_VERSION = 6

#: Model sections, in canonical order.
MODEL_SECTIONS = ("core", "frontend", "mem", "mssr", "ri", "dir",
                  "sampling")

#: Extra model sections required by each job kind (``core``,
#: ``frontend`` and ``mem`` are always present; a sampled job's
#: ``sampling`` knobs enter its spec beside the snapshot).
KIND_SECTIONS = {
    "baseline": (),
    "mssr": ("mssr",),
    "ri": ("ri",),
    "dir": ("dir",),
}


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    """One model configuration key."""

    key: str                 # dotted name, e.g. "core.width"
    type: type               # int / float / str / bool
    default: object
    doc: str
    choices: tuple = None    # closed value set for enum-like strings

    def coerce(self, value, source="value"):
        """Validate/convert ``value`` for this field.

        Accepts native values (from sweep files / programmatic use)
        and strings (from ``--set`` overrides).
        """
        if isinstance(value, str) and self.type is not str:
            value = self._from_string(value)
        if self.type is bool:
            if not isinstance(value, bool):
                raise ValueError("%s for %s must be a boolean, got %r"
                                 % (source, self.key, value))
        elif self.type is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError("%s for %s must be an integer, got %r"
                                 % (source, self.key, value))
        elif self.type is float:
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                raise ValueError("%s for %s must be a number, got %r"
                                 % (source, self.key, value))
            value = float(value)
        elif self.type is str:
            if not isinstance(value, str):
                raise ValueError("%s for %s must be a string, got %r"
                                 % (source, self.key, value))
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                "invalid %s %r%s (choose from: %s)"
                % (self.key, value, suggestion(value, self.choices),
                   ", ".join(self.choices)))
        return value

    def _from_string(self, text):
        text = text.strip()
        if self.type is bool:
            lowered = text.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError("cannot parse %r as a boolean for %s"
                             % (text, self.key))
        try:
            if self.type is int:
                return int(text, 0)
            if self.type is float:
                return float(text)
        except ValueError:
            raise ValueError("cannot parse %r as %s for %s"
                             % (text, self.type.__name__,
                                self.key)) from None
        return text


def suggestion(value, candidates):
    """``' (did you mean "x"?)'`` or an empty string."""
    matches = difflib.get_close_matches(str(value), [str(c) for c
                                                     in candidates], n=1)
    return ' (did you mean "%s"?)' % matches[0] if matches else ""


# ---------------------------------------------------------------------------
# Field documentation (dataclasses cannot carry per-field docstrings).
# Keys without an entry get a generic line; the docs check in CI keeps
# the generated reference in sync, not this dict complete.
# ---------------------------------------------------------------------------
_DOCS = {
    "core.fetch_block_insts": "Instructions per fetch block (32B blocks).",
    "core.fetch_blocks_per_cycle":
        "Prediction blocks fetched per cycle (2 = Section 3.9.1 "
        "multiple-block fetching).",
    "core.frontend_stages": "Fetch-to-rename pipeline depth.",
    "core.decode_queue": "Decode queue entries.",
    "core.predictor": "Conditional branch direction predictor.",
    "core.btb_sets": "Branch target buffer sets (power of two).",
    "core.btb_assoc": "Branch target buffer associativity.",
    "core.ras_depth": "Return address stack depth.",
    "frontend.decoupled":
        "Run the branch-prediction unit decoupled from fetch (FTQ-"
        "driven IFU); false reproduces the fused single-stage fetch.",
    "frontend.ftq_depth":
        "Fetch target queue capacity (prediction blocks the BPU may "
        "run ahead of fetch).",
    "frontend.fetch_latency":
        "Fetch-to-decode latency in cycles (icache access of the "
        "decoupled fetch pipeline).",
    "frontend.bpu_blocks_per_cycle":
        "Prediction blocks the BPU appends to the FTQ per cycle.",
    "frontend.icache_lines":
        "Instruction-cache lines (64B, direct-mapped; power of two). "
        "0 disables the icache model. Requires frontend.decoupled.",
    "frontend.icache_latency":
        "Extra block-delivery delay on an icache miss (cycles).",
    "core.width": "Decode/rename/commit width.",
    "core.rob_entries": "Reorder buffer entries.",
    "core.int_iq_entries": "Integer issue-queue entries.",
    "core.mem_iq_entries": "Memory issue-queue entries.",
    "core.num_alu": "ALU functional units.",
    "core.num_bru": "Branch units.",
    "core.num_lsu": "Load/store units.",
    "core.num_phys_regs": "Physical integer registers.",
    "core.lq_entries": "Load queue entries.",
    "core.sq_entries": "Store queue entries.",
    "core.alu_latency": "ALU latency (cycles).",
    "core.mul_latency": "Multiply latency (cycles).",
    "core.div_latency": "Divide latency (cycles).",
    "core.branch_latency": "Branch resolution latency (cycles).",
    "core.store_latency": "Store execution latency (cycles).",
    "core.max_cycles": "Simulated-cycle safety guard.",
    "mem.model":
        "Memory-system model: flat = synchronous L1D + L2 + DRAM probe "
        "(default); ported = L1I + L1D behind a shared L2 with MSHRs "
        "and completion-cycle requests. Both read the mem.* geometry.",
    "mem.line_bytes": "Cache line size, all levels (bytes; power of two).",
    "mem.l1i_size": "L1 instruction cache size (bytes; ported only).",
    "mem.l1i_assoc": "L1 instruction cache associativity (ported only).",
    "mem.l1d_size": "L1 data cache size (bytes).",
    "mem.l1d_assoc": "L1 data cache associativity.",
    "mem.l1d_latency":
        "L1 data cache hit latency (cycles); also the cost of a "
        "store-to-load forward.",
    "mem.l2_size": "L2 cache size (bytes; shared by L1I and L1D when "
                   "ported).",
    "mem.l2_assoc": "L2 cache associativity.",
    "mem.l2_latency": "L2 hit latency (cycles).",
    "mem.dram_latency": "DRAM latency (cycles).",
    "mem.mshrs":
        "Outstanding line misses per L1 port (same-line misses merge; "
        "a full MSHR file stalls the request; ported only).",
    "mem.ports": "Requests each memory port accepts per cycle (ported "
                 "only).",
    "mssr.num_streams": "Wrong-path streams tracked (N; DCI = 1).",
    "mssr.wpb_entries": "Wrong-Path Buffer fetch blocks per stream (M).",
    "mssr.squash_log_entries": "Squash Log instructions per stream (P).",
    "mssr.rgid_bits": "Reuse-generation ID width (bits).",
    "mssr.reconvergence_timeout":
        "Instructions fetched before a stream is abandoned.",
    "mssr.rgid_overflow_limit":
        "RGID overflows tolerated before the global reset protocol.",
    "mssr.memory_hazard_scheme":
        "Reused-load hazard handling (Section 3.8).",
    "mssr.bloom_bits": "Bloom filter bits (bloom scheme).",
    "mssr.bloom_hashes": "Bloom filter hash functions.",
    "mssr.single_page_wpb":
        "Restrict each WPB stream to one virtual page (Section 3.4).",
    "mssr.ftq_capture":
        "Capture wrong-path WPB blocks at the FTQ on squash (including "
        "undelivered blocks) instead of at decode time. Requires "
        "frontend.decoupled.",
    "ri.num_sets": "Register Integration reuse-table sets.",
    "ri.assoc": "Register Integration reuse-table associativity.",
    "dir.num_sets": "Dynamic Instruction Reuse buffer sets.",
    "dir.assoc": "Dynamic Instruction Reuse buffer associativity.",
    "sampling.interval_insts": "SimPoint interval length (instructions).",
    "sampling.max_k": "Maximum SimPoint clusters.",
    "sampling.dims": "Random-projection dimensions for clustering.",
    "sampling.warmup_branches":
        "Branches replayed into the predictors before each interval.",
    "sampling.warmup_mem":
        "Memory accesses replayed into the caches before each interval.",
    "sampling.detail_warmup_insts":
        "Detailed (discarded) instructions before each measured "
        "interval.",
    "sampling.seed": "Deterministic clustering seed.",
}

_SCHEMA = None


def _dataclass_fields(section, cls, skip=(), choices=None):
    """FieldSpecs for ``cls``'s fields; ``choices`` maps a field name to
    the closed value set its dataclass validates against."""
    specs = []
    for field in dataclasses.fields(cls):
        if field.name in skip:
            continue
        default = field.default
        if default is dataclasses.MISSING:       # pragma: no cover
            continue
        key = "%s.%s" % (section, field.name)
        specs.append(FieldSpec(key=key, type=type(default),
                               default=default,
                               doc=_DOCS.get(key, "(undocumented)"),
                               choices=(choices or {}).get(field.name)))
    return specs


def _build_schema():
    from repro.baselines.dir_reuse import DIRConfig
    from repro.pipeline.config import (MEM_MODELS, MEMORY_HAZARD_SCHEMES,
                                       PREDICTOR_KINDS, CoreConfig,
                                       FrontendConfig, MemConfig,
                                       MSSRConfig, RIConfig)
    from repro.sampling.sampler import SamplingSpec

    specs = []
    specs += _dataclass_fields("core", CoreConfig,
                               skip=("frontend", "mem", "mssr", "ri"),
                               choices={"predictor": PREDICTOR_KINDS})
    specs += _dataclass_fields("frontend", FrontendConfig)
    specs += _dataclass_fields("mem", MemConfig,
                               choices={"model": MEM_MODELS})
    specs += _dataclass_fields(
        "mssr", MSSRConfig,
        choices={"memory_hazard_scheme": MEMORY_HAZARD_SCHEMES})
    specs += _dataclass_fields("ri", RIConfig)
    specs += _dataclass_fields("dir", DIRConfig)
    specs += _dataclass_fields("sampling", SamplingSpec)
    return {spec.key: spec for spec in specs}


def schema():
    """``{key: FieldSpec}`` for every model key (cached per process)."""
    global _SCHEMA
    if _SCHEMA is None:
        _SCHEMA = _build_schema()
    return _SCHEMA


def field(key):
    """The :class:`FieldSpec` for ``key``.

    Unknown keys raise ``KeyError`` with a did-you-mean suggestion.
    """
    table = schema()
    try:
        return table[key]
    except KeyError:
        raise KeyError("unknown configuration key %r%s"
                       % (key, suggestion(key, table))) from None


def model_keys(kind=None):
    """Canonically ordered model keys, optionally restricted to the
    sections relevant for one job ``kind``."""
    if kind is None:
        sections = MODEL_SECTIONS
    else:
        try:
            extra = KIND_SECTIONS[kind]
        except KeyError:
            raise KeyError("unknown config kind %r%s"
                           % (kind, suggestion(kind,
                                               KIND_SECTIONS))) from None
        sections = ("core", "frontend", "mem") + extra
    out = []
    for section in sections:
        out.extend(key for key in schema()
                   if key.partition(".")[0] == section)
    return out
