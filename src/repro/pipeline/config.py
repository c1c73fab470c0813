"""Core configuration (defaults follow the paper's Table 3)."""

import dataclasses
from typing import Optional

#: Closed value sets for the enum-like string knobs. A typo here used
#: to fall through silently (e.g. ``memory_hazard_scheme="blooom"``
#: built no Bloom filter and quietly ran verify-mode), so both are now
#: validated at construction with did-you-mean suggestions.
MEMORY_HAZARD_SCHEMES = ("verify", "bloom")
PREDICTOR_KINDS = ("always-taken", "bimodal", "gshare", "tage",
                   "tage-scl")
MEM_MODELS = ("flat", "ported")


def _check_choice(what, value, choices):
    if value not in choices:
        from repro.config.schema import suggestion
        raise ValueError("invalid %s %r%s (choose from: %s)"
                         % (what, value, suggestion(value, choices),
                            ", ".join(choices)))


def _check_positive(config, *names):
    for name in names:
        if getattr(config, name) < 1:
            raise ValueError("%s must be >= 1, got %r"
                             % (name, getattr(config, name)))


@dataclasses.dataclass
class MSSRConfig:
    """Multi-Stream Squash Reuse parameters (Sections 3.3-3.8).

    ``num_streams`` = N wrong-path streams tracked (DCI == 1),
    ``wpb_entries`` = M fetch blocks per Wrong-Path Buffer stream,
    ``squash_log_entries`` = P instructions per Squash Log stream.
    """

    num_streams: int = 4
    wpb_entries: int = 16
    squash_log_entries: int = 64
    rgid_bits: int = 6
    reconvergence_timeout: int = 1024
    rgid_overflow_limit: int = 8
    #: "verify" re-executes reused loads and flushes on mismatch (NoSQ
    #: style, the paper's evaluated scheme); "bloom" filters reuse of
    #: loads whose address may have been stored to (Section 3.8.3).
    memory_hazard_scheme: str = "verify"
    bloom_bits: int = 1024
    bloom_hashes: int = 2
    #: Restrict each WPB stream to one virtual page (Section 3.4 timing
    #: optimisation). Reconvergence beyond the page is then not detected.
    single_page_wpb: bool = False
    #: Capture wrong-path blocks for the WPBs at the FTQ on squash
    #: (decoupled frontend), instead of at decode time. Also captures
    #: predicted-but-undelivered blocks, so coverage is a superset of
    #: decode-time capture. Requires ``frontend.decoupled``.
    ftq_capture: bool = False

    def __post_init__(self):
        _check_choice("memory_hazard_scheme", self.memory_hazard_scheme,
                      MEMORY_HAZARD_SCHEMES)
        _check_positive(self, "num_streams", "wpb_entries",
                        "squash_log_entries", "rgid_bits",
                        "reconvergence_timeout", "rgid_overflow_limit",
                        "bloom_bits", "bloom_hashes")


@dataclasses.dataclass
class RIConfig:
    """Register Integration reuse-table parameters (Section 2.2.3/4.1.2)."""

    num_sets: int = 64
    assoc: int = 4

    def __post_init__(self):
        _check_positive(self, "num_sets", "assoc")


@dataclasses.dataclass
class FrontendConfig:
    """Decoupled-frontend parameters (the ``frontend.*`` config section).

    With ``decoupled=False`` (the default) the branch-prediction unit
    and the fetch stage run fused in one cycle, exactly reproducing the
    original single-stage fetch path. With ``decoupled=True`` the BPU
    runs ahead filling a bounded FTQ and the fetch stage drains it with
    a ``fetch_latency``-cycle fetch-to-decode delay, so FTQ occupancy,
    redirect bubbles and frontend starvation become visible effects.
    """

    #: Run the branch-prediction unit decoupled from the fetch stage.
    decoupled: bool = False
    #: Bounded FTQ capacity (prediction blocks the BPU may run ahead).
    ftq_depth: int = 16
    #: Cycles between a block's FTQ enqueue and its earliest delivery
    #: to decode (models the icache access of the fetch pipeline).
    fetch_latency: int = 2
    #: Prediction blocks the BPU appends to the FTQ per cycle.
    bpu_blocks_per_cycle: int = 1
    #: Instruction-cache lines (64B each; direct-mapped). 0 disables
    #: the icache model entirely. Requires ``decoupled``.
    icache_lines: int = 0
    #: Extra delivery delay (cycles) charged on an icache miss.
    icache_latency: int = 8

    def __post_init__(self):
        _check_positive(self, "ftq_depth", "bpu_blocks_per_cycle")
        if self.fetch_latency < 0:
            raise ValueError("fetch_latency must be >= 0, got %r"
                             % self.fetch_latency)
        if self.icache_lines < 0:
            raise ValueError("icache_lines must be >= 0, got %r"
                             % self.icache_lines)
        if self.icache_lines and self.icache_lines \
                & (self.icache_lines - 1):
            raise ValueError("icache_lines must be a power of two, got %d"
                             % self.icache_lines)
        if self.icache_latency < 0:
            raise ValueError("icache_latency must be >= 0, got %r"
                             % self.icache_latency)
        if self.icache_lines and not self.decoupled:
            raise ValueError("frontend.icache_lines requires "
                             "frontend.decoupled (the icache models the "
                             "fetch pipeline the fused frontend elides)")


@dataclasses.dataclass
class MemConfig:
    """Memory-system parameters (the ``mem.*`` config section).

    The one memory geometry of both models. ``model="flat"`` (default)
    is the synchronous two-level ``MemoryHierarchy``: it reads the
    ``l1d_*``, ``l2_*``, ``dram_latency`` and ``line_bytes`` fields.
    ``model="ported"`` switches to the port-based system: L1I + L1D
    (one ``Cache`` class) behind one shared L2, bounded MSHRs with
    same-line miss merging, and completion-cycle requests from execute
    and fetch. ``l1i_*``, ``mshrs`` and ``ports`` apply to the ported
    model only. The L1I has no latency knob because its hit latency is
    already modeled by ``frontend.fetch_latency``.
    """

    model: str = "flat"
    line_bytes: int = 64
    l1i_size: int = 32 * 1024
    l1i_assoc: int = 4
    l1d_size: int = 64 * 1024
    l1d_assoc: int = 4
    l1d_latency: int = 3
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 8
    l2_latency: int = 12
    dram_latency: int = 120
    #: Outstanding line misses per L1 port (same-line misses merge).
    mshrs: int = 8
    #: Requests each port accepts per cycle.
    ports: int = 2

    def __post_init__(self):
        _check_choice("mem.model", self.model, MEM_MODELS)
        _check_positive(self, "line_bytes", "l1i_size", "l1i_assoc",
                        "l1d_size", "l1d_assoc", "l1d_latency",
                        "l2_size", "l2_assoc", "l2_latency",
                        "dram_latency", "mshrs", "ports")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two, got %d"
                             % self.line_bytes)


@dataclasses.dataclass
class CoreConfig:
    """Out-of-order core parameters."""

    # Frontend
    fetch_block_insts: int = 8        # 32B fetch blocks
    #: Prediction blocks fetched per cycle. 2 models the paper's
    #: Section 3.9.1 multiple-block fetching extension (reconvergence
    #: detection is simply applied to every fetched block).
    fetch_blocks_per_cycle: int = 1
    frontend_stages: int = 5          # fetch-to-rename depth
    decode_queue: int = 32
    predictor: str = "tage-scl"
    btb_sets: int = 512
    btb_assoc: int = 4
    ras_depth: int = 32
    #: Decoupled-frontend section (the ``frontend.*`` config keys).
    frontend: FrontendConfig = dataclasses.field(
        default_factory=FrontendConfig)

    # Backend
    width: int = 8                    # decode/rename/commit width
    rob_entries: int = 256
    int_iq_entries: int = 64
    mem_iq_entries: int = 64
    num_alu: int = 4
    num_bru: int = 2
    num_lsu: int = 2
    num_phys_regs: int = 256
    lq_entries: int = 96
    sq_entries: int = 96

    # Latencies
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12
    branch_latency: int = 1
    store_latency: int = 1

    # Memory hierarchy
    #: Memory-system section (the ``mem.*`` config keys).
    mem: MemConfig = dataclasses.field(default_factory=MemConfig)

    # Reuse scheme: None (baseline), an MSSRConfig, or an RIConfig.
    mssr: Optional[MSSRConfig] = None
    ri: Optional[RIConfig] = None

    # Safety limits
    max_cycles: int = 50_000_000

    def __post_init__(self):
        if self.mssr is not None and self.ri is not None:
            raise ValueError("enable at most one reuse scheme")
        if isinstance(self.frontend, dict):
            self.frontend = FrontendConfig(**self.frontend)
        if isinstance(self.mem, dict):
            self.mem = MemConfig(**self.mem)
        if self.num_phys_regs < 32 + self.width:
            raise ValueError("too few physical registers")
        _check_choice("predictor", self.predictor, PREDICTOR_KINDS)
        _check_positive(self, "fetch_block_insts",
                        "fetch_blocks_per_cycle", "frontend_stages",
                        "decode_queue", "btb_sets", "btb_assoc",
                        "ras_depth", "width", "rob_entries",
                        "int_iq_entries", "mem_iq_entries", "num_alu",
                        "num_bru", "num_lsu", "lq_entries", "sq_entries",
                        "max_cycles")
        if self.btb_sets & (self.btb_sets - 1):
            raise ValueError("btb_sets must be a power of two, got %d"
                             % self.btb_sets)
        if self.mssr is not None and self.mssr.ftq_capture \
                and not self.frontend.decoupled:
            raise ValueError("mssr.ftq_capture requires "
                             "frontend.decoupled (the fused frontend has "
                             "no FTQ to capture from; decode-time capture "
                             "is its fallback)")
        if self.mem.model == "ported" and self.frontend.icache_lines:
            raise ValueError("frontend.icache_lines conflicts with "
                             "mem.model=ported (the ported system brings "
                             "its own L1I behind the shared L2; drop the "
                             "flat icache knobs)")


def baseline_config(**overrides):
    """Table 3 baseline (no squash reuse)."""
    return CoreConfig(**overrides)


def mssr_config(num_streams=4, wpb_entries=16, squash_log_entries=64,
                **overrides):
    """Baseline + Multi-Stream Squash Reuse."""
    mssr = MSSRConfig(num_streams=num_streams, wpb_entries=wpb_entries,
                      squash_log_entries=squash_log_entries)
    return CoreConfig(mssr=mssr, **overrides)


def dci_config(**overrides):
    """Dynamic Control Independence modelled as single-stream MSSR
    (exactly how the paper evaluates DCI, Section 4.1.2)."""
    return mssr_config(num_streams=1, **overrides)


def ri_config(num_sets=64, assoc=4, **overrides):
    """Baseline + Register Integration reuse table."""
    return CoreConfig(ri=RIConfig(num_sets=num_sets, assoc=assoc),
                      **overrides)
