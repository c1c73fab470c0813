"""Execution-driven out-of-order core (gem5-O3-style).

The model really executes down predicted paths: values live in the
physical register file, branches resolve out of order in the backend, and
mispredictions squash and roll the RAT back — which is exactly the
environment squash reuse needs (wrong-path results parked in physical
registers, multiple outstanding squashed streams, out-of-order branch
resolution producing the paper's *hardware-induced* multi-stream
reconvergence).

:class:`O3Core` is a facade: the per-stage policy lives in the stage
objects of :mod:`repro.pipeline.stages`, which communicate only through
the typed latches in :mod:`repro.pipeline.latches` and the shared
:class:`~repro.pipeline.latches.CoreState`. :meth:`O3Core.run` is the
cycle loop: each cycle it ticks the stages in reverse pipeline order
(commit -> writeback -> execute -> rename/dispatch -> fetch) so a
single-cycle producer wakes its consumer back-to-back, then drains the
squash arbiter at cycle end.
"""

import collections

from repro.baselines.base import RESOLVED_HOOKS, NullScheme, resolve_hook
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchUnit
from repro.frontend.icache import InstructionCache
from repro.frontend.predictors import build_predictor
from repro.frontend.ras import ReturnAddressStack
from repro.isa.program import STACK_TOP
from repro.isa.registers import NUM_ARCH_REGS, reg_num
from repro.emu.memory import SparseMemory
from repro.log import get_logger
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.ports import PortedMemorySystem
from repro.obs.bus import Observability
from repro.pipeline.config import CoreConfig
from repro.pipeline.latches import (CompletionQueue, CoreState, DecodeQueue,
                                    SquashArbiter)
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.regfile import PhysRegFile
from repro.pipeline.rename import RenameTable
from repro.pipeline.scheduler import IssueQueue, FunctionUnits
from repro.pipeline.stages import (CommitStage, ExecuteStage, FetchStage,
                                   RenameDispatchStage, SquashUnit,
                                   WritebackStage)

_log = get_logger("pipeline.core")


class SimulationError(Exception):
    """Raised on deadlock or budget exhaustion.

    When the core's event bus has a ring-buffer sink attached,
    ``event_dump`` carries the formatted last-N-events history leading
    up to the failure (empty tuple otherwise).
    """

    event_dump = ()


class SimResult:
    """Final architectural state plus statistics."""

    def __init__(self, regs, memory, stats):
        self.regs = regs
        self.memory = memory
        self.stats = stats

    def reg(self, name_or_num):
        return self.regs[reg_num(name_or_num)]


class InitialState:
    """Architectural state injected into a core before cycle 0.

    Lets the detailed pipeline start mid-program (sampled simulation):
    ``pc`` steers the first fetch, ``regs`` seeds the architectural
    register file through the RAT, and ``mem_words`` (aligned word
    address -> value) is applied on top of the program's initial memory
    image. Produced by :meth:`repro.sampling.checkpoint.Checkpoint.
    initial_state`; any object with these three attributes works.
    """

    __slots__ = ("pc", "regs", "mem_words")

    def __init__(self, pc, regs, mem_words=None):
        self.pc = pc
        self.regs = list(regs)
        self.mem_words = dict(mem_words or {})


class O3Core:
    """Out-of-order core simulator.

    ``obs`` is the run's :class:`~repro.obs.bus.Observability` bus —
    pass one with sinks attached to trace the run; by default a disabled
    bus is created and the simulator only maintains its ``SimStats``
    metrics view.
    """

    def __init__(self, program, config=None, reuse_scheme=None, obs=None,
                 init_state=None):
        state = CoreState()
        self.state = state
        state.program = program
        state.config = config or CoreConfig()
        cfg = state.config

        state.obs = obs if obs is not None else Observability()
        state.stats = state.obs.stats

        state.memory = SparseMemory(program.initial_memory())
        if cfg.mem.model == "ported":
            state.memsys = PortedMemorySystem(cfg.mem, obs=state.obs)
            state.hierarchy = state.memsys
        else:
            state.hierarchy = MemoryHierarchy(cfg.mem)
        state.regfile = PhysRegFile(cfg.num_phys_regs, NUM_ARCH_REGS)

        scheme = reuse_scheme
        if scheme is None:
            scheme = self._build_scheme(cfg)
        state.scheme = scheme

        track_rgids = getattr(scheme, "needs_rgids", False)
        rgid_bits = cfg.mssr.rgid_bits if cfg.mssr else 6
        state.rat = RenameTable(state.regfile, rgid_bits=rgid_bits,
                                track_rgids=track_rgids)
        # Initialise the stack pointer.
        state.regfile.set_value(state.rat.lookup(2), STACK_TOP)

        state.predictor = build_predictor(cfg.predictor)
        state.btb = BranchTargetBuffer(cfg.btb_sets, cfg.btb_assoc)
        state.ras = ReturnAddressStack(cfg.ras_depth)
        icache = None
        if state.memsys is not None:
            icache = state.memsys.icache
        elif cfg.frontend is not None and cfg.frontend.icache_lines:
            icache = InstructionCache(cfg.frontend.icache_lines,
                                      cfg.frontend.icache_latency,
                                      obs=state.obs)
        state.fetch = FetchUnit(program, state.predictor, state.btb,
                                state.ras, block_insts=cfg.fetch_block_insts,
                                frontend=cfg.frontend, obs=state.obs,
                                icache=icache)

        state.int_iq = IssueQueue("int", cfg.int_iq_entries)
        state.mem_iq = IssueQueue("mem", cfg.mem_iq_entries)
        state.iqs = (state.int_iq, state.mem_iq)
        state.fus = FunctionUnits(cfg)
        state.lsq = LoadStoreQueue(state.memory, cfg.lq_entries,
                                   cfg.sq_entries)

        state.rob = collections.deque()
        state.decode_queue = DecodeQueue(cfg.decode_queue)
        state.completions = CompletionQueue()
        state.squash_arbiter = SquashArbiter()

        # Facade: re-expose the shared state under the historical names
        # (reuse schemes and tests address the core, not CoreState).
        self.program = program
        self.config = cfg
        self.obs = state.obs
        self.stats = state.stats
        self.memory = state.memory
        self.hierarchy = state.hierarchy
        self.regfile = state.regfile
        self.scheme = scheme
        self.rat = state.rat
        self.predictor = state.predictor
        self.btb = state.btb
        self.ras = state.ras
        self.fetch = state.fetch
        self.int_iq = state.int_iq
        self.mem_iq = state.mem_iq
        self.fus = state.fus
        self.lsq = state.lsq
        self.rob = state.rob
        self.decode_queue = state.decode_queue

        if init_state is not None:
            self._inject_state(init_state)

        scheme.attach(self)
        for hook in RESOLVED_HOOKS:
            setattr(state, hook, resolve_hook(scheme, hook))

        # FTQ-sourced wrong-path capture: once the scheme is attached,
        # point the fetch unit's capture sink at its hook. Decode-time
        # capture (the fused-mode fallback) needs no wiring — the squash
        # unit already hands delivered blocks to on_branch_squash.
        if getattr(scheme, "ftq_capture", False):
            state.fetch.wrong_path_sink = scheme.on_wrong_path_block

        self.commit_stage = CommitStage(state)
        self.writeback_stage = WritebackStage(state)
        self.execute_stage = ExecuteStage(state)
        self.rename_stage = RenameDispatchStage(state)
        self.fetch_stage = FetchStage(state)
        self._squash_unit = SquashUnit(state)

    # ------------------------------------------------------------------
    # Shared-state delegation
    # ------------------------------------------------------------------
    @property
    def cycle(self):
        return self.state.cycle

    @cycle.setter
    def cycle(self, value):
        self.state.cycle = value

    @property
    def halted(self):
        return self.state.halted

    @halted.setter
    def halted(self, value):
        self.state.halted = value

    def arch_regs(self):
        """Current architectural register values via the RAT."""
        return self.state.arch_regs()

    def free_reserved_preg(self, preg):
        """Release a register previously reserved for a reuse scheme."""
        self.state.free_preg(preg)

    def _inject_state(self, init_state):
        """Seed architectural state before cycle 0 (sampled simulation)."""
        for addr, value in init_state.mem_words.items():
            self.memory.write_word(addr, value)
        for arch, value in enumerate(init_state.regs):
            if arch == 0:
                continue
            self.regfile.set_value(self.rat.lookup(arch), value)
        self.fetch.redirect(init_state.pc)
        if self.fetch.stalled:
            raise ValueError("initial state pc %#x is outside the program"
                             % init_state.pc)

    @staticmethod
    def _build_scheme(cfg):
        if cfg.mssr is not None:
            from repro.mssr.controller import MSSRController
            return MSSRController(cfg.mssr)
        if cfg.ri is not None:
            from repro.baselines.register_integration import \
                RegisterIntegration
            return RegisterIntegration(cfg.ri)
        return NullScheme()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_cycles=None, max_insts=None):
        """Simulate to ``halt``; returns a :class:`SimResult`.

        ``max_insts`` is a committed-instruction budget: the run stops
        cleanly (not an error) once that many instructions have retired,
        which is how sampled simulation bounds one interval. A budget-
        stopped core can be resumed with another ``run(max_insts=...)``
        call — the pipeline keeps all its in-flight state, so a sampler
        can run a discarded detailed-warmup slice and the measured
        interval back to back.

        This is the cycle loop. Each cycle ticks every stage once, in
        reverse pipeline order, then applies the arbitrated squash and
        the scheme's ``on_cycle`` hook. A ``halt`` retiring at commit
        ends its cycle there (only commit can halt). The stage ticks
        are bound here, once per call, so a stage swapped in after
        construction or a tick wrapped on its class is the one that
        runs.
        """
        state = self.state
        stats = self.stats
        obs = self.obs
        state.commit_limit = stats.committed_insts + max_insts \
            if max_insts is not None else None
        if state.budget_stop:
            state.budget_stop = False
            state.halted = False
        limit = max_cycles or self.config.max_cycles
        commit = self.commit_stage.tick
        writeback = self.writeback_stage.tick
        execute = self.execute_stage.tick
        rename = self.rename_stage.tick
        fetch = self.fetch_stage.tick
        apply_squash = self._squash_unit.apply
        arbiter = state.squash_arbiter
        on_cycle = state.on_cycle
        overflow_only = self.scheme.on_cycle_overflow_only
        rat = state.rat
        cycle = state.cycle
        while not state.halted:
            if cycle >= limit:
                raise self._sim_error(
                    "cycle budget exhausted (%d)" % limit)
            if cycle - state.last_commit_cycle > 100_000:
                raise self._sim_error(
                    "deadlock: no commit since cycle %d"
                    % state.last_commit_cycle)
            cycle += 1
            state.cycle = stats.cycles = obs.cycle = cycle
            commit()
            if state.halted:
                break
            writeback()
            execute()
            rename()
            fetch()
            if arbiter.pending is not None:
                apply_squash(arbiter.take())
            if on_cycle is not None and (rat.overflow_events
                                         or not overflow_only):
                on_cycle(cycle)
            if state.budget_stop:
                state.halted = True
        self.scheme.finalize()
        return SimResult(self.arch_regs(), self.memory, stats)

    def _sim_error(self, message):
        """Build a :class:`SimulationError`, auto-dumping any ring-buffer
        sink so the post-mortem shows the last events before the hang."""
        error = SimulationError(message)
        dump = self.obs.dump_recent()
        if dump:
            error.event_dump = tuple(dump)
            _log.error("%s; last %d events:\n%s", message, len(dump),
                       "\n".join(dump))
        return error
