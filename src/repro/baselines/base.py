"""Interface between the core pipeline and a squash-reuse scheme.

The core owns all architectural machinery; a scheme only
(a) receives squashed state on branch mispredictions,
(b) may claim squashed instructions' physical registers (the core then
    marks them *reserved* and expects the scheme to free or transfer
    each exactly once), and
(c) answers reuse queries during rename.

Every hook is optional. The core resolves the per-instruction and
per-cycle ones (:data:`RESOLVED_HOOKS`) once, when it is built, with
:func:`resolve_hook`: a hook the scheme does not override is never
called, so a scheme pays only for the hooks it implements. A hook
patched onto the scheme or its class after the core was built is not
seen.
"""

import weakref


class ReuseResult:
    """A successful reuse decision returned by :meth:`ReuseScheme.try_reuse`.

    Two flavours:

    * *integration-style* (MSSR, RI): ``preg``/``rgid`` name the squashed
      instruction's destination mapping to adopt — the value still lives
      in the physical register file;
    * *value-style* (DIR): ``preg`` is None and ``value`` carries the
      stored result — the core allocates a fresh register and fills it.

    For loads, ``verify_addr`` requests the NoSQ-style verification
    re-execution with the logged address.
    """

    __slots__ = ("preg", "rgid", "value", "verify_addr", "tag")

    def __init__(self, preg, rgid, value=None, verify_addr=None, tag=None):
        self.preg = preg
        self.rgid = rgid
        self.value = value
        self.verify_addr = verify_addr
        self.tag = tag


class ReuseScheme:
    """Base class; every hook is optional."""

    name = "none"

    #: Set by a scheme whose ``on_cycle`` only reacts to RGID overflow
    #: (MSSR's global reset, Section 3.3.2): the core then calls it only
    #: at the end of cycles on which the RAT holds overflow events.
    on_cycle_overflow_only = False

    def __init__(self):
        self.core = None
        self.obs = None
        self.stats = None

    def attach(self, core):
        """Bind the scheme to ``core``.

        The core holds the scheme and its resolved hooks, so the scheme
        keeps only a weak proxy of the core: a dropped core is then
        freed by reference counting, not left as cyclic garbage. The
        core's observability bus (counters + event emission) and its
        ``stats`` are bound directly for the per-instruction paths.
        """
        self.core = weakref.proxy(core)
        self.obs = core.obs
        self.stats = core.stats

    # -- squash-time hooks -------------------------------------------------
    def wants_preg(self, dyn):
        """Should the core keep this squashed instruction's dest preg alive?

        Called once per squashed, renamed, register-writing instruction
        during a *branch* squash. Answering True transfers ownership: the
        scheme must eventually call ``core.free_reserved_preg`` or hand
        the register to a reusing instruction.
        """
        return False

    def on_branch_squash(self, trigger, squashed, squashed_blocks):
        """A branch misprediction squashed ``squashed`` (renamed, oldest
        first) and the fetch blocks ``squashed_blocks``."""

    def on_replay_squash(self, trigger):
        """A memory-order replay squash occurred (not reuse-eligible)."""

    def on_wrong_path_block(self, block):
        """FTQ-sourced capture: one squashed prediction block (delivered
        or still pending), oldest first, during a branch squash. Only
        wired when the scheme sets ``ftq_capture`` and the frontend is
        decoupled; called *before* :meth:`on_branch_squash`."""

    # -- fetch/rename hooks --------------------------------------------------
    def on_fetch_block(self, block):
        """A new prediction block was fetched (MSSR reconvergence scan)."""

    def try_reuse(self, dyn):
        """Offered at rename before destination allocation.

        The current RAT already reflects all older instructions including
        earlier ones in this rename bundle. Return a :class:`ReuseResult`
        to reuse, or None to rename normally.
        """
        return None

    # -- lifecycle hooks ------------------------------------------------------
    def on_preg_freed(self, preg):
        """The core returned ``preg`` to the free list (RI transitive
        invalidation trigger)."""

    def on_store_executed(self, addr, size):
        """A store computed its address (memory-hazard monitoring)."""

    def on_verify_fail(self, dyn):
        """A reused load failed value verification (pipeline is flushing)."""

    def emergency_release(self):
        """Free list exhausted (condition 5, Section 3.3.2): release the
        least-recent stream's registers. Returns True if any were freed."""
        return False

    def on_cycle(self, cycle):
        """Per-cycle maintenance."""

    def finalize(self):
        """End of simulation: publish scheme-specific stats."""


#: Hooks the core calls per instruction or per cycle, resolved once per
#: core by :func:`resolve_hook` into the like-named ``CoreState`` fields.
RESOLVED_HOOKS = ("on_fetch_block", "try_reuse", "wants_preg",
                  "on_preg_freed", "on_store_executed", "on_cycle")


def resolve_hook(scheme, name):
    """``scheme``'s bound ``name`` hook, or None when it inherits the
    no-op of :class:`ReuseScheme` (which the caller may then skip)."""
    hook = getattr(scheme, name)
    if getattr(hook, "__func__", None) is getattr(ReuseScheme, name):
        return None
    return hook


class NullScheme(ReuseScheme):
    """Baseline: no squash reuse."""

    name = "baseline"
