"""Physical register file and free list with ownership accounting.

Squash reuse keeps squashed instructions' physical registers alive past
the squash, so register lifetime bugs (leaks, double frees, reuse of a
live register) are the main correctness hazard of the whole design. The
free list therefore tracks every register's state and asserts on every
transition; :meth:`check_conservation` is used by tests and can be run
periodically in debug mode.
"""

FREE = 0
IN_FLIGHT = 1    # allocated by a renamed instruction
ARCH = 2         # holds a committed architectural value
RESERVED = 3     # held by a squash-reuse scheme after its writer squashed


class PhysRegFile:
    """Values + readiness + ownership state for all physical registers.

    ``states`` (ownership per register) and ``free_list`` (a stack) are
    public because the rename, commit and squash stages do
    :meth:`allocate` and :meth:`free` inline on their per-instruction
    paths, with the same checks; a change to either transition must be
    made there too.
    """

    STATE_NAMES = {FREE: "free", IN_FLIGHT: "in-flight",
                   ARCH: "arch", RESERVED: "reserved"}

    def __init__(self, num_regs, num_arch_regs):
        if num_regs <= num_arch_regs:
            raise ValueError("need more physical than architectural regs")
        self.num_regs = num_regs
        self.values = [0] * num_regs
        self.ready = [False] * num_regs
        self.states = [FREE] * num_regs
        # p0..p(A-1) initially hold the architectural registers.
        for preg in range(num_arch_regs):
            self.states[preg] = ARCH
            self.ready[preg] = True
        self.free_list = list(range(num_arch_regs, num_regs))

    # ------------------------------------------------------------------
    @property
    def num_free(self):
        return len(self.free_list)

    def allocate(self):
        """Take a register for a renaming instruction (None if exhausted)."""
        if not self.free_list:
            return None
        preg = self.free_list.pop()
        self.states[preg] = IN_FLIGHT
        self.ready[preg] = False
        return preg

    def free(self, preg):
        """Return a register to the free list."""
        if self.states[preg] == FREE:
            raise AssertionError("double free of p%d" % preg)
        self.states[preg] = FREE
        self.ready[preg] = False
        self.free_list.append(preg)

    # -- state transitions used by rename/commit/squash ------------------
    def mark_arch(self, preg):
        """In-flight register becomes architectural (writer committed)."""
        self.states[preg] = ARCH

    def mark_in_flight(self, preg):
        """Reserved register is adopted by a reusing instruction."""
        self.states[preg] = IN_FLIGHT

    def mark_reserved(self, preg):
        """Squashed writer's register is retained by a reuse scheme."""
        self.states[preg] = RESERVED

    def state_of(self, preg):
        return self.STATE_NAMES[self.states[preg]]

    # ------------------------------------------------------------------
    def set_value(self, preg, value):
        self.values[preg] = value
        self.ready[preg] = True

    def check_conservation(self):
        """Every register is in exactly one state; free list consistent."""
        free_set = set(self.free_list)
        if len(free_set) != len(self.free_list):
            raise AssertionError("duplicate entries in free list")
        for preg in range(self.num_regs):
            in_list = preg in free_set
            is_free = self.states[preg] == FREE
            if in_list != is_free:
                raise AssertionError(
                    "p%d state %s but free-list membership %s"
                    % (preg, self.state_of(preg), in_list))
        return True

    def count_states(self):
        counts = {name: 0 for name in self.STATE_NAMES.values()}
        for state in self.states:
            counts[self.STATE_NAMES[state]] += 1
        return counts
