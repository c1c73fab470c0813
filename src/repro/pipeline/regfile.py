"""Physical register file and free list with ownership accounting.

Squash reuse keeps squashed instructions' physical registers alive past
the squash, so register lifetime bugs (leaks, double frees, reuse of a
live register) are the main correctness hazard of the whole design. The
file therefore tracks every register's ownership state. The stages make
the transitions on ``states`` and ``free_list`` directly: rename takes a
FREE register (IN_FLIGHT), commit promotes it (ARCH) and frees the
previous mapping, the squash unit frees a squashed writer's register or
keeps it for a reuse scheme (RESERVED), and a reusing rename adopts a
RESERVED one (:meth:`PhysRegFile.mark_in_flight`). Every free checks
for a double free. :meth:`check_conservation` and :meth:`count_states`
are the checks tests run on a finished core.
"""

FREE = 0
IN_FLIGHT = 1    # allocated by a renamed instruction
ARCH = 2         # holds a committed architectural value
RESERVED = 3     # held by a squash-reuse scheme after its writer squashed


class PhysRegFile:
    """Values + readiness + ownership state for all physical registers.

    ``states`` (ownership per register) and ``free_list`` (a stack) are
    public because the rename, commit and squash stages make their
    transitions on their per-instruction paths.
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
    def free(self, preg):
        """Return a register to the free list (a reuse scheme releasing
        a RESERVED register)."""
        if self.states[preg] == FREE:
            raise AssertionError("double free of p%d" % preg)
        self.states[preg] = FREE
        self.ready[preg] = False
        self.free_list.append(preg)

    def mark_in_flight(self, preg):
        """Reserved register is adopted by a reusing instruction."""
        self.states[preg] = IN_FLIGHT

    def state_of(self, preg):
        return self.STATE_NAMES[self.states[preg]]

    # ------------------------------------------------------------------
    def set_value(self, preg, value):
        self.values[preg] = value
        self.ready[preg] = True

    def check_conservation(self):
        """The free list has no duplicates and holds exactly the FREE
        registers (every register is in exactly one state)."""
        free_list = self.free_list
        states = self.states
        if len(set(free_list)) != len(free_list):
            raise AssertionError("duplicate entries in free list")
        listed = list(map(states.__getitem__, free_list))
        if listed.count(FREE) == len(free_list) == states.count(FREE):
            return True
        free_set = set(free_list)
        for preg in range(self.num_regs):
            if (preg in free_set) != (states[preg] == FREE):
                raise AssertionError(
                    "p%d state %s but free-list membership %s"
                    % (preg, self.state_of(preg), preg in free_set))

    def count_states(self):
        counts = {name: 0 for name in self.STATE_NAMES.values()}
        for state in self.states:
            counts[self.STATE_NAMES[state]] += 1
        return counts
