"""TAGE direction predictor (Seznec-style, simplified).

A base bimodal table plus ``num_tables`` partially-tagged tables indexed
with geometrically increasing global-history lengths. The provider is the
longest-history hit; allocation on mispredictions steals a not-useful
entry from a longer table. The global history is a Python int (bit 0 =
most recent), XOR-folded down to the index/tag widths. As in hardware,
the folds live in folded-history registers (:class:`FoldedHistory`)
that every push updates in O(1), and each prediction's meta carries
them as they were before its push, so training and history repair
never re-fold.

The register update and the table hashes are compiled per geometry:
shifts, masks and salts become literals in straight-line code, so a
prediction, the frontend's most frequent call, runs no loop over
per-table parameters.
"""

import functools

from repro.frontend.predictors import BranchPredictor


def _fold(value, length, bits):
    """XOR-fold the low ``length`` bits of ``value`` into ``bits`` bits.
    The reference every folded-history register equals."""
    if bits <= 0 or length <= 0:
        return 0
    value &= (1 << length) - 1
    mask = (1 << bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


@functools.lru_cache(maxsize=64)
def _code(source):
    return compile(source, "<folded history>", "exec")


def _compile(params, functions, binds=()):
    """Define each ``name: body lines`` entry of ``functions`` as a
    function of ``params`` whose globals are ``binds``; returns them by
    name. Each distinct source compiles once per process."""
    source = "".join("def %s(%s):\n%s" % (name, params, "".join(
        "    %s\n" % line for line in body))
        for name, body in functions.items())
    namespace = dict(binds)
    exec(_code(source), namespace)
    # Taken out of their globals, the functions form no reference
    # cycle, so a dropped predictor is freed without the cyclic GC.
    return {name: namespace.pop(name) for name in functions}


class FoldedHistory:
    """Folded-history registers for a fixed set of (length, width)
    windows of the global history.

    The block-XOR fold of the ``L``-bit window puts history bit ``i`` at
    position ``i % b``. One push rotates the fold left by one bit within
    ``b`` bits, XORs in the new bit at position 0, and XORs out the bit
    that left the window — old history bit ``L - 1``, at position
    ``L % b``.

    Folds of one width share an int (a word). The lane of a window with
    ``L > b`` sits at bit offset ``L - 1 - L % b`` (``b * (L // b) - 1``),
    which puts position ``L % b`` at word bit ``L - 1``, where the
    leaving bit sits in the old history. A push is then one rotate of
    every lane plus a single ``old_history & mask`` for all windows at
    once. Windows with the same ``L // b`` would share a lane, so later
    ones go into a further word of that width. A window with ``L <= b``
    needs no register: its fold is the history's low ``L`` bits.

    The registers are a tuple of words (``folds``); :meth:`expr` writes
    the read of one window's fold as source for compiled lookups.
    """

    def __init__(self, windows, history_bits):
        words = []          # (width, {L // width: L}) per word
        exprs = {}
        for length, bits in sorted(set(windows)):
            # History never holds more than ``history_bits`` bits, so
            # a longer window folds the same bits.
            span = min(length, history_bits)
            if bits <= 0 or span <= 0:
                exprs[length, bits] = "0"
                continue
            if span <= bits:
                exprs[length, bits] = "(r0 & %d)" % ((1 << span) - 1)
                continue
            lane = span // bits
            for word, (width, lanes) in enumerate(words):
                if width == bits and lanes.get(lane, span) == span:
                    break
            else:
                word = len(words)
                words.append((bits, {}))
            words[word][1][lane] = span
            exprs[length, bits] = "((r%d >> %d) & %d)" % (
                word + 1, bits * lane - 1, (1 << bits) - 1)
        self._words = words
        self._exprs = exprs
        names = ["r%d" % (word + 1) for word in range(len(words))]
        #: Source line binding ``r1``, ``r2``… to the words of ``folds``.
        self.unpack = ["%s, = folds" % ", ".join(names)] if names else []
        body = list(self.unpack)
        wraps = []
        for name, (width, spans) in zip(names, words):
            rotate = wrap = leaving = 0
            for lane, span in spans.items():
                base = width * lane - 1
                rotate |= ((1 << (width - 1)) - 1) << (base + 1)
                wrap |= 1 << base
                leaving |= 1 << (span - 1)
            body.append("%s = (((%s << 1) & %d) | ((%s >> %d) & %d)) "
                        "^ (r0 & %d)" % (name, name, rotate, name,
                                         width - 1, wrap, leaving))
            wraps.append("%s ^ %d, " % (name, wrap))
        body += ["if taken:",
                 "    return (%s)" % "".join(wraps),
                 "return (%s)" % "".join(name + ", " for name in names)]
        #: ``push(old_history, folds, taken)``: the registers after
        #: pushing ``taken`` onto ``old_history``.
        self.push = _compile("r0, folds, taken", {"push": body})["push"]

    def expr(self, length, bits):
        """Source reading the fold of the ``length``-bit window into
        ``bits`` bits from ``r0`` (the history) and ``r1``, ``r2``…
        (the words, see :attr:`unpack`)."""
        return self._exprs[length, bits]

    def fold(self, history):
        """The registers of ``history``, folded from scratch."""
        words = []
        for width, spans in self._words:
            word = 0
            for lane, span in spans.items():
                word |= _fold(history, span, width) << (width * lane - 1)
            words.append(word)
        return tuple(words)


class FoldedHistoryPredictor(BranchPredictor):
    """A predictor whose global history is mirrored by the registers of
    a :class:`FoldedHistory` bank (``self.folds``)."""

    def _use_bank(self, bank):
        self._bank = bank
        self.folds = bank.fold(self.history)

    def _push_history(self, taken):
        old = self.history
        self.history = ((old << 1) | (1 if taken else 0)) \
            & self._history_mask
        self.folds = self._bank.push(old, self.folds, taken)

    def _fold_registers(self, history):
        return self._bank.fold(history)


class _TageEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self):
        self.tag = 0
        self.ctr = 4  # 3-bit counter, 4 = weakly taken
        self.useful = 0


class TagePredictor(FoldedHistoryPredictor):
    """TAgged GEometric history length predictor."""

    name = "tage"

    def __init__(self, num_tables=6, base_entries=8192, table_entries=1024,
                 min_history=4, max_history=128, tag_bits=10,
                 useful_reset_period=1 << 18):
        super().__init__()
        self.num_tables = num_tables
        self.base_entries = base_entries
        self.table_entries = table_entries
        self.tag_bits = tag_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.useful_reset_period = useful_reset_period
        # Geometric history lengths.
        self.hist_lengths = []
        for i in range(num_tables):
            if num_tables == 1:
                length = max_history
            else:
                ratio = (max_history / float(min_history)) ** (
                    i / float(num_tables - 1))
                length = int(round(min_history * ratio))
            self.hist_lengths.append(max(1, length))
        self.base = [2] * base_entries  # 2-bit counters, 2 = weakly taken
        self.tables = [[_TageEntry() for _ in range(table_entries)]
                       for _ in range(num_tables)]
        self.use_alt_on_na = 8  # 4-bit counter, >=8 prefers altpred on weak
        self._update_count = 0
        self._alloc_seed = 0xACE1
        bank = FoldedHistory(self.fold_windows(), self.HISTORY_BITS)
        self.bind(bank)
        self._use_bank(bank)

    def fold_windows(self):
        """The (length, width) folds the tables hash: the index fold,
        the tag fold and the second, one-bit-narrower tag fold."""
        return [(length, bits) for length in self.hist_lengths
                for bits in (10, self.tag_bits, self.tag_bits - 1)]

    def bind(self, bank):
        """Compile the table walk (``_walk``) and each table's
        ``(index, tag)`` (``_slots``) against ``bank``'s registers."""
        folds = [(bank.expr(length, 10), bank.expr(length, self.tag_bits),
                  bank.expr(length, self.tag_bits - 1))
                 for length in self.hist_lengths]

        def slot(table, fold, tag_fold, tag_fold2):
            return ("(ib ^ %s ^ %d) %% %d"
                    % (fold, table << 3, self.table_entries),
                    "(pc2 ^ %s ^ (%s << 1)) & %d"
                    % (tag_fold, tag_fold2, self.tag_mask))

        head = ["pc2 = pc >> 2", "ib = pc2 ^ (pc >> 6)"] + bank.unpack
        # Longest history first: the first hit provides, the second is
        # the alternate.
        walk = head + ["provider, provider_entry = -1, None"]
        for table in reversed(range(self.num_tables)):
            fold, tag_fold, tag_fold2 = folds[table]
            if fold == tag_fold != "0":
                walk.append("f = %s" % fold)
                tag_fold2 = "f" if tag_fold2 == fold else tag_fold2
                fold = tag_fold = "f"
            index, tag = slot(table, fold, tag_fold, tag_fold2)
            walk += ["entry = t%d[%s]" % (table, index),
                     "if entry.tag == %s:" % tag,
                     "    if provider_entry is not None:",
                     "        return provider, provider_entry, %d, entry"
                     % table,
                     "    provider, provider_entry = %d, entry" % table]
        functions = {"walk": walk + ["return provider, provider_entry, "
                                     "-1, None"]}
        for table in range(self.num_tables):
            functions["slot%d" % table] = head + [
                "return %s, %s" % slot(table, *folds[table])]
        compiled = _compile("pc, r0, folds", functions, {
            "t%d" % table: entries
            for table, entries in enumerate(self.tables)})
        self._walk = compiled["walk"]
        self._slots = tuple(compiled["slot%d" % table]
                            for table in range(self.num_tables))

    # ------------------------------------------------------------------
    def _base_index(self, pc):
        return (pc >> 2) % self.base_entries

    def _lookup(self, pc):
        return self._probe(pc, self.history, self.folds)

    def _probe(self, pc, history, folds):
        """``(taken, extra)`` for ``pc`` under ``history`` and its
        registers ``folds``."""
        provider, provider_entry, alt, alt_entry = self._walk(
            pc, history, folds)
        pc2 = pc >> 2
        if provider < 0:
            base_ctr = self.base[pc2 % self.base_entries]
            taken = provider_pred = alt_pred = base_ctr >= 2
            # Map the 2-bit base counter onto the 3-bit provider range
            # so confidence consumers see one weak region (3, 4).
            provider_ctr = (0, 3, 4, 7)[base_ctr]
        else:
            provider_ctr = provider_entry.ctr
            provider_pred = provider_ctr >= 4
            alt_pred = (alt_entry.ctr >= 4 if alt >= 0
                        else self.base[pc2 % self.base_entries] >= 2)
            taken = provider_pred
            if provider_entry.useful == 0 and provider_ctr in (3, 4) \
                    and self.use_alt_on_na >= 8:
                taken = alt_pred
        return taken, (provider, alt, provider_pred, alt_pred,
                       provider_ctr)

    # ------------------------------------------------------------------
    @staticmethod
    def _bump(ctr, taken, max_value):
        if taken:
            return min(ctr + 1, max_value)
        return max(ctr - 1, 0)

    def update(self, pc, taken, meta):
        history, folds = meta.history, meta.folds
        provider, alt, provider_pred, alt_pred = meta.extra[:4]
        mispredicted = meta.pred_taken != taken

        if provider >= 0:
            entry = self.tables[provider][
                self._slots[provider](pc, history, folds)[0]]
            # use_alt_on_na training: when the provider was weak and
            # provider and alt disagreed, learn which one to trust.
            if provider_pred != alt_pred and entry.ctr in (3, 4) \
                    and entry.useful == 0:
                if alt_pred == taken:
                    self.use_alt_on_na = min(self.use_alt_on_na + 1, 15)
                else:
                    self.use_alt_on_na = max(self.use_alt_on_na - 1, 0)
            # Train the provider.
            entry.ctr = self._bump(entry.ctr, taken, 7)
            if provider_pred != alt_pred:
                if provider_pred == taken:
                    entry.useful = min(entry.useful + 1, 3)
                else:
                    entry.useful = max(entry.useful - 1, 0)
        else:
            idx = self._base_index(pc)
            self.base[idx] = self._bump(self.base[idx], taken, 3)

        # Allocate a longer-history entry on misprediction.
        if mispredicted and provider < self.num_tables - 1:
            self._allocate(pc, taken, history, folds, provider)

        self._update_count += 1
        if self._update_count % self.useful_reset_period == 0:
            self._decay_useful()

    def _allocate(self, pc, taken, history, folds, provider):
        # Pseudo-random start table among candidates (LFSR, deterministic).
        self._alloc_seed = ((self._alloc_seed >> 1)
                            ^ (-(self._alloc_seed & 1) & 0xB400)) & 0xFFFF
        candidates = list(range(provider + 1, self.num_tables))
        start = self._alloc_seed % len(candidates)
        rotated = candidates[start:] + candidates[:start]
        for table in rotated:
            index, tag = self._slots[table](pc, history, folds)
            entry = self.tables[table][index]
            if entry.useful == 0:
                entry.tag = tag
                entry.ctr = 4 if taken else 3
                entry.useful = 0
                return
        # Nothing free: age everything we considered.
        for table in candidates:
            entry = self.tables[table][
                self._slots[table](pc, history, folds)[0]]
            entry.useful = max(entry.useful - 1, 0)

    def _decay_useful(self):
        for table in self.tables:
            for entry in table:
                entry.useful >>= 1
