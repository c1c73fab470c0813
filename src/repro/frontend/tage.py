"""TAGE direction predictor (Seznec-style, simplified).

A base bimodal table plus ``num_tables`` partially-tagged tables indexed
with geometrically increasing global-history lengths. The provider is the
longest-history hit; allocation on mispredictions steals a not-useful
entry from a longer table. The global history is an unbounded Python int
(bit 0 = most recent), folded down to index/tag widths on access. Folds
are memoized per table and, like hardware folded-history registers,
derived in O(1) from the fold of the window one push earlier when that
one is cached (:meth:`TagePredictor._folds`).
"""

from repro.frontend.predictors import BranchPredictor


def _fold(value, length, bits):
    """XOR-fold the low ``length`` bits of ``value`` into ``bits`` bits."""
    if bits <= 0 or length <= 0:
        return 0
    value &= (1 << length) - 1
    mask = (1 << bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


def _roll(folded, length, bits, history):
    """``_fold(history, length, bits)`` from ``folded``, the fold of the
    window one push earlier (``history >> 1``).

    The block-XOR fold puts history bit ``i`` at position ``i % bits``.
    One push moves every bit one position up — a left rotation within
    ``bits`` bits — drops the bit that left the ``length``-bit window
    (now bit ``length``, landing on position ``length % bits``) and
    adds the new bit at position 0.
    """
    if bits <= 0 or length <= 0:
        return 0
    folded = ((folded << 1) | (folded >> (bits - 1))) & ((1 << bits) - 1)
    return folded ^ (((history >> length) & 1) << (length % bits)) \
        ^ (history & 1)


class _TageEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self):
        self.tag = 0
        self.ctr = 4  # 3-bit counter, 4 = weakly taken
        self.useful = 0


class TagePredictor(BranchPredictor):
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
        # Folded-history memo, one per table: masked history -> the
        # (index fold, tag fold, shifted second tag fold) triple. Loops
        # revisit the same few history values, so the hit rate is high;
        # a miss one push after a cached window is rolled forward in
        # O(1), the way hardware folded-history registers are updated
        # (the rolled fold equals the block-XOR `_fold` exactly).
        self._hist_masks = [(1 << n) - 1 for n in self.hist_lengths]
        self._fold_caches = [{} for _ in range(num_tables)]
        self._fold_cache_limit = 1 << 16

    # ------------------------------------------------------------------
    def _base_index(self, pc):
        return (pc >> 2) % self.base_entries

    def _folds(self, table, history):
        """Memoized ``(index fold, tag fold, tag fold2 << 1)`` for one
        table. ``_fold`` masks its input to the history length first, so
        keying the cache on the masked history is exact. A miss whose
        window one push earlier is cached rolls that entry forward
        (:func:`_roll`) instead of re-folding the whole window."""
        mask = self._hist_masks[table]
        masked = history & mask
        cache = self._fold_caches[table]
        folds = cache.get(masked)
        if folds is None:
            length = self.hist_lengths[table]
            tag_bits = self.tag_bits
            prev = cache.get((history >> 1) & mask)
            if prev is None:
                folds = (_fold(masked, length, 10),
                         _fold(masked, length, tag_bits),
                         _fold(masked, length, tag_bits - 1) << 1)
            else:
                folds = (_roll(prev[0], length, 10, history),
                         _roll(prev[1], length, tag_bits, history),
                         _roll(prev[2] >> 1, length, tag_bits - 1,
                               history) << 1)
            if len(cache) >= self._fold_cache_limit:
                cache.clear()
            cache[masked] = folds
        return folds

    def _index(self, pc, table, history):
        folded = self._folds(table, history)[0]
        return ((pc >> 2) ^ (pc >> 6) ^ folded ^ (table << 3)) \
            % self.table_entries

    def _tag(self, pc, table, history):
        _, folded, folded2 = self._folds(table, history)
        return ((pc >> 2) ^ folded ^ folded2) & self.tag_mask

    def _find(self, pc, history):
        """Returns (provider_table, alt_table); -1 means the base table."""
        provider = alt = -1
        for table in range(self.num_tables - 1, -1, -1):
            entry = self.tables[table][self._index(pc, table, history)]
            if entry.tag == self._tag(pc, table, history):
                if provider < 0:
                    provider = table
                else:
                    alt = table
                    break
        return provider, alt

    def _table_pred(self, pc, table, history):
        if table < 0:
            return self.base[self._base_index(pc)] >= 2
        entry = self.tables[table][self._index(pc, table, history)]
        return entry.ctr >= 4

    def _lookup(self, pc):
        # Single-pass restructuring of _find + _table_pred: each table's
        # (index, tag) pair is computed exactly once, and the provider /
        # alt entries are kept instead of being re-looked-up. Produces
        # the same (taken, meta) as the original composition.
        history = self.history
        pc2 = pc >> 2
        idx_base = pc2 ^ (pc >> 6)
        tables = self.tables
        num_entries = self.table_entries
        tag_mask = self.tag_mask
        provider = alt = -1
        provider_entry = alt_entry = None
        for table in range(self.num_tables - 1, -1, -1):
            idx_fold, tag_fold, tag_fold2 = self._folds(table, history)
            entry = tables[table][
                (idx_base ^ idx_fold ^ (table << 3)) % num_entries]
            if entry.tag == (pc2 ^ tag_fold ^ tag_fold2) & tag_mask:
                if provider < 0:
                    provider = table
                    provider_entry = entry
                else:
                    alt = table
                    alt_entry = entry
                    break
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
        history = meta.history
        provider, alt, provider_pred, alt_pred = meta.extra[:4]
        mispredicted = meta.pred_taken != taken

        # use_alt_on_na training: when the provider was weak and provider
        # and alt disagreed, learn which one to trust.
        if provider >= 0 and provider_pred != alt_pred:
            entry = self.tables[provider][self._index(pc, provider, history)]
            if entry.ctr in (3, 4) and entry.useful == 0:
                if alt_pred == taken:
                    self.use_alt_on_na = min(self.use_alt_on_na + 1, 15)
                else:
                    self.use_alt_on_na = max(self.use_alt_on_na - 1, 0)

        # Train the provider (and base when it provided).
        if provider >= 0:
            idx = self._index(pc, provider, history)
            entry = self.tables[provider][idx]
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
            self._allocate(pc, taken, history, provider)

        self._update_count += 1
        if self._update_count % self.useful_reset_period == 0:
            self._decay_useful()

    def _allocate(self, pc, taken, history, provider):
        # Pseudo-random start table among candidates (LFSR, deterministic).
        self._alloc_seed = ((self._alloc_seed >> 1)
                            ^ (-(self._alloc_seed & 1) & 0xB400)) & 0xFFFF
        candidates = list(range(provider + 1, self.num_tables))
        start = self._alloc_seed % len(candidates)
        rotated = candidates[start:] + candidates[:start]
        for table in rotated:
            idx = self._index(pc, table, history)
            entry = self.tables[table][idx]
            if entry.useful == 0:
                entry.tag = self._tag(pc, table, history)
                entry.ctr = 4 if taken else 3
                entry.useful = 0
                return
        # Nothing free: age everything we considered.
        for table in candidates:
            entry = self.tables[table][self._index(pc, table, history)]
            entry.useful = max(entry.useful - 1, 0)

    def _decay_useful(self):
        for table in self.tables:
            for entry in table:
                entry.useful >>= 1
