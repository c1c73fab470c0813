"""Statistical corrector (the SC in TAGE-SC-L, simplified GEHL flavour).

A small set of perceptron-like tables vote on whether to *invert* the
TAGE prediction. Each table holds signed counters indexed by PC hashed
with a different history length; the signed sum (with the TAGE prediction
as a bias term) overrides TAGE when it is both confident and disagrees.

The confidence bar is *dynamic* (Seznec's threshold adaptation): every
commit where the corrector disagreed with TAGE bumps a saturating
counter up (SC was wrong) or down (SC was right), and the threshold
moves by one when the counter saturates. Without this, a branch whose
short-history counters are dragged by correlated neighbours can pin
the sum just past a fixed threshold and veto a perfectly confident —
and correct — TAGE prediction forever.
"""

from repro.frontend.predictors import BranchPredictor
from repro.frontend.tage import FoldedHistory, _compile


class StatisticalCorrector:
    """GEHL-style corrector over the global history."""

    #: Dynamic-threshold bounds and adaptation-counter saturation.
    MIN_THRESHOLD = 4
    MAX_THRESHOLD = 31
    TC_SATURATE = 4

    def __init__(self, num_tables=3, table_entries=1024,
                 hist_lengths=(0, 8, 21), counter_max=31, threshold=6):
        if len(hist_lengths) != num_tables:
            raise ValueError("need one history length per table")
        self.num_tables = num_tables
        self.table_entries = table_entries
        self.hist_lengths = hist_lengths
        self.counter_max = counter_max
        self.tables = [[0] * table_entries for _ in range(num_tables)]
        self.threshold = threshold
        self._tc = 0
        self.bind(FoldedHistory(self.fold_windows(),
                                BranchPredictor.HISTORY_BITS))

    def fold_windows(self):
        """The (length, width) folds the tables hash."""
        return [(length, 10) for length in self.hist_lengths]

    def bind(self, bank):
        """Compile the table indices (``_indices``) and the counter sum
        (``_total``) against ``bank``'s registers."""
        self._bank = bank
        indices = ["(pc2 ^ %s ^ %d) %% %d"
                   % (bank.expr(length, 10), table * 0x9E5,
                      self.table_entries)
                   for table, length in enumerate(self.hist_lengths)]
        head = ["pc2 = pc >> 2"] + bank.unpack
        compiled = _compile("pc, r0, folds", {
            "indices": head + ["return (%s)" % "".join(
                index + ", " for index in indices)],
            "total": head + ["return 0%s" % "".join(
                " + t%d[%s]" % item for item in enumerate(indices))],
        }, {"t%d" % table: counters
            for table, counters in enumerate(self.tables)})
        self._indices = compiled["indices"]
        self._total = compiled["total"]

    # ------------------------------------------------------------------
    def predict(self, pc, history, tage_taken, tage_weak=False,
                folds=None):
        """Return (use_sc, taken, sum) for the branch at ``pc``.

        ``tage_weak`` flags a low-confidence TAGE prediction (provider
        counter in the weak region): the corrector then vetoes TAGE at
        half its usual confidence bar, since the provider carries
        little conviction worth defending. ``folds`` are the bound
        bank's registers of ``history``; None folds them from scratch.
        """
        if folds is None:
            folds = self._bank.fold(history)
        total = (8 if tage_taken else -8) + self._total(pc, history, folds)
        taken = total >= 0
        bar = self.threshold
        if tage_weak:
            bar = max(1, bar // 2)
        use_sc = taken != tage_taken and abs(total) >= bar
        return use_sc, taken, total

    def update(self, pc, history, tage_taken, taken, total, folds=None):
        """Train at commit when the sum was weak or the outcome was
        missed; ``history`` and ``folds`` as in :meth:`predict`."""
        sc_taken = total >= 0
        if sc_taken != tage_taken:
            # Threshold adaptation on disagreements: raise the bar when
            # the corrector argues and loses, lower it when it wins.
            self._tc += 1 if sc_taken != taken else -1
            if self._tc >= self.TC_SATURATE:
                self._tc = 0
                self.threshold = min(self.MAX_THRESHOLD, self.threshold + 1)
            elif self._tc <= -self.TC_SATURATE:
                self._tc = 0
                self.threshold = max(self.MIN_THRESHOLD, self.threshold - 1)
        if sc_taken != taken or abs(total) <= self.threshold * 4:
            delta = 1 if taken else -1
            if folds is None:
                folds = self._bank.fold(history)
            for table, idx in zip(self.tables,
                                  self._indices(pc, history, folds)):
                table[idx] = max(-self.counter_max - 1,
                                 min(self.counter_max, table[idx] + delta))
