"""Direction predictor interface plus the bimodal and gshare predictors.

All predictors share one contract:

* :meth:`predict` returns ``(taken, meta)`` and *speculatively* pushes the
  prediction into the global history, so back-to-back in-flight branches
  see each other's (predicted) outcomes — as real frontends do.
* ``meta`` is opaque state captured at prediction time; the core hands it
  back to :meth:`update` when the branch *commits* (training) and to
  :meth:`recover_branch` when the branch turns out mispredicted (history
  repair: the pre-prediction history is restored and the actual outcome
  pushed).
"""


class PredictorMeta:
    """Prediction-time snapshot carried with each in-flight branch:
    the global history and its folded-history registers as they were
    before the prediction's push."""

    __slots__ = ("history", "pred_taken", "extra", "folds")

    def __init__(self, history, pred_taken, extra=None, folds=()):
        self.history = history
        self.pred_taken = pred_taken
        self.extra = extra
        self.folds = folds


class BranchPredictor:
    """Abstract conditional-branch direction predictor."""

    name = "abstract"

    #: History kept per push. Every consumer folds at most 128 history
    #: bits (TAGE max_history) — without a cap the Python-int history
    #: grows by one bit per branch and every shift/mask touches all of
    #: it, so long runs slow down linearly. 1024 bits is far above any
    #: consumer's window, making the truncation unobservable.
    HISTORY_BITS = 1024

    #: Folded-history registers mirroring ``history``: none here; TAGE
    #: keeps them (:class:`repro.frontend.tage.FoldedHistory`).
    folds = ()

    def __init__(self):
        # Global history as an int bit-vector; bit0 is the most recent
        # outcome. Subclasses that don't use history ignore it.
        self.history = 0
        self._history_mask = (1 << self.HISTORY_BITS) - 1

    # -- history helpers -------------------------------------------------
    def _push_history(self, taken):
        self.history = ((self.history << 1)
                        | (1 if taken else 0)) & self._history_mask

    def snapshot_history(self):
        """The history and its folded registers, for
        :meth:`restore_history`."""
        return self.history, self.folds

    def restore_history(self, snapshot):
        """Restore a :meth:`snapshot_history` snapshot, or a bare
        history int, whose registers are then folded from scratch."""
        if type(snapshot) is tuple:
            self.history, self.folds = snapshot
        else:
            self.history = snapshot
            self.folds = self._fold_registers(snapshot)

    def _fold_registers(self, history):
        """Folded registers of ``history``, computed from scratch."""
        return ()

    # -- main interface ---------------------------------------------------
    def predict(self, pc):
        """Predict direction for the branch at ``pc``.

        Returns ``(taken, meta)`` and speculatively updates history.
        """
        taken, extra = self._lookup(pc)
        meta = PredictorMeta(self.history, taken, extra, self.folds)
        self._push_history(taken)
        return taken, meta

    def update(self, pc, taken, meta):
        """Train with the committed outcome."""
        raise NotImplementedError

    def recover(self, taken, meta):
        """Repair speculative history after a misprediction of this branch."""
        self.history = meta.history
        self.folds = meta.folds
        self._push_history(taken)

    def recover_branch(self, pc, taken, meta):
        """The whole repair at the mispredicted branch at ``pc``, run
        after younger squashed predictions were unwound. Predictors
        with per-branch speculative state beyond the history extend
        it."""
        self.recover(taken, meta)

    def _lookup(self, pc):
        """Return (taken, extra) without touching history."""
        raise NotImplementedError


def _counter_update(counter, taken, max_value):
    if taken:
        return min(counter + 1, max_value)
    return max(counter - 1, 0)


class BimodalPredictor(BranchPredictor):
    """Classic per-PC 2-bit saturating counter table."""

    name = "bimodal"

    def __init__(self, num_entries=4096, counter_bits=2):
        super().__init__()
        self.num_entries = num_entries
        self.max_counter = (1 << counter_bits) - 1
        self.threshold = 1 << (counter_bits - 1)
        self.table = [self.threshold] * num_entries

    def _index(self, pc):
        return (pc >> 2) % self.num_entries

    def _lookup(self, pc):
        return self.table[self._index(pc)] >= self.threshold, None

    def update(self, pc, taken, meta):
        idx = self._index(pc)
        self.table[idx] = _counter_update(self.table[idx], taken,
                                          self.max_counter)


class GSharePredictor(BranchPredictor):
    """Two-level predictor hashing PC with global history."""

    name = "gshare"

    def __init__(self, num_entries=16384, history_bits=12, counter_bits=2):
        super().__init__()
        self.num_entries = num_entries
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.max_counter = (1 << counter_bits) - 1
        self.threshold = 1 << (counter_bits - 1)
        self.table = [self.threshold] * num_entries

    def _index(self, pc, history):
        return ((pc >> 2) ^ (history & self.history_mask)) % self.num_entries

    def _lookup(self, pc):
        return (self.table[self._index(pc, self.history)] >= self.threshold,
                None)

    def update(self, pc, taken, meta):
        # Index with the history *at prediction time* (stored in meta).
        idx = self._index(pc, meta.history)
        self.table[idx] = _counter_update(self.table[idx], taken,
                                          self.max_counter)


class AlwaysTakenPredictor(BranchPredictor):
    """Degenerate predictor for unit tests."""

    name = "always-taken"

    def _lookup(self, pc):
        return True, None

    def update(self, pc, taken, meta):
        pass


def build_predictor(kind, **kwargs):
    """Factory used by the core config (``bimodal``/``gshare``/``tage-scl``)."""
    from repro.frontend.tage import TagePredictor
    from repro.frontend.tage_scl import TageSCL

    builders = {
        "bimodal": BimodalPredictor,
        "gshare": GSharePredictor,
        "tage": TagePredictor,
        "tage-scl": TageSCL,
        "always-taken": AlwaysTakenPredictor,
    }
    if kind not in builders:
        raise ValueError("unknown predictor kind %r" % kind)
    return builders[kind](**kwargs)
