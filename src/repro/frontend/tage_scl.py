"""TAGE-SC-L: TAGE core + statistical corrector + loop predictor.

Matches the paper's "TAGE-SC-L 64K" configuration role (the main branch
predictor in Table 3); component sizes are scaled for simulation speed
but the composition follows Seznec's championship predictor:

* **TAGE** provides the base prediction, including its own
  provider/altpred choice (``use_alt_on_na``). The provider counter
  travels in the meta so the outer stages can see TAGE's confidence.
* **SC** (GEHL-style statistical corrector) may invert TAGE when its
  signed sum is confident — and vetoes at *half* the usual bar when
  the TAGE provider is weak (counter in the 3/4 region), the
  low-confidence-veto of the real predictor.
* **L** (loop predictor) overrides everything on confidently-countable
  loop branches, but only while the ``withloop`` hysteresis counter is
  non-negative: it is trained at commit whenever the loop predictor
  disagreed with the SC+TAGE prediction, so a loop predictor that
  keeps losing arguments is dynamically benched.

TAGE and SC hash one set of folded-history registers, owned by the
composite (:class:`~repro.frontend.tage.FoldedHistory` over both
components' windows), and each prediction reads every table index and
tag straight from them.

Speculative state is repaired on two paths: :meth:`recover_branch`
performs the architectural repair at the mispredicted branch itself
(history rewind + loop spec-count resync), and :meth:`unwind` rolls
back one squashed *younger* prediction (loop iteration-count
checkpoint), applied youngest-first as the frontend flushes.
"""

from repro.frontend.predictors import PredictorMeta
from repro.frontend.tage import (
    FoldedHistory, FoldedHistoryPredictor, TagePredictor,
)
from repro.frontend.loop_predictor import LoopPredictor
from repro.frontend.statistical_corrector import StatisticalCorrector


class TageSCL(FoldedHistoryPredictor):
    """Composite TAGE-SC-L predictor."""

    name = "tage-scl"

    #: ``withloop`` hysteresis bounds (signed; >= 0 trusts the loop
    #: predictor).
    WITHLOOP_MIN = -8
    WITHLOOP_MAX = 7

    def __init__(self, tage_kwargs=None, sc_kwargs=None, loop_kwargs=None):
        super().__init__()
        self.tage = TagePredictor(**(tage_kwargs or {}))
        self.sc = StatisticalCorrector(**(sc_kwargs or {}))
        self.loop = LoopPredictor(**(loop_kwargs or {}))
        self.withloop = 0
        # The composite owns the authoritative history and registers;
        # the inner TAGE's own history stays unused.
        bank = FoldedHistory(
            self.tage.fold_windows() + self.sc.fold_windows(),
            self.HISTORY_BITS)
        self.tage.bind(bank)
        self.sc.bind(bank)
        self._use_bank(bank)

    def predict(self, pc):
        history = self.history
        folds = self.folds
        tage_taken, tage_extra = self.tage._probe(pc, history, folds)
        provider_ctr = tage_extra[4]
        tage_weak = provider_ctr in (3, 4)

        use_sc, sc_taken, sc_sum = self.sc.predict(
            pc, history, tage_taken, tage_weak, folds)
        pre_loop_taken = sc_taken if use_sc else tage_taken

        taken = pre_loop_taken
        loop_valid, loop_taken, loop_ckpt = self.loop.predict_spec(pc)
        if loop_valid and self.withloop >= 0:
            taken = loop_taken

        meta = PredictorMeta(
            history, taken,
            (tage_extra, tage_taken, sc_sum, pre_loop_taken, loop_valid,
             loop_taken, loop_ckpt), folds)
        self._push_history(taken)
        return taken, meta

    def update(self, pc, taken, meta):
        (tage_extra, tage_taken, sc_sum, pre_loop_taken, loop_valid,
         loop_taken, _loop_ckpt) = meta.extra
        tage_meta = PredictorMeta(meta.history, tage_taken, tage_extra,
                                  meta.folds)
        self.tage.update(pc, taken, tage_meta)
        self.sc.update(pc, meta.history, tage_taken, taken, sc_sum,
                       meta.folds)
        # withloop hysteresis: trained only on disagreements, where
        # using (or benching) the loop predictor actually matters.
        if loop_valid and loop_taken != pre_loop_taken:
            if loop_taken == taken:
                self.withloop = min(self.withloop + 1, self.WITHLOOP_MAX)
            else:
                self.withloop = max(self.withloop - 1, self.WITHLOOP_MIN)
        self.loop.update(pc, taken)

    def recover_branch(self, pc, taken, meta):
        """Architectural repair at the mispredicted branch itself:
        history rewind plus loop spec-count resynchronisation. Must
        run *after* younger squashed predictions have been unwound
        (the core's repair order guarantees this)."""
        self.recover(taken, meta)
        self.loop.resolve(pc, taken, meta.extra[6])

    def unwind(self, meta):
        """Roll back the speculative loop-iteration advance of one
        squashed (younger) prediction. History repair is handled
        separately (absolute restore at the squash trigger)."""
        self.loop.unwind(meta.extra[6])

    def _lookup(self, pc):  # pragma: no cover - predict() is overridden
        raise NotImplementedError
