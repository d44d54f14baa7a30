"""Builders for the paper's figures (6, 7, 8, 9, 10).

Each builder is a pure function of a result matrix
(``{application: {predictor: result}}``, as
:meth:`~repro.sim.experiment.ExperimentRunner.run_matrix` returns it):
it selects its figure's predictors and returns plain dataclasses the
report renderers (and the benchmarks) consume.  Figure 6 reads a local
matrix; Figures 7–10 and Table 3 read a global one, so one global
matrix over :data:`GLOBAL_PREDICTORS` serves them all.  Nothing here
touches matplotlib — the paper's figures are stacked-bar charts whose
numbers these structures carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.tables import TABLE3_VARIANTS
from repro.sim.experiment import ApplicationResult
from repro.sim.metrics import PredictionStats

#: Predictor sets of each figure.
FIG6_PREDICTORS = ("TP", "LT", "PCAP")
FIG7_PREDICTORS = ("TP", "LT", "PCAP")
FIG8_PREDICTORS = ("Base", "Ideal", "TP", "LT", "PCAP")
FIG9_PREDICTORS = ("PCAP", "PCAPh", "PCAPf", "PCAPfh")
FIG10_PREDICTORS = ("PCAP", "PCAPa", "LT", "LTa")

#: Every predictor of the global figures (7-10) and Table 3, each once,
#: in first-use order: the lanes of the one global matrix they select
#: from.
GLOBAL_PREDICTORS = tuple(
    dict.fromkeys(
        FIG7_PREDICTORS
        + FIG8_PREDICTORS
        + FIG9_PREDICTORS
        + FIG10_PREDICTORS
        + TABLE3_VARIANTS
    )
)

#: ``{application: {predictor: result}}``, one run's result matrix.
Matrix = dict[str, dict[str, ApplicationResult]]


@dataclass(frozen=True, slots=True)
class AccuracyBar:
    """One stacked bar of Figures 6/7/9/10."""

    application: str
    predictor: str
    hit: float
    miss: float
    not_predicted: float
    hit_primary: float
    hit_backup: float
    miss_primary: float
    miss_backup: float
    opportunities: int

    @staticmethod
    def from_stats(
        application: str, predictor: str, stats: PredictionStats
    ) -> "AccuracyBar":
        return AccuracyBar(
            application=application,
            predictor=predictor,
            hit=stats.hit_fraction,
            miss=stats.miss_fraction,
            not_predicted=stats.not_predicted_fraction,
            hit_primary=stats.hit_primary_fraction,
            hit_backup=stats.hit_backup_fraction,
            miss_primary=stats.miss_primary_fraction,
            miss_backup=stats.miss_backup_fraction,
            opportunities=stats.opportunities,
        )


@dataclass(frozen=True, slots=True)
class EnergyBar:
    """One stacked bar of Figure 8 (fractions of the Base total)."""

    application: str
    predictor: str
    busy: float
    idle_short: float
    idle_long: float
    power_cycle: float
    savings: float

    @property
    def total(self) -> float:
        return self.busy + self.idle_short + self.idle_long + self.power_cycle


AccuracyFigure = dict[str, dict[str, AccuracyBar]]
EnergyFigure = dict[str, dict[str, EnergyBar]]


def _accuracy_figure(
    matrix: Matrix, predictors: Sequence[str]
) -> AccuracyFigure:
    return {
        application: {
            name: AccuracyBar.from_stats(application, name, row[name].stats)
            for name in predictors
        }
        for application, row in matrix.items()
    }


def build_fig6(
    matrix: Matrix, predictors: Sequence[str] = FIG6_PREDICTORS
) -> AccuracyFigure:
    """Figure 6: local shutdown predictor accuracy (a local matrix)."""
    return _accuracy_figure(matrix, predictors)


def build_fig7(
    matrix: Matrix, predictors: Sequence[str] = FIG7_PREDICTORS
) -> AccuracyFigure:
    """Figure 7: global shutdown predictor accuracy."""
    return _accuracy_figure(matrix, predictors)


def build_fig9(
    matrix: Matrix, predictors: Sequence[str] = FIG9_PREDICTORS
) -> AccuracyFigure:
    """Figure 9: history / file-descriptor optimizations (global)."""
    return _accuracy_figure(matrix, predictors)


def build_fig10(
    matrix: Matrix, predictors: Sequence[str] = FIG10_PREDICTORS
) -> AccuracyFigure:
    """Figure 10: prediction-table reuse (global)."""
    return _accuracy_figure(matrix, predictors)


def build_fig8(
    matrix: Matrix, predictors: Sequence[str] = FIG8_PREDICTORS
) -> EnergyFigure:
    """Figure 8: energy distribution, normalized per-app to Base."""
    if "Base" not in predictors:
        raise ValueError("Figure 8 needs the Base system for scaling")
    figure: EnergyFigure = {}
    for application, results in matrix.items():
        base = results["Base"].ledger
        row: dict[str, EnergyBar] = {}
        for name in predictors:
            ledger = results[name].ledger
            fractions = ledger.fractions_of(base.total)
            row[name] = EnergyBar(
                application=application,
                predictor=name,
                busy=fractions["busy"],
                idle_short=fractions["idle_short"],
                idle_long=fractions["idle_long"],
                power_cycle=fractions["power_cycle"],
                savings=ledger.savings_versus(base),
            )
        figure[application] = row
    return figure


def average_bars(figure: AccuracyFigure, predictor: str) -> AccuracyBar:
    """Unweighted across-application average of one predictor's bars —
    the quantity the paper's prose reports ("on average ...")."""
    bars = [row[predictor] for row in figure.values()]
    if not bars:
        raise ValueError("empty figure")
    n = len(bars)
    return AccuracyBar(
        application="average",
        predictor=predictor,
        hit=sum(b.hit for b in bars) / n,
        miss=sum(b.miss for b in bars) / n,
        not_predicted=sum(b.not_predicted for b in bars) / n,
        hit_primary=sum(b.hit_primary for b in bars) / n,
        hit_backup=sum(b.hit_backup for b in bars) / n,
        miss_primary=sum(b.miss_primary for b in bars) / n,
        miss_backup=sum(b.miss_backup for b in bars) / n,
        opportunities=sum(b.opportunities for b in bars),
    )


def average_savings(figure: EnergyFigure, predictor: str) -> float:
    """Across-application average energy savings of one predictor."""
    bars = [row[predictor] for row in figure.values()]
    if not bars:
        raise ValueError("empty figure")
    return sum(b.savings for b in bars) / len(bars)
