"""The hand-written CSV formatters that ``core.rows_csv`` replaced, kept as
the reference it is pinned against.

Each entry of :data:`REFERENCE` maps a report to its row dataclass, the
header it is written with, and the f-string formatter that wrote it.
"""

from gvlab.experiments import AugmentRow, BalanceRow, CheckResult, InfluenceRow
from gvlab.synth import RoundRecord
from gvlab.theory import BoundReport


def _text(header, lines):
    return "\n".join([header, *lines]) + "\n"


def influence_csv(rows):
    return _text("dataset,dim,h_cond,abs_weight,rank_est,rank_true",
                 [f"{r.dataset},{r.dim},{r.h_cond!r},{r.abs_weight!r},"
                  f"{r.rank_est},{r.rank_true}" for r in rows])


def balance_csv(rows):
    return _text("dataset,dim,w_before,w_after,acc_before,acc_after",
                 [f"{r.dataset},{r.dim},{r.w_before!r},{r.w_after!r},"
                  f"{r.acc_before!r},{r.acc_after!r}" for r in rows])


def augment_csv(rows):
    return _text("alpha,law,changing_ratio,test_error,seed",
                 [f"{r.alpha!r},{r.law},{r.changing_ratio!r},{r.test_error!r},{r.seed}"
                  for r in rows])


def bound_report_csv(reports):
    lines = []
    for r in reports:
        gamma = "" if r.gamma is None else repr(float(r.gamma))
        excess = "" if r.thm2_excess is None else repr(float(r.thm2_excess))
        lines.append(f"{r.t},{r.k},{r.n},{r.delta!r},{gamma},{r.thm1_gap!r},{excess}")
    return _text("T,K,n,delta,gamma,thm1_gap,thm2_excess", lines)


def theory_report_csv(results):
    return _text("check,passed,max_deviation",
                 [f"{r.name},{str(r.passed).lower()},{r.max_deviation!r}" for r in results])


def invar_tg_log_csv(log):
    return _text("round,chosen_id,h_before,h_after",
                 [f"{r.round},{r.chosen_id},{r.h_before!r},{r.h_after!r}" for r in log])


#: ``name: (row class, header, reference formatter)`` for every report.
REFERENCE = {
    "influence": (InfluenceRow, "dataset,dim,h_cond,abs_weight,rank_est,rank_true",
                  influence_csv),
    "balance": (BalanceRow, "dataset,dim,w_before,w_after,acc_before,acc_after", balance_csv),
    "augment": (AugmentRow, "alpha,law,changing_ratio,test_error,seed", augment_csv),
    "bounds": (BoundReport, "T,K,n,delta,gamma,thm1_gap,thm2_excess", bound_report_csv),
    "theory_report": (CheckResult, "check,passed,max_deviation", theory_report_csv),
    "invar_tg_log": (RoundRecord, "round,chosen_id,h_before,h_after", invar_tg_log_csv),
}
