"""gvlab: a generalization-theory laboratory over generative variables.

Exemplar count tables and their plug-in entropy, closed-form
generalization bounds with exact oracles for cross-entropy-optimal
hypotheses, from-scratch linear classifiers, a synthetic Gaussian task
with the InvarTG balancing loop, random-erasing parameter laws, and a
deterministic experiment harness.

Importing the package pins BLAS to one thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to ``"1"``) unless the
environment already sets them, and unless numpy was imported first: BLAS
reads them once, when it loads.  The products here are small, and
``--jobs`` worker processes run in parallel already; with BLAS threads
on top, workers oversubscribe the cores.
"""

import os as _os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

from .core import BinningPolicy, ExemplarTable, rows_csv
from .errors import GvlabError
from .info import Nats, count_entropy
from .models import (LinearModel, RiskReport, TrainConfig, TrainResult, VectorDataset,
                     loss_and_gradients, risk, train, train_lockstep)
from .synth import (InvarTGConfig, InvarTGResult, ToyData, ToySpec, balance_column,
                    balance_substitute, generate_toy, influence_rank, invar_tg, random_toy_spec)
from .theory import (AdditionRule, BoundReport, InvarianceReport, OptimalOutputs,
                     addition_rule, check_strict_invariance,
                     estimated_training_error, excess_risk_bound, gap_bound,
                     max_prob_lower_bound, optimal_outputs)
from .augment import (LABEL_INTERVALS, POSITION_LAWS, AugmentDistribution, draw_params,
                      position_inverse_cdf, prediction_changing_ratio)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
