"""Relational Sum-Product Networks and probabilistic query compilation.

This package is the paper's primary contribution:

- :mod:`repro.core.ranges` -- the predicate algebra leaves evaluate.
- :mod:`repro.core.leaves` -- histogram leaves: exact value-frequency
  histograms, binned histograms, NULL buckets (Section 3.2).
- :mod:`repro.core.nodes` / :mod:`repro.core.learning` -- SPN structure:
  sum nodes (KMeans row clusters), product nodes (RDC column splits).
- :mod:`repro.core.inference` -- bottom-up evaluation of probabilities
  and expectations with per-attribute transforms (Section 3.2).
- :mod:`repro.core.updates` -- Algorithm 1: direct insert/delete.
- :mod:`repro.core.rspn` -- the RSPN facade with NULL handling,
  functional dependencies and update support.
- :mod:`repro.core.ensemble` -- base ensembles + budget-constrained
  ensemble optimization (Sections 3.3 and 5.3).
- :mod:`repro.core.compilation` -- probabilistic query compilation
  (Section 4, Cases 1-3, Theorems 1 and 2).
- :mod:`repro.core.confidence` -- confidence intervals (Section 5.1).
- :mod:`repro.core.ml` -- regression / classification (Section 4.3).
- :mod:`repro.core.disjunction` -- inclusion-exclusion expansion of OR
  predicates (the principle Section 4.1 names).
- :mod:`repro.core.sampling` -- ancestral/conditional sampling and MPE.
- :mod:`repro.core.modelstore` -- the mmapped on-disk model store;
  :mod:`repro.core.serialization` encodes its relational metadata.
- :mod:`repro.core.maintenance` -- bulk insert absorption (Section 6.1)
  and structure-drift detection / refresh (Section 5.2).
"""

from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import SPNEnsemble, learn_ensemble
from repro.core.rspn import RSPN, RspnConfig

__all__ = [
    "ProbabilisticQueryCompiler",
    "RSPN",
    "RspnConfig",
    "SPNEnsemble",
    "learn_ensemble",
]
