"""Cost-based join-order optimization driven by cardinality estimates.

The paper motivates cardinality estimation as input "to find the correct
join order during query optimization" (Section 2).  This subpackage
closes that loop: a textbook System-R style dynamic-programming
enumerator picks join orders under a C_out cost model, and the quality
of the chosen plan is scored under *true* cardinalities -- the standard
methodology for judging whether an estimator's errors actually hurt
plans (Leis et al., "How good are query optimizers, really?").

Modules
-------
- :mod:`repro.optimizer.plans` -- join-tree plan representation,
- :mod:`repro.optimizer.cardinality` -- the sub-query oracle over any
  estimator of the batched protocol (:mod:`repro.estimator`), with a
  one-``cardinality_batch``-call prefetch of every connected subset
  (serial memoisation kept as the reference mode),
- :mod:`repro.optimizer.cost` -- the C_out cost model,
- :mod:`repro.optimizer.enumeration` -- bushy and left-deep DP,
- :mod:`repro.optimizer.quality` -- plan suboptimality scoring,
- :mod:`repro.optimizer.execution` -- hash-join plan execution and the
  optimise-then-execute entry point sharing the same oracle, with
  mid-execution re-optimisation when realised intermediates blow past
  their estimates,
- :mod:`repro.optimizer.plancache` -- the plan cache keyed on the
  canonical query form, riding the model generation.
"""

from repro.optimizer.cardinality import SubqueryCardinalities
from repro.optimizer.cost import PerJoinCost, cout_cost
from repro.optimizer.enumeration import (
    OptimizationError,
    optimal_plan,
    replan_over_units,
)
from repro.optimizer.execution import (
    ExecutionError,
    MaterializedRelation,
    OptimizedExecution,
    execute_plan,
    optimize_and_execute,
)
from repro.optimizer.plancache import PlanCache, cache_epoch
from repro.optimizer.plans import BaseRelation, Join, plan_joins
from repro.optimizer.quality import plan_suboptimality

__all__ = [
    "BaseRelation",
    "ExecutionError",
    "Join",
    "MaterializedRelation",
    "OptimizationError",
    "OptimizedExecution",
    "PerJoinCost",
    "PlanCache",
    "SubqueryCardinalities",
    "cache_epoch",
    "cout_cost",
    "execute_plan",
    "optimal_plan",
    "optimize_and_execute",
    "plan_joins",
    "plan_suboptimality",
    "replan_over_units",
]
