"""Confidence intervals for compiled estimates (Section 5.1 of the paper).

Every compiled estimate is a product (and, for expansions and averages,
a ratio) of expectations of the form ``E[T * 1_C]``.  Following the
paper:

1. each expectation is split into ``P(C) * E[T | C]``;
2. the probability part is treated as a binomial proportion with
   ``n = sample size of the RSPN``, giving variance ``p(1-p)/n``;
3. the conditional expectation part uses the Koenig-Huygens formula
   ``V(T | C) = E[T^2 | C] - E[T | C]^2`` (squares push down to the
   leaves), scaled to the variance of a sample mean over the ``n * p``
   conditioned samples;
4. products of (assumed independent) estimates combine with
   ``V(XY) = V(X)V(Y) + V(X)E(Y)^2 + V(Y)E(X)^2``;
5. ratios use the first-order delta method (the paper only needs
   products; ratios arise in our Theorem-2 expansion terms and AVG);
6. the final estimate is treated as normally distributed.
"""

from __future__ import annotations

import math
from statistics import NormalDist


def expectation_moments(expectation):
    """(mean, variance) of one ``E[T * 1_C]`` estimate.

    ``expectation`` is a ``_Expectation`` from the compiler: it can
    evaluate itself normally (``E[T * 1_C]``), with squared transforms
    (``E[T^2 * 1_C]``), and expose its RSPN's training sample size.
    """
    n = max(expectation.rspn.sample_size, 1.0)
    value = expectation.evaluate()
    if not expectation.has_factors:
        p = value
        return p, max(p * (1.0 - p), 0.0) / n
    conditions_only = type(expectation)(
        rspn=expectation.rspn, conditions=expectation.conditions, factors=[]
    )
    p = conditions_only.evaluate()
    if p <= 0.0:
        return 0.0, 0.0
    t1 = value / p
    t2 = expectation.evaluate(squared=True) / p
    conditional_variance = max(t2 - t1 * t1, 0.0)
    mean_variance = conditional_variance / max(n * p, 1.0)
    p_variance = max(p * (1.0 - p), 0.0) / n
    return product_moments([(p, p_variance), (t1, mean_variance)])


def product_moments(moments):
    """Moments of a product of independent estimates."""
    mean, variance = 1.0, 0.0
    for m, v in moments:
        variance = variance * v + variance * m * m + v * mean * mean
        mean *= m
    return mean, variance


def ratio_moments(nominator, denominator):
    """First-order delta-method moments of ``X / Y``."""
    mn, vn = nominator
    md, vd = denominator
    if md == 0.0:
        return 0.0, 0.0
    mean = mn / md
    rel = 0.0
    if mn != 0.0:
        rel += vn / (mn * mn)
    rel += vd / (md * md)
    return mean, mean * mean * rel


def interval(mean, variance, confidence=0.95):
    """Normal confidence interval around ``mean``."""
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    half = z * math.sqrt(max(variance, 0.0))
    return mean - half, mean + half


def relative_interval_length(value, lower):
    """The paper's Figure-11 metric ``(a_pred - a_lower) / a_pred``."""
    if value == 0:
        return 0.0
    return (value - lower) / value
