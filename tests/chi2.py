"""Pearson's chi-squared goodness of fit, in pure Python.

``chi2_sf`` is the upper tail of the chi-squared law, the regularized
upper incomplete gamma function Q(df/2, x/2), computed by its power
series below the mean and by its continued fraction above it (Numerical
Recipes, section 6.2).  ``pearson`` pools sparse bins and returns the
statistic with its degrees of freedom.
"""

import math

_EPS = 1e-15
_TINY = 1e-300
_MAX_TERMS = 10_000


def chi2_sf(x, df):
    """P(X >= x) for X chi-squared with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("df must be at least 1")
    if x <= 0:
        return 1.0
    a, y = df / 2, x / 2
    scale = math.exp(a * math.log(y) - y - math.lgamma(a))
    if y < a + 1:
        return 1.0 - scale * _lower_series(a, y)
    return scale * _upper_fraction(a, y)


def _lower_series(a, y):
    """The series of P(a, y), without its factor ``y^a e^-y / Gamma(a)``."""
    term = total = 1.0 / a
    for i in range(1, _MAX_TERMS):
        term *= y / (a + i)
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise ArithmeticError("incomplete gamma series did not converge")


def _upper_fraction(a, y):
    """The continued fraction of Q(a, y), without its factor
    ``y^a e^-y / Gamma(a)``, by the modified Lentz method."""
    b = y + 1 - a
    c = 1 / _TINY
    d = 1 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) >= _TINY else _TINY
        h *= d * c
        if abs(d * c - 1) < _EPS:
            return h
    raise ArithmeticError("incomplete gamma fraction did not converge")


def pearson(observed, probabilities, trials, min_expected=5):
    """Pearson's statistic of ``observed`` (key -> count) against the
    exact ``probabilities`` (key -> probability) over ``trials`` draws,
    and its degrees of freedom.

    Bins are pooled in increasing order of expected count until each
    pool expects at least ``min_expected``; a short remainder joins the
    last pool.  A key observed with probability zero raises
    ``ValueError``: no statistic measures that misfit.
    """
    stray = set(observed) - {key for key, p in probabilities.items() if p}
    if stray:
        raise ValueError(f"{len(stray)} keys observed outside the support")
    bins = sorted((p * trials, observed.get(key, 0))
                  for key, p in probabilities.items() if p)
    cells = []
    expected = hits = 0
    for e, o in bins:
        expected += e
        hits += o
        if expected >= min_expected:
            cells.append((expected, hits))
            expected = hits = 0
    if expected:
        if not cells:
            raise ValueError("too few trials for one pooled bin")
        last_e, last_o = cells.pop()
        cells.append((last_e + expected, last_o + hits))
    if len(cells) < 2:
        raise ValueError("fewer than two pooled bins")
    stat = sum(float((o - e) ** 2 / e) for e, o in cells)
    return stat, len(cells) - 1
