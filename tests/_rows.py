"""Ad hoc catalog entries and stacks of rows for the tests, each given by its rows alone."""

import numpy as np

from logcoef.catalog import AnalyticFunction, Row


def entry_from_coeffs(coeffs):
    """The polynomial z P with coefficients (0, 1, P_1, P_2), P of degree <= 2 and
    P(0) = 1: the row (P, 1) at a = 0, whose evaluator comes from the row."""
    return AnalyticFunction("adhoc", Row(((tuple(coeffs[1:]), 1.0),), 0.0, 1.0), {})


def stack_rows(fs):
    """The rows of entries with one factor each as one row of arrays, entry k
    at index k of every value, each P padded with zeros to degree 2."""
    (factor,) = zip(*(f.row.factors for f in fs))
    P = tuple(np.array(c) for c in zip(*(p + (0.0,) * (3 - len(p)) for p, _ in factor)))
    e = np.array([e for _, e in factor], dtype=float)
    a, beta, theta = (np.array(x, dtype=float) for x in zip(*(f.row[1:] for f in fs)))
    return Row(((P, e),), a, beta, theta)
