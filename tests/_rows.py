"""Ad hoc catalog entries for the tests, each given by its factor row alone."""

from logcoef.catalog import AnalyticFunction, Row


def entry_from_coeffs(coeffs):
    """The polynomial z P with coefficients (0, 1, P_1, P_2), P of degree <= 2 and
    P(0) = 1: the row (P, 1) at a = 0, whose evaluator comes from the row."""
    return AnalyticFunction("adhoc", Row(((tuple(coeffs[1:]), 1.0),), 0.0, 1.0), {})
