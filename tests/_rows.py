"""Ad hoc catalog entries and stacks of rows for the tests, each given by its rows alone."""

from logcoef.catalog import AnalyticFunction, Row


def entry_from_coeffs(coeffs):
    """The polynomial z P with coefficients (0, 1, P_1, P_2), P of degree <= 2 and
    P(0) = 1: the row (P, 1) at a = 0, whose evaluator comes from the row."""
    return AnalyticFunction("adhoc", Row(((tuple(coeffs[1:]), 1.0),), 0.0, 1.0), {})


def herglotz_rows(kind, alpha, x, t):
    """The members of M(alpha) (kind "M") or G(alpha) (kind "G") whose Herglotz
    measure puts weight t_k at the point x_k of the circle, as one row of arrays.

    x and t are (N, K) arrays, each row of t positive with sum 1; member j is
    row j.  Each point is a factor (1 - x_k z)^e_k: e_k = -2 t_k/alpha with
    a = beta = alpha in M(alpha), alpha > 0; -2 t_k with a = 0, beta = 1 in
    M(0), the starlike z prod (1 - x_k z)^(-2 t_k); and alpha t_k with
    a = beta = 1 in G(alpha), where f' = prod (1 - x_k z)^(alpha t_k).
    """
    if kind == "G":
        e, a, beta = alpha * t, 1.0, 1.0
    elif alpha == 0:
        e, a, beta = -2.0 * t, 0.0, 1.0
    else:
        e, a, beta = -2.0 * t / alpha, alpha, alpha
    return Row(tuple(((1.0, -xk), ek) for xk, ek in zip(x.T, e.T)), a, beta)
