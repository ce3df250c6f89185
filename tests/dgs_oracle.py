"""The printed m = 1 forms of the one- and two-distance bounds (Delsarte,
Goethals & Seidel), the acceptance oracle for the general bounds at m = 1.
"""

from fractions import Fraction


def dgs_one_distance(alpha, n):
    "printed m=1 one-distance form n(1-alpha)/(1-n*alpha)"
    alpha = Fraction(alpha)
    return Fraction(n) * (1 - alpha) / (1 - n * alpha)


def dgs_two_distance(alpha, beta, n):
    "printed m=1 two-distance form n(n+1)(1-a)(1-b)/(2-(n+1)(a+b)+n(n+1)ab)"
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    den = 2 - (n + 1) * (alpha + beta) + n * (n + 1) * alpha * beta
    return Fraction(n) * (n + 1) * (1 - alpha) * (1 - beta) / den
