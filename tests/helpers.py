"""Curve builders and small utilities shared across the test suite."""

from castleqec import codes, kernels
from castleqec.codes import LinearCode
from castleqec.curves import (
    EvaluationSet,
    hyperelliptic_even,
    hyperelliptic_odd,
    norm_trace_quotient,
    sep_variable_curve,
    suzuki_curve,
)
from castleqec.fields import GF


def elliptic_gf4():
    return hyperelliptic_even(GF(4), [0, 0, 0, 1], tag="elliptic-gf4")  # y^2 + y = x^3


def elliptic_gf9():
    return sep_variable_curve(GF(9), [0, 0, 1], [0, 1, 0, 1], tag="elliptic-gf9")  # y^2 = x^3 + x


def elliptic_gf3():
    return hyperelliptic_odd(GF(3), [1, 2, 0, 1], tag="elliptic-gf3")  # y^2 = x^3 - x + 1


def hermitian_gf9():
    return sep_variable_curve(GF(9), [0, 1, 0, 1], [0, 0, 0, 0, 1], tag="hermitian-gf9")


def hermitian_gf16():
    return sep_variable_curve(GF(16), [0, 1, 0, 0, 1], [0, 0, 0, 0, 0, 1], tag="hermitian-gf16")


def hyper_even_45():
    return hyperelliptic_even(GF(16), [0, 0, 0, 0, 0, 1], tag="hyper-even-45")  # y^2 + y = x^5


def maximal_gf81():
    F = GF(81)
    a = int(F.exp[5])  # satisfies a^9 + a = 0, a nonzero
    return sep_variable_curve(F, [0, 1, 0, 1], [0] * 10 + [a], tag="maximal-gf81")


def maximal_gf64():
    return sep_variable_curve(GF(64), [0, 1, 1, 0, 1], [0] * 9 + [1], tag="maximal-gf64")


def maximal_2_6():
    return hyperelliptic_even(GF(64), [0] * 9 + [1], tag="maximal-2-6")


def twisted_gf9():
    # y^2 = x^9 - x + 1: Castle over GF(9), self-dual only up to a twist
    return hyperelliptic_odd(GF(9), [1, 2] + [0] * 7 + [1], tag="twisted-gf9")


def suzuki8():
    return suzuki_curve(2)


def ntq_gf16():
    return norm_trace_quotient(2, 4, 3)


def nt_gf8():
    return norm_trace_quotient(2, 3, 7)


def evset(builder, **kwargs):
    return EvaluationSet(builder(), **kwargs)


def random_code(rng, q, k, n):
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    return LinearCode(GF(q), n, rows)


def count_enumerations(monkeypatch):
    """Empty the weight memo; returns the list of G shapes the engine is given from now on."""
    codes._enumerated.cache_clear()
    codes._enumerated_dual.cache_clear()
    seen = []
    original = kernels.enumerate_weights

    def counting(field, G):
        seen.append(G.shape)
        return original(field, G)

    monkeypatch.setattr(kernels, "enumerate_weights", counting)
    return seen
