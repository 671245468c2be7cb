"""Curve builders and small utilities shared across the test suite."""

from castleqec import codes, kernels
from castleqec.codes import LinearCode
from castleqec.curves import CATALOGUE, EvaluationSet, curve_from_json, hyperelliptic_odd
from castleqec.fields import GF

# One builder per named curve of CATALOGUE, each with its own __name__: test
# ids and the keys of per-curve tables come from it.  They build the curve
# alone, so callers choose the fibration and the subset.


def elliptic_gf4():
    return curve_from_json(CATALOGUE["elliptic-gf4"])


def elliptic_gf9():
    return curve_from_json(CATALOGUE["elliptic-gf9"])


def elliptic_gf3():
    return hyperelliptic_odd(GF(3), [1, 2, 0, 1], tag="elliptic-gf3")  # y^2 = x^3 - x + 1


def hermitian_gf9():
    return curve_from_json(CATALOGUE["hermitian-gf9"])


def hermitian_gf16():
    return curve_from_json(CATALOGUE["hermitian-gf16"])


def hyper_even_45():
    return curve_from_json(CATALOGUE["hyper-even-45"])


def maximal_gf81():
    return curve_from_json(CATALOGUE["maximal-gf81"])


def maximal_gf64():
    return curve_from_json(CATALOGUE["maximal-gf64"])


def maximal_2_6():
    return curve_from_json(CATALOGUE["maximal-2-6"])


def twisted_gf9():
    return curve_from_json(CATALOGUE["twisted-gf9"])


def suzuki8():
    return curve_from_json(CATALOGUE["suzuki8"])


def ntq_gf16():
    return curve_from_json(CATALOGUE["ntq-2-4-3"])


def nt_gf8():
    return curve_from_json(CATALOGUE["norm-trace-2-3-7"])


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
