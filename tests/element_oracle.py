"""Term arithmetic of ``rht.cdga.Element`` as plain loops: a test-only oracle.

These are the accumulate-from-zero loops the algebra used before its fast
path: every coefficient goes through ``Fraction``, every new key starts from
zero, every product multiplies by its sign, and results are normalised by the
public ``Element`` constructor.  The algebra's own arithmetic must agree with
them term for term, and must call ``mul_keys`` and ``d_key`` exactly as often.
"""

from fractions import Fraction

ZERO = Fraction(0)


def _add_into(out, k, v):
    v = out.get(k, ZERO) + v
    if v:
        out[k] = v
    elif k in out:
        del out[k]


def add(t1, t2):
    out = dict(t1)
    for k, c in t2.items():
        _add_into(out, k, c)
    return out


def neg(t):
    return {k: -c for k, c in t.items()}


def scale(t, c):
    f = Fraction(c)
    return {k: v * f for k, v in t.items() if v * f}


def mul(alg, t1, t2):
    out = {}
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            for k, s in alg.mul_keys(k1, k2).items():
                _add_into(out, k, c1 * c2 * s)
    return out


def d(alg, t):
    out = {}
    for k, c in t.items():
        for dk, dc in alg.d_key(k).items():
            _add_into(out, dk, c * dc)
    return out


def _signed_integral(alg, t, i):
    return {k: Fraction(c if alg.key_degree(k) % 2 == 0 else -c) * Fraction(1, i + 1)
            for k, c in t.items()}


def integrate_0_t(u):
    """Body of int_0^t u as {t-exponent: terms}."""
    out = {}
    for i, e in u.dt_part.items():
        terms = _signed_integral(u.alg, e.terms, i)
        if terms:
            out[i + 1] = terms
    return out


def integrate_0_1(u):
    out = {}
    for i, e in u.dt_part.items():
        out = add(out, _signed_integral(u.alg, e.terms, i))
    return out
