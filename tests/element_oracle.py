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


# -- the interval algebra B (x) Q<t, dt> ----------------------------------------
#
# Here an interval element is a pair (body, dt) of dicts from t-exponents to
# base term dicts: body[i] is the coefficient of t^i, dt[i] that of t^i dt.
# These are the product and differential rules of the former two-part
# homotopy element class, which kept dt to the right of the coefficient.


def split(u):
    """(body, dt) of an element of ``rht.homotopy.interval_algebra(B)``."""
    parts = ({}, {})
    for (i, e, k), c in u.terms.items():
        parts[e].setdefault(i, {})[k] = c
    return parts


def _add_at(store, i, terms):
    merged = add(store.get(i, {}), terms)
    if merged:
        store[i] = merged
    else:
        store.pop(i, None)


def _parity_twist(alg, t):
    """(-1)^degree on each term: the sign of moving dt past it."""
    return {k: -c if alg.key_degree(k) % 2 else c for k, c in t.items()}


def interval_mul(alg, u, v):
    (body1, dt1), (body2, dt2) = u, v
    body, dt = {}, {}
    for i, x in body1.items():
        for j, y in body2.items():
            _add_at(body, i + j, mul(alg, x, y))
        for j, y in dt2.items():
            _add_at(dt, i + j, mul(alg, x, y))
    for i, x in dt1.items():
        for j, y in body2.items():
            _add_at(dt, i + j, mul(alg, x, _parity_twist(alg, y)))
        # dt * dt = 0
    return body, dt


def interval_d(alg, u):
    """d(b t^i) = db t^i + (-1)^deg(b) i b t^(i-1) dt, d(c t^i dt) = dc t^i dt."""
    body, dt = {}, {}
    for i, x in u[0].items():
        _add_at(body, i, d(alg, x))
        if i:
            _add_at(dt, i - 1, scale(_parity_twist(alg, x), i))
    for i, x in u[1].items():
        _add_at(dt, i, d(alg, x))
    return body, dt


def _signed_integral(alg, t, i):
    return {k: Fraction(c if alg.key_degree(k) % 2 == 0 else -c) * Fraction(1, i + 1)
            for k, c in t.items()}


def integrate_0_t(alg, u):
    """int_0^t u as (body, dt)."""
    body = {}
    for i, x in u[1].items():
        _add_at(body, i + 1, _signed_integral(alg, x, i))
    return body, {}


def integrate_0_1(alg, u):
    out = {}
    for i, x in u[1].items():
        out = add(out, _signed_integral(alg, x, i))
    return out
