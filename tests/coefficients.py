"""The coefficient contract of term dicts, as the tests check it.

A stored coefficient is a nonzero ``int`` or ``Fraction``, never a ``bool``
or a ``float``.  A value that entered through an intake (the ``Element``
constructor, a ``FreeCdga`` differential, ``scalar``), that ``linalg``
returned (a ring's reduction rows among them), or that was computed from
ints alone, is an ``int`` exactly when it is whole.  Arithmetic with a
``Fraction`` may leave a whole ``Fraction``, so elsewhere only the first
form holds.
"""

from fractions import Fraction


def is_coefficient(c):
    """A nonzero int or Fraction, never a bool or a float."""
    return type(c) in (int, Fraction) and c != 0


def is_exact_coefficient(c):
    """A coefficient that is an int exactly when it is whole."""
    return is_coefficient(c) and (type(c) is int) == (c.denominator == 1)
