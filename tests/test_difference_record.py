"""Diagonal differences as data.

``operators.difference(u, w)`` takes two powers ``T^p v`` and ``T^q v`` of
one diagonal operator on one base (``v`` itself is ``T^0 v``) and returns
the record ``(symbol, p, q, v)``.  Its coordinates and certificate must
equal the closure vector ``lin_comb([1.0, -1.0], [u, w])`` bit for bit,
any other pair must raise ValueError, and no vector in ``src/orbitlab`` is
a ``lin_comb`` of an ``apply`` or ``power_apply`` any more: every
difference of powers is built by ``difference``.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitlab import gallery, operators
from orbitlab.operators import (DiagonalOperator, constant_symbol, difference, harmonic_symbol,
                                power_apply, root_perturbed_symbol)
from orbitlab.seqspace import basis_vector, constant_one, from_prefix, lin_comb

_SRC = pathlib.Path(operators.__file__).parent
_SYMBOLS = st.one_of(
    st.builds(harmonic_symbol, st.floats(0.5, 2.0)),
    st.builds(root_perturbed_symbol, st.integers(1, 5), st.floats(0.5, 2.0)),
    st.builds(constant_symbol, st.floats(0.0, 6.3)))
_SMALL = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_PROBES = st.one_of(
    st.just(constant_one()),
    st.builds(basis_vector, st.integers(1, 80), st.just("c")),
    st.builds(from_prefix, st.lists(_SMALL, min_size=1, max_size=64), _SMALL))
# the one lin_comb of an apply that is not a difference: the half-sum (I + T) / 2
_SUMS = {("jdlg.py", "AveragedOperator.apply")}


def _bits(v, ks):
    coords = v.coords(ks)
    return (np.stack([coords.real, coords.imag]).view(np.uint64).tolist(),
            [v.limit.real, v.limit.imag, *v.tail, v.majorant])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sym=_SYMBOLS, x=_PROBES, data=st.data())
def test_difference_equals_the_closure_vector(sym, x, data):
    op = DiagonalOperator(sym, "c")
    base = data.draw(st.sampled_from(["x", "T x", "product"]), label="base")
    if base == "T x":
        x = op.apply(x)
    elif base == "product":
        x = lin_comb([1.0, -1.0], [power_apply(op, 5, x), power_apply(op, 2, x)])
    p, q = (data.draw(st.integers(0, 10**5), label=n) for n in "pq")
    u, w = power_apply(op, p, x), op.apply(x) if q == 1 else power_apply(op, q, x)
    lo = data.draw(st.integers(1, 10**6), label="first index")
    ks = np.arange(lo, lo + data.draw(st.integers(1, 300), label="count"))
    assert _bits(difference(u, w), ks) == _bits(lin_comb([1.0, -1.0], [u, w]), ks)


def test_other_pairs_raise():
    op, one = DiagonalOperator(harmonic_symbol(), "c"), constant_one()
    other = DiagonalOperator(root_perturbed_symbol(3), "c")
    with pytest.raises(ValueError):  # two bases
        difference(op.apply(one), op.apply(constant_one()))
    with pytest.raises(ValueError):  # two operators
        difference(op.apply(one), other.apply(one))
    with pytest.raises(ValueError):  # a negative exponent
        difference(op.apply(one), op.power(-1).apply(one))
    with pytest.raises(ValueError):  # T^2 of T x is a power of T x, not of x
        difference(one, power_apply(op, 2, op.apply(one)))


def test_powers_of_a_power_are_powers_of_its_symbol():
    # T = S^3: T^2 x and T x on the base x are S^6 x and S^3 x
    sym = harmonic_symbol(1.3)
    op, x = DiagonalOperator(sym.power(3), "c"), from_prefix([0.5, -0.25j], 0.6 - 0.8j)
    v = difference(power_apply(op, 2, x), op.apply(x))
    assert (v.coord.p, v.coord.q, v.coord.symbol) == (6, 3, sym)
    # T^2 x and x: the powers 1 and 0 of the symbol of T^2
    w = difference(power_apply(op, 2, x), x)
    assert (w.coord.p, w.coord.q, w.coord.symbol) == (1, 0, sym.power(6))
    ks = np.arange(1, 200)
    assert _bits(v, ks) == _bits(lin_comb([1.0, -1.0], [power_apply(op, 2, x), op.apply(x)]),
                                 ks)


def test_a_tiny_negative_rotation_reduces_to_angle_zero():
    # np.mod(-1e-20, 2 pi) rounds up to 2 pi; reduced to 0, the coordinates
    # of T, its limit and the power rule agree
    sym, ks = constant_symbol(-1e-20), np.arange(1, 5)
    assert (sym.values(ks) == sym.limit_value).all()
    assert np.array_equal(sym.angles(ks), sym.power_angles(np.array([[1]]), ks)[0])


def _lin_combs_of_powers(path: pathlib.Path):
    """``(file, function)`` of each ``lin_comb`` call in ``path`` that takes an
    ``apply(...)`` or ``power_apply(...)`` call among its vectors."""
    found = []

    def is_power(node):
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "power_apply")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "apply"))

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "lin_comb" and len(child.args) > 1):
                vectors = child.args[1]
                elts = (vectors.elts if isinstance(vectors, (ast.List, ast.Tuple))
                        else [getattr(vectors, "elt", vectors)])
                if any(is_power(e) for e in elts):
                    found.append((path.name, ".".join(scope)))
            walk(child, scope)

    walk(ast.parse(path.read_text()), [])
    return found


def test_no_lin_comb_of_powers_in_the_package():
    found = [f for path in sorted(_SRC.glob("*.py")) for f in _lin_combs_of_powers(path)]
    assert set(found) == _SUMS and len(found) == len(_SUMS), found
    for module, name in ((operators, "difference_certificates"), (operators, "_negated_term"),
                         (operators, "_difference_rows"), (gallery, "_ladder_vector")):
        assert not hasattr(module, name), name
