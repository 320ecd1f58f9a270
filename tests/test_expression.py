"""The one expression grammar, ``exactalg.parse_expression``, as ``tmf-member``
reads forms in c4, c6, Delta and as the E2 presentations read their rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfkit.anss import E2Presentation
from tmfkit.cli import parse_form
from tmfkit.exactalg import ExpressionError, PolynomialRing, parse_expression
from tmfkit.modforms import C4, C6, DELTA, HomogeneityError, MFPolynomial, monomial_weight

grammar_settings = settings(derandomize=True, max_examples=150, deadline=None)

# levels of the grammar: a text at level L parses as that nonterminal
EXPR, TERM, FACTOR, ATOM = range(4)


def trees(names):
    """Expression trees over small ints and ``names``."""
    leaves = st.integers(0, 12).map(lambda n: ("int", n)) | st.sampled_from(names).map(lambda v: ("name", v))

    def grow(sub):
        return st.one_of(
            st.tuples(st.sampled_from(("+", "-", "*", " ")), sub, sub),
            st.tuples(st.just("neg"), sub),
            st.tuples(st.just("^"), sub, st.integers(0, 3)),
            st.tuples(st.just("()"), sub),
        )

    return st.recursive(leaves, grow, max_leaves=8)


def render(tree):
    """(text, level): ``tree`` written in the grammar, with the parentheses
    its shape needs and no others."""
    kind = tree[0]
    if kind in ("int", "name"):
        return str(tree[1]), ATOM
    if kind == "()":
        return "(%s)" % render(tree[1])[0], ATOM
    if kind == "^":
        return "%s^%d" % (at_least(tree[1], ATOM), tree[2]), FACTOR
    if kind == "neg":
        return "-" + at_least(tree[1], FACTOR), FACTOR
    op, left, right = tree
    if op in "+-":
        return "%s %s %s" % (at_least(left, EXPR), op, at_least(right, TERM)), EXPR
    right_text = at_least(right, FACTOR)
    if op == " " and right_text.startswith("-"):
        right_text = "(%s)" % right_text  # a juxtaposed "-" would subtract
    return "%s%s%s" % (at_least(left, TERM), op, right_text), TERM


def at_least(tree, level):
    text, got = render(tree)
    return text if got >= level else "(%s)" % text


def evaluate(tree, symbols, const):
    kind = tree[0]
    if kind == "int":
        return const(tree[1])
    if kind == "name":
        return symbols[tree[1]]
    if kind == "()":
        return evaluate(tree[1], symbols, const)
    if kind == "neg":
        return -evaluate(tree[1], symbols, const)
    if kind == "^":
        return evaluate(tree[1], symbols, const) ** tree[2]
    op, left, right = tree
    a, b = evaluate(left, symbols, const), evaluate(right, symbols, const)
    return a + b if op == "+" else a - b if op == "-" else a * b


FORMS = {"c4": C4, "c6": C6, "Delta": DELTA}


def mf_const(n):
    return MFPolynomial.monomial(0, 0, 0, n)


@grammar_settings
@given(trees(sorted(FORMS)), st.booleans())
def test_forms_parse_to_the_value_their_tree_builds(tree, plus):
    text = ("+" if plus else "") + render(tree)[0]
    want = evaluate(tree, FORMS, mf_const)
    if want.weight is None and want.terms:
        with pytest.raises(HomogeneityError):
            parse_form(text)
    else:
        got = parse_form(text)
        assert (got, got.weight) == (want, want.weight), text


@grammar_settings
@given(trees(["alpha", "beta", "c4", "c6", "Delta"]), st.booleans())
def test_presentation_expressions_parse_to_the_value_their_tree_builds(tree, plus):
    pres = E2Presentation.builtin("p3")
    ring = PolynomialRing([g.name for g in pres.generators])
    text = ("+" if plus else "") + render(tree)[0]
    want = evaluate(tree, dict(zip(ring.variables, ring.gens())), ring.const)
    assert pres.expression(text) == want.terms, text


def normal_forms():
    """Homogeneous MFPolynomials with every c6-exponent at most 1."""
    def of_weight(w):
        monos = [(i, j, k) for k in range(w // 12 + 1) for j in (0, 1) for i in range(w // 4 + 1)
                 if monomial_weight(i, j, k) == w]
        return st.lists(st.integers(-3000, 3000), min_size=len(monos), max_size=len(monos)).map(
            lambda cs: MFPolynomial(dict(zip(monos, cs)), w))

    return st.sampled_from(range(0, 40, 2)).flatmap(of_weight)


@grammar_settings
@given(normal_forms())
def test_form_text_round_trip(p):
    got = parse_form(str(p))
    assert got == p and (got.weight == p.weight or not p.terms)


def test_juxtaposition_multiplies():
    assert parse_form("c4 c6") == parse_form("c4*c6") == C4 * C6
    assert parse_form("2 c4^3 Delta") == parse_form("2c4^3*Delta") == 2 * C4 ** 3 * DELTA
    assert parse_form("2 3 Delta") == 6 * DELTA
    assert parse_form("c4 (c4 - c4)") == MFPolynomial.zero(8)


def test_leading_plus():
    assert parse_form("+c4") == parse_form("+ c4") == C4
    assert parse_form("+ -c4") == parse_form("-c4") == -C4


def test_errors_carry_a_column():
    cases = {
        "c4 +": 5,  # one past the end
        "c4 ^ c6": 6,
        "(c4": 4,
        "c4)": 3,
        "c4 / 2": 4,
        "c4 + q5": 6,
        "c4^-1": 4,
        "c4 *": 5,
        "": 1,
    }
    for text, column in cases.items():
        with pytest.raises(ExpressionError) as err:
            parse_expression(text, FORMS, mf_const)
        assert err.value.column == column, text
