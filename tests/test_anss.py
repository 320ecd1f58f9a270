import random
from math import gcd
from pathlib import Path

import pytest

from tmfkit import anss
from tmfkit.anss import (
    E2Presentation,
    PresentationError,
    class_order,
    differential_on_delta_power,
    normal_form,
    survivor_table,
)


def p3():
    return E2Presentation.builtin("tmf-p3")


def p2():
    return E2Presentation.builtin("tmf-p2")


def test_builtin_p3_shape():
    pres = p3()
    assert pres.prime == 3
    assert len(pres.generators) == 5
    assert len(pres.rules) + len(pres.torsion_rules) == 8
    assert len(pres.seeds) == 1 and pres.seeds[0].page == 5


@pytest.mark.parametrize("name, fname", [
    ("p2", "tmf_p2.txt"), ("tmf-p2", "tmf_p2.txt"), ("p3", "tmf_p3.txt"), ("tmf-p3", "tmf_p3.txt"),
])
def test_builtin_aliases_read_the_shipped_files(name, fname):
    shipped = Path(anss.__file__).with_name("presentations") / fname
    want = E2Presentation.parse(shipped.read_text(encoding="utf-8"))
    assert vars(E2Presentation.builtin(name)) == vars(want)


def test_builtin_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown built-in presentation"):
        E2Presentation.builtin("p5")


def test_builtin_p2_shape():
    pres = p2()
    assert pres.prime == 2
    assert len(pres.generators) == 9
    # the 29 printed relations plus one derived completion rule
    assert len(pres.rules) + len(pres.torsion_rules) == 30
    assert [s.page for s in pres.seeds] == [5, 7]
    assert pres.seeds[1].transfer == "quarter"
    inv = [g.name for g in pres.generators if g.invertible]
    assert inv == ["Delta"]


def test_parse_rejects_inhomogeneous_rule():
    text = "prime 3\ngen a stem=3 filt=1 order=3\ngen b stem=10 filt=2 order=3\nrel a -> b\n"
    with pytest.raises(PresentationError):
        E2Presentation.parse(text)


def test_parse_rejects_unknown_symbol():
    text = "prime 3\ngen a stem=3 filt=1 order=3\nrel a^2 -> zeta\n"
    with pytest.raises(PresentationError) as err:
        E2Presentation.parse(text)
    assert "zeta" in str(err.value) and "line 3" in str(err.value)


def test_parse_rejects_increasing_orientation():
    # c4^3 and c6^2 share bidegree, but with c6 listed first the larger
    # monomial is c6^2, so this orientation does not decrease
    text = (
        "prime 3\n"
        "gen c6 stem=12 filt=0 order=inf\n"
        "gen c4 stem=8 filt=0 order=inf\n"
        "rel c4^3 -> c6^2\n"
    )
    with pytest.raises(PresentationError) as err:
        E2Presentation.parse(text)
    assert "order" in str(err.value)


def test_parse_rejects_bad_seed_bidegree():
    text = (
        "prime 3\n"
        "gen alpha stem=3 filt=1 order=3\n"
        "gen Delta stem=24 filt=0 order=inf invertible\n"
        "d 5 Delta -> alpha\n"
    )
    with pytest.raises(PresentationError):
        E2Presentation.parse(text)


@pytest.mark.parametrize("attrs, bad", [
    ("stem=x filt=1 order=3", "stem='x'"),
    ("stem=3 filt=1.5 order=3", "filt='1.5'"),
    ("stem=3 filt=1 order=infinite", "order='infinite'"),
])
def test_parse_rejects_a_non_integer_generator_attribute(attrs, bad):
    text = "prime 3\ngen b stem=4 filt=0 order=inf\ngen a " + attrs + "\n"
    with pytest.raises(PresentationError) as err:
        E2Presentation.parse(text)
    assert err.value.line == 3
    assert str(err.value) == "line 3: generator attribute %s is not an integer" % bad


def test_parse_syntax_error_carries_location():
    with pytest.raises(PresentationError) as err:
        E2Presentation.parse("prime 3\ngen a stem=3 filt=1 order=3\nrel a^2 0\n")
    assert "line 3" in str(err.value)


def test_parse_error_columns_count_from_the_start_of_the_line():
    for line, column in (("rel a^2 -> zeta", 12), ("  rel a^2 -> zeta", 14), ("rel a^ -> 0", 8)):
        with pytest.raises(PresentationError) as err:
            E2Presentation.parse("prime 3\ngen a stem=3 filt=1 order=3\n" + line + "\n")
        assert (err.value.line, err.value.column) == (3, column)
        assert str(err.value).startswith("line 3, column %d: " % column)


def test_parse_rejects_a_generator_after_the_first_rule():
    # accepted before, and the rules read before the late gen kept shorter
    # exponent vectors: normal_form(pres, "a b") gave c^2 instead of c^2 b
    gens = "gen a stem=2 filt=0 order=inf\ngen c stem=1 filt=0 order=inf\n"
    late = "gen b stem=5 filt=0 order=inf\n"
    for rule in ("rel a -> c^2\n", "d 3 a -> 0\n"):
        with pytest.raises(PresentationError, match="^line 5: gen after the first rel or d line"):
            E2Presentation.parse("prime 3\n" + gens + rule + late)
    pres = E2Presentation.parse("prime 3\n" + gens + late + "rel a -> c^2\n")
    assert normal_form(pres, "a b").term_dict() == {pres.monomial(c=2, b=1): 1}


def test_parse_rejects_a_duplicate_generator():
    text = "prime 3\ngen a stem=3 filt=1 order=3\ngen a stem=4 filt=1 order=3\n"
    with pytest.raises(PresentationError) as err:
        E2Presentation.parse(text)
    assert err.value.line == 3 and "duplicate generator 'a'" in str(err.value)


def shipped_p3_text():
    return (Path(anss.__file__).with_name("presentations") / "tmf_p3.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("written", [
    "rel (c6)^2 -> (c4 c4)c4 - 1728 (Delta)",  # parentheses
    "rel c6^2 -> -1728 Delta - -c4^3",  # unary minus
])
def test_presentations_accept_parentheses_and_unary_minus(written):
    # both were rejected before the two parsers merged
    text = shipped_p3_text()
    assert "rel c6^2 -> c4^3 - 1728 Delta\n" in text
    got = E2Presentation.parse(text.replace("rel c6^2 -> c4^3 - 1728 Delta\n", written + "\n"))
    assert [(r.coeff, r.lhs, r.rhs) for r in got.rules] == [(r.coeff, r.lhs, r.rhs) for r in p3().rules]


def test_presentations_reject_a_trailing_star():
    # accepted before the two parsers merged
    text = shipped_p3_text()
    assert "rel alpha^2 -> 0\n" in text
    with pytest.raises(PresentationError) as err:
        E2Presentation.parse(text.replace("rel alpha^2 -> 0\n", "rel alpha^2* -> 0\n"))
    assert "expected a number, a name or '('" in str(err.value)


def test_normal_form_spot_checks():
    pres3, pres2 = p3(), p2()
    assert normal_form(pres3, "alpha^2").is_zero()
    nf = normal_form(pres2, "nu^3")
    assert nf.term_dict() == {pres2.monomial(eta=1, epsilon=1): 1}
    nf = normal_form(pres2, "c6^2")
    assert nf.term_dict() == {
        pres2.monomial(c4=3): 1,
        pres2.monomial(Delta=1): -1728,
    }


def test_normal_form_coefficient_canonicalization():
    pres = p3()
    nf = normal_form(pres, "- alpha beta^2")
    assert nf.term_dict() == {pres.monomial(alpha=1, beta=2): 2}  # -1 = 2 mod 3
    assert normal_form(pres, "3 alpha beta^2").is_zero()


def test_normal_form_with_inverted_delta():
    pres = p2()
    mono = pres.monomial(c6=2, Delta=-1)
    nf = normal_form(pres, {mono: 1})
    assert nf.term_dict() == {
        pres.monomial(c4=3, Delta=-1): 1,
        pres.monomial(): -1728,
    }


def test_normal_form_rejects_inhomogeneous():
    pres = p3()
    with pytest.raises(ValueError):
        normal_form(pres, {pres.monomial(alpha=1): 1, pres.monomial(beta=1): 1})


def test_class_orders():
    pres2, pres3 = p2(), p3()
    kn = normal_form(pres2, "kbar nu")
    assert class_order(pres2, kn) == 4
    # enumeration oracle: multiples 1..3 stay nonzero, 4 dies
    for m in range(1, 4):
        assert not normal_form(pres2, "%d kbar nu" % m).is_zero()
    assert normal_form(pres2, "4 kbar nu").is_zero()
    assert class_order(pres3, normal_form(pres3, "alpha beta^2")) == 3
    assert class_order(pres2, normal_form(pres2, "c4")) is None
    assert class_order(pres2, normal_form(pres2, "8 kbar")) == 1  # zero class


def test_kbar_torsion_is_eight():
    pres = p2()
    assert class_order(pres, normal_form(pres, "kbar")) == 8
    assert normal_form(pres, "nu^2 kappa").term_dict() == {pres.monomial(kbar=1): 4}


def test_leibniz_values_p3():
    pres = p3()
    seed = pres.seeds[0]
    d1 = differential_on_delta_power(pres, seed, 1, 1)
    assert d1.term_dict() == {pres.monomial(alpha=1, beta=2): 1}
    # d5(Delta^2) = 2 Delta d5(Delta), a unit multiple of Delta alpha beta^2
    d2 = differential_on_delta_power(pres, seed, 1, 2)
    doubled = normal_form(pres, {pres.monomial(alpha=1, beta=2, Delta=1): 2})
    assert d2 == doubled
    assert differential_on_delta_power(pres, seed, 3, 1).is_zero()  # d5(3 Delta) = 0


def test_d7_intermediate_p2():
    pres = p2()
    seed7 = pres.seeds[1]
    value = differential_on_delta_power(pres, seed7, 1, 4)
    assert value == normal_form(pres, "kbar eta^3 Delta^3")
    with pytest.raises(ValueError):
        differential_on_delta_power(pres, seed7, 1, 1)  # 4 does not divide 1


def test_survivor_tables():
    rep3 = survivor_table(p3(), 3)
    assert rep3.multipliers() == [3, 3, 1]
    rep2 = survivor_table(p2(), 8)
    assert rep2.multipliers() == [8, 4, 8, 2, 8, 4, 8, 1]
    k4 = rep2.entries[3]
    assert k4.last_page == 7
    assert k4.steps[0].vanishes
    assert k4.steps[1].target == "kbar eta^3 Delta^3"


def test_survivor_closed_forms_through_24():
    rep3 = survivor_table(p3(), 24)
    assert rep3.multipliers() == [3 // gcd(3, k) for k in range(1, 25)]
    rep2 = survivor_table(p2(), 24)
    assert rep2.multipliers() == [8 // gcd(8, k) for k in range(1, 25)]


def test_survivor_report_invariants():
    for rep in (survivor_table(p3(), 12), survivor_table(p2(), 12)):
        c1 = rep.entries[0].multiplier
        for entry in rep.entries:
            c = entry.multiplier
            assert c1 % c == 0
            while c % rep.prime == 0:
                c //= rep.prime
            assert c == 1  # a power of the prime (times a unit)


def random_homogeneous(pres, rng):
    """A random bidegree-homogeneous expression, possibly multi-term."""
    expo = tuple(rng.randint(0, 2) for _ in pres.generators)
    if not any(expo):
        expo = pres.monomial(Delta=1)
    terms = {expo: rng.randint(-30, 30)}
    if rng.random() < 0.6:
        # multiply both sides of a relation by the monomial: same bidegree
        rule = rng.choice(pres.rules + pres.torsion_rules)
        lifted = tuple(a + b for a, b in zip(expo, rule.lhs))
        terms[lifted] = terms.pop(expo)
        for mono, c in rule.rhs.items():
            key = tuple(a + b for a, b in zip(expo, mono))
            terms[key] = terms.get(key, 0) + rng.randint(-30, 30) * c
    return terms


def test_rewriting_confluence_sampling():
    rng = random.Random(61)
    for pres in (p3(), p2()):
        for _ in range(500):
            expr = random_homogeneous(pres, rng)
            a = normal_form(pres, dict(expr), rng=random.Random(rng.randrange(1 << 30)))
            b = normal_form(pres, dict(expr), rng=random.Random(rng.randrange(1 << 30)))
            c = normal_form(pres, dict(expr))
            assert a == b == c


def test_format_class_round_trip():
    rng = random.Random(67)
    for pres in (p3(), p2()):
        for _ in range(300):
            t = normal_form(pres, random_homogeneous(pres, rng)).term_dict()
            assert pres.expression(pres.format_class(t)) == t


def test_expression_parser_round_trip():
    pres = p2()
    expr = pres.expression("kbar c4 + 2 eta^4 Delta")
    nf = normal_form(pres, expr)
    # kbar c4 rewrites to eta^4 Delta; 3 = 1 mod 2
    assert nf.term_dict() == {pres.monomial(eta=4, Delta=1): 1}
