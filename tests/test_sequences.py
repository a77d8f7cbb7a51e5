import dataclasses
import pickle
import random
import re
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potseq.search import enumerate_graphic_sequences
from potseq.sequences import (
    MAX_TERMS,
    DegreeSequence,
    NotationError,
    _eg_ok,
    graphic_4321,
    is_graphic,
    is_graphic_layoff,
    layoff,
    low_degree_graphic_guarantee,
    parse_notation,
    render_notation,
    shape_of,
)


def seq(text):
    return parse_notation(text)


# --- notation ---------------------------------------------------------------


def test_parse_expands_exponents():
    s = seq("5^2,4^6")
    assert s.terms == (5, 5, 4, 4, 4, 4, 4, 4)
    assert s.n == 8


def test_parse_plain_list():
    assert seq("2,2,2").terms == (2, 2, 2)


def test_parse_strips_and_counts_zeros():
    s = seq("5^2,3^4,0^2")
    assert s.terms == (5, 5, 3, 3, 3, 3)
    assert s.n == 6
    assert s.stripped_zeros == 2


def test_parse_sorts_any_order():
    assert seq("3,5,4,5").terms == (5, 5, 4, 3)


def test_parse_accepts_whitespace():
    assert seq(" 5 ^ 2 , 4 ").terms == (5, 5, 4)


@pytest.mark.parametrize(
    "text,terms",
    [
        ("\t5\n^\x0b2", (5, 5)),  # any str.isspace whitespace around numbers and ^
        ("\u0663,3", (3, 3)),  # ARABIC-INDIC DIGIT THREE is a decimal digit
    ],
)
def test_parse_accepts_isspace_and_isdecimal(text, terms):
    assert seq(text).terms == terms


@pytest.mark.parametrize(
    "bad",
    [
        "", "  ", "5,,4", "a", "5^", "^3", "5^-1", "-3", "5^0", "3.5",
        "\u00b2",  # SUPERSCRIPT TWO is a digit but not a decimal
        "+5", "5_0", "1^+2",  # int() takes these, the grammar does not
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(NotationError):
        parse_notation(bad)


def test_parse_refuses_literals_over_max_terms():
    # the running count is checked first, so a broken guard fails here,
    # before the huge literals below could allocate anything
    with pytest.raises(NotationError):
        parse_notation(f"2^{MAX_TERMS},1")
    for text in ("1^10000000000", "1^" + "9" * 5000, "9" * 5000):
        with pytest.raises(NotationError):
            parse_notation(text)
    assert parse_notation(f"1^{MAX_TERMS}").n == MAX_TERMS
    # a plain list of MAX_TERMS items is read whole; one more item goes to
    # the per-item loop, which names it
    plain = ",".join(["1"] * MAX_TERMS)
    assert parse_notation(plain).n == MAX_TERMS
    with pytest.raises(NotationError, match=f"more than {MAX_TERMS} terms") as exc:
        parse_notation(plain + ",1")
    assert exc.value.token == "1"


@pytest.mark.parametrize(
    "text,token,message",
    [
        pytest.param("5,x7,3", "x7", "malformed item", id="x7"),
        # the bad item late in a plain list
        pytest.param("5,4,+3", "+3", "malformed item", id="late-sign"),
        pytest.param("5,4,3 3", "3 3", "malformed item", id="late-inner-space"),
        pytest.param("5,,4", "", "malformed item", id="late-empty"),
        pytest.param("1," + "9" * 5000, "9" * 5000, "number too long", id="late-too-long"),
    ],
)
def test_parse_error_names_token(text, token, message):
    with pytest.raises(NotationError) as exc:
        parse_notation(text)
    assert exc.value.token == token
    assert str(exc.value).startswith(message + ": ")


@pytest.mark.parametrize(
    "terms,text",
    [
        ((5, 5, 4, 4, 4, 4, 4, 4), "5^2,4^6"),
        ((2, 2, 2), "2^3"),
        ((6, 5, 3, 3, 3, 3, 3, 2), "6,5,3^5,2"),
    ],
)
def test_render_canonical(terms, text):
    assert render_notation(DegreeSequence(terms)) == text


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=40))
def test_parse_render_round_trip(values):
    s = DegreeSequence.of(values)
    assert parse_notation(render_notation(s)) == s


def test_render_long_run():
    assert render_notation(parse_notation("2^1000000")) == "2^1000000"


def test_sequence_iterates_measures_and_prints_its_terms():
    s = seq("5^2,3,1^2")
    assert list(s) == [5, 5, 3, 1, 1]
    assert len(s) == s.n == 5
    assert str(s) == "5^2,3,1^2"


# The grammar as a regular expression: the reference for parse_notation.
# Python's \s and \d on str patterns are str.isspace and str.isdecimal.
_ITEM_RE = re.compile(r"^\s*(\d+)\s*(?:\^\s*(\d+)\s*)?$")


def reference_parse(text):
    """(terms, stripped_zeros) of a literal, by the regular expression."""
    if text is None or not text.strip():
        raise NotationError(text or "", "empty sequence literal")
    values = []
    for item in text.split(","):
        m = _ITEM_RE.match(item)
        if m is None:
            raise NotationError(item.strip() or item, "malformed item")
        try:
            value = int(m.group(1))
            count = 1 if m.group(2) is None else int(m.group(2))
        except ValueError:
            raise NotationError(item.strip(), "number too long") from None
        if count < 1:
            raise NotationError(item.strip(), "repeat count must be >= 1")
        if len(values) + count > MAX_TERMS:
            raise NotationError(item.strip(), f"literal has more than {MAX_TERMS} terms")
        values.extend([value] * count)
    return tuple(sorted((v for v in values if v), reverse=True)), values.count(0)


def parsed(text):
    s = parse_notation(text)
    return s.terms, s.stripped_zeros


def outcome(parse, text):
    try:
        result = parse(text)
    except NotationError as exc:
        return ("error", exc.token, str(exc))
    return ("ok", result)


# ASCII and Unicode digits (DIGIT ONE of MATHEMATICAL DOUBLE-STRUCK is a
# decimal, SUPERSCRIPT TWO is not), whitespace that str.isspace accepts
# (\x1c is a separator, \xa0 and U+3000 are spaces), and other characters
# int() or float() would take.
LITERAL_ALPHABET = "0123456789\u0663\U0001d7d9\u00b2,,^^  \t\n\x0b\x1c\xa0\u3000+-_.ax"


@given(st.text(alphabet=LITERAL_ALPHABET, max_size=24))
@settings(max_examples=500, deadline=None)  # a count may expand to ~10**6 terms
def test_parse_matches_reference_regex(text):
    assert outcome(parsed, text) == outcome(reference_parse, text)


# Without ^, long literals: the int() route sees lists of many items.
@given(st.text(alphabet=LITERAL_ALPHABET.replace("^", ""), max_size=60))
@settings(max_examples=500, deadline=None)
def test_parse_plain_lists_match_reference_regex(text):
    assert outcome(parsed, text) == outcome(reference_parse, text)


def test_trusted_construction_keeps_public_check():
    with pytest.raises(ValueError, match=re.escape("terms not non-increasing: (1, 2)")):
        DegreeSequence((1, 2))
    with pytest.raises(ValueError, match=re.escape("terms must be positive: (2, 0)")):
        DegreeSequence((2, 0))
    with pytest.raises(ValueError, match=re.escape("negative term: -1")):
        DegreeSequence.of([3, -1, 0])


@given(st.lists(st.integers(min_value=0, max_value=40), max_size=40))
def test_of_agrees_with_public_constructor(values):
    s = DegreeSequence.of(values)
    assert s == DegreeSequence(s.terms)
    assert s.stripped_zeros == values.count(0)
    assert type(s.terms) is tuple


def test_graphic_answer_is_stored_but_not_part_of_the_value():
    known, fresh = seq("5^2,4^6"), seq("5^2,4^6")
    assert is_graphic(known) is True
    assert known._graphic is True and fresh._graphic is None
    assert known == fresh and hash(known) == hash(fresh) and repr(known) == repr(fresh)
    assert [f.name for f in dataclasses.fields(known)] == ["terms", "stripped_zeros"]
    assert dataclasses.replace(known)._graphic is None
    assert pickle.dumps(known) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(known))
    assert back == known and back._graphic is None
    no = seq("3^3,1")
    assert is_graphic(no) is False and no._graphic is False
    assert is_graphic(no) is False


def test_trusted_answer_is_read_by_is_graphic_only():
    # a trusted caller's answer is taken as given; the layoff test, the
    # independent check, never reads it
    told = DegreeSequence._trusted((3, 3, 3, 1), 0, True)
    assert is_graphic(told) is True
    assert is_graphic_layoff(told) is False
    assert DegreeSequence._trusted((3, 3, 3, 1))._graphic is None


# --- sigma ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("5^2,4^6", 34), ("6^3,3^4", 30), ("5^2,3^4", 22)],
)
def test_sigma(text, value):
    assert seq(text).sigma == value


# --- layoff -----------------------------------------------------------------


def test_layoff_small_term():
    assert layoff(seq("4,3,3,2,1,1"), 6).terms == (3, 3, 3, 2, 1)
    normalized = layoff(seq("1,1"), 2)
    assert normalized.terms == () and normalized.stripped_zeros == 1


def test_layoff_resorts():
    assert layoff(seq("5^2,4^6"), 8).terms == (4, 4, 4, 4, 4, 3, 3)


def test_layoff_large_term_excludes_own_position():
    # d_2 = 3 >= 2: one is laid off against positions 1, 3, 4
    assert layoff(seq("3,3,3,3"), 2).terms == (2, 2, 2)


def test_layoff_default_is_the_classical_child():
    # the smallest term d_n laid off onto the d_n largest terms
    count = 0
    for n in range(1, 9):
        for s in enumerate_graphic_sequences(n):
            d = s.terms
            child = layoff(s)
            assert child == DegreeSequence.of([x - 1 for x in d[: d[-1]]] + list(d[d[-1] : -1])), d
            assert child.sigma == s.sigma - 2 * d[-1]
            assert is_graphic(child)
            count += 1
    assert count == 1 + 2 + 7 + 20 + 71 + 240 + 871


def test_layoff_index_errors():
    with pytest.raises(IndexError):
        layoff(seq("2,2,2"), 0)
    with pytest.raises(IndexError):
        layoff(seq("2,2,2"), 4)


def test_layoff_undefined_when_degree_too_large():
    with pytest.raises(ValueError):
        layoff(seq("2,2"), 2)


# --- graphicality -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,graphic",
    [
        ("3^3,1", False),
        ("4^3,2^2", False),
        ("5^6", True),
        ("5,5,5,5,3,3", False),
        ("2,1,1", True),
        ("1", False),
    ],
)
def test_is_graphic(text, graphic):
    assert is_graphic(seq(text)) is graphic


def test_empty_sequence_is_graphic():
    assert is_graphic(DegreeSequence(()))
    assert is_graphic_layoff(DegreeSequence(()))


def eg_every_r(terms):
    """Erdos-Gallai as stated: even sum and every one of the n inequalities."""
    if sum(terms) % 2:
        return False
    return all(
        sum(terms[:r]) <= r * (r - 1) + sum(min(d, r) for d in terms[r:])
        for r in range(1, len(terms) + 1)
    )


def test_eg_kernel_matches_every_r_reference():
    # every non-increasing sequence with n <= 9 and terms 0..n+1, so zero
    # terms and d1 >= n are covered, given both as a tuple and as a list
    count = 0
    for n in range(10):
        for terms in combinations_with_replacement(range(n + 1, -1, -1), n):
            want = eg_every_r(terms)
            assert _eg_ok(terms) is want and _eg_ok(list(terms)) is want, terms
            count += 1
    assert count == 125_476


def test_eg_kernel_two_valued_boundary():
    # (b^k, a^(n-k)) is where the O(1) acceptance 4an >= (a+b+1)^2 is
    # tight, so every even-sum one with n <= 24 is checked on both sides of
    # the bound, against the layoff test, which shares no code with it
    count = accepted = 0
    for n in range(1, 25):
        for a in range(1, n):
            for b in range(a, n):
                for k in range(1, n + 1):
                    terms = (b,) * k + (a,) * (n - k)
                    if sum(terms) % 2:
                        continue
                    want = is_graphic_layoff(DegreeSequence(terms))
                    assert _eg_ok(terms) is want, terms
                    count += 1
                    accepted += 4 * a * n >= (a + b + 1) ** 2
    assert count == 27_392
    assert 0 < accepted < count


def gnp_half_degrees(n, seed):
    """Degrees of G(n, 1/2), non-increasing.  Row u of the upper triangle
    holds one random bit in each 16-bit slot v > u, so the sum of the rows
    holds every vertex's count of neighbors below it."""
    rng = random.Random(seed)
    ones = int.from_bytes(b"\x01\x00" * n, "little")
    above, columns = [], 0
    for u in range(n):
        row = rng.getrandbits(16 * n) & ones >> 16 * (u + 1) << 16 * (u + 1)
        above.append(row.bit_count())
        columns += row
    return sorted((d + (columns >> 16 * v & 0xFFFF) for v, d in enumerate(above)), reverse=True)


def test_eg_kernel_spot_checks_against_layoff():
    dense = gnp_half_degrees(3000, 1)
    cases = [
        ((2,) * 1_000_000, True),
        ((2,) * 999_999 + (1,), False),
        (tuple(dense), True),
        (tuple(dense[:-1]) + (dense[-1] - 1,), False),
        ((1000,) * 1001, True),
        ((1000,) * 1000 + (999,), False),
    ]
    for terms, graphic in cases:
        assert _eg_ok(terms) is graphic, terms[:3]
        assert is_graphic_layoff(DegreeSequence(terms)) is graphic, terms[:3]


def test_layoff_test_on_long_and_dense_sequences():
    cases = [
        ("2^200000", True),
        ("3,2^199999", False),
        ("900^500,600^400,300^200,2^101", True),
        ("1300^700,1^700", False),
    ]
    for text, graphic in cases:
        assert is_graphic_layoff(seq(text)) is is_graphic(seq(text)) is graphic, text


def all_sequences(max_n, max_term):
    for n in range(1, max_n + 1):
        for terms in combinations_with_replacement(range(max_term, 0, -1), n):
            yield DegreeSequence(tuple(sorted(terms, reverse=True)))


def test_dual_test_agreement_exhaustive_small():
    for s in all_sequences(6, 5):
        assert is_graphic(s) == is_graphic_layoff(s), s.terms


def test_dual_test_agreement_random():
    rng = random.Random(20240817)
    for _ in range(100_000):
        n = rng.randint(1, 30)
        s = DegreeSequence.of(rng.randint(0, n - 1) if n > 1 else 0 for _ in range(n))
        assert is_graphic(s) == is_graphic_layoff(s), s.terms


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12))
@settings(max_examples=300)
def test_graphic_implies_even_sigma(values):
    s = DegreeSequence.of(values)
    if is_graphic(s):
        assert s.sigma % 2 == 0


def test_layoff_preserves_graphicality_small():
    for s in all_sequences(6, 5):
        want = is_graphic(s)
        for k in range(1, s.n + 1):
            try:
                residual = layoff(s, k)
            except ValueError:
                continue
            assert is_graphic(residual) == want, (s.terms, k)


# --- helper criteria --------------------------------------------------------


def test_low_degree_guarantee_examples():
    assert low_degree_graphic_guarantee(seq("3^4")) is True
    assert low_degree_graphic_guarantee(seq("3,1,1,1")) is True
    # both listed exceptions are refused
    assert low_degree_graphic_guarantee(seq("3^3,1")) is False
    assert low_degree_graphic_guarantee(seq("3^2,1^2")) is False
    # hypotheses: max degree, length, parity
    assert low_degree_graphic_guarantee(seq("4,3,3,2")) is False
    assert low_degree_graphic_guarantee(seq("2,1,1")) is False
    assert low_degree_graphic_guarantee(seq("3,2,1,1")) is False


def test_low_degree_guarantee_sound():
    for s in all_sequences(10, 3):
        if low_degree_graphic_guarantee(s):
            assert is_graphic(s), s.terms


def test_graphic_4321_examples():
    assert graphic_4321(3, 0, 2, 0) is False  # (4^3,2^2)
    assert graphic_4321(4, 0, 1, 0) is False  # (4^4,2)
    assert graphic_4321(1, 2, 2, 0) is True  # (4,3,3,2,2)
    assert graphic_4321(0, 2, 2, 0) is None  # needs x >= 1
    assert graphic_4321(1, 1, 0, 1) is None  # odd sum
    assert graphic_4321(1, 0, 2, 0) is None  # n < 5


def test_graphic_4321_refuses_a_negative_multiplicity():
    with pytest.raises(ValueError, match="multiplicities must be nonnegative"):
        graphic_4321(-1, 0, 0, 0)


def test_graphic_4321_matches_inequality_test():
    for x in range(0, 11):
        for y in range(0, 11 - x):
            for z in range(0, 11 - x - y):
                for m in range(0, 11 - x - y - z):
                    got = graphic_4321(x, y, z, m)
                    if got is None:
                        continue
                    s = DegreeSequence((4,) * x + (3,) * y + (2,) * z + (1,) * m)
                    assert got == is_graphic(s), (x, y, z, m)


# --- shape ------------------------------------------------------------------


def test_shape_all_threes():
    sh = shape_of(seq("6^3,3^4"))
    assert sh.matches and sh.head == (6, 6, 6) and (sh.k, sh.t, sh.ones) == (4, 0, 0)


def test_shape_rejects_tail_four():
    assert shape_of(seq("5^2,4^6")).matches is False


def test_shape_positional_counts():
    sh = shape_of(seq("7,5,3^6,1"))
    assert sh.matches and sh.head == (7, 5, 3) and (sh.k, sh.t, sh.ones) == (5, 0, 1)


def test_shape_counts_partition_tail_when_matching():
    for s in all_sequences(8, 6):
        if s.n < 3:
            continue
        sh = shape_of(s)
        if sh.matches:
            assert sh.k + sh.t + sh.ones == s.n - 3


def test_shape_too_short():
    assert shape_of(seq("3,3")) is None
