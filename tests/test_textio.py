import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import upsilonkit as uk
from upsilonkit.textio import ComplexParseError, parse_complex, serialize_complex
from helpers import CATALOG_SCAN, built

SAMPLE = """
# a staircase
gen a1 0 0 1
gen b1 1 1 1   # top corner
gen a2 0 1 0
d b1 = a1 + a2
d a1 = 0
"""


def test_parse_basic():
    C = parse_complex(SAMPLE)
    assert C.names == ("a1", "b1", "a2")
    assert {g.name: g for g in C.generators}["b1"].point == (1, 1)
    assert C.boundary["b1"] == frozenset({(0, "a1"), (0, "a2")})
    assert C.boundary["a1"] == frozenset()
    assert C.boundary["a2"] == frozenset()  # missing d line means zero


def test_parse_u_powers():
    C = parse_complex("gen a 0 0 0\ngen b 1 2 2\nd b = U^2 a\n")
    assert C.boundary["b"] == frozenset({(2, "a")})


def test_parse_errors_carry_line_numbers():
    cases = [
        ("gen a 0 0\n", 1, "gen NAME GRADING I J"),
        ("gen a 0 0 x\n", 1, "integers"),
        ("gen a 0 0 0\ngen a 0 0 0\n", 2, "duplicate gen"),
        ("foo a\n", 1, "unknown statement"),
        ("gen a 0 0 0\nd a b\n", 2, "needs '='"),
        ("d zz = 0\n", 1, "unknown generator"),
        ("gen a 0 0 0\nd a = 0\nd a = 0\n", 3, "duplicate d"),
        ("gen a 0 0 0\ngen b 1 1 1\nd b = U^0 a\n", 3, "malformed term"),
        ("gen a 0 0 0\ngen b 1 1 1\nd b = U^1 a extra\n", 3, "malformed term"),
        # Past 64 bits, and past the interpreter's limit on digits to convert.
        ("gen a 0 0 0\ngen b 1 1 1\nd b = U^9223372036854775808 a\n", 3, "1 <= K < 2\\^63"),
        ("gen a 0 0 0\ngen b 1 1 1\nd b = U^" + "9" * 5000 + " a\n", 3, "malformed term"),
        ("gen a 0 0 0\ngen b 1 1 1\nd b = zz\n", 3, "unknown generator"),
    ]
    for text, lineno, fragment in cases:
        with pytest.raises(ComplexParseError, match=fragment) as err:
            parse_complex(text)
        assert err.value.lineno == lineno


def test_serialize_format():
    text = serialize_complex(built("hom-C1"))
    lines = text.splitlines()
    assert lines[0] == "gen a1 0 0 2"
    assert "d b1 = a1 + a2" in lines
    assert "d a1 = 0" in lines
    assert text.endswith("\n")


def test_serialize_u_powers():
    C = parse_complex("gen a 0 0 0\ngen b 1 2 2\nd b = U^2 a\n")
    assert "d b = U^2 a" in serialize_complex(C)


def test_generator_named_zero_is_rejected_both_ways():
    # 'd x = 0' means a zero boundary, so a term on a generator named 0
    # would silently vanish in a round trip.
    C = uk.ModelComplex(
        [uk.Generator("0", 0, 0, 0), uk.Generator("x", 1, 1, 1)], {"x": [(0, "0")]}
    )
    with pytest.raises(ValueError, match="'0'"):
        serialize_complex(C)
    with pytest.raises(ComplexParseError, match="bad generator name '0'") as err:
        parse_complex("gen x 1 1 1\ngen 0 0 0 0\nd x = 0\n")
    assert err.value.lineno == 2


@pytest.mark.parametrize("name", ["a b", "", "x\ny", "a=b", "a+b", "a#b", "0"])
def test_serialize_refuses_a_name_the_parser_refuses(name):
    C = uk.ModelComplex([uk.Generator(name, 0, 0, 0)], {})
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        serialize_complex(C)


@pytest.mark.parametrize("name", ["(p.q)~*", "00", "U^1"])
def test_odd_names_round_trip(name):
    C = uk.ModelComplex([uk.Generator(name, 0, 0, 0)], {name: [(1, name)]})
    D = parse_complex(serialize_complex(C))
    assert (D.names, D.boundary) == (C.names, C.boundary)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=4))
def test_serialize_writes_only_what_reads_back(name):
    C = uk.ModelComplex([uk.Generator(name, 0, 0, 0)], {name: [(1, name)]})
    try:
        text = serialize_complex(C)
    except ValueError:
        return
    D = parse_complex(text)
    assert (D.names, D.boundary) == (C.names, C.boundary)


@pytest.mark.parametrize("name", CATALOG_SCAN)
def test_round_trip_preserves_invariants(name):
    C = built(name)
    D = parse_complex(serialize_complex(C))
    assert D.names == C.names
    assert D.boundary == C.boundary
    assert uk.upsilon(D) == uk.upsilon(C)


# The text format's alphabet: both statements and an unknown one, names valid
# and not (0 is reserved), integers small, negative and too long to convert,
# U-powers valid, zero and past 64 bits, the separators and a comment.
TEXT_NAMES = ["a", "b", "c", "0", "U^1"]
TEXT_INTS = ["0", "1", "-1", "2", "3", "-2", "x", "9" * 5000]
TEXT_POWERS = ["", "U^1", "U^2", "U^0", "U^" + "9" * 20, "U^" + "9" * 5000, "U"]
TEXT_TOKENS = ["gen", "d", "dd", "=", "+", "#"] + TEXT_NAMES + TEXT_INTS + TEXT_POWERS[1:]

_pick = st.sampled_from
gen_lines = st.builds("gen {} {} {} {}".format, _pick(TEXT_NAMES), _pick(TEXT_INTS),
                      _pick(TEXT_INTS), _pick(TEXT_INTS))
terms = st.builds("{} {}".format, _pick(TEXT_POWERS), _pick(TEXT_NAMES))
d_lines = st.builds(lambda name, ts: f"d {name} = {' + '.join(ts) or '0'}", _pick(TEXT_NAMES),
                    st.lists(terms, max_size=3))
token_lines = st.lists(_pick(TEXT_TOKENS), max_size=7).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(gen_lines, max_size=4), st.lists(d_lines, max_size=3),
       st.lists(token_lines, max_size=1))
def test_random_text_lines_parse_or_fail_cleanly(gens, ds, others):
    lines = gens + ds + others
    try:
        C = parse_complex("\n".join(lines))
    except ComplexParseError as exc:
        assert 1 <= exc.lineno <= len(lines)
        return
    assert isinstance(C, uk.ModelComplex)
