import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import upsilonkit as uk
from upsilonkit.expr import (
    MAX_DEPTH,
    ExprParseError,
    build,
    parse_and_build,
    parse_expression,
)
from upsilonkit.textio import ComplexParseError

UNKNOT = ("catalog", "unknot")


def test_atoms():
    assert parse_expression("T(3,4)") == ("torus", (3, 4))
    assert parse_expression("stair[2,2]") == ("stair", (2, 2))
    assert parse_expression("box(2)") == ("box", 2)
    assert parse_expression("nK(3)") == ("nk", 3)
    assert parse_expression("hom-K") == ("catalog", "hom-K")
    assert parse_expression("@my complex.txt".split()[0]) == ("file", "my")
    assert parse_expression("@dir/k.txt") == ("file", "dir/k.txt")


def test_precedence():
    node = parse_expression("-T(2,3) # 2 * box(1) + unknot")
    # '+' binds loosest, then '#', then '*', then '-'.
    assert node == ("+", ("#", ("-", ("torus", (2, 3))), ("*", 2, ("box", 1))), UNKNOT)


def test_associativity_and_parens():
    fig8, figure6 = ("catalog", "fig8"), ("catalog", "figure6")
    assert parse_expression("unknot # fig8 # figure6") == ("#", ("#", UNKNOT, fig8), figure6)
    assert parse_expression("unknot # (fig8 # figure6)") == ("#", UNKNOT, ("#", fig8, figure6))
    assert parse_expression("--unknot") == ("-", ("-", UNKNOT))
    assert parse_expression("2 * 3 * unknot") == ("*", 2, ("*", 3, UNKNOT))


def test_trees_are_immutable_tuples_led_by_their_kind():
    # The kind leads the tuple, so a connected sum is not a direct sum.
    node = parse_expression("unknot # fig8")
    assert node != parse_expression("unknot + fig8")
    assert node == parse_expression("(unknot) # fig8")
    assert type(node) is tuple
    with pytest.raises(TypeError):
        node[0] = "+"


def test_parse_errors():
    cases = [
        ("", "end of input"),
        ("T(3", "expected"),
        ("stair[]", "integer"),
        ("box(1) #", "end of input"),
        ("0 * unknot", "positive"),
        ("unknot unknot", "trailing input"),
        ("(unknot", "')'"),
        ("unknot $", "unexpected character"),
    ]
    for text, fragment in cases:
        with pytest.raises(ExprParseError) as err:
            parse_expression(text)
        assert fragment in str(err.value), (text, str(err.value))
    err = pytest.raises(ExprParseError, parse_expression, "T(3,")
    assert err.value.offset == 4
    assert "an integer" in err.value.expected


def test_nesting_limit():
    # Up to MAX_DEPTH levels parse and build; one more is a parse error,
    # whether the levels come from duals, brackets or an operator chain.
    deep = parse_expression("-" * MAX_DEPTH + "unknot")
    assert build(deep).names == ("a" + "*" * MAX_DEPTH,)
    parse_expression("(" * MAX_DEPTH + "unknot" + ")" * MAX_DEPTH)
    parse_expression(" + ".join(["unknot"] * (MAX_DEPTH + 1)))
    for text in (
        "-" * (MAX_DEPTH + 1) + "unknot",
        "(" * (MAX_DEPTH + 1) + "unknot" + ")" * (MAX_DEPTH + 1),
        " + ".join(["unknot"] * (MAX_DEPTH + 2)),
    ):
        with pytest.raises(ExprParseError, match=f"nested deeper than {MAX_DEPTH}"):
            parse_expression(text)


def test_build_matches_constructors():
    assert parse_and_build("T(3,4)").names == uk.torus_knot_complex(3, 4).names
    assert parse_and_build("stair[2,2]").names == uk.stairway([2, 2]).names
    # A different model of the same knot as nk_complex(2): the invariants
    # agree even though the generator counts differ.
    two = parse_and_build("2 * (stair[2,2] # -stair[1,1,1,1])")
    assert len(two) == len(uk.nk_complex(1)) ** 2
    assert uk.upsilon(two) == uk.upsilon(uk.nk_complex(2))
    assert uk.upsilon2(two, 1).upsilon2 == uk.upsilon2(uk.nk_complex(2), 1).upsilon2
    summed = parse_and_build("unknot + unknot")
    assert len(summed) == 2
    assert len(parse_and_build("-box(2)")) == 5


def test_build_file_atom(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text(uk.serialize_complex(uk.catalog("T(3,4)")))
    C = parse_and_build(f"@{path.name}", base_dir=str(tmp_path))
    assert uk.upsilon(C) == uk.upsilon(uk.catalog("T(3,4)"))
    D = parse_and_build(f"@{path} # unknot")
    assert len(D) == 5


def test_build_rejects_unknown_node():
    for node in (object(), (), ("?", UNKNOT)):
        with pytest.raises(TypeError):
            build(node)


# The expression grammar's alphabet: keywords, catalog names and one unknown
# name, every punctuation mark, integers small and over the limits, @file
# atoms naming a valid complex, an invalid one and a missing file, and a
# character outside the grammar.
EXPR_TOKENS = [
    "T", "stair", "box", "nK", "unknot", "hom-K", "fig8", "knot",
    "(", ")", "[", "]", ",", "#", "+", "*", "-",
    "0", "1", "2", "3", "5", "12", "100000",
    "@ok.txt", "@bad.txt", "@missing.txt", "$",
]
# The domain errors of the constructors and the size limits.
BUILD_ERRORS = ("more than the limit of", "need coprime", "needs n >= 1", "step vector",
                "step lengths")


@pytest.fixture(scope="module")
def atom_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("atoms")
    (path / "ok.txt").write_text(uk.serialize_complex(uk.catalog("T(2,3)")))
    (path / "bad.txt").write_text("gen a 0 0 0\nd a = U^1\n")
    return str(path)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.sampled_from(EXPR_TOKENS), max_size=24),
       separator=st.sampled_from(["", " "]))
def test_random_token_strings_build_or_fail_cleanly(atom_dir, tokens, separator):
    # Joined without spaces, neighbouring names and integers merge into new
    # tokens, such as unknown names.
    text = separator.join(tokens)
    try:
        node = parse_expression(text)
    except ExprParseError as exc:
        assert 0 <= exc.offset <= len(text)
        return
    try:
        assert isinstance(build(node, atom_dir), uk.ModelComplex)
    except ComplexParseError:
        assert "@bad.txt" in text
    except FileNotFoundError as exc:  # @missing.txt, or a name merged into ok.txtT
        assert exc.filename.startswith(atom_dir) and not exc.filename.endswith(("/ok.txt", "/bad.txt"))
    except KeyError as exc:
        assert exc.args[0].startswith("unknown catalog name")
    except ValueError as exc:
        assert any(fragment in str(exc) for fragment in BUILD_ERRORS), str(exc)
