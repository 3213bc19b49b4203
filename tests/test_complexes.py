import importlib
import json
import re
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import upsilonkit as uk
from upsilonkit import Generator, InvalidComplexError, ModelComplex, SliceElement
from upsilonkit import complexes, gf2
from upsilonkit.cli import main
from upsilonkit.complexes import MAX_GENERATORS, CheckResult
from upsilonkit.gf2 import support
from upsilonkit.upsilon import _gamma_search
from helpers import CATALOG_SCAN, boundaries, built
from oracles import is_acyclic, reference_d_squared


def single(point=(0, 0)):
    return ModelComplex([Generator("a", 0, *point)], {})


def test_construction_errors():
    with pytest.raises(ValueError, match=re.escape("duplicate generator names: ['a']")):
        ModelComplex([Generator("a", 0, 0, 0), Generator("a", 0, 0, 0)], {})
    with pytest.raises(ValueError, match="^boundary of a hits unknown generator 'b'$"):
        ModelComplex([Generator("a", 0, 0, 0)], {"a": [(0, "b")]})
    with pytest.raises(ValueError, match="^boundary of b: U-power must be a non-negative integer$"):
        ModelComplex(
            [Generator("a", 0, 0, 0), Generator("b", 1, 0, 0)], {"b": [(-1, "a")]}
        )
    with pytest.raises(ValueError, match=re.escape("boundary given for unknown generators: ['zz']")):
        ModelComplex([Generator("a", 0, 0, 0)], {"zz": []})
    with pytest.raises(ValueError, match=f"U-power {2**63} does not fit in 64 bits"):
        ModelComplex(
            [Generator("a", 0, 0, 0), Generator("b", 1, 0, 0)], {"b": [(2**63, "a")]}
        )
    # Past the constructor, such input fails late with a bare TypeError (validate,
    # tensor) or serializes to text that parse_complex refuses.
    for gen in (Generator("a", 0, 0.0, 0.0), Generator("a", F(0), 0, 0), Generator("a", 0, 0, "0"),
                Generator("a", True, 0, 0)):
        with pytest.raises(ValueError, match="^generator a: grading, i and j must be integers$"):
            ModelComplex([gen], {})
    for name in (1, None, b"a"):
        with pytest.raises(ValueError, match=re.escape(f"generator {name!r}: name must be a string")):
            ModelComplex([Generator(name, 0, 0, 0)], {})


@pytest.mark.parametrize("generators, boundary, message", [
    ([Generator("a", 0, 0, 0), ("b", 1, 0, 0)], {}, "generator ('b', 1, 0, 0): not a Generator"),
    ([Generator("a", 0, 0, 0), None], {}, "generator None: not a Generator"),
    ([Generator("a", 0, 0, 0), Generator("b", 1, 0, 0)], {"b": None},
     "boundary of b: None is not a collection of terms"),
    ([Generator("a", 0, 0, 0), Generator("b", 1, 0, 0)], {"b": 5}, "boundary of b: 5 is not a collection of terms"),
    ([Generator("a", 0, 0, 0), Generator("b", 1, 0, 0)], {"b": [5]}, "boundary of b: 5 is not a (U-power, target) pair"),
    ([Generator("a", 0, 0, 0), Generator("b", 1, 0, 0)], {"b": [(0, "a", 1)]},
     "boundary of b: (0, 'a', 1) is not a (U-power, target) pair"),
    ([Generator("a", 0, 0, 0), Generator("b", 1, 0, 0)], {"b": [(0, ["a"])]},
     "boundary of b: (0, ['a']) is not a (U-power, target) pair"),
    ([Generator("a", 0, 0, 0), Generator("b", 1, 0, 0)], {"b": [(True, "a")]},
     "boundary of b: U-power must be a non-negative integer"),
    ([Generator("a", 0, 0, 0), Generator("b", 1, 0, 0)], {"b": [(1.0, "a")]},
     "boundary of b: U-power must be a non-negative integer"),
])
def test_construction_refuses_malformed_entries(generators, boundary, message):
    # An entry that is no Generator, a boundary that is no collection, a
    # term that is no (U-power, target) pair and a bool U-power (refused
    # as a bool grading is) each raise a ValueError naming the generator.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelComplex(generators, boundary)


def test_accessors():
    C = built("T(3,4)")
    assert len(C) == 5
    assert C.names == ("a1", "b1", "a2", "b2", "a3")
    assert {g.name: g for g in C.generators}["a2"].point == (1, 1)
    assert C.boundary["b1"] == frozenset({(0, "a1"), (0, "a2")})
    assert set(C.boundary) == set(C.names)


def test_grading_slice_uses_u_translates():
    C = built("box(1)")
    slice1 = {e.name: e for e in C.grading_slice(1)}
    # X sits in grading 1 already; u (grading -1) contributes U^-1 . u.
    assert slice1["X"].u_power == 0 and slice1["X"].point == (1, 1)
    assert slice1["u"].u_power == -1 and slice1["u"].point == (0, 0)
    assert set(slice1) == {"X", "u"}
    slice0 = C.grading_slice(0)
    assert [e.name for e in slice0] == ["A", "B", "C"]
    # Slices repeat with period two, shifted by one U-power.
    shifted = C.grading_slice(2)
    assert [(e.name, e.u_power) for e in shifted] == [
        (e.name, e.u_power - 1) for e in slice0
    ]


def test_slice_boundary_and_homology():
    C = built("T(3,4)")
    cols = C.slice_boundary(1)
    slice0 = [e.name for e in C.grading_slice(0)]
    assert len(cols) == 2
    assert {slice0[i] for i in support(cols[0])} == {"a1", "a2"}
    assert C.homology_dimension(0) == 1
    assert C.homology_dimension(1) == 0
    assert C.homology_dimension(2) == 1
    assert C.homology_dimension(-1) == 0


def test_generator_coset():
    coset = built("T(3,4)").generator_coset()
    assert len(coset.basis) == 3
    assert coset.cycle != 0
    assert len(boundaries(built("T(3,4)"))) == 2
    # Unknot: the single generator is the whole story.
    coset_u = built("unknot").generator_coset()
    assert coset_u.cycle == 1 and boundaries(built("unknot")) == ()


@pytest.mark.parametrize("name", ["T(5,7)", "nK(3)"])
def test_each_column_set_is_eliminated_once(monkeypatch, name):
    # The ranks, the H0 coset and the gamma search read one elimination of
    # the grading-0 columns and one of the grading-1 columns.  Preparing the
    # search only reduces its items modulo that span: it adds no column to
    # any span or solver, as threshold is the search's elimination.  A
    # solver is a span of augmented columns, so Gf2Span.add counts every
    # column of either, once.
    C = uk.catalog(name)  # a fresh complex: nothing memoized yet
    added, prepared, paused = [], [], []
    def counting(self, v, original=gf2.Gf2Span.add):
        (prepared if paused else added).append(v)
        return original(self, v)
    monkeypatch.setattr(gf2.Gf2Span, "add", counting)
    upsilon = importlib.import_module("upsilonkit.upsilon")  # the package's upsilon is the function
    calls = []
    def pausing(*args, original=upsilon.prepare_search):
        paused.append(True)
        calls.append(args)
        try:
            return original(*args)
        finally:
            paused.pop()
    monkeypatch.setattr(upsilon, "prepare_search", pausing)
    C.homology_dimension(0)
    C.generator_coset()
    _gamma_search(C)
    assert len(added) == len(C.slice_boundary(0)) + len(C.slice_boundary(1))
    assert len(calls) == 1 and not prepared


def test_catalog_validates():
    for name in CATALOG_SCAN:
        report = built(name).validate()
        assert report.ok, f"{name}: {report}"


def test_validation_is_cached():
    C = built("T(2,3)")
    assert C.validate() is C.validate()


def test_a_memo_hit_probes_the_cache_once():
    # memoized hashes a hit's key once: a lookup that first asks whether
    # the key is in the cache hashes it twice.
    hashes = []

    class Key:
        def __hash__(self):
            hashes.append(self)
            return 0

    @complexes.memoized
    def read(C, key):
        return object()

    C, key = single(), Key()
    first = read(C, key)
    hashes.clear()
    assert read(C, key) is first
    assert len(hashes) == 1


def test_records_are_immutable_tuples():
    C = built("T(3,4)")
    report = uk.genus_report(C, [F(2, 3)])
    records = [C.generators[0], C.validate().checks[0], C.validate(), C.generator_coset(),
               uk.pivot_points(C, F(2, 3)), uk.z_sets(C, F(2, 3)), uk.upsilon2(C, F(2, 3)),
               report.reports[0], report]
    assert len({type(r) for r in records}) == 9
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    # A result record equals the plain tuple of its values.
    assert all(record == tuple(record) for record in records)
    assert C.generators[0].point == (C.generators[0].i, C.generators[0].j)

    check = CheckResult("homology", False)
    assert (check.advisory, check.detail) == (False, "")
    assert str(check) == "homology: FAIL"
    assert str(check._replace(detail="H0 has dimension 2")) == "homology: FAIL (H0 has dimension 2)"
    assert str(CheckResult("symmetry", False, True, "x")) == "symmetry: ADVISORY-FAIL (x)"
    assert str(CheckResult("d-squared", True, detail="unused")) == "d-squared: pass"


def check_named(report, name):
    return next(c for c in report.checks if c.name == name)


def test_grading_drop_failure():
    C = ModelComplex(
        [Generator("a", 0, 0, 0), Generator("b", 0, 1, 1)], {"b": [(0, "a")]}
    )
    report = C.validate()
    assert not check_named(report, "grading-drop").passed
    assert not report.ok
    with pytest.raises(InvalidComplexError, match="grading-drop"):
        C.require_valid()


def test_filtration_monotone_failure():
    C = ModelComplex(
        [Generator("a", 0, 5, 5), Generator("b", 1, 0, 0)], {"b": [(0, "a")]}
    )
    assert not check_named(C.validate(), "filtration-monotone").passed


def test_d_squared_failure():
    gens = [Generator("a", 0, 0, 0), Generator("b", 1, 0, 0), Generator("c", 2, 0, 0)]
    C = ModelComplex(gens, {"c": [(0, "b")], "b": [(0, "a")]})
    report = C.validate()
    assert not check_named(report, "d-squared").passed
    assert "skipped" in check_named(report, "homology").detail
    # Five failures of both parities: the detail names the first three by id.
    text = "".join(f"gen {n} {gr} 0 0\n" for n, gr in
                   [("c1", 2), ("b1", 1), ("a", 0), ("c2", 2), ("b2", 1), ("x", -1), ("w", -2)])
    C = uk.parse_complex(text + "d c1 = b1\nd b1 = a\nd c2 = b2\nd b2 = a\nd a = x\nd x = w\n")
    assert reference_d_squared(C) == ["c1", "b1", "a", "c2", "b2"]
    assert str(check_named(C.validate(), "d-squared")) == (
        "d-squared: FAIL (d(d(x)) != 0 for x in ['c1', 'b1', 'a'])")


def test_d_squared_is_skipped_when_grading_drop_fails():
    # d(b) = a joins two even gradings; d(a) = a keeps the grading.  Neither
    # term is in a slice column, so d^2 is not read off the columns.
    for text in ("gen a 0 0 0\ngen b 2 1 1\nd b = a\n", "gen a 0 0 0\nd a = a\n"):
        C = uk.parse_complex(text)
        report = C.validate()
        assert str(check_named(report, "d-squared")) == "d-squared: FAIL (skipped: grading-drop failed)"
        assert not report.ok
        assert not is_acyclic(C)


@st.composite
def graded_complexes(draw):
    """At most 12 generators whose boundary terms U^k t all drop the grading
    by one, for U-powers k of 0 to 2; d^2 need not vanish."""
    gradings = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=12))
    levels = st.integers(-2, 2)
    gens = [Generator(f"g{x}", gr, draw(levels), draw(levels)) for x, gr in enumerate(gradings)]
    boundary = {}
    for x, gr in enumerate(gradings):
        terms = [(k, f"g{t}") for k in range(3) for t, gt in enumerate(gradings)
                 if gt - 2 * k == gr - 1]
        if terms:
            boundary[f"g{x}"] = draw(st.lists(st.sampled_from(terms), unique=True))
    return ModelComplex(gens, boundary)


def reference_d_squared_check(C):
    bad = reference_d_squared(C)
    return CheckResult("d-squared", not bad, detail=f"d(d(x)) != 0 for x in {bad[:3]}")


@settings(max_examples=100, deadline=None)
@given(graded_complexes())
def test_d_squared_matches_reference_walk(C):
    assert check_named(C.validate(), "grading-drop").passed
    assert check_named(C.validate(), "d-squared") == reference_d_squared_check(C)


@pytest.mark.parametrize("expr", CATALOG_SCAN + [f"-{name}" for name in CATALOG_SCAN] + ["2*hom-K"])
def test_d_squared_of_catalog_matches_reference_walk(expr):
    C = uk.parse_and_build(expr)
    assert check_named(C.validate(), "d-squared") == reference_d_squared_check(C)


def test_homology_failure():
    C = ModelComplex([Generator("a", 0, 0, 0), Generator("b", 0, 0, 0)], {})
    report = C.validate()
    assert not check_named(report, "homology").passed
    with pytest.raises(InvalidComplexError):
        C.generator_coset()


def test_normalization_failure():
    report = single((1, 0)).validate()
    assert check_named(report, "homology").passed
    assert not check_named(report, "normalization").passed
    assert not report.ok


def test_symmetry_is_advisory(capsys, tmp_path):
    C = single((0, 0))
    assert check_named(C.validate(), "symmetry-multiset").passed
    # Asymmetric multiset: flagged but not fatal.
    gens = [
        Generator("a", 0, 0, 0),
        Generator("x", 1, 2, 0),
        Generator("y", 0, 2, -1),
    ]
    D = ModelComplex(gens, {"x": [(0, "y")]})
    report = D.validate()
    assert not check_named(report, "symmetry-multiset").passed
    assert report.ok
    D.require_valid()
    # Structurally invalid (d(b) raises the filtration) and asymmetric: the
    # symmetry check still runs, and the report names what it found.
    text = "gen a 0 0 0\ngen b 1 0 2\ngen c 0 1 1\nd b = a + c\n"
    E = uk.parse_complex(text)
    assert not check_named(E.validate(), "filtration-monotone").passed
    line = "symmetry-multiset: ADVISORY-FAIL (bifiltration multiset not invariant under (i,j) -> (j,i))"
    assert str(E.validate()).splitlines()[-1] == line
    (tmp_path / "asym.txt").write_text(text)
    assert main(["validate", "--json", f"@{tmp_path / 'asym.txt'}"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["symmetry-multiset"] == {"name": "symmetry-multiset", "passed": False, "advisory": True,
                                           "detail": line[line.index("(") + 1:-1]}


def test_is_acyclic():
    assert is_acyclic(uk.acyclic_box((0, 0), 1))
    assert is_acyclic(uk.acyclic_box((3, -2), 2))
    assert not is_acyclic(built("unknot"))
    assert not is_acyclic(built("T(3,4)"))
    # A structurally invalid complex is not acyclic, whatever its slices say.
    assert not is_acyclic(uk.parse_complex("gen a 0 0 0\ngen b 2 1 1\nd b = a\n"))


def test_boundary_term_of_the_same_grading_parity_is_named():
    # d(b) = a joins two generators of even grading, so no slice column holds
    # the term; the public calls name it rather than fail on a bare KeyError.
    C = uk.parse_complex("gen a 0 0 0\ngen b 2 1 1\nd b = a\n")
    for call in (lambda: C.slice_boundary(0), lambda: C.homology_dimension(0),
                 C.generator_coset):
        with pytest.raises(InvalidComplexError, match=re.escape("d(b) term U^0.a")):
            call()


def test_dual():
    C = built("T(3,4)")
    D = uk.dual(C)
    assert D.validate().ok
    g = {g.name: g for g in D.generators}["a1*"]
    assert (g.grading, g.point) == (0, (0, -3))
    assert (0, "b1*") in D.boundary["a1*"]
    DD = uk.dual(D)
    assert [(g.name, g.grading, g.point) for g in DD.generators] == [
        (g.name + "**", g.grading, g.point) for g in C.generators
    ]


def test_tensor():
    A = built("T(2,3)")
    B = built("T(2,5)")
    T = uk.tensor(A, B)
    assert len(T) == len(A) * len(B)
    assert T.validate().ok
    g = {g.name: g for g in T.generators}["(a2.a3)"]
    assert g.grading == 0 and g.point == (1 + 2, 0 + 0)
    # Leibniz: d(b1 . a1) hits (a1.a1), (a2.a1) from the left factor only.
    terms = {t for _, t in T.boundary["(b1.a1)"]}
    assert terms == {"(a1.a1)", "(a2.a1)"}
    # A term both factors produce (from a loop U^k x in each) counts once.
    loop = ModelComplex([Generator("x", 0, 0, 0)], {"x": [(1, "x")]})
    assert uk.tensor(loop, loop).boundary == {"(x.x)": frozenset({(1, "(x.x)")})}


def test_tensor_power():
    C = built("T(2,3)")
    assert len(uk.tensor_power(C, 1)) == 3
    assert len(uk.tensor_power(C, 3)) == 27
    with pytest.raises(ValueError):
        uk.tensor_power(C, 0)
    # tensor_power is the left fold of tensor, names included.  The
    # self-loop (an invalid complex) shows that boundary terms carry over.
    pair = ModelComplex([Generator("a", 0, 0, 0), Generator("b", 1, 1, 1)], {"b": [(0, "a")]})
    loop = ModelComplex([Generator("x", 2, 1, 3)], {"x": [(1, "x")]})
    for C in (single(), single((1, 3)), loop, pair, C):
        fold = C
        for n in range(2, 6):
            fold = uk.tensor(fold, C)
            power = uk.tensor_power(C, n)
            assert power.names == fold.names, (len(C), n)
            assert (power.generators, power.boundary) == (fold.generators, fold.boundary)


def test_product_names_that_repeat_are_refused():
    # (p.q.r) is both (p . q.r) and (p.q . r).
    left = ModelComplex([Generator("p", 0, 0, 0), Generator("p.q", 2, 1, 1)], {})
    right = ModelComplex([Generator("r", 0, 0, 0), Generator("q.r", 2, 1, 1)], {})
    with pytest.raises(ValueError, match=re.escape("duplicate generator names: ['(p.q.r)']")):
        uk.tensor(left, right)


# Names a product, a mirror or a direct sum can run together: '.', brackets
# and the '~' and '*' suffixes.  (p.q.p) is both (p . q.p) and (p.q . p).
DOTTED_NAMES = ["p", "p.q", "q.p", "q", "q.q", "(p", "r)", "p~", "q*"]


@st.composite
def dotted_complexes(draw):
    names = draw(st.lists(st.sampled_from(DOTTED_NAMES), min_size=2, max_size=4, unique=True))
    levels = st.integers(-1, 2)
    gens = [Generator(name, draw(levels), draw(levels), draw(levels)) for name in names]
    term = st.tuples(st.integers(0, 1), st.sampled_from(names))
    return ModelComplex(gens, {name: draw(st.lists(term, max_size=2)) for name in names})


@settings(max_examples=100, deadline=None)
@given(dotted_complexes(), dotted_complexes())
def test_constructions_refuse_repeated_names_or_round_trip(A, B):
    for build in (lambda: uk.tensor(A, B), lambda: uk.tensor_power(A, 2), lambda: uk.dual(A),
                  lambda: uk.direct_sum(A, B)):
        try:
            X = build()
        except ValueError as exc:
            assert str(exc).startswith("duplicate generator names: ")
            continue
        assert len(set(X.names)) == len(X)
        Y = uk.parse_complex(uk.serialize_complex(X))
        assert (Y.names, Y.boundary) == (X.names, X.boundary)


def test_direct_sum_renames_collisions():
    C = built("T(2,3)")
    S = uk.direct_sum(C, uk.acyclic_box((0, 0), 1))
    assert set(S.names) == set(C.names) | {"qtr", "qtl", "qbr", "qbl"}
    S2 = uk.direct_sum(C, C)
    assert "a1~" in S2.names
    assert (0, "a1~") in S2.boundary["b1~"]


# -- integer-indexed storage against the name-keyed definitions ---------------

TEXT = """gen a1 0 0 1
gen b1 1 1 1
gen a2 0 1 0
gen r 0 2 2
gen s 1 2 2
d a1 = 0
d b1 = a1 + a2
d a2 = 0
d r = U^1 s
d s = 0
"""

SHOWN = """gen (a1*.a1) 0 0 0
gen (a1*.b1) 1 1 0
gen (a1*.a2) 0 1 -1
gen (b1*.a1) -1 -1 0
gen (b1*.b1) 0 0 0
gen (b1*.a2) -1 0 -1
gen (a2*.a1) 0 -1 1
gen (a2*.b1) 1 0 1
gen (a2*.a2) 0 0 0
gen a1 0 0 1
gen b1 1 1 1
gen a2 0 1 0
d (a1*.a1) = (b1*.a1)
d (a1*.b1) = (a1*.a1) + (a1*.a2) + (b1*.b1)
d (a1*.a2) = (b1*.a2)
d (b1*.a1) = 0
d (b1*.b1) = (b1*.a1) + (b1*.a2)
d (b1*.a2) = 0
d (a2*.a1) = (b1*.a1)
d (a2*.b1) = (a2*.a1) + (a2*.a2) + (b1*.b1)
d (a2*.a2) = (b1*.a2)
d a1 = 0
d b1 = a1 + a2
d a2 = 0
"""


def reference_slice(C, g):
    """grading_slice(g) from the Generator views."""
    out = []
    for gen in C.generators:
        if (gen.grading - g) % 2 == 0:
            k = (gen.grading - g) // 2
            out.append(SliceElement(gen.name, k, (gen.i - k, gen.j - k)))
    return tuple(out)


def reference_slice_boundary(C, g):
    """slice_boundary(g) from the name-keyed boundary view."""
    index = {e.name: idx for idx, e in enumerate(reference_slice(C, g - 1))}
    boundary = C.boundary
    cols = []
    for e in reference_slice(C, g):
        v = 0
        for _, target in boundary[e.name]:
            v ^= 1 << index[target]
        cols.append(v)
    return tuple(cols)


def check_storage(C):
    for g in range(-3, 4):
        assert C.grading_slice(g) == reference_slice(C, g)
        assert C.slice_boundary(g) == reference_slice_boundary(C, g)
        assert C.slice_boundary(g) == C.slice_boundary(g + 2)
    assert C.names == tuple(g.name for g in C.generators)
    rebuilt = ModelComplex(C.generators, C.boundary)
    assert (rebuilt.generators, rebuilt.boundary) == (C.generators, C.boundary)
    text = uk.serialize_complex(C)
    assert uk.serialize_complex(rebuilt) == text
    assert uk.serialize_complex(uk.parse_complex(text)) == text


STORAGE_CASES = {
    **{name: (lambda name=name: uk.catalog(name)) for name in CATALOG_SCAN},
    "dual": lambda: uk.dual(built("figure6")),
    "tensor": lambda: uk.tensor(built("T(3,4)"), uk.parse_complex(TEXT)),
    "tensor power": lambda: uk.tensor_power(built("box(1)"), 3),
    "direct sum": lambda: uk.direct_sum(built("hom-K"), uk.acyclic_box((1, -1), 2)),
    "text round trip": lambda: uk.parse_complex(uk.serialize_complex(built("nK(1)"))),
    "text with U-powers": lambda: uk.parse_complex(TEXT),
}


@pytest.mark.parametrize("case", list(STORAGE_CASES))
def test_storage_matches_name_keyed_reference(case):
    check_storage(STORAGE_CASES[case]())


def test_show_text_unchanged():
    assert uk.serialize_complex(uk.parse_and_build("-T(2,3) # T(2,3) + T(2,3)")) == SHOWN
    assert uk.serialize_complex(uk.parse_complex(TEXT)) == TEXT


# Small atoms and their generator counts, for the size cap below.
SMALL_ATOMS = {"unknot": 1, "T(2,3)": 3, "hom-C1": 3, "fig8": 5, "box(1)": 5, "figure6": 7}
# (expression, generator count) trees under '#', '-', '+' and '2*'.
EXPRESSIONS = st.recursive(
    st.sampled_from(sorted(SMALL_ATOMS.items())),
    lambda inner: st.one_of(
        st.builds(lambda a, b: (f"({a[0]}) # ({b[0]})", a[1] * b[1]), inner, inner),
        st.builds(lambda a, b: (f"({a[0]}) + ({b[0]})", a[1] + b[1]), inner, inner),
        st.builds(lambda a: (f"-({a[0]})", a[1]), inner),
        st.builds(lambda a: (f"2*({a[0]})", a[1] ** 2), inner),
    ),
    max_leaves=5,
).filter(lambda tree: tree[1] <= 300)


@settings(max_examples=40, deadline=None)
@given(EXPRESSIONS)
def test_random_expressions_match_reference(tree):
    expr, size = tree
    C = uk.parse_and_build(expr)
    assert len(C) == size
    check_storage(C)


def test_generator_limit_refuses_before_building():
    three = built("T(2,3)")
    with pytest.raises(ValueError, match=r"tensor power would have 3\^20 generators"):
        uk.tensor_power(three, 20)
    big = uk.tensor_power(built("hom-K"), 3)
    assert len(big) == 3375 <= MAX_GENERATORS
    with pytest.raises(ValueError, match="3375 x 15 = 50625"):
        uk.tensor(big, built("hom-K"))
    with pytest.raises(ValueError, match=r"6750 \+ 3375 = 10125 generators, more than the limit"):
        uk.direct_sum(uk.direct_sum(big, big), big)
    assert len(uk.tensor_power(built("unknot"), 30)) == 1


def test_name_limit_refuses_before_building(monkeypatch):
    # Names pair up as (a.b), so a power of a one-generator complex passes
    # MAX_GENERATORS while its one name grows with every factor.
    with pytest.raises(ValueError, match="tensor power 3000 would have 35999997 characters of "
                                         "generator names, more than the limit of 500000"):
        uk.tensor_power(uk.tensor_power(built("unknot"), 3000), 3000)
    # The closed forms count exactly the characters built: the names of
    # T(2,3) are a1, b1, a2, and T(2,3)^2 has 9 names of 7 characters.
    three = built("T(2,3)")
    monkeypatch.setattr(complexes, "MAX_NAME_CHARS", 63)
    assert sum(map(len, uk.tensor_power(three, 2).names)) == 63
    assert sum(map(len, uk.tensor(three, three).names)) == 63
    with pytest.raises(ValueError, match="tensor power 3 would have 324 characters"):
        uk.tensor_power(three, 3)
    monkeypatch.setattr(complexes, "MAX_NAME_CHARS", 62)
    with pytest.raises(ValueError, match="tensor product would have 63 characters"):
        uk.tensor(three, three)


def test_memory_of_a_genus_report():
    """Traced peak of build, validation and genus report on 2*hom-K (225
    generators); the bound holds for CPython 3.11 object sizes."""
    tracemalloc.start()
    try:
        C = uk.parse_and_build("2*hom-K")
        C.validate()
        uk.genus_report(C, [F(2, 3), 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 250_000
