import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfeoffload import corpus
from dfeoffload.kernels import (ArrayRef, Assign, BinOp, EvalError, FloatLit, For, IfElse,
                                IntLit, KernelSyntaxError, Ternary, UnknownIdentifier, Var,
                                allocate_arrays, evaluate_kernel, format_kernel,
                                parse_kernel, trunc_div, trunc_rem)

SCALEADD = """\
kernel scaleadd(M, N)
arrays: A[MxN]:int32, B[MxN]:int32, C[MxN]:int32
for i in 0..M { for j in 0..N { C[i][j] = A[i][j] + 3*B[i][j] + 1; } }
"""

BRANCHY = """\
kernel branchy(M, N)
arrays: A[MxN]:int32, B[MxN]:int32, C[MxN]:int32
for i in 0..M {
  for j in 0..N {
    if (A[i][j] > B[i][j]) { C[i][j] = A[i][j] + 3*B[i][j] + 1; }
    else { C[i][j] = A[i][j] - 5*B[i][j] - 2; }
  }
}
"""


def test_parse_scaleadd_shape():
    k = parse_kernel(SCALEADD)
    assert k.name == "scaleadd"
    assert k.params == ("M", "N")
    assert [a.name for a in k.arrays] == ["A", "B", "C"]
    loops, body = k.canonical_nest()
    assert [f.var for f in loops] == ["i", "j"]
    assert len(body) == 1
    assert isinstance(body[0], Assign)


def test_parse_empty_body():
    k = parse_kernel("kernel empty(N)\narrays: A[N]:int32\nfor i in 0..N { }")
    assert k.nest.body == ()


def test_parse_branchy_if_else():
    k = parse_kernel(BRANCHY)
    _, body = k.canonical_nest()
    assert len(body) == 1
    assert isinstance(body[0], IfElse)
    assert isinstance(body[0].cond, BinOp) and body[0].cond.op == ">"


# Extents the printer writes in its own affine form: 2*M, -M+1, 1 and 2*M+1.
EXTENTS = """\
kernel extents(M)
arrays: A[M+M]:int32, B[1-M]:int32, C[M-M+1]:int32, D[2*M+1]:int32
for i in 0..M { }
"""


def test_round_trip_through_printer():
    for text in (SCALEADD, BRANCHY, EXTENTS):
        k = parse_kernel(text)
        assert parse_kernel(format_kernel(k)) == k


def test_round_trip_whole_corpus():
    for name in corpus.kernel_names():
        k = corpus.load(name)
        assert parse_kernel(format_kernel(k)) == k, name


def test_syntax_error_position():
    with pytest.raises(KernelSyntaxError) as err:
        parse_kernel("kernel t(N)\narrays: A[N]:int32\nfor i in 0..N { A[i] = ; }")
    assert err.value.line == 3


def test_end_of_input_after_a_trailing_comment_is_at_the_end_of_its_line():
    with pytest.raises(KernelSyntaxError) as err:
        parse_kernel("kernel t(N)\narrays: A[N]:int32\n"
                     "for i in 0..N { A[i] = A[i] + 1; # no brace")
    assert str(err.value) == "3:44: expected a statement, found 'end of input'"


def _one_assign(value: str) -> str:
    return f"kernel t(N)\narrays: A[N]:int32, B[N]:int32\nfor i in 0..N {{ B[i] = {value}; }}"


def test_a_digit_is_what_int_accepts():
    # U+00B2 (superscript two) is a digit to str.isdigit, but not decimal
    for value, col in (("\u00b2", 24), ("1\u00b2", 25)):
        with pytest.raises(KernelSyntaxError) as err:
            parse_kernel(_one_assign(value))
        assert str(err.value) == f"3:{col}: unexpected character '\u00b2'"
    # U+0663 (Arabic-Indic three) is a decimal digit
    assert parse_kernel(_one_assign("\u0663")).nest.body[0].value == IntLit(3)
    # a letter, then any of letters, digits and "_", is an identifier
    with pytest.raises(UnknownIdentifier, match="'x\u00b2_1'"):
        parse_kernel(_one_assign("x\u00b2_1"))


def test_an_int_literal_longer_than_int_reads_is_a_syntax_error_at_it():
    # int() reads at most sys.get_int_max_str_digits() digits (4,300 by
    # default), in an expression and in a loop bound alike
    digits = "1" * 5000
    with pytest.raises(KernelSyntaxError) as err:
        parse_kernel(_one_assign(digits))
    assert str(err.value) == "3:24: integer literal of 5000 digits is too long"
    with pytest.raises(KernelSyntaxError) as err:
        parse_kernel(f"kernel t(N)\narrays: A[N]:int32\nfor i in 0..{digits} {{ }}")
    assert str(err.value) == "3:13: integer literal of 5000 digits is too long"


def test_a_float_literal_beyond_the_largest_float_is_a_syntax_error_at_it():
    with pytest.raises(KernelSyntaxError) as err:
        parse_kernel(_one_assign("A[i] + " + "9" * 400 + ".5"))
    assert str(err.value) == "3:31: float literal beyond the largest float"


@pytest.mark.parametrize("value,printed", [
    ("0.00001", "0.00001"), ("10000000000000000.0", "10000000000000000.0"),
    ("0.1", "0.1"), ("2.50", "2.5")])
def test_a_float_literal_prints_as_digits_that_read_back(value, printed):
    k = parse_kernel(_one_assign(f"{value}*A[i]"))
    assert f"B[i] = {printed}*A[i];" in format_kernel(k)
    assert parse_kernel(format_kernel(k)) == k


def test_comparisons_do_not_chain():
    with pytest.raises(KernelSyntaxError, match="expected ';', found '<'"):
        parse_kernel(_one_assign("A[i] < 1 < 2"))
    with pytest.raises(KernelSyntaxError, match="expected ';', found '=='"):
        parse_kernel(_one_assign("A[i] < 1+A[i] == 2"))


@pytest.mark.parametrize("value,printed", [
    ("(A[i] < 1) < 2", "(A[i] < 1) < 2"),
    ("(A[i] == 1) != (A[i] < 2)", "(A[i] == 1) != (A[i] < 2)"),
    ("A[i] < (1 >= 2)", "A[i] < (1 >= 2)"),
])
def test_the_printer_brackets_a_comparison_inside_a_comparison(value, printed):
    k = parse_kernel(_one_assign(value))
    assert f"B[i] = {printed};" in format_kernel(k)
    assert parse_kernel(format_kernel(k)) == k


# Expression trees the parser can produce, in a kernel that declares them all:
# params M and N, loop variables i and j, arrays A (rank 1) and B (rank 2).
_TREE_KERNEL = parse_kernel("kernel t(M, N)\narrays: A[N]:int32, B[MxN]:int32\n"
                            "for i in 0..M { for j in 0..N { B[i][j] = 0; } }")
_BINARY_OPS = ["==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]


def _with_value(value):
    inner = replace(_TREE_KERNEL.nest.body[0],
                    body=(Assign(ArrayRef("B", (Var("i"), Var("j"))), value),))
    return replace(_TREE_KERNEL, nest=replace(_TREE_KERNEL.nest, body=(inner,)))


def _trees():
    leaves = st.one_of(
        st.integers(-2**40, 2**40).map(IntLit),
        # every finite float, which prints as digits.digits
        st.floats(allow_nan=False, allow_infinity=False).map(FloatLit),
        st.sampled_from(["i", "j", "M", "N"]).map(Var))

    def extend(sub):
        return st.one_of(
            st.builds(BinOp, st.sampled_from(_BINARY_OPS), sub, sub),
            st.builds(Ternary, sub, sub, sub),
            sub.map(lambda e: ArrayRef("A", (e,))),
            st.builds(lambda a, b: ArrayRef("B", (a, b)), sub, sub))

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300)
@given(_trees())
def test_printed_expression_trees_parse_back(value):
    k = _with_value(value)
    assert parse_kernel(format_kernel(k)) == k


def test_every_operand_slot_round_trips():
    # each operator and the ternary, then a negative literal, in each slot
    # of each operator and of the ternary
    x, y = ArrayRef("A", (Var("j"),)), Var("i")
    children = [BinOp(op, x, y) for op in _BINARY_OPS] + [Ternary(x, y, x), IntLit(-3)]
    for child in children:
        parents = [BinOp(op, child, y) for op in _BINARY_OPS]
        parents += [BinOp(op, y, child) for op in _BINARY_OPS]
        parents += [Ternary(child, x, y), Ternary(x, child, y), Ternary(x, y, child)]
        for parent in parents:
            k = _with_value(parent)
            assert parse_kernel(format_kernel(k)) == k, format_kernel(k)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse_kernel("kernel t(N)\narrays: A[N]:int32\n"
                     "for i in 0..N { A[i] = B[i]; }")
    with pytest.raises(UnknownIdentifier):
        parse_kernel("kernel t(N)\narrays: A[QxN]:int32\nfor i in 0..N { }")


def test_lower_bound_must_be_zero():
    with pytest.raises(KernelSyntaxError):
        parse_kernel("kernel t(N)\narrays: A[N]:int32\nfor i in 1..N { }")


def test_extent_forms():
    k = parse_kernel("kernel t(M, N)\narrays: A[M+2xN+2]:int32, B[8]:int32, "
                     "C[MxN]:int32\nfor i in 0..M { }")
    assert [len(a.extents) for a in k.arrays] == [2, 1, 2]
    assert k.arrays[0].extents[0].evaluate({"M": 3, "N": 1}) == 5
    assert k.arrays[1].extents[0].evaluate({}) == 8


@pytest.mark.parametrize("extent,error,message", [
    ("+M", KernelSyntaxError, "2:9: bad array extent '+M'"),
    ("M+", KernelSyntaxError, "2:9: bad array extent 'M+'"),
    ("M--N", KernelSyntaxError, "2:9: bad array extent 'M--N'"),
    ("M*2", KernelSyntaxError, None),
    ("2*3", KernelSyntaxError, None),
    ("M+*N", KernelSyntaxError, None),
    ("M+Q", UnknownIdentifier, "2:9: unknown parameter 'Q' in array extent"),
])
def test_bad_extents_are_refused(extent, error, message):
    with pytest.raises(KernelSyntaxError) as err:
        parse_kernel(f"kernel t(M, N)\narrays: A[{extent}]:int32\nfor i in 0..M {{ }}")
    assert type(err.value) is error
    assert message is None or str(err.value) == message


def test_float_literal_parses():
    k = parse_kernel("kernel t(N)\narrays: A[N]:float32\n"
                     "for i in 0..N { A[i] = 0.5*A[i]; }")
    assert k.arrays[0].dtype == "float32"


def test_ternary_parses_and_prints():
    k = parse_kernel("kernel t(N)\narrays: A[N]:int32, B[N]:int32\n"
                     "for i in 0..N { B[i] = A[i] > 0 ? A[i] : 0 - A[i]; }")
    assert parse_kernel(format_kernel(k)) == k


def test_trunc_division_matches_c():
    assert trunc_div(7, 2) == 3
    assert trunc_div(-7, 2) == -3
    assert trunc_div(7, -2) == -3
    assert trunc_rem(-7, 2) == -1
    assert trunc_rem(7, -2) == 1


def test_evaluate_scaleadd():
    k = parse_kernel(SCALEADD)
    rng = np.random.default_rng(0)
    arrays = allocate_arrays(k, {"M": 4, "N": 4}, rng)
    out = evaluate_kernel(k, arrays, {"M": 4, "N": 4})
    assert np.array_equal(out["C"], arrays["A"] + 3 * arrays["B"] + 1)
    # inputs untouched
    assert np.array_equal(out["A"], arrays["A"])


def test_evaluate_branchy_both_arms():
    k = parse_kernel(BRANCHY)
    arrays = {"A": np.array([[5, 1]], np.int32),
              "B": np.array([[1, 5]], np.int32),
              "C": np.zeros((1, 2), np.int32)}
    out = evaluate_kernel(k, arrays, {"M": 1, "N": 2})
    assert out["C"].tolist() == [[5 + 3 * 1 + 1, 1 - 5 * 5 - 2]]


def test_evaluate_wraps_int32():
    k = parse_kernel("kernel t(N)\narrays: A[N]:int32, B[N]:int32\n"
                     "for i in 0..N { B[i] = A[i] + 1; }")
    arrays = {"A": np.array([2147483647], np.int32), "B": np.zeros(1, np.int32)}
    out = evaluate_kernel(k, arrays, {"N": 1})
    assert out["B"][0] == -2147483648


@pytest.mark.parametrize("body", ["B[i] = A[i+1];", "A[i+1] = B[i];"],
                         ids=["read", "write"])
def test_an_element_out_of_bounds_is_an_eval_error(body):
    k = parse_kernel(f"kernel t(N)\narrays: A[N]:int32, B[N]:int32\nfor i in 0..N {{ {body} }}")
    arrays = {"A": np.zeros(2, np.int32), "B": np.zeros(2, np.int32)}
    with pytest.raises(EvalError) as err:
        evaluate_kernel(k, arrays, {"N": 2})
    assert str(err.value) == "A[2] out of bounds (2,)"


def test_evaluate_kernel_leaves_no_reference_cycle():
    # Without the cyclic collector, the returned arrays must die with the
    # last reference to them: nothing the evaluation built may hold them.
    k = corpus.load("branchmix")
    params = {"M": 3, "N": 4}
    arrays = allocate_arrays(k, params, np.random.default_rng(0))
    gc.disable()
    try:
        out = evaluate_kernel(k, arrays, params)
        ref = weakref.ref(out["C"])
        del out
        assert ref() is None
    finally:
        gc.enable()
