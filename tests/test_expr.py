"""Expression parsing and order-2 jet evaluation."""

import dataclasses
import math
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statcurv import expr as ex
from statcurv import metric, stationary
from statcurv.errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from statcurv.expr import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    Expression,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    coordinates_read,
    eval_jet_batch,
    parse_expression,
)
from statcurv.generators import GeneratorRecipe, generate

from conftest import SPEC_DIR, sample_interior
from oracles import fd_gradient_hessian, tree_unparse
from structures import rotating_warped_plane, s3_times_torus, two_pair_flat_rotations

COORDS = ("t", "theta1", "theta2")


def jet_at(e, point):
    """(value, gradient, hessian) of ``e`` at one point: row 0 of a (1, n) batch."""
    val, grad, hess = eval_jet_batch([e], [point])
    return float(val[0, 0]), grad[0, :, 0], hess[0, :, :, 0]


class TestParsing:
    def test_s3_component_parses(self):
        e = parse_expression("sin(t)^2*(1-2*sin(t)^2)", COORDS)
        assert isinstance(e.root, Mul)
        assert e.root.left == Pow(Call("sin", Var("t", 0)), 2)
        assert e.root.right == Sub(Num(1.0), Mul(Num(2.0), Pow(Call("sin", Var("t", 0)), 2)))

    def test_constant_zero(self):
        e = parse_expression("0", COORDS)
        assert e.root == Num(0.0)
        assert e.is_zero()

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("q+1", ("t",))
        assert err.value.name == "q"
        assert err.value.offset == 0

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("sin(t", COORDS)
        assert err.value.offset == 5
        with pytest.raises(ExprSyntaxError):
            parse_expression("t +", COORDS)
        with pytest.raises(ExprSyntaxError):
            parse_expression("", COORDS)

    def test_precedence(self):
        # power binds tighter than unary minus; * tighter than +
        e = parse_expression("-t^2", ("t",))
        assert jet_at(e, [3.0])[0] == -9.0
        e2 = parse_expression("1+2*t", ("t",))
        assert jet_at(e2, [5.0])[0] == 11.0
        e3 = parse_expression("(1+2)*t", ("t",))
        assert jet_at(e3, [5.0])[0] == 15.0

    def test_left_associativity(self):
        e = parse_expression("8/4/2", ("t",))
        assert jet_at(e, [1.0])[0] == 1.0
        e2 = parse_expression("t^2^3", ("t",))
        assert jet_at(e2, [2.0])[0] == 64.0  # (t^2)^3

    def test_integer_exponents_only(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("t^2.5", ("t",))
        with pytest.raises(ExprSyntaxError):
            parse_expression("t^t", ("t",))
        assert jet_at(parse_expression("t^-2", ("t",)), [2.0])[0] == 0.25

    @pytest.mark.parametrize(
        "text, char, offset",
        [
            ("\u0661\u0662", "\u0661", 0),  # Arabic-Indic 12
            ("t+\uff11", "\uff11", 2),  # fullwidth 1
            ("1\u0662", "\u0662", 1),
            ("t^\u0662", "\u0662", 2),
        ],
    )
    def test_numbers_are_ascii_digits(self, text, char, offset):
        # float() reads any Unicode digit, so the tokenizer must not
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, ("t",))
        assert str(err.value) == f"unexpected character '{char}' (byte offset {offset})"
        assert err.value.offset == offset

    def test_function_requires_parenthesis(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("sin t", ("t",))

    def test_equal_subexpressions_are_one_object(self):
        text = "sin(t)^2*(1-2*sin(t)^2)+t^2+t^3-cos(theta1)/cos(theta2)+2*t"
        e = parse_expression(text, COORDS)
        assert e.unparse() == text  # nothing unequal was merged
        product = e.root.left.left.left.left  # sin(t)^2*(1-2*sin(t)^2)
        sin_sq = product.left
        assert product.right.right.right is sin_sq
        assert e.root.right.right is sin_sq.base.arg  # the t of 2*t
        assert e.root.left.left.right.base is sin_sq.base.arg  # the t of t^3
        # each call has its own node table; nothing is shared between calls
        assert parse_expression(text, COORDS).root is not e.root

    def test_coordinate_shadowing_function_rejected(self):
        with pytest.raises(ValueError):
            parse_expression("1", ("sin", "t"))


class TestJets:
    def test_square(self):
        value, grad, hess = jet_at(parse_expression("t^2", ("t",)), [3.0])
        assert value == 9.0
        assert grad.tolist() == [6.0]
        assert hess.tolist() == [[2.0]]

    def test_sine_at_zero(self):
        value, grad, hess = jet_at(parse_expression("sin(t)", ("t",)), [0.0])
        assert value == 0.0
        assert grad.tolist() == [1.0]
        assert hess.tolist() == [[0.0]]

    def test_s3_component_at_pi_over_6(self):
        # hand values: sin^2(1-2 sin^2) at pi/6 is 1/4 * 1/2; first derivative
        # sin t cos t (2 - 8 sin^2 t) vanishes there; second derivative
        # 2 cos 2t - 24 sin^2 t cos^2 t + 8 sin^4 t = -3
        e = parse_expression("sin(t)^2*(1-2*sin(t)^2)", ("t",))
        value, grad, hess = jet_at(e, [math.pi / 6])
        assert value == pytest.approx(0.125, abs=1e-15)
        assert grad[0] == pytest.approx(0.0, abs=1e-15)
        assert hess[0, 0] == pytest.approx(-3.0, abs=1e-13)
        # and the finite-difference oracle agrees
        _, fd_grad, fd_hess = fd_gradient_hessian(e, [math.pi / 6])
        assert abs(fd_grad[0] - grad[0]) < 1e-6
        assert abs(fd_hess[0, 0] - hess[0, 0]) < 1e-6

    @given(st.floats(min_value=0.2, max_value=1.2))
    def test_every_function_against_finite_differences(self, x):
        # poles of tan/cot and branch points of log/sqrt stay well outside
        # the sampled interval, so the oracle is clean at 1e-6 relative
        for func in ("sin", "cos", "tan", "cot", "exp", "log", "sqrt"):
            e = parse_expression(f"{func}(t)", ("t",))
            value, grad, hess = jet_at(e, [x])
            fd_value, fd_grad, fd_hess = fd_gradient_hessian(e, [x])
            assert abs(fd_value - value) < 1e-12
            assert abs(fd_grad[0] - grad[0]) <= 1e-6 * max(1.0, abs(grad[0]))
            assert abs(fd_hess[0, 0] - hess[0, 0]) <= 1e-6 * max(1.0, abs(hess[0, 0]))

    @given(st.integers(min_value=-3, max_value=4), st.floats(min_value=0.3, max_value=1.8))
    def test_integer_powers_against_finite_differences(self, k, x):
        e = parse_expression(f"t^{k}" if k >= 0 else f"t^({k})", ("t",))
        _, grad, hess = jet_at(e, [x])
        _, fd_grad, fd_hess = fd_gradient_hessian(e, [x])
        assert abs(fd_grad[0] - grad[0]) <= 1e-6 * max(1.0, abs(grad[0]))
        assert abs(fd_hess[0, 0] - hess[0, 0]) <= 1e-6 * max(1.0, abs(hess[0, 0]))

    def test_hessian_exactly_symmetric(self):
        e = parse_expression("sin(t*theta1)*exp(theta2)/(1+t^2)", COORDS)
        _, _, hess = eval_jet_batch([e], np.array([[0.3, 1.2, 0.4], [1.1, 0.2, 0.9]]))
        assert np.array_equal(hess, hess.swapaxes(1, 2))

    def test_batch_matches_scalar(self):
        e = parse_expression("cos(t)*theta1^3-sqrt(theta2)", COORDS)
        pts = np.array([[0.1, 2.0, 4.0], [1.4, -1.0, 0.25]])
        vals, grads, hesses = (a[..., 0] for a in eval_jet_batch([e], pts))
        for b in range(2):
            value, grad, hess = jet_at(e, pts[b])
            assert vals[b] == value
            assert np.array_equal(grads[b], grad)
            assert np.array_equal(hesses[b], hess)


class TestDomainErrors:
    @pytest.mark.parametrize(
        "text, point",
        [
            ("log(t)", [-1.0]),
            ("log(t)", [0.0]),
            ("sqrt(t)", [-2.0]),
            ("1/t", [0.0]),
            ("t^-1", [0.0]),
            ("sqrt(t)", [0.0]),
        ],
    )
    def test_domain_error(self, text, point):
        with pytest.raises(EvalDomainError) as err:
            jet_at(parse_expression(text, ("t",)), point)
        assert err.value.subexpression

    def test_oracle_refuses_what_jets_refuse(self):
        # the finite-difference oracle evaluates through the jet path, so a
        # stencil that touches sqrt(0) fails as the program would
        with pytest.raises(EvalDomainError, match="sqrt"):
            fd_gradient_hessian(parse_expression("sqrt(t)", ("t",)), [1e-3], step=1e-3)

    def test_error_names_the_subexpression(self):
        e = parse_expression("1+log(t-5)", ("t",))
        with pytest.raises(EvalDomainError) as err:
            jet_at(e, [1.0])
        assert "log(t-5)" in str(err.value)


# -- random expression trees for the property tests ---------------------------

def _leaf(coords):
    return st.one_of(
        st.floats(min_value=0.25, max_value=3.0).map(
            lambda v: Expression.constant(v, coords)
        ),
        st.sampled_from([Expression.coordinate(i, coords) for i in range(len(coords))]),
    )


def _combine(children):
    def apply(args):
        op, (a, b) = args
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / (b * b + 0.5)  # keep denominators positive
        if op == "sin":
            return Expression(Call("sin", a.root), a.coords)
        if op == "cos":
            return Expression(Call("cos", a.root), a.coords)
        if op == "exp":
            return Expression(Call("exp", Mul(Num(0.25), a.root)), a.coords)
        if op == "pow":
            return (a * a + 0.5).pow_int(2)
        raise AssertionError(op)

    return st.tuples(
        st.sampled_from(["+", "-", "*", "/", "sin", "cos", "exp", "pow"]),
        st.tuples(children, children),
    ).map(apply)


def expressions(coords=("t", "u")):
    return st.recursive(_leaf(coords), _combine, max_leaves=12)


def _steep_example():
    # sin(((2+t)*(2+t)+0.5)^2) at the origin: f''' is about 1.3e4 there, so a plain
    # central difference with step 1e-4 misses the gradient 36 cos(20.25) by 3.6e-6
    coords = ("t", "u")
    base = Expression.constant(2.0, coords) + Expression.coordinate(0, coords)
    return Expression(Call("sin", (base * base + 0.5).pow_int(2).root), coords)


@given(expressions(), st.floats(min_value=-1.3, max_value=1.3), st.floats(min_value=-1.3, max_value=1.3))
@example(_steep_example(), 0.0, 0.0)
def test_jets_match_finite_differences(expr, x, y):
    point = [x, y]
    value, grad, hess = jet_at(expr, point)
    if not np.isfinite(value) or abs(value) > 1e6:
        return  # oracle unusable on wild magnitudes
    _, fd_grad, fd_hess = fd_gradient_hessian(expr, point)
    scale_g = np.maximum(np.abs(grad), 1.0)
    scale_h = np.maximum(np.abs(hess), 1.0)
    assert (np.abs(fd_grad - grad) / scale_g).max() < 1e-6
    assert (np.abs(fd_hess - hess) / scale_h).max() < 2e-5  # second differences are noisier


@given(expressions())
def test_parse_unparse_roundtrip(expr):
    text = expr.unparse()
    again = parse_expression(text, expr.coords)
    assert again.root == expr.root
    assert again.unparse() == text


def test_roundtrip_on_shipped_forms():
    for text in (
        "sin(t)^2*(1-2*sin(t)^2)",
        "-2*sin(t)^2*cos(t)^2",
        "cos(t)^2*(1-2*cos(t)^2)",
        "1e-06+t",
        "t^-2",
    ):
        e = parse_expression(text, COORDS)
        assert parse_expression(e.unparse(), COORDS).root == e.root


def test_power_chains_are_written_flat():
    # ^ chains to the left, so a power of a power needs no parentheses; one
    # level per power would put a long chain past the parser's nesting bound
    chain = parse_expression("t" + "^1" * 150, COORDS)
    text = chain.unparse()
    assert text == "t" + "^1" * 150
    assert parse_expression(text, COORDS).root == chain.root
    assert parse_expression("(t^2)^3", COORDS).unparse() == "t^2^3"
    assert parse_expression("(t^-1)^2", COORDS).unparse() == "t^-1^2"
    # a negated base still needs its parentheses: -t^2 is -(t^2)
    assert parse_expression("(-t)^2^3", COORDS).unparse() == "(-t)^2^3"
    spec_text = (SPEC_DIR / "flat_torus.spec").read_text().replace('"-1"', '"-1+0*x' + "^1" * 150 + '"', 1)
    written = metric.load_spec(spec_text).to_text()
    assert metric.load_spec(written).to_text() == written


class TestComposition:
    def test_arithmetic(self):
        t = Expression.coordinate(0, ("t",))
        combo = (t * t + 1.0) / (2.0 - -t)
        assert jet_at(combo, [3.0])[0] == pytest.approx(2.0)

    def test_mismatched_charts_rejected(self):
        a = Expression.coordinate(0, ("t",))
        b = Expression.coordinate(0, ("s",))
        with pytest.raises(ValueError):
            a + b

    def test_zero_and_one_folding(self):
        t = Expression.coordinate(0, ("t",))
        zero = Expression.constant(0.0, ("t",))
        one = Expression.constant(1.0, ("t",))
        assert (t + zero).root == t.root
        assert (t * one).root == t.root
        assert (t * zero).is_zero()
        assert (zero / t).is_zero()

    def test_folding_survives_roundtrip(self):
        t = Expression.coordinate(0, ("t",))
        e = Expression.constant(2.0, ("t",)) * 3.0 - t
        assert parse_expression(e.unparse(), ("t",)).root == e.root

    def test_repr_does_not_spell_out_the_tree(self):
        # x = x + x twenty times: 21 nodes, a tree of 2^21 - 1; a repr that
        # walked the tree would run to tens of megabytes
        x = Expression.coordinate(0, ("x",))
        for _ in range(20):
            x = x + x
        assert len(repr(x)) < 200
        assert len(repr(x.root)) < 100

    def test_equality_of_long_chains_built_apart(self):
        # 5,000 terms of + sin(t), each parsed on its own: no node is shared
        # between the two chains, and a recursive comparison of the trees
        # would exhaust the recursion limit
        def chain(last="sin(t)"):
            e = Expression.constant(0.0, COORDS)
            for k in range(5000):
                e = e + parse_expression(last if k == 4999 else "sin(t)", COORDS)
            return e

        a, b = chain(), chain()
        assert a.root is not b.root
        assert a == b and hash(a) == hash(b)
        assert a != chain("cos(t)")

    def test_equality_of_shared_dags_built_apart(self):
        # x = x + x thirty times: 31 nodes each, trees of 2^31 - 1 nodes; the
        # comparison takes each pair of nodes once
        def doubled(leaf="t"):
            x = parse_expression(leaf, COORDS)
            for _ in range(30):
                x = x + x
            return x

        a, b = doubled(), doubled()
        start = time.perf_counter()
        assert a == b and hash(a) == hash(b)
        assert a != doubled("theta1")
        assert time.perf_counter() - start < 1.0
        assert Num(1.0) != Neg(Num(1.0)) and Num(0.0) == Num(-0.0) and Num(1.0) != 1.0


# --- token-list reference parser ----------------------------------------------
# The parser the group-skipping one replaced, kept as the reference: it
# tokenizes the whole text up front, with the one alternation regex the
# first-character scanner replaced, and parses every token by recursive
# descent.  The current parser must build the same DAG, node for node and
# with the same sharing, and fail with the same error at the same offset.

_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _reference_tokenize(text: str):
    """Every (kind, text, offset) token of ``text``, the last one "eof"."""
    tokens = []
    pos = 0
    while True:
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if stripped:
                bad = len(text) - len(stripped)
                raise ExprSyntaxError(f"unexpected character '{text[bad]}'", ex._byte_offset(text, bad))
            tokens.append(("eof", "", len(text)))
            return tokens
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()


def _tokens_or_error(tokenize, text):
    try:
        return [tok[:3] for tok in tokenize(text)]
    except ExprSyntaxError as err:
        return str(err), err.offset


@settings(max_examples=300)
@given(st.text(st.sampled_from("019.eE+-*/^()_tx \t\xa0\u3000$é٣"), max_size=12))
@example(".e1 .5e-3 1.e+2 1..2 t_1x")
def test_scanner_matches_reference_tokenizer(text):
    # the first character picks the token's kind, and only a number or a
    # name runs a regex; tokens, bad characters and offsets are unchanged
    assert _tokens_or_error(ex._tokenize, text) == _tokens_or_error(_reference_tokenize, text)
    # read in place between text that would extend a number or a name, the
    # tokens stop at the end and the offsets move with the start
    inner = _tokens_or_error(lambda t: ex._tokenize(f"é7{t}9e1_", 2, 2 + len(t)), text)
    if isinstance(inner, tuple):
        assert inner == _tokens_or_error(_reference_tokenize, text)
    else:
        assert [(kind, tok, at - 2) for kind, tok, at in inner] == _tokens_or_error(_reference_tokenize, text)


class _ReferenceParser:
    def __init__(self, text: str, coords, table: dict):
        self.text = text
        self.coords = tuple(coords)
        self.tokens = _reference_tokenize(text)
        self.i = 0
        self.table = table

    def binary(self, cls, left, right):
        key = (cls, id(left), id(right))
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = cls(left, right)
        return node

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok):
        raise ExprSyntaxError(message, ex._byte_offset(self.text, tok[2]))

    def expect_op(self, op):
        tok = self.advance()
        if tok[0] != "op" or tok[1] != op:
            self.error(f"expected '{op}', found '{tok[1] or 'end of input'}'", tok)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            self.error(f"trailing input '{tok[1]}'", tok)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            rhs = self.term()
            node = self.binary(Add if op == "+" else Sub, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            rhs = self.factor()
            node = self.binary(Mul if op == "*" else Div, node, rhs)
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.advance()
            arg = self.factor()
            key = (Neg, id(arg))
            node = self.table.get(key)
            if node is None:
                node = self.table[key] = Neg(arg)
            return node
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            exponent = self.exponent()
            key = (Pow, id(node), exponent)
            hit = self.table.get(key)
            if hit is None:
                hit = self.table[key] = Pow(node, exponent)
            node = hit
        return node

    def exponent(self) -> int:
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "(":
            self.advance()
            value = self.exponent()
            self.expect_op(")")
            return value
        sign = 1
        if tok[0] == "op" and tok[1] == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok[0] != "num" or any(c in tok[1] for c in ".eE"):
            self.error("exponent must be an integer literal", tok)
        self.advance()
        return sign * int(tok[1])

    def atom(self):
        tok = self.advance()
        if tok[0] == "num":
            value = float(tok[1])
            key = (Num, value.hex())
            node = self.table.get(key)
            if node is None:
                node = self.table[key] = Num(value)
            return node
        if tok[0] == "name":
            name = tok[1]
            if name in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                key = (Call, name, id(arg))
                node = self.table.get(key)
                if node is None:
                    node = self.table[key] = Call(name, arg)
                return node
            if name in self.coords:
                key = (Var, name)
                node = self.table.get(key)
                if node is None:
                    node = self.table[key] = Var(name, self.coords.index(name))
                return node
            raise UnknownIdentifierError(name, ex._byte_offset(self.text, tok[2]))
        if tok[0] == "op" and tok[1] == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        self.error(f"unexpected '{tok[1] or 'end of input'}'", tok)


def _reference_parse(text, coords, table, start=0, end=None):
    """``expr._parse_interned`` through the reference parser, which reads a
    copy of ``text[start:end]`` where the production parser reads in place."""
    text = text[start:end]
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return Expression(_ReferenceParser(text, coords, table).parse(), tuple(coords))


def _dag_shape(roots):
    """Each distinct object reachable from ``roots`` once, in first-visit
    order, with its children replaced by their visit numbers: two forests
    have equal shapes exactly when they are equal node for node and share
    the same subexpressions."""
    visit: dict[int, int] = {}
    rows = []

    def walk(node):
        if id(node) not in visit:
            fields = tuple(
                walk(v) if dataclasses.is_dataclass(v) else v
                for v in (getattr(node, f.name) for f in dataclasses.fields(node))
            )
            # Num compares by float bits so that 0.0 and -0.0 stay apart
            if isinstance(node, Num):
                fields = (node.value.hex(),)
            visit[id(node)] = len(rows)
            rows.append((type(node).__name__, *fields))
        return visit[id(node)]

    return [walk(root) for root in roots], rows


def _spec_roots(spec):
    roots = [e.root for _, _, e in spec.entries]
    if spec.killing is not None:
        roots += [e.root for e in spec.killing.components]
    return roots


@pytest.mark.parametrize(
    "source",
    ["s3.spec", "flat_torus.spec", *[(3, dimension) for dimension in range(3, 9)], (0, 5)],
    ids=str,
)
def test_spec_dag_matches_reference(source, monkeypatch):
    # source: a shipped spec, or (seed, dimension) of an `examples --random` one
    if isinstance(source, str):
        text = (SPEC_DIR / source).read_text()
    else:
        text = generate(GeneratorRecipe(*source)).spec.to_text()
    spec = metric.load_spec(text)
    monkeypatch.setattr(metric, "_parse_interned", _reference_parse)
    reference = metric.load_spec(text)
    assert _dag_shape(_spec_roots(spec)) == _dag_shape(_spec_roots(reference))


def test_repeated_groups_are_not_rescanned(monkeypatch):
    text = "(sin(t)*cos(t)+1)*(sin(t)*cos(t)+1)-sin((sin(t)*cos(t)+1))"
    scanned = []
    scan = ex._scan

    def counting(text, pos, end):
        scanned.append(pos)
        return scan(text, pos, end)

    monkeypatch.setattr(ex, "_scan", counting)
    e = parse_expression(text, ("t",))
    group = e.root.left.left
    assert e.root.left.right is group and e.root.right.arg is group
    # the first copy is scanned token by token; of the 13 tokens of each
    # repeat only the '(' and the one after it are
    assert len(scanned) == len(ex._tokenize(text)) - 2 * 11
    assert e.unparse() == "(sin(t)*cos(t)+1)*(sin(t)*cos(t)+1)-sin(sin(t)*cos(t)+1)"


@pytest.mark.parametrize(
    "prefix, opener, core, closer",
    [("", "(", "t", ")"), ("", "sin(", "t", ")"), ("", "-", "t", ""), ("t^", "(", "2", ")")],
    ids=["groups", "arguments", "unary minus", "exponent"],
)
def test_nesting_is_bounded(prefix, opener, core, closer):
    def nested(levels):
        return prefix + opener * levels + core + closer * levels

    parse_expression(nested(ex.MAX_NESTING), ("t",))
    with pytest.raises(ExprSyntaxError, match=f"nesting deeper than {ex.MAX_NESTING} levels") as err:
        parse_expression(nested(ex.MAX_NESTING + 1), ("t",))
    # at the last character of the opener that crosses the limit
    assert err.value.offset == len(prefix) + ex.MAX_NESTING * len(opener) + len(opener) - 1


def test_nesting_bound_covers_repeated_groups():
    # a listed group is skipped only where its full parse would stay
    # within the bound, so a text is accepted or refused whatever the
    # table has seen before
    group = "(" * 40 + "sin(t)*cos(t)+1" + ")" * 40  # 41 levels, with sin's
    table: dict = {}
    ex._parse_interned(group, ("t",), table)
    outer = ex.MAX_NESTING - 41
    fits = "(" * outer + group + ")" * outer
    assert ex._parse_interned(fits, ("t",), table).root is ex._parse_interned(group, ("t",), table).root
    # skipped, not parsed and listed again
    assert [key for key, _, _ in table[group[: ex._GROUP_PREFIX]]].count(group) == 1
    too_deep = "(" + fits + ")"
    with pytest.raises(ExprSyntaxError) as alone:
        parse_expression(too_deep, ("t",))
    with pytest.raises(ExprSyntaxError) as shared:
        ex._parse_interned(too_deep, ("t",), table)
    # at sin's '(', after MAX_NESTING parentheses and "sin"
    assert shared.value.offset == alone.value.offset == ex.MAX_NESTING + 3


@given(expressions())
def test_repeated_subtree_is_one_object(expr):
    a = expr.unparse()
    text = f"({a})*({a})+sin({a})"
    e = parse_expression(text, expr.coords)
    assert _dag_shape([e.root]) == _dag_shape([_reference_parse(text, expr.coords, {}).root])
    assert e.root.left.left is e.root.left.right is e.root.right.arg
    assert e.root.right.arg == expr.root
    again = parse_expression(e.unparse(), expr.coords)
    assert _dag_shape([again.root]) == _dag_shape([e.root])
    assert again.unparse() == e.unparse()


def _shared_forms(expr):
    """``expr``, and ``({a})*({a})+sin({a})`` parsed from its text ``a``,
    whose three copies of ``a`` are one node under three parents."""
    a = tree_unparse(expr.root)
    shared = parse_expression(f"({a})*({a})+sin({a})", expr.coords).root
    return [expr.root, shared, shared.left, shared.right]


@given(st.lists(expressions(), min_size=1, max_size=3), st.integers(min_value=0, max_value=5))
def test_unparse_matches_tree_walk(exprs, parent_prec):
    roots = [root for e in exprs for root in _shared_forms(e)]
    for root in roots:
        assert ex._unparse(root) == tree_unparse(root)
        assert ex._unparse(root, parent_prec) == tree_unparse(root, parent_prec)
    # one memo across every root, as MetricSpec.to_text shares it: a node
    # first written under one parent is reused, and wrapped, under another
    memo: dict = {}
    for root in roots:
        assert ex._unparse(root, parent_prec, memo) == tree_unparse(root, parent_prec)
        assert ex._unparse(root, 0, memo) == tree_unparse(root)


def _doubling_chain(depth):
    """x_{k+1} = x_k*x_k + sin(x_k) from x_0 = t: a tree of about 3^depth
    nodes held as a DAG of 3 nodes and 5 edges per level."""
    x = Expression.coordinate(0, ("t",))
    for _ in range(depth):
        x = x * x + Expression(Call("sin", x.root), x.coords)
    return x


def _dag_edges(root):
    """(distinct nodes, edges) of the DAG under ``root``; x*x counts two edges."""
    seen, edges, stack = set(), 0, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            children = [getattr(node, f.name) for f in dataclasses.fields(node)]
            children = [c for c in children if dataclasses.is_dataclass(c)]
            edges += len(children)
            stack += children
    return len(seen), edges


def test_unparse_calls_are_bounded_by_the_dag(monkeypatch):
    e = _doubling_chain(12)
    nodes, edges = _dag_edges(e.root)
    assert (nodes, edges) == (37, 60)
    built = []
    bare_text = ex._bare_text

    def counting(node, memo):
        built.append(node)
        return bare_text(node, memo)

    monkeypatch.setattr(ex, "_bare_text", counting)
    text = e.unparse()
    # one text build per distinct node: the tree would take about 3^12
    assert len(built) == len({id(node) for node in built}) == nodes
    assert len(text) > 3**12
    monkeypatch.undo()
    small = _doubling_chain(5)
    assert small.unparse() == tree_unparse(small.root)


GROUP = "(sin(t)*cos(t)+1)"  # long enough to be looked up, not parsed, when repeated


@pytest.mark.parametrize(
    "prior, text",
    [
        ("", "t+)*$"),  # a bad character after an earlier syntax error
        ("", "sin t $"),
        ("", "(t+1)*(t+1)*$"),
        ("", f"{GROUP}*{GROUP}*$"),
        ("", "((t)"),
        ("", "t)"),
        ("", ")(t"),
        ("", "(t+1)*(t+1"),
        ("", f"{GROUP}*{GROUP[:-1]}"),
        ("", f"{GROUP}*({GROUP}"),
        ("", f"{GROUP})"),
        ("", "()"),
        ("", "sin t"),
        ("", "sin()"),
        ("", "t^(2"),
        ("", "t^(2)(t)"),
        ("", "t +"),
        ("", "sin(t"),
        ("", "   "),
        ("", f"{GROUP}*{GROUP[:-1]}+q)"),  # unknown name in a copy that shares the first's start
        ("", f"{GROUP}*({GROUP}+q)"),
        ("", f"{GROUP}*{GROUP}*q"),
        (f"{GROUP}*t", f"{GROUP}+{GROUP}^2*$"),  # first copy parsed in an earlier text
        (f"{GROUP}*t", f"{GROUP[:-1]}+q)"),
        (f"{GROUP}*t", f"{GROUP} {GROUP}"),
    ],
)
def test_errors_match_reference(prior, text):
    def outcome(parse):
        table: dict = {}
        if prior:
            parse(prior, ("t",), table)
        try:
            parse(text, ("t",), table)
        except (ExprSyntaxError, UnknownIdentifierError) as err:
            return type(err), str(err), err.offset
        raise AssertionError(f"{text!r} parsed")

    assert outcome(ex._parse_interned) == outcome(_reference_parse)


# --- dense reference jets -----------------------------------------------------
# The jets the support-restricted ones replaced, and the metric and T loops
# that wrote them whole, kept as the reference: every jet carries a full
# (B,n) gradient and (B,n,n) Hessian, constants included.
# The production jets must give the same numbers (an exact zero may differ in
# sign) and raise the same EvalDomainError on the same inputs.


class _DenseReferenceJet:
    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        return _DenseReferenceJet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)

    def __sub__(self, other):
        return _DenseReferenceJet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)

    def __neg__(self):
        return _DenseReferenceJet(-self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        val = self.val * other.val
        grad = self.val[:, None] * other.grad + other.val[:, None] * self.grad
        cross = self.grad[:, :, None] * other.grad[:, None, :]
        hess = (
            self.val[:, None, None] * other.hess
            + other.val[:, None, None] * self.hess
            + cross
            + np.swapaxes(cross, 1, 2)
        )
        return _DenseReferenceJet(val, grad, hess)

    def divide(self, other, where):
        if np.any(other.val == 0.0):
            raise EvalDomainError("division by zero", ex._unparse(where))
        val = self.val / other.val
        grad = (self.grad - val[:, None] * other.grad) / other.val[:, None]
        cross = grad[:, :, None] * other.grad[:, None, :]
        hess = (
            self.hess - val[:, None, None] * other.hess - cross - np.swapaxes(cross, 1, 2)
        ) / other.val[:, None, None]
        return _DenseReferenceJet(val, grad, hess)

    def chain(self, val, d1, d2):
        grad = d1[:, None] * self.grad
        outer = self.grad[:, :, None] * self.grad[:, None, :]
        hess = d1[:, None, None] * self.hess + d2[:, None, None] * outer
        return _DenseReferenceJet(val, grad, hess)


def _reference_pow(jet, k, where):
    if k == 0:
        one = np.ones_like(jet.val)
        return _DenseReferenceJet(one, np.zeros_like(jet.grad), np.zeros_like(jet.hess))
    if k < 0 and np.any(jet.val == 0.0):
        raise EvalDomainError("zero raised to a negative power", ex._unparse(where))
    u = jet.val
    val = u**k
    d1 = k * u ** (k - 1)
    d2 = (k * (k - 1)) * u ** (k - 2) if k != 1 else np.zeros_like(u)
    return jet.chain(val, d1, d2)


def _reference_call(func, jet, where):
    u = jet.val
    if func == "sin":
        return jet.chain(np.sin(u), np.cos(u), -np.sin(u))
    if func == "cos":
        return jet.chain(np.cos(u), -np.sin(u), -np.cos(u))
    if func == "tan":
        c = np.cos(u)
        if np.any(c == 0.0):
            raise EvalDomainError("tan at a pole", ex._unparse(where))
        t = np.tan(u)
        sec2 = 1.0 + t * t
        return jet.chain(t, sec2, 2.0 * t * sec2)
    if func == "cot":
        s = np.sin(u)
        if np.any(s == 0.0):
            raise EvalDomainError("cot at a pole", ex._unparse(where))
        ct = np.cos(u) / s
        csc2 = 1.0 + ct * ct
        return jet.chain(ct, -csc2, 2.0 * ct * csc2)
    if func == "exp":
        e = np.exp(u)
        return jet.chain(e, e, e)
    if func == "log":
        if np.any(u <= 0.0):
            raise EvalDomainError("log of a nonpositive value", ex._unparse(where))
        return jet.chain(np.log(u), 1.0 / u, -1.0 / (u * u))
    if func == "sqrt":
        if np.any(u <= 0.0):
            raise EvalDomainError("sqrt of a nonpositive value", ex._unparse(where))
        r = np.sqrt(u)
        return jet.chain(r, 0.5 / r, -0.25 / (u * r))
    raise AssertionError(f"unhandled function {func}")


def _reference_eval(node, pts, cache):
    hit = cache.get(id(node))
    if hit is not None:
        return hit[1]
    batch, n = pts.shape
    if isinstance(node, Num):
        jet = _DenseReferenceJet(
            np.full(batch, node.value), np.zeros((batch, n)), np.zeros((batch, n, n))
        )
    elif isinstance(node, Var):
        grad = np.zeros((batch, n))
        grad[:, node.index] = 1.0
        jet = _DenseReferenceJet(pts[:, node.index].copy(), grad, np.zeros((batch, n, n)))
    elif isinstance(node, Neg):
        jet = -_reference_eval(node.arg, pts, cache)
    elif isinstance(node, Add):
        jet = _reference_eval(node.left, pts, cache) + _reference_eval(node.right, pts, cache)
    elif isinstance(node, Sub):
        jet = _reference_eval(node.left, pts, cache) - _reference_eval(node.right, pts, cache)
    elif isinstance(node, Mul):
        jet = _reference_eval(node.left, pts, cache) * _reference_eval(node.right, pts, cache)
    elif isinstance(node, Div):
        jet = _reference_eval(node.left, pts, cache).divide(_reference_eval(node.right, pts, cache), node)
    elif isinstance(node, Pow):
        jet = _reference_pow(_reference_eval(node.base, pts, cache), node.exponent, node)
    elif isinstance(node, Call):
        jet = _reference_call(node.func, _reference_eval(node.arg, pts, cache), node)
    else:
        raise AssertionError(f"unhandled node {node!r}")
    cache[id(node)] = (node, jet)
    return jet


def _reference_jets(exprs, pts, cache=None):
    """``expr.eval_jet_batch`` on the dense reference jets: each expression's
    full (B,n) gradient and (B,n,n) Hessian are written whole into its column."""
    pts = np.asarray(pts, dtype=float)
    cache = {} if cache is None else cache
    jets = [_reference_eval(e.root, pts, cache) for e in exprs]
    return tuple(np.stack([getattr(jet, a) for jet in jets], axis=-1) for a in ("val", "grad", "hess"))


def _depends_on(node) -> set:
    """Indices of the coordinates that occur in ``node``."""
    if isinstance(node, Var):
        return {node.index}
    children = [getattr(node, f.name) for f in dataclasses.fields(node)]
    return set().union(*(_depends_on(c) for c in children if dataclasses.is_dataclass(c)))


def _raw_trees(n):
    """Trees built node by node, with no constant folding: constants on
    either side of every operation, shared subtrees, all seven functions
    and integer powers from -3 to 3."""
    coords = tuple(f"x{i}" for i in range(n))
    leaves = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.5]).map(Num),
        st.sampled_from([Var(c, i) for i, c in enumerate(coords)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from([Add, Sub, Mul, Div]), children, children).map(
                lambda a: a[0](a[1], a[2])
            ),
            st.tuples(st.sampled_from([Add, Mul, Div]), children).map(lambda a: a[0](a[1], a[1])),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=-3, max_value=3)).map(lambda a: Pow(*a)),
            st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda a: Call(*a)),
        )

    return st.recursive(leaves, extend, max_leaves=10).map(lambda root: Expression(root, coords))


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.lists(_raw_trees(n), max_size=3)))
def test_coordinates_read_is_the_union_of_dependencies(exprs):
    want = set().union(*(_depends_on(e.root) for e in exprs))
    assert coordinates_read(exprs) == tuple(sorted(want))


def test_coordinates_read_walks_deep_trees_without_recursion():
    coords = ("x0", "x1", "x2")
    node = Var("x2", 2)
    for _ in range(5 * sys.getrecursionlimit()):
        node = Add(Num(1.0), Neg(node))
    assert coordinates_read([Expression(node, coords)]) == (2,)


def test_deep_dags_evaluate_unparse_and_scan():
    depth = 5 * sys.getrecursionlimit()
    coords = ("x", "y")
    x, y = Var("x", 0), Var("y", 1)
    # left-deep: x + depth * (x*y - x^2/2), whose text nests one level deep
    term = Sub(Mul(x, y), Div(Pow(x, 2), Num(2.0)))
    node = x
    for _ in range(depth):
        node = Add(node, term)
    deep = Expression(node, coords)
    # half-integers keep every partial sum exact
    pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
    px, py = pts[:, 0], pts[:, 1]
    want_val = px + depth * (px * py - px * px / 2)
    want_grad = np.stack([1 + depth * (py - px), depth * px], axis=1)
    want_hess = np.broadcast_to(np.array([[-depth, depth], [depth, 0.0]]), (2, 2, 2))

    def check(e):
        val, grad, hess = eval_jet_batch([e], pts)
        assert np.array_equal(val[:, 0], want_val)
        assert np.array_equal(grad[..., 0], want_grad)
        assert np.array_equal(hess[..., 0], want_hess)

    check(deep)
    assert coordinates_read([deep]) == (0, 1)
    text = deep.unparse()
    assert text == "x" + "+(x*y-x^2/2)" * depth
    spec = metric.MetricSpec(
        coords, ((0.0, 1.0), (0.0, 1.0)), 1e-3, "riemannian",
        ((0, 0, deep), (1, 1, Expression.constant(1.0, coords))),
    )
    spec_text = spec.to_text()
    again = metric.load_spec(spec_text)
    assert again.to_text() == spec_text
    check(again.entries[0][2])
    # right-deep, as in the scan test above: 1 - (1 - (... - x2)), an even
    # number of flips of x2.  Its text nests two levels per node, past what
    # the parser accepts, and the parser says so
    node = Var("x2", 2)
    for _ in range(depth):
        node = Add(Num(1.0), Neg(node))
    flips = Expression(node, ("x0", "x1", "x2"))
    val, grad, hess = eval_jet_batch([flips], pts[:, [0, 1, 1]])
    assert np.array_equal(val[:, 0], pts[:, 1])
    assert np.array_equal(grad[..., 0], np.broadcast_to([0.0, 0.0, 1.0], (2, 3)))
    assert not hess.any()
    text = flips.unparse()
    assert text == "1+-(" * (depth - 1) + "1+-x2" + ")" * (depth - 1)
    with pytest.raises(ExprSyntaxError, match=f"nesting deeper than {ex.MAX_NESTING} levels"):
        parse_expression(text, flips.coords)


# exact zeros and small integers reach every domain check; the floats the rest
_COORDINATE = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0]), st.floats(min_value=-2.0, max_value=2.0)
)


@st.composite
def _trees_and_points(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    e = draw(_raw_trees(n))
    pts = draw(st.lists(st.lists(_COORDINATE, min_size=n, max_size=n), min_size=3, max_size=3))
    return e, np.array(pts)


@given(_trees_and_points())
@example(
    (Expression(Div(Num(1.0), Sub(Var("x0", 0), Var("x1", 1))), ("x0", "x1")), np.array([[1.0, 1.0]]))
)
@example(
    (Expression(Call("cot", Mul(Num(2.0), Var("x0", 0))), ("x0",)), np.array([[0.5], [0.0]]))
)
@example(
    (
        Expression(Div(Call("sin", Var("x0", 0)), Num(2.5)), ("x0", "x1")),
        np.array([[0.5, 1.0], [1.5, -1.0]]),
    )
)
@example(
    (
        Expression(Sub(Num(1.0), Mul(Var("x0", 0), Var("x1", 1))), ("x0", "x1")),
        np.array([[0.5, 1.0], [1.5, -1.0]]),
    )
)
@example(
    # two failing subexpressions: the left one is named
    (
        Expression(Add(Call("log", Var("x0", 0)), Call("sqrt", Var("x1", 1))), ("x0", "x1")),
        np.array([[0.0, -1.0]]),
    )
)
def test_jets_match_dense_reference(case):
    e, pts = case

    def outcome(evaluate):
        try:
            return evaluate()
        except EvalDomainError as err:
            return str(err)

    with np.errstate(all="ignore"):
        got = outcome(lambda: tuple(a[..., 0] for a in eval_jet_batch([e], pts)))
        ref = outcome(lambda: _reference_eval(e.root, pts, {}))
    if isinstance(ref, str):
        assert got == ref
        return
    assert not isinstance(got, str), got
    want = (ref.val, ref.grad, ref.hess)
    # an overflow can turn a dense jet's zero into inf * 0 = NaN; values
    # are compared where the reference is finite throughout
    if all(np.all(np.isfinite(a)) for a in want):
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a, b)


def _structure_data_and_cache(s, pts, monkeypatch):
    """``structure_data(s, pts)`` and the one jet cache its two
    ``eval_jet_batch`` calls, g_L's entries and T's components, shared; the
    flip is built from their arrays and evaluates no jet."""
    caches = []

    def recording(exprs, pts, cache=None):
        caches.append(cache)
        return eval_jet_batch(exprs, pts, cache)

    monkeypatch.setattr(metric, "eval_jet_batch", recording)
    monkeypatch.setattr(stationary, "eval_jet_batch", recording)
    data = stationary.structure_data(s, pts)
    monkeypatch.setattr(metric, "eval_jet_batch", eval_jet_batch)
    monkeypatch.setattr(stationary, "eval_jet_batch", eval_jet_batch)
    assert len(caches) == 2 and caches[0] is caches[1] is not None
    return data, caches[0]


@pytest.mark.parametrize(
    "build, widest", [(two_pair_flat_rotations, 4), (s3_times_torus, 1)]
)
def test_structure_data_matches_dense_reference(build, widest, monkeypatch):
    # two_pair_flat_rotations: g_L is itself the flip of a constant metric
    # by a T that spans x, y, u and v, so its jets widen up to all four;
    # s3_times_torus: entries in t beside constant ones.  The reference
    # evaluates g_L and T (with its Hessians) on dense jets, and the same
    # array flip builds g from those
    s = build()
    pts = sample_interior(s.spec, 20, 7)
    got, cache = _structure_data_and_cache(s, pts, monkeypatch)
    # a jet on two or more coordinates comes only from widening two supports
    assert {len(jet.sup) for _, jet in cache.values()} == set(range(widest + 1))
    monkeypatch.setattr(metric, "eval_jet_batch", _reference_jets)
    monkeypatch.setattr(stationary, "eval_jet_batch", _reference_jets)
    want = stationary.structure_data(s, pts)
    for field in dataclasses.fields(got):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
    for name in ("rm_l", "rm_g", "dgtt", "cov_t_g"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("build", [two_pair_flat_rotations, rotating_warped_plane])
def test_hessians_are_symmetric_to_the_stated_bound(build, monkeypatch):
    # __mul__ and divide add cross and cross^T to the symmetric part one
    # after the other, so on two or more coordinates the entries [a, c] and
    # [c, a] sum the same terms in another order; on these structures they
    # differ by at most 4 ulp of the point's largest Hessian entry (3 to 4
    # ulp at 400 points of two_pair_flat_rotations, 0 on rotating_warped_plane)
    s = build()
    _, cache = _structure_data_and_cache(s, sample_interior(s.spec, 50, 7), monkeypatch)
    for _, jet in cache.values():
        if jet.hess is None:
            continue
        asym = np.abs(jet.hess - jet.hess.swapaxes(1, 2)).max(axis=(1, 2))
        if len(jet.sup) == 1:
            assert not asym.any()
        else:
            assert np.all(asym <= 4 * np.spacing(np.abs(jet.hess).max(axis=(1, 2))))


def test_jets_hold_only_their_support(monkeypatch):
    s = stationary.StationaryStructure.from_spec(metric.load_spec_file(SPEC_DIR / "s3.spec"))
    _, cache = _structure_data_and_cache(s, sample_interior(s.spec, 10, 0), monkeypatch)
    deps = []
    for node, jet in cache.values():
        k = len(_depends_on(node))
        deps.append(k)
        assert (0 if jet.grad is None else jet.grad.shape[1]) == k
        assert (0 if jet.hess is None else jet.hess.shape[1]) == k
    assert sorted(set(deps)) == [0, 1]


@pytest.mark.parametrize("entry", ["exp(exp(t))", "1/exp(exp(t))"])
def test_overflowing_entry_is_refused(entry):
    # exp(exp(t)) overflows for t > 6.56; its reciprocal has the finite
    # value 0 there but a NaN derivative
    spec = metric.load_spec(
        "[chart]\ncoords = t, x\nt = 0, 7\nx = 0, 1\n"
        f'[metric]\ng_0_0 = "{entry}"\ng_1_1 = "1"\n'
        "[signature]\nkind = riemannian\n"
    )
    metric.metric_fields(spec, np.array([[1.0, 0.5]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvalDomainError, match="non-finite metric component"):
            metric.metric_fields(spec, np.array([[1.0, 0.5], [6.9, 0.5]]))
