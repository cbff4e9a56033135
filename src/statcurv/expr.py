"""Scalar expressions over chart coordinates, with exact order-2 jets.

Grammar (see also README):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' exponent)*
    exponent := ['-'] INTEGER | '(' exponent ')'
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

NUMBER and INTEGER are ASCII digits.  Functions: sin, cos, tan, cot, exp,
log, sqrt.  Power binds tighter than unary minus (``-t^2`` is ``-(t^2)``)
and chains left-associatively.  Exponents must be integer literals;
fractional powers are written with sqrt/exp/log.  Angles are raw radians.
Nesting is bounded by ``MAX_NESTING``; a long sum or product is not.

One iterative walk over the expression DAG hands each node out once,
children first, to evaluation, unparsing and ``coordinates_read``, and
``==`` compares two DAGs in one iterative walk over pairs of nodes, so no
depth of DAG exhausts the recursion limit.  Evaluation propagates (value,
gradient, hessian) triples along it, so first and second derivatives are
exact up to rounding; finite differences exist only as a test oracle.  Each
jet lives on its support, the coordinates its node depends on: its gradient
and Hessian hold only those entries, and a constant carries no derivatives
at all.  Nodes are immutable and evaluation is pure, so expressions are safe
to share across threads.  The parser hash-conses nodes, so a parsed
expression is a DAG in which each structurally distinct subexpression is one
object, and a group that repeats verbatim is parsed once (see ``_Parser``).

Unparsing spells every shared subexpression out in full at each use but
builds each distinct node object's text once, adding parentheses at each use
from that parent's precedence.  ``MetricSpec.to_text`` shares one such memo
across a whole spec, as ``load_spec`` shares one node table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError

FUNCTIONS = ("sin", "cos", "tan", "cot", "exp", "log", "sqrt")


# --- AST -------------------------------------------------------------------

class _Node:
    """Base of the node classes.  ``==`` compares the trees two nodes spell out,
    in one walk over pairs of nodes that takes each pair of objects once,
    however often the DAGs share it.  The hash reads a node's own fields and
    its children's classes, so equal nodes hash alike without a walk."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        matched = set()
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y or (id(x), id(y)) in matched:
                continue
            if type(x) is not type(y):
                return False
            matched.add((id(x), id(y)))
            for name in x.__match_args__:
                u, v = getattr(x, name), getattr(y, name)
                if isinstance(u, _Node):
                    stack.append((u, v))
                elif u != v:
                    return False
        return True

    def __hash__(self):
        fields = (getattr(self, name) for name in self.__match_args__)
        return hash((type(self), *(type(v) if isinstance(v, _Node) else v for v in fields)))


# The nodes keep object's repr and _Node's equality: the generated ones walk
# the tree, not the DAG, so their cost doubles with each level of sharing.
@dataclass(frozen=True, repr=False, eq=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, repr=False, eq=False)
class Var(_Node):
    name: str
    index: int


@dataclass(frozen=True, repr=False, eq=False)
class Neg(_Node):
    arg: "Node"


@dataclass(frozen=True, repr=False, eq=False)
class Add(_Node):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, repr=False, eq=False)
class Sub(_Node):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, repr=False, eq=False)
class Mul(_Node):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, repr=False, eq=False)
class Div(_Node):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, repr=False, eq=False)
class Pow(_Node):
    base: "Node"
    exponent: int


@dataclass(frozen=True, repr=False, eq=False)
class Call(_Node):
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


def _num(value: float) -> Node:
    """Literal node; negatives are canonicalized as Neg(Num) so that
    parse(unparse(tree)) reproduces the tree exactly."""
    value = float(value)
    if value == 0.0:
        return Num(0.0)  # normalizes -0.0
    if value < 0.0:
        return Neg(Num(-value))
    return Num(value)


def _is_const(node: Node, value: float) -> bool:
    return type(node) is Num and node.value == value


def _const_value(node: Node):
    if type(node) is Num:
        return node.value
    if type(node) is Neg and type(node.arg) is Num:
        return -node.arg.value
    return None


def _rules_apply(left: Node, right: Node) -> bool:
    """Whether a folding rule of a binary operator can fire on these operands:
    each rule needs a Num operand, or two constants, which are Num or Neg(Num)."""
    kl, kr = type(left), type(right)
    return kl is Num or kr is Num or (kl is Neg and kr is Neg)


def _postorder(roots, done):
    """Each node under ``roots`` whose id is not filed in ``done``, children
    before parents, left before right: the order of a memoized recursive
    descent, kept on an explicit stack.  The caller files each yielded node
    before the next.  A node waits under a None marker while its children
    are handed out above it."""
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is None:
            yield stack.pop()
        elif id(node) not in done:
            stack += (node, None)
            kind = type(node)
            if kind is Neg or kind is Call:
                stack.append(node.arg)
            elif kind is Pow:
                stack.append(node.base)
            elif kind is not Num and kind is not Var:
                stack += (node.right, node.left)


# --- tokenizer / parser ----------------------------------------------------

# A token is (kind, text, start, stop): "op" for one of _OPERATORS, "num",
# "name", "eof" at the end, and "bad" for a character no token starts with.
# It is dispatched on its first character: an operator is that character,
# and a number or a name runs as far as its pattern matches.
_OPERATORS = frozenset("+-*/^()")
_LEADS = {
    **dict.fromkeys("0123456789", ("num", re.compile(r"[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?"))),
    ".": ("num", re.compile(r"\.[0-9]+(?:[eE][+-]?[0-9]+)?")),
    **dict.fromkeys(
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", ("name", re.compile(r"[A-Za-z_][A-Za-z0-9_]*"))
    ),
}
_SPACE_RE = re.compile(r"\s*")  # \s is exactly str.isspace, what str.strip removes

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# binary operator -> (precedence, node class); both levels associate to the left
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}


def _byte_offset(text: str, pos: int, start: int = 0) -> int:
    """``pos`` as a byte offset into the UTF-8 expression that begins at ``start``."""
    return len(text[start:pos].encode("utf-8"))


def _scan(text: str, pos: int, end: int):
    """The token at ``pos``, after any whitespace, in ``text[:end]``."""
    while pos < end:
        c = text[pos]
        if c in _OPERATORS:
            return ("op", c, pos, pos + 1)
        lead = _LEADS.get(c)
        if lead is not None:
            m = lead[1].match(text, pos, end)
            if m is not None:  # only a '.' with no digit after it fails
                return (lead[0], m.group(), pos, m.end())
        if not c.isspace():
            return ("bad", c, pos, pos + 1)
        pos = _SPACE_RE.match(text, pos, end).end()
    return ("eof", "", end, end)


def _tokenize(text: str, start: int = 0, end: int | None = None):
    """Every token of ``text[start:end]``, the last one "eof"; raises at a bad character."""
    end = len(text) if end is None else end
    tokens = []
    pos = start
    while True:
        tok = _scan(text, pos, end)
        if tok[0] == "bad":
            raise ExprSyntaxError(f"unexpected character '{tok[1]}'", _byte_offset(text, tok[2], start))
        tokens.append(tok)
        if tok[0] == "eof":
            return tokens
        pos = tok[3]


# characters from a group's '(' that key the table entry listing its text
_GROUP_PREFIX = 16

# Deepest nesting the parser accepts: each group or function argument, unary
# minus and exponent parenthesis opens a level (a group costs three frames of
# the default recursion limit of 1000); sums and products are loops.
MAX_NESTING = 100


class _Parser:
    """Operator-precedence parser that builds every node through ``table``.

    It reads the expression ``text[start:end]`` in place, one ``_scan`` per
    token, and its error offsets are bytes from ``start``.  ``expr`` climbs
    the two binary precedence levels in one loop (Pratt, "Top Down Operator
    Precedence", POPL 1973); ``operand`` reads unary minus, or an atom and
    its powers.

    ``table`` hash-conses nodes (Filliatre & Conchon, "Type-Safe Modular
    Hash-Consing", 2006): structurally equal subexpressions come back as one
    object, so the id-keyed jet cache evaluates each of them once.  A key is
    the node class plus the id() of each child; leaves key on their own
    value, and Num on its float bits so that 0.0 and -0.0 stay apart.  The
    table holds every node it hands out, so those ids stay valid while it
    lives.

    The same table lists, under the first ``_GROUP_PREFIX`` characters (a
    string key, never equal to a node key), each parenthesized group at least
    that long as (text from its ``(`` to its ``)``, node, height).  When a
    listed text recurs at a ``(``, the parser jumps past it and returns its
    node.  That is exact: parsing a group reads nothing beyond its ``)``, so
    the text parses to the same structure wherever it stands, the very node
    a full parse would build.  Tokens are scanned lazily, so a skipped group
    costs no tokenizing.  Exponent parentheses (``t^(2)``) are not groups.

    ``depth`` counts the open levels and ``peak`` the deepest since the
    innermost open group began; a group's height is its peak less the depth
    outside it, and it is skipped only where a full parse stays within
    ``MAX_NESTING``, so the bound does not depend on what the table holds.
    """

    def __init__(self, text: str, start: int, end: int, coords, table: dict):
        self.text = text
        self.start = start
        self.end = end
        self.coords = coords
        self.table = table
        self.tok = _scan(text, start, end)  # the next token, not yet consumed
        self.depth = self.peak = 0

    def intern(self, key: tuple, *fields) -> Node:
        """The node filed under ``key``, built as ``key[0](*fields)`` on first sight."""
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = key[0](*fields)
        return node

    def advance(self):
        tok = self.tok
        self.tok = _scan(self.text, tok[3], self.end)
        return tok

    def error(self, message, tok):
        raise ExprSyntaxError(message, _byte_offset(self.text, tok[2], self.start))

    def nest(self, tok):
        """Open one more level of nesting, at ``tok``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels", tok)
        self.peak = max(self.peak, self.depth)

    def expect_op(self, op):
        tok = self.advance()
        if tok[0] != "op" or tok[1] != op:
            self.error(f"expected '{op}', found '{tok[1] or 'end of input'}'", tok)
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.tok
        if tok[0] != "eof":
            self.error(f"trailing input '{tok[1]}'", tok)
        return node

    def group(self, open_tok) -> Node:
        """The ``expr ')'`` after ``open_tok``, a '(' already consumed."""
        start = open_tok[2]
        text, end = self.text, self.end
        # a prefix that runs past ``end`` lists only texts that do not fit
        prefix = text[start : start + _GROUP_PREFIX]
        base = self.depth
        for key, node, height in self.table.get(prefix, ()):
            if text.startswith(key, start, end) and base + height <= MAX_NESTING:
                self.tok = _scan(text, start + len(key), end)
                self.peak = max(self.peak, base + height)
                return node
        outer_peak, self.peak = self.peak, base
        self.nest(open_tok)
        node = self.expr()
        close = self.expect_op(")")[3]
        self.depth = base
        if close - start >= _GROUP_PREFIX:  # a shorter one is a few tokens to parse again
            self.table.setdefault(prefix, []).append((text[start:close], node, self.peak - base))
        self.peak = max(self.peak, outer_peak)
        return node

    def expr(self) -> Node:
        """Operands joined by binary operators: a sum of products.

        ``node`` is the product being read; ``total``, if any, is the sum
        before it, which the '+' or '-' class ``join`` joins to it.
        """
        total = join = None
        node = self.operand()
        while True:
            tok = self.tok
            op = _BINARY.get(tok[1])  # only an operator token has an operator's text
            if op is not None and op[0] == 2:
                self.tok = _scan(self.text, tok[3], self.end)
                rhs = self.operand()
                node = self.intern((op[1], id(node), id(rhs)), node, rhs)
                continue
            if join is not None:
                node = self.intern((join, id(total), id(node)), total, node)
            if op is None:
                return node
            self.tok = _scan(self.text, tok[3], self.end)
            total, join = node, op[1]
            node = self.operand()

    def operand(self) -> Node:
        """``'-' operand``, or an atom and its powers: ``atom ('^' exponent)*``."""
        tok = self.tok
        self.tok = _scan(self.text, tok[3], self.end)
        kind = tok[0]
        if kind == "num":
            value = float(tok[1])
            node = self.intern((Num, value.hex()), value)
        elif tok[1] == "(":
            node = self.group(tok)
        elif kind == "name":
            name = tok[1]
            if name in FUNCTIONS:
                arg = self.group(self.expect_op("("))
                node = self.intern((Call, name, id(arg)), name, arg)
            elif name in self.coords:
                node = self.intern((Var, name), name, self.coords.index(name))
            else:
                raise UnknownIdentifierError(name, _byte_offset(self.text, tok[2], self.start))
        elif tok[1] == "-":
            self.nest(tok)
            arg = self.operand()
            self.depth -= 1
            return self.intern((Neg, id(arg)), arg)
        else:
            self.error(f"unexpected '{tok[1] or 'end of input'}'", tok)
        while self.tok[1] == "^":
            self.advance()
            exponent = self.exponent()
            node = self.intern((Pow, id(node), exponent), node, exponent)
        return node

    def exponent(self) -> int:
        tok = self.tok
        if tok[0] == "op" and tok[1] == "(":
            self.nest(self.advance())
            value = self.exponent()
            self.expect_op(")")
            self.depth -= 1
            return value
        sign = 1
        if tok[0] == "op" and tok[1] == "-":
            self.advance()
            sign = -1
            tok = self.tok
        if tok[0] != "num" or any(c in tok[1] for c in ".eE"):
            self.error("exponent must be an integer literal", tok)
        self.advance()
        return sign * int(tok[1])


# --- unparse ---------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Var: 5, Call: 5}


def _unparse(node: Node, parent_prec: int = 0, memo: dict | None = None) -> str:
    """The text of ``node``, in parentheses if it binds looser than ``parent_prec``.

    The walk files each distinct node's bare text in ``memo`` as (node, text)
    under id(node), so a DAG costs its edges, not the tree it spells out, and
    a memo passed to several calls shares that work."""
    memo = {} if memo is None else memo
    for sub in _postorder((node,), memo):
        memo[id(sub)] = (sub, _bare_text(sub, memo))
    return _text(node, parent_prec, memo)


def _text(node: Node, parent_prec: int, memo: dict) -> str:
    """The filed text of ``node``, in parentheses if it binds looser than ``parent_prec``."""
    text = memo[id(node)][1]
    return f"({text})" if _PREC[type(node)] < parent_prec else text


def _bare_text(node: Node, memo: dict) -> str:
    """The text of ``node`` without enclosing parentheses, from its children's filed texts."""
    kind = type(node)
    prec = _PREC[kind]
    if kind is Num:
        return repr(node.value).removesuffix(".0")
    if kind is Var:
        return node.name
    if kind is Call:
        return f"{node.func}({_text(node.arg, 0, memo)})"
    if kind is Neg:
        return f"-{_text(node.arg, prec, memo)}"
    if kind is Pow:
        # ^ chains to the left, so a power base keeps no parentheses: t^2^3 is (t^2)^3
        return f"{_text(node.base, prec, memo)}^{node.exponent}"
    op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[kind]
    # right side gets a stricter bound so a-(b+c) and a/(b*c) keep parens
    return f"{_text(node.left, prec, memo)}{op}{_text(node.right, prec + 1, memo)}"


# --- jets ------------------------------------------------------------------

class _Jet:
    """Batched (value, gradient, hessian) triple on the jet's support.

    ``sup`` is the sorted tuple of the k coordinate indices the node depends
    on; ``val`` has shape (B,), ``grad`` (B,k) and ``hess`` (B,k,k) over
    those coordinates.  Every derivative outside the support is an exact
    zero and is not stored, and a constant (``sup == ()``) carries no
    derivative arrays at all: ``grad`` and ``hess`` are None.  This is the
    sparse forward mode of Griewank & Walther (*Evaluating Derivatives*, 2nd
    ed., 2008).  A constant operand takes a scaled or pass-through path; two
    operands on different supports are first widened to the sorted union, so
    every stored entry is computed by the same floating-point operations, in
    the same order, as in a jet that spans all n coordinates; the skipped
    terms are exact zeros at finite values, so at most the sign of a zero
    result differs.  The pass-through paths share arrays between jets, so
    no jet array is ever written in place.

    Hessians are symmetric up to rounding, and exactly symmetric on one
    coordinate, where they are 1 x 1.  Every constructive term is a
    symmetric input, a scalar multiple of one, or an outer product a (x) b
    with its transpose, and sums, differences, ``chain`` and the scaled
    paths keep a symmetric Hessian exactly symmetric.  But ``__mul__`` and
    ``divide`` add ``cross`` and then ``cross^T`` to the symmetric part, so
    once a jet spans two or more coordinates the entries [a, c] and [c, a]
    sum the same three terms in different orders and may differ in their
    last bits (by up to 4 ulp of the largest entry on the hand-built
    structures of the tests).
    """

    __slots__ = ("sup", "val", "grad", "hess")

    def __init__(self, sup, val, grad=None, hess=None):
        self.sup = sup
        self.val = val
        self.grad = grad
        self.hess = hess

    def widened(self, sup):
        """(grad, hess) on ``sup``, a sorted superset of this support."""
        if sup == self.sup:
            return self.grad, self.hess
        batch, k = len(self.val), len(sup)
        grad = np.zeros((batch, k))
        hess = np.zeros((batch, k, k))
        if self.sup:
            pos = np.array([sup.index(i) for i in self.sup])
            grad[:, pos] = self.grad
            hess[:, pos[:, None], pos] = self.hess
        return grad, hess

    def _scaled(self, val, c):
        """Value ``val`` and this jet's derivatives times ``c``."""
        if not self.sup:
            return _Jet((), val)
        return _Jet(self.sup, val, c[:, None] * self.grad, c[:, None, None] * self.hess)

    def __add__(self, other):
        val = self.val + other.val
        if not other.sup:
            return _Jet(self.sup, val, self.grad, self.hess)
        if not self.sup:
            return _Jet(other.sup, val, other.grad, other.hess)
        sup, ga, ha, gb, hb = _common(self, other)
        return _Jet(sup, val, ga + gb, ha + hb)

    def __sub__(self, other):
        val = self.val - other.val
        if not other.sup:
            return _Jet(self.sup, val, self.grad, self.hess)
        if not self.sup:
            return _Jet(other.sup, val, -other.grad, -other.hess)
        sup, ga, ha, gb, hb = _common(self, other)
        return _Jet(sup, val, ga - gb, ha - hb)

    def __neg__(self):
        if not self.sup:
            return _Jet((), -self.val)
        return _Jet(self.sup, -self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        val = self.val * other.val
        if not other.sup:
            return self._scaled(val, other.val)
        if not self.sup:
            return other._scaled(val, self.val)
        sup, ga, ha, gb, hb = _common(self, other)
        grad = self.val[:, None] * gb + other.val[:, None] * ga
        cross = ga[:, :, None] * gb[:, None, :]
        hess = (
            self.val[:, None, None] * hb
            + other.val[:, None, None] * ha
            + cross
            + cross.swapaxes(1, 2)
        )
        return _Jet(sup, val, grad, hess)

    def divide(self, other, where):
        if (other.val == 0.0).any():
            raise EvalDomainError("division by zero", _unparse(where))
        val = self.val / other.val
        if not other.sup:
            if not self.sup:
                return _Jet((), val)
            grad = self.grad / other.val[:, None]
            return _Jet(self.sup, val, grad, self.hess / other.val[:, None, None])
        sup, ga, ha, gb, hb = _common(self, other)  # a constant numerator widens to zeros
        grad = (ga - val[:, None] * gb) / other.val[:, None]
        cross = grad[:, :, None] * gb[:, None, :]
        hess = (
            ha - val[:, None, None] * hb - cross - cross.swapaxes(1, 2)
        ) / other.val[:, None, None]
        return _Jet(sup, val, grad, hess)

    def chain(self, val, d1, d2):
        """Apply a scalar function with value `val` and derivatives d1, d2 at self.val."""
        if not self.sup:
            return _Jet((), val)
        grad = d1[:, None] * self.grad
        outer = self.grad[:, :, None] * self.grad[:, None, :]
        hess = d1[:, None, None] * self.hess + d2[:, None, None] * outer
        return _Jet(self.sup, val, grad, hess)


def _common(a: _Jet, b: _Jet):
    """The sorted union of two supports and both jets' (grad, hess) on it."""
    if a.sup == b.sup:
        return a.sup, a.grad, a.hess, b.grad, b.hess
    sup = tuple(sorted(set(a.sup) | set(b.sup)))
    return (sup, *a.widened(sup), *b.widened(sup))


def _jet_pow(jet: _Jet, k: int, where: Node) -> _Jet:
    if k == 0:
        return _Jet((), np.ones_like(jet.val))
    if k < 0 and (jet.val == 0.0).any():
        raise EvalDomainError("zero raised to a negative power", _unparse(where))
    u = jet.val
    val = u**k
    d1 = k * u ** (k - 1)
    d2 = (k * (k - 1)) * u ** (k - 2) if k != 1 else np.zeros_like(u)
    return jet.chain(val, d1, d2)


def _jet_call(func: str, jet: _Jet, where: Node) -> _Jet:
    u = jet.val
    if func == "sin":
        return jet.chain(np.sin(u), np.cos(u), -np.sin(u))
    if func == "cos":
        return jet.chain(np.cos(u), -np.sin(u), -np.cos(u))
    if func == "tan":
        c = np.cos(u)
        if (c == 0.0).any():
            raise EvalDomainError("tan at a pole", _unparse(where))
        t = np.tan(u)
        sec2 = 1.0 + t * t
        return jet.chain(t, sec2, 2.0 * t * sec2)
    if func == "cot":
        s = np.sin(u)
        if (s == 0.0).any():
            raise EvalDomainError("cot at a pole", _unparse(where))
        ct = np.cos(u) / s
        csc2 = 1.0 + ct * ct
        return jet.chain(ct, -csc2, 2.0 * ct * csc2)
    if func == "exp":
        e = np.exp(u)
        return jet.chain(e, e, e)
    if func == "log":
        if (u <= 0.0).any():
            raise EvalDomainError("log of a nonpositive value", _unparse(where))
        return jet.chain(np.log(u), 1.0 / u, -1.0 / (u * u))
    if func == "sqrt":
        if (u <= 0.0).any():
            raise EvalDomainError("sqrt of a nonpositive value", _unparse(where))
        r = np.sqrt(u)
        return jet.chain(r, 0.5 / r, -0.25 / (u * r))
    raise AssertionError(f"unhandled function {func}")


# --- public types ----------------------------------------------------------

@dataclass(frozen=True)
class Expression:
    """Immutable scalar expression of the chart coordinates.

    Supports arithmetic operators for programmatic composition (used to
    build flipped and conformally rescaled metric components); operands
    must share the same coordinate tuple.
    """

    root: Node
    coords: tuple[str, ...]

    # -- composition --------------------------------------------------------

    @staticmethod
    def constant(value: float, coords) -> "Expression":
        return Expression(_num(value), tuple(coords))

    @staticmethod
    def coordinate(index: int, coords) -> "Expression":
        coords = tuple(coords)
        return Expression(Var(coords[index], index), coords)

    def _coerce(self, other) -> Node:
        if isinstance(other, Expression):
            if other.coords is not self.coords and other.coords != self.coords:
                raise ValueError("cannot combine expressions over different charts")
            return other.root
        return _num(other)

    # Each binary operator builds its node at once where no folding rule can
    # fire (see ``_rules_apply``); otherwise it tries its rules in order.

    def __add__(self, other):
        rhs = self._coerce(other)
        if not _rules_apply(self.root, rhs):
            return Expression(Add(self.root, rhs), self.coords)
        if _is_const(rhs, 0.0):
            return self
        if _is_const(self.root, 0.0):
            return Expression(rhs, self.coords)
        folded = _const_value(self.root)
        folded_r = _const_value(rhs)
        if folded is not None and folded_r is not None:
            return Expression(_num(folded + folded_r), self.coords)
        return Expression(Add(self.root, rhs), self.coords)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if not _rules_apply(self.root, rhs):
            return Expression(Sub(self.root, rhs), self.coords)
        if _is_const(rhs, 0.0):
            return self
        folded = _const_value(self.root)
        folded_r = _const_value(rhs)
        if folded is not None and folded_r is not None:
            return Expression(_num(folded - folded_r), self.coords)
        if _is_const(self.root, 0.0):
            return Expression(Neg(rhs), self.coords)
        return Expression(Sub(self.root, rhs), self.coords)

    def __rsub__(self, other):
        return Expression(self._coerce(other), self.coords) - self

    def __mul__(self, other):
        rhs = self._coerce(other)
        if not _rules_apply(self.root, rhs):
            return Expression(Mul(self.root, rhs), self.coords)
        if _is_const(self.root, 0.0) or _is_const(rhs, 0.0):
            return Expression(Num(0.0), self.coords)
        if _is_const(rhs, 1.0):
            return self
        if _is_const(self.root, 1.0):
            return Expression(rhs, self.coords)
        folded = _const_value(self.root)
        folded_r = _const_value(rhs)
        if folded is not None and folded_r is not None:
            return Expression(_num(folded * folded_r), self.coords)
        return Expression(Mul(self.root, rhs), self.coords)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        # a Neg divisor takes the rules: it may be -0, which must raise
        if type(rhs) is not Neg and not _rules_apply(self.root, rhs):
            return Expression(Div(self.root, rhs), self.coords)
        if _is_const(rhs, 1.0):
            return self
        if _is_const(self.root, 0.0):
            return self
        folded_r = _const_value(rhs)
        if folded_r == 0.0:
            raise ZeroDivisionError("division by constant zero expression")
        folded = _const_value(self.root)
        if folded is not None and folded_r is not None:
            return Expression(_num(folded / folded_r), self.coords)
        return Expression(Div(self.root, rhs), self.coords)

    def __rtruediv__(self, other):
        return Expression(self._coerce(other), self.coords) / self

    def __neg__(self):
        if isinstance(self.root, Neg):
            return Expression(self.root.arg, self.coords)
        if _is_const(self.root, 0.0):
            return self
        return Expression(Neg(self.root), self.coords)

    def pow_int(self, exponent: int) -> "Expression":
        return Expression(Pow(self.root, int(exponent)), self.coords)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return _is_const(self.root, 0.0)

    def constant_value(self) -> float | None:
        """The value of a constant expression (a literal, or minus one), else None."""
        return _const_value(self.root)

    def unparse(self) -> str:
        return _unparse(self.root)


def parse_expression(text: str, coords) -> Expression:
    """Parse ``text`` into an Expression over the named chart coordinates.

    Equal subexpressions within ``text`` are built as one shared node.
    """
    return _parse_interned(text, coords, {})


def _parse_interned(text: str, coords, table: dict, start: int = 0, end: int | None = None) -> Expression:
    """parse_expression of ``text[start:end]``, read in place, through a node
    table shared with other texts over the same coords, so equal
    subexpressions, and repeated parenthesized groups (see ``_Parser``),
    across those texts are one object parsed once.  Error offsets count
    bytes from ``start``.  The first parse into a table checks the
    coordinate names, after its text's emptiness; later texts share them.
    """
    end = len(text) if end is None else end
    if _SPACE_RE.match(text, start, end).end() == end:
        raise ExprSyntaxError("empty expression", 0)
    coords = tuple(coords)
    if not table:
        for name in coords:
            if name in FUNCTIONS or not _NAME_RE.match(name):
                raise ValueError(f"invalid coordinate name '{name}'")
    try:
        root = _Parser(text, start, end, coords, table).parse()
    except (ExprSyntaxError, UnknownIdentifierError):
        # no rule accepts a "bad" token, so a bad character ends the parse in
        # some error; the scan is lazy, but the first bad character anywhere
        # in the text outranks that error, as when all of it was tokenized
        # before parsing
        _tokenize(text, start, end)
        raise
    return Expression(root, coords)


def coordinates_read(exprs) -> tuple[int, ...]:
    """Sorted indices of the chart coordinates that any of ``exprs`` reads.

    One iterative walk over the DAG visits each node object once, so a spec
    costs its distinct nodes, at any depth.  Nothing is evaluated: a
    coordinate counts as read wherever a Var of it is reachable, even if its
    terms cancel.
    """
    seen: dict = {}
    for node in _postorder([e.root for e in exprs], seen):
        seen[id(node)] = node
    return tuple(sorted({node.index for node in seen.values() if type(node) is Var}))


def eval_jet_batch(
    exprs, pts, cache: dict | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched jets of the m expressions ``exprs`` at ``pts`` (B, n).

    Returns val (B, m), grad (B, n, m) and hess (B, n, n, m): column k holds
    the jet of ``exprs[k]``, scattered once from its support (zeros
    elsewhere), so grad[b, i, k] = d_i exprs[k] and hess[b, i, j, k] =
    d_i d_j exprs[k].  This is the one place jets become arrays.

    One iterative walk over the DAG of all m expressions files each node's
    jet, from its children's, in ``cache`` as (node, jet) under id(node), so
    shared subtrees evaluate once, also across calls at the same points that
    pass one ``cache``.  Without one, the call uses its own.
    """
    pts = np.asarray(pts, dtype=float)
    batch, n = pts.shape
    m = len(exprs)
    cache = {} if cache is None else cache
    for node in _postorder([e.root for e in exprs], cache):
        kind = type(node)  # most frequent first
        if kind is Mul:
            jet = cache[id(node.left)][1] * cache[id(node.right)][1]
        elif kind is Add:
            jet = cache[id(node.left)][1] + cache[id(node.right)][1]
        elif kind is Num:
            jet = _Jet((), np.full(batch, node.value))
        elif kind is Neg:
            jet = -cache[id(node.arg)][1]
        elif kind is Div:
            jet = cache[id(node.left)][1].divide(cache[id(node.right)][1], node)
        elif kind is Var:
            i = node.index
            jet = _Jet((i,), pts[:, i].copy(), np.ones((batch, 1)), np.zeros((batch, 1, 1)))
        elif kind is Call:
            jet = _jet_call(node.func, cache[id(node.arg)][1], node)
        elif kind is Sub:
            jet = cache[id(node.left)][1] - cache[id(node.right)][1]
        else:
            jet = _jet_pow(cache[id(node.base)][1], node.exponent, node)
        cache[id(node)] = (node, jet)
    val = np.empty((batch, m))
    grad = np.zeros((batch, n, m))
    hess = np.zeros((batch, n, n, m))
    for k, e in enumerate(exprs):
        jet = cache[id(e.root)][1]
        val[:, k] = jet.val
        if jet.sup:
            sup = np.array(jet.sup)
            grad[:, sup, k] = jet.grad
            hess[:, sup[:, None], sup, k] = jet.hess
    return val, grad, hess
