"""Symbolic composition: the flip and the conformal rescaling build the trees
the folding rules alone build, with the subtrees they repeat shared.

``oracles.RuleExpression`` tries every folding rule on every operation, and
``oracles.dense_flip_spec`` and ``dense_conformal_normalize`` sum every term,
zero products included, and compose each entry's divisor again.  The fast
operators and the sparse sums must give the same trees term by term, so the
same spec text, at one cost per nonzero term.
"""

import dataclasses
import itertools
import operator

import pytest

from statcurv.expr import Call, Div, Num, Var, parse_expression
from statcurv.generators import FAMILIES, GeneratorRecipe, _riemannian_base, battery_recipe, generate
from statcurv.stationary import StationaryStructure, conformal_normalize, flip_spec

from oracles import RuleExpression, dense_conformal_normalize, dense_flip_spec, tree_numbers
from structures import rotating_warped_plane, two_pair_flat_base

COORDS = ("t",)
OPERANDS = ("0", "-0", "1", "2.5", "-2.5", "t", "-t", "sin(t)")
NUMBERS = (0.0, 1.0, 2.5, -2.5)
BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "truediv": operator.truediv}


def _shape(node):
    """The tree under ``node`` as nested tuples; a Num by its float bits."""
    if type(node) is Num:
        return ("Num", node.value.hex())
    return (type(node).__name__,) + tuple(
        _shape(value) if hasattr(value, "__dataclass_fields__") else value for value in vars(node).values()
    )


def _outcome(op, *operands):
    """The tree ``op`` builds from ``operands``, or the exception it raises, by type and message."""
    try:
        result = op(*operands)
    except ZeroDivisionError as exc:
        return ("raises", type(exc).__name__, str(exc))
    return _shape(result.root)


def _both(text):
    e = parse_expression(text, COORDS)
    return e, RuleExpression.of(e)


@pytest.mark.parametrize("name", sorted(BINARY))
@pytest.mark.parametrize("left, right", itertools.product(OPERANDS, OPERANDS))
def test_binary_operator_matches_the_rules(name, left, right):
    # "-0" parses to Neg(Num(0.0)): a divisor the rules refuse, a numerator they keep
    (a, rule_a), (b, rule_b) = _both(left), _both(right)
    op = BINARY[name]
    assert _outcome(op, a, b) == _outcome(op, rule_a, rule_b)


@pytest.mark.parametrize("name", sorted(BINARY))
@pytest.mark.parametrize("number", NUMBERS)
@pytest.mark.parametrize("text", OPERANDS)
def test_operator_with_a_number_matches_the_rules(name, number, text):
    # a float on either side: __radd__, __rsub__, __rmul__, __rtruediv__ and
    # the forward operators coercing their right operand
    e, rule = _both(text)
    op = BINARY[name]
    assert _outcome(op, e, number) == _outcome(op, rule, number)
    assert _outcome(op, number, e) == _outcome(op, number, rule)


@pytest.mark.parametrize("text", OPERANDS)
def test_unary_operators_match_the_rules(text):
    e, rule = _both(text)
    assert _outcome(operator.neg, e) == _outcome(operator.neg, rule)
    for exponent in (-1, 0, 2):
        assert _outcome(lambda x: x.pow_int(exponent), e) == _outcome(lambda x: x.pow_int(exponent), rule)


def test_operands_over_another_chart_are_refused():
    e = parse_expression("t", COORDS)
    other = parse_expression("t", ("t", "x"))
    for op in BINARY.values():
        with pytest.raises(ValueError, match="different charts"):
            op(e, other)


def _dense_generate(recipe: GeneratorRecipe) -> StationaryStructure:
    """``generators.generate`` through the dense oracles."""
    structure = StationaryStructure(dense_flip_spec(_riemannian_base(recipe)))
    return dense_conformal_normalize(structure) if recipe.normalize else structure


def _assert_same_text(got: str, want: str, where=None) -> None:
    """Equal texts; a difference is reported by where it starts, not by a
    diff of megabytes of text."""
    if got != want:
        at = next((k for k, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        pytest.fail(f"{where}: texts differ from character {at}: {got[at:at + 60]!r} != {want[at:at + 60]!r}")


def _assert_same_trees(got, want) -> None:
    """Equal trees in every entry and T component of two specs, however
    their subtrees are shared; a difference is reported by the first key
    whose tree differs, not by the repr of a DAG spelled out as a tree."""
    table: dict = {}
    numbered = []
    for spec in (got, want):
        keys = [f"g_{i}_{j}" for i, j, _ in spec.entries] + [f"T_{k}" for k in range(spec.dimension)]
        roots = [e.root for _, _, e in spec.entries] + [e.root for e in spec.killing.components]
        numbered.append(dict(zip(keys, tree_numbers(roots, table))))
    if numbered[0] != numbered[1]:
        keys = numbered[0].keys() | numbered[1].keys()
        differ = sorted(k for k in keys if numbered[0].get(k) != numbered[1].get(k))
        pytest.fail(f"the trees differ at {differ[0]}")


@pytest.mark.parametrize("block", range(4))
def test_battery_composition_keeps_the_spec_text(block):
    for seed in range(25 * block, 25 * block + 25):
        structure = generate(battery_recipe(seed))
        dense = _dense_generate(battery_recipe(seed))
        _assert_same_text(structure.spec.to_text(), dense.spec.to_text(), seed)
        counterpart = dense_flip_spec(dense.spec)
        _assert_same_text(structure.counterpart_spec.to_text(), counterpart.to_text(), seed)


def _random_recipes():
    # what examples --random --seed 3 writes, for every family, n and --flat-dims 1..3
    for family in FAMILIES:
        for n in (3,) if family == "s3-squashed" else range(3, 9):
            for flat in (1, 2, 3) if family == "product-with-flat" else (0,):
                if n - 1 - flat >= 1:
                    yield GeneratorRecipe(3, n, family, flat_dims=flat)


@pytest.mark.parametrize(
    "recipe", list(_random_recipes()), ids=lambda r: f"{r.family}-n{r.dimension}-flat{r.flat_dims}"
)
def test_random_composition_keeps_the_spec_text(recipe):
    structure = generate(recipe)
    dense = _dense_generate(recipe)
    _assert_same_text(structure.spec.to_text(), dense.spec.to_text())
    counterpart = dense_flip_spec(dense.spec)
    _assert_same_trees(structure.counterpart_spec, counterpart)
    # the counterpart's text is written out only where it is small: at n = 8
    # it spells out 154 MB, the trees compared above hold its every byte
    if recipe.dimension <= 5:
        _assert_same_text(structure.counterpart_spec.to_text(), counterpart.to_text())


def test_non_unit_structures_keep_the_spec_text():
    riem = two_pair_flat_base(1.0, 0.6, 1.0)
    cases = [
        (StationaryStructure(flip_spec(riem)), StationaryStructure(dense_flip_spec(riem))),
        (rotating_warped_plane(),) * 2,
    ]
    for structure, dense in cases:
        assert not structure.unit
        _assert_same_text(structure.spec.to_text(), dense.spec.to_text())
        normalized, dense_normalized = conformal_normalize(structure), dense_conformal_normalize(dense)
        _assert_same_text(normalized.spec.to_text(), dense_normalized.spec.to_text())
        counterpart = dense_flip_spec(dense_normalized.spec)
        _assert_same_text(normalized.counterpart_spec.to_text(), counterpart.to_text())


def _nodes(*specs):
    """Every distinct node object under the specs' entries and T."""
    seen: dict = {}
    stack = [e.root for spec in specs for e in [e for _, _, e in spec.entries] + list(spec.killing.components)]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack += [v for v in vars(node).values() if hasattr(v, "__dataclass_fields__")]
    return list(seen.values())


@pytest.mark.parametrize("seed", range(6))
def test_warps_share_one_sin_and_one_cos(seed):
    # one object across g_L, T and the counterpart composed from them
    structure = generate(battery_recipe(seed))
    calls = [node for node in _nodes(structure.spec, structure.counterpart_spec) if type(node) is Call]
    for func in ("sin", "cos"):
        found = [node for node in calls if node.func == func]
        assert len(found) == 1, func
        assert found[0].arg == Var("t", 0)


@pytest.mark.parametrize("seed", range(6))
def test_normalized_entries_share_one_divisor(seed):
    raw = generate(dataclasses.replace(battery_recipe(seed), normalize=False))
    normalized = conformal_normalize(raw)
    divisors = {id(e.root.right) for _, _, e in normalized.spec.entries}
    assert all(type(e.root) is Div for _, _, e in normalized.spec.entries)
    assert len(divisors) == 1
    assert normalized.spec.entries[0][2].root.right == (-raw.gtt_expression).root

