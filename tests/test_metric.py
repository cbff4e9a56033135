"""Metric spec files, coordinate evaluation, Christoffels, Riemann tensor."""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statcurv.curvature_ops import operators_at
from statcurv.errors import (
    ChartDomainError,
    ExprSyntaxError,
    NearSingularError,
    SignatureError,
    SpecFormatError,
    UnknownIdentifierError,
)
from statcurv import expr as ex
from statcurv.expr import Expression, eval_jet_batch, parse_expression
from statcurv.generators import GeneratorRecipe, battery_recipe, generate
from statcurv.frames import orthonormal_completion
from statcurv.lambda2 import Lambda2Basis, pair_components
from statcurv.metric import (
    _parse_sections,
    christoffel_batch,
    first_kind,
    frame_components_batch,
    load_spec,
    load_spec_file,
    metric_batch,
    riemann_batch,
)
from statcurv.stationary import StationaryStructure, structure_data

from conftest import SPEC_DIR, sample_interior
from oracles import (
    constant_curvature_oracle,
    fd_christoffel_oracle,
    fd_metric_derivative,
    pair_entries,
    riemann_residuals,
    riemann_tensor,
    riemann_tensors,
    sections_by_splitlines,
    wedge_pair_components,
)


# A single point is a (1, n) batch followed by [0].

def metric_point(spec, point):
    """(g, g_inv, dg, d2g) of ``metric_batch`` at one point."""
    return tuple(a[0] for a in metric_batch(spec, [point]))


def christoffel_point(spec, point):
    _, g_inv, dg, _ = metric_batch(spec, [point])
    return christoffel_batch(g_inv, first_kind(dg))[0]


def riemann_point(spec, point):
    """Coordinate components (n, n, n, n) of the lowered Riemann tensor at one point (the n^4 oracle)."""
    _, g_inv, dg, d2g = metric_batch(spec, [point])
    return riemann_tensor(christoffel_batch(g_inv, first_kind(dg)), dg, d2g)[0]


def riemann_pairs(g_inv, dg, d2g):
    """``riemann_batch`` (B, N, N) from a metric's inverse and jets."""
    first = first_kind(dg)
    return riemann_batch(christoffel_batch(g_inv, first), first, d2g)


def frame_point(comps, vectors):
    """Components (n,n,n,n) of one point's tensor in the frame whose rows are ``vectors``."""
    return frame_components_batch(comps[None], np.asarray(vectors, dtype=float)[None])[0]


def einsum_riemann(g, g_inv, dg, d2g):
    """The second-kind reference formula: differentiate Gamma^k_ij through
    d(g^-1) = -g^-1 dg g^-1, then lower with g.  Rm[b,i,j,k,l] = g(R(d_i,d_j)d_k, d_l)."""
    sym = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)  # [b,i,j,l]
    gamma = 0.5 * np.einsum("bkl,bijl->bkij", g_inv, sym)
    # dsym[b,m,i,j,l] = d_m(d_i g_jl + d_j g_il - d_l g_ij), d2g[b,m,k,i,j] = d_m d_k g_ij
    dsym = d2g + d2g.transpose(0, 1, 3, 2, 4) - d2g.transpose(0, 1, 3, 4, 2)
    dg_inv = -np.einsum("bka,bmac,bcl->bmkl", g_inv, dg, g_inv)
    dgamma = 0.5 * (
        np.einsum("bmkl,bijl->bmkij", dg_inv, sym) + np.einsum("bkl,bmijl->bmkij", g_inv, dsym)
    )
    # up[b,l,i,j,k] = d_i Gamma^l_jk - d_j Gamma^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    up = (
        np.einsum("biljk->blijk", dgamma)
        - np.einsum("bjlik->blijk", dgamma)
        + np.einsum("blim,bmjk->blijk", gamma, gamma)
        - np.einsum("bljm,bmik->blijk", gamma, gamma)
    )
    return np.einsum("blm,bmijk->bijkl", g, up)


def first_kind_riemann(spec, pts):
    """Rm on coordinate pairs (B, N, N) of ``spec`` at ``pts``, as ``riemann_batch`` computes it."""
    _, g_inv, dg, d2g = metric_batch(spec, pts)
    return riemann_pairs(g_inv, dg, d2g)


def on_pairs(rm):
    """The coordinate-pair entries (B, N, N) of full tensors (B, n, n, n, n)."""
    return pair_entries(rm, Lambda2Basis.standard(rm.shape[-1]))


def assert_close_per_point(rm, ref, rel):
    for b in range(ref.shape[0]):
        assert np.abs(rm[b] - ref[b]).max() <= rel * np.abs(ref[b]).max(), f"point {b}"


def random_jets(rng, batch, n):
    """Well-conditioned symmetric g with jets of the right symmetries (not integrable)."""
    a = rng.standard_normal((batch, n, n))
    g = a @ a.swapaxes(1, 2) + n * np.eye(n)
    dg = rng.standard_normal((batch, n, n, n))
    dg = dg + dg.swapaxes(2, 3)
    d2g = rng.standard_normal((batch, n, n, n, n))
    d2g = d2g + d2g.swapaxes(1, 2)
    d2g = d2g + d2g.swapaxes(3, 4)
    return g, np.linalg.inv(g), dg, d2g


# --- exact oracle: sympy derivatives, second-kind algebra in 50-digit mpmath --

def _to_sympy(root, symbols):
    sympy = pytest.importorskip("sympy")
    funcs = {
        "sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "cot": sympy.cot,
        "exp": sympy.exp, "log": sympy.log, "sqrt": sympy.sqrt,
    }
    memo: dict = {}

    def conv(node):
        if id(node) not in memo:
            if isinstance(node, ex.Num):
                out = sympy.Rational(node.value)  # the exact binary value
            elif isinstance(node, ex.Var):
                out = symbols[node.index]
            elif isinstance(node, ex.Neg):
                out = -conv(node.arg)
            elif isinstance(node, ex.Add):
                out = conv(node.left) + conv(node.right)
            elif isinstance(node, ex.Sub):
                out = conv(node.left) - conv(node.right)
            elif isinstance(node, ex.Mul):
                out = conv(node.left) * conv(node.right)
            elif isinstance(node, ex.Div):
                out = conv(node.left) / conv(node.right)
            elif isinstance(node, ex.Pow):
                out = conv(node.base) ** node.exponent
            else:
                out = funcs[node.func](conv(node.arg))
            memo[id(node)] = out
        return memo[id(node)]

    return conv(root)


def _second_kind_riemann(mpmath, g, dg, d2g):
    """Textbook Rm_ijkl = g_lp R^p_ijk from mpf arrays g[i,j], dg[k,i,j] = d_k g_ij and
    d2g[m,k,i,j] = d_m d_k g_ij, differentiating Gamma^k_ij through d(g^-1)."""
    n = g.shape[0]
    rn = range(n)

    def table(rank, entry):
        out = np.empty((n,) * rank, dtype=object)
        for idx in product(rn, repeat=rank):
            out[idx] = entry(*idx)
        return out

    inv = mpmath.inverse(mpmath.matrix(g.tolist()))
    gi = table(2, lambda k, l: inv[k, l])
    dgi = table(3, lambda m, k, l: -sum(gi[k, a] * dg[m, a, c] * gi[c, l] for a in rn for c in rn))
    sym = table(3, lambda i, j, l: dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
    dsym = table(4, lambda m, i, j, l: d2g[m, i, j, l] + d2g[m, j, i, l] - d2g[m, l, i, j])
    gam = table(3, lambda k, i, j: sum(gi[k, l] * sym[i, j, l] for l in rn) / 2)
    dgam = table(  # dgam[m,k,i,j] = d_m Gamma^k_ij
        4,
        lambda m, k, i, j: sum(
            dgi[m, k, l] * sym[i, j, l] + gi[k, l] * dsym[m, i, j, l] for l in rn
        ) / 2,
    )
    up = table(  # R^p_ijk = d_i Gamma^p_jk - d_j Gamma^p_ik + G^p_im G^m_jk - G^p_jm G^m_ik
        4,
        lambda p, i, j, k: dgam[i, p, j, k]
        - dgam[j, p, i, k]
        + sum(gam[p, i, m] * gam[m, j, k] - gam[p, j, m] * gam[m, i, k] for m in rn),
    )
    return table(4, lambda i, j, k, l: sum(g[l, p] * up[p, i, j, k] for p in rn)).astype(float)


def exact_riemann(spec, pts):
    """Rm at each point from sympy's exact g, dg, d2g and 50-digit second-kind algebra."""
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    n = spec.dimension
    xs = sympy.symbols(f"x0:{n}")
    jets = []
    for i, j, e in spec.entries:
        s = _to_sympy(e.root, xs)
        ds = [sympy.diff(s, x) for x in xs]
        d2s = [[sympy.diff(d, x) for x in xs] for d in ds]
        jets.append((i, j, sympy.lambdify(xs, [s, ds, d2s], modules="mpmath")))
    out = np.zeros((len(pts), n, n, n, n))
    with mpmath.workdps(50):
        for b, point in enumerate(pts):
            g = np.full((n, n), mpmath.mpf(0), dtype=object)
            dg = np.full((n, n, n), mpmath.mpf(0), dtype=object)
            d2g = np.full((n, n, n, n), mpmath.mpf(0), dtype=object)
            for i, j, f in jets:
                value, grad, hess = f(*(mpmath.mpf(float(x)) for x in point))
                for p, q in {(i, j), (j, i)}:
                    g[p, q] = value
                    dg[:, p, q] = grad
                    d2g[:, :, p, q] = hess
            out[b] = _second_kind_riemann(mpmath, g, dg, d2g)
    return out


class TestLoadSpec:
    def test_shipped_s3(self):
        spec = load_spec_file(SPEC_DIR / "s3.spec")
        assert spec.dimension == 3
        assert spec.signature == "lorentzian"
        assert spec.coords == ("t", "theta1", "theta2")
        assert spec.killing is not None and spec.killing.unit
        assert spec.margin == 1e-3

    def test_shipped_flat_torus(self):
        spec = load_spec_file(SPEC_DIR / "flat_torus.spec")
        assert spec.dimension == 3
        assert spec.signature == "lorentzian"

    def test_coordinate_names_are_checked_where_the_first_expression_parses(self, monkeypatch):
        text = (
            "[chart]\ncoords = t, sin, y\nt = 0, 1\nsin = 0, 1\ny = 0, 1\n[metric]\n"
            'g_0_0 = "-1"\ng_1_1 = "1"\ng_2_2 = "1"\n[signature]\nkind = lorentzian\n'
        )
        with pytest.raises(ValueError) as err:
            load_spec(text)
        assert type(err.value) is ValueError and str(err.value) == "invalid coordinate name 'sin'"
        # the first metric line's key is read before its expression parses
        with pytest.raises(SpecFormatError) as err:
            load_spec(text.replace("g_0_0", "h_0_0"))
        assert str(err.value) == "line 7: metric keys look like g_i_j, found 'h_0_0'"
        # one check per name per spec, however many expressions it holds
        checked = []
        pattern = ex._NAME_RE

        class Counting:
            def match(self, name):
                checked.append(name)
                return pattern.match(name)

        spec = generate(GeneratorRecipe(3, 8)).spec
        text = spec.to_text()
        monkeypatch.setattr(ex, "_NAME_RE", Counting())
        load_spec(text)
        assert checked == list(spec.coords)

    def test_asymmetric_entries_rejected(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_1 = "t"\ng_1_0 = "x"\n[signature]\nkind = lorentzian\n'
        )
        with pytest.raises(SpecFormatError, match="symmetric partner"):
            load_spec(text)

    def test_matching_mirror_entries_accepted(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_0 = "-1"\ng_0_1 = "t"\ng_1_0 = "t"\ng_1_1 = "2"\n'
            "[signature]\nkind = lorentzian\n"
        )
        spec = load_spec(text)
        assert {(i, j) for i, j, _ in spec.entries} == {(0, 0), (0, 1), (1, 1)}

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("kind = euclidean", "invalid signature tag"),
            ("kind = lorentzian\nextra = 1", "exactly"),
        ],
    )
    def test_bad_signature_section(self, mutation, message):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\n[signature]\n' + mutation + "\n"
        )
        with pytest.raises(SpecFormatError, match=message):
            load_spec(text)

    def test_dimension_mismatch(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_2 = "1"\n[signature]\nkind = lorentzian\n'
        )
        with pytest.raises(SpecFormatError, match="out of range"):
            load_spec(text)

    def test_killing_requires_all_components(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\n[signature]\nkind = lorentzian\n'
            '[killing]\nT_0 = "1"\nunit = true\n'
        )
        with pytest.raises(SpecFormatError, match="T_0..T_1"):
            load_spec(text)

    def test_unquoted_expression_rejected(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            "[metric]\ng_0_0 = -1\n[signature]\nkind = lorentzian\n"
        )
        with pytest.raises(SpecFormatError, match="double-quoted"):
            load_spec(text)

    @pytest.mark.parametrize("tail", [")", "*q", "*$"], ids=["syntax", "identifier", "character"])
    def test_error_deep_in_a_value_counts_bytes_from_its_quote(self, tail):
        # read in place, far into a long value (past groups skipped as
        # repeats and two non-ASCII spaces) and after a non-ASCII comment,
        # the error has the offset the value alone gives it
        value = "(sin(t)*cos(x)+1)*" * 200 + "x\u00a0*\u3000t" + tail
        text = (
            "# métrique\n[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            f'[metric]\ng_0_0 = "-1"\ng_1_1 = "{value}"  # ünit\n[signature]\nkind = lorentzian\n'
        )
        with pytest.raises((ExprSyntaxError, UnknownIdentifierError)) as in_file:
            load_spec(text)
        with pytest.raises(type(in_file.value)) as alone:
            parse_expression(value, ("t", "x"))
        assert str(in_file.value) == str(alone.value)
        assert in_file.value.offset == alone.value.offset == len(value.encode("utf-8")) - 1

    def test_missing_section(self):
        with pytest.raises(SpecFormatError, match=r"missing section \[metric\]"):
            load_spec("[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n[signature]\nkind = lorentzian\n")

    def test_text_roundtrip(self):
        spec = load_spec_file(SPEC_DIR / "s3.spec")
        again = load_spec(spec.to_text())
        assert again == spec
        assert again.to_text() == spec.to_text()

    def test_loading_shares_nodes_maximally(self, tmp_path):
        # to_text writes the shared graph out as trees (the seed-0 n = 5 file
        # spells out ~36k nodes); loading must fold them back into one object
        # per distinct subexpression without changing any jet byte
        path = tmp_path / "five.spec"
        path.write_text(generate(GeneratorRecipe(0, 5)).spec.to_text())
        spec = load_spec_file(path)
        assert spec.to_text() == path.read_text()  # nothing unequal was merged
        exprs = [e for _, _, e in spec.entries] + list(spec.killing.components)

        canon: dict[int, int] = {}  # id(node) -> structural class
        classes: dict[tuple, int] = {}

        def classify(node):
            if id(node) not in canon:
                fields = []
                for field in dataclasses.fields(node):
                    value = getattr(node, field.name)
                    fields.append(classify(value) if dataclasses.is_dataclass(value) else value)
                key = (type(node).__name__, *fields)
                canon[id(node)] = classes.setdefault(key, len(classes))
            return canon[id(node)]

        for e in exprs:
            classify(e.root)
        assert len(canon) == len(classes)  # no two reachable objects are equal

        def unshare(node):
            return type(node)(*(
                unshare(v) if dataclasses.is_dataclass(v) else v
                for v in (getattr(node, f.name) for f in dataclasses.fields(node))
            ))

        pts = sample_interior(spec, 4, seed=0)
        shared_cache: dict = {}
        for e in exprs:
            tree = Expression(unshare(e.root), e.coords)
            got = eval_jet_batch([e], pts, shared_cache)
            want = eval_jet_batch([tree], pts, {})
            assert [a[..., 0].tobytes() for a in got] == [a[..., 0].tobytes() for a in want]


# every line break of str.splitlines, and whitespace that breaks no line
_LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = st.text(st.sampled_from(" \t\x1f\xa0\u3000"), max_size=2)
_WORDS = st.sampled_from(["chart", "metric", "g_0_1", "T_0", "a b", "x", ""])
_VALUES = st.sampled_from(['"t*x"', '"a # b"', '"t = x"', "0, 1", "= =", '"', "", "[x]"])


@st.composite
def _spec_line(draw):
    """A header, a 'key = value' pair, or a line that is neither, each with
    optional surrounding whitespace and trailing comment."""
    pad = draw(_SPACES), draw(_SPACES), draw(_SPACES)
    # most lines are well formed, so that most texts reach their end
    form = draw(st.sampled_from(["header"] * 2 + ["pair"] * 10 + ["blank"] * 2 + ["malformed", "bare"]))
    if form == "header":
        body = f"[{pad[1]}{draw(st.text('abc', min_size=1, max_size=2))}{pad[2]}]"
    elif form == "pair":
        body = f"{draw(_WORDS)}{pad[1]}={pad[2]}{draw(_VALUES)}"
    elif form == "malformed":
        body = draw(st.sampled_from(["[chart", "[a]b", "[a # ]", "[", "]"]))
    elif form == "bare":
        body = draw(_WORDS)
    else:
        body = ""
    comment = draw(st.sampled_from(["", "#", "# x = [y]", '#"q"']))
    return f"{pad[0]}{body}{pad[2]}{comment}"


@st.composite
def _spec_texts(draw):
    lines = draw(st.lists(_spec_line(), max_size=8))
    if draw(st.integers(0, 4)):
        lines.insert(0, "[chart]")
    breaks = draw(st.lists(st.sampled_from(_LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        breaks = ["\n"] * len(lines)  # only "\n", as a spec file usually has
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    # with or without a last line break
    return text[: len(text) - len(breaks[-1])] if lines and draw(st.booleans()) else text


def _sections_outcome(split, text):
    try:
        return split(text)
    except SpecFormatError as err:
        return str(err)


@settings(max_examples=300)
@given(_spec_texts())
@example('[chart]\r\nx = "a # b" = c\r\n\x85[metric]\u2028 g = 1 #\n')
@example("[chart]\n \x1c=\x1d[a # ]")
def test_section_scanner_matches_splitlines(text):
    by_offset = _sections_outcome(_parse_sections, text)
    if isinstance(by_offset, dict):
        by_offset = {
            name: [(key, text[start:end], lineno) for key, start, end, lineno in pairs]
            for name, pairs in by_offset.items()
        }
    assert by_offset == _sections_outcome(sections_by_splitlines, text)


class TestMetricAt:
    def test_s3_at_quarter_pi(self, s3):
        # direct substitution into the displayed components at t = pi/4
        g, g_inv, _, _ = metric_point(s3.spec, [math.pi / 4, 1.0, 2.0])
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]])
        assert np.abs(g - expected).max() < 1e-15
        assert np.abs(g @ g_inv - np.eye(3)).max() < 1e-10

    def test_flat_torus_constant(self, flat_torus):
        g, _, dg, d2g = metric_point(flat_torus.spec, [1.0, 2.0, 3.0])
        assert np.array_equal(g, np.diag([-1.0, 1.0, 1.0]))
        assert np.abs(dg).max() == 0.0
        assert np.abs(d2g).max() == 0.0

    def test_chart_boundary_rejected(self, s3):
        for t in (0.0, math.pi / 2, math.nan):
            with pytest.raises(ChartDomainError):
                metric_batch(s3.spec, [[t, 1.0, 1.0]])

    def test_signature_enforced(self):
        # flat torus metric declared riemannian must be refused
        text = (
            "[chart]\ncoords = t, x\nt = 0, 6\nx = 0, 6\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\n[signature]\nkind = riemannian\n'
        )
        spec = load_spec(text)
        with pytest.raises(SignatureError):
            metric_batch(spec, [[1.0, 1.0]])

    def test_near_singular_rejected(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 6\nx = 0, 6\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1e-13"\n[signature]\nkind = lorentzian\n'
        )
        spec = load_spec(text)
        with pytest.raises(NearSingularError):
            metric_batch(spec, [[1.0, 1.0]])

    def test_symmetry_of_derivatives(self, s3):
        pts = sample_interior(s3.spec, 5, seed=2)
        _, _, dg, d2g = metric_batch(s3.spec, pts)
        assert np.array_equal(dg, dg.swapaxes(2, 3))
        assert np.array_equal(d2g, d2g.swapaxes(1, 2))
        assert np.array_equal(d2g, d2g.swapaxes(3, 4))


class TestChristoffel:
    def test_flat_torus_zero(self, flat_torus):
        gamma = christoffel_point(flat_torus.spec, [1.0, 2.0, 3.0])
        assert np.abs(gamma).max() == 0.0

    def test_round_sphere_value(self, s3):
        # counterpart of the shipped spec is dt^2 + sin^2 dth1^2 + cos^2 dth2^2;
        # hand differentiation gives Gamma^t_{th1 th1} = -sin t cos t
        t = 0.8
        counterpart = StationaryStructure.from_spec(s3.spec).counterpart_spec
        gamma = christoffel_point(counterpart, [t, 1.0, 2.0])
        assert gamma[0, 1, 1] == pytest.approx(-math.sin(t) * math.cos(t), abs=1e-12)
        assert gamma[0, 2, 2] == pytest.approx(math.sin(t) * math.cos(t), abs=1e-12)
        # symmetric in the lower indices
        assert np.abs(gamma - gamma.swapaxes(1, 2)).max() == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_fd_oracle_agreement(self, seed):
        structure = generate(battery_recipe(seed))
        pts = sample_interior(structure.spec, 8, seed)
        for spec in (structure.spec, structure.counterpart_spec):
            _, g_inv, dg, _ = metric_batch(spec, pts)
            gamma = christoffel_batch(g_inv, first_kind(dg))
            for b in (0, 3, 7):
                fd = fd_christoffel_oracle(spec, pts[b])
                scale = np.maximum(np.abs(gamma[b]), 1.0)
                assert (np.abs(fd - gamma[b]) / scale).max() < 1e-6

    def test_fd_oracle_flat(self, flat_torus):
        fd = fd_christoffel_oracle(flat_torus.spec, [1.0, 2.0, 3.0])
        assert np.abs(fd).max() < 1e-8

    def test_fd_second_order_convergence(self, s3):
        # halving the step should shrink the central-difference error ~4x
        counterpart = StationaryStructure.from_spec(s3.spec).counterpart_spec
        point = [0.9, 1.0, 2.0]
        exact = christoffel_point(counterpart, point)
        errors = []
        for step in (2e-3, 1e-3):
            fd = fd_christoffel_oracle(counterpart, point, step=step)
            errors.append(np.abs(fd - exact).max())
        ratio = errors[0] / errors[1]
        assert 2.5 < ratio < 6.0


class TestRiemann:
    def test_flat_torus_zero(self, flat_torus):
        rm = first_kind_riemann(flat_torus.spec, [[1.0, 2.0, 3.0]])
        assert np.abs(rm).max() == 0.0

    def test_round_s3_constant_curvature(self, s3):
        # the Riemannian counterpart has constant sectional curvature one;
        # compare frame components against the closed-form reference tensor
        point = [0.6, 1.0, 2.0]
        frame = orthonormal_completion(s3, point)
        counterpart = StationaryStructure.from_spec(s3.spec).counterpart_spec
        rm_frame = frame_point(riemann_point(counterpart, point), frame)
        assert np.abs(rm_frame - constant_curvature_oracle(3, 1.0)).max() < 1e-8
        # in particular Rm(X1, X2, X1, X2) = -1 under this sign convention
        assert rm_frame[1, 2, 1, 2] == pytest.approx(-1.0, abs=1e-10)

    def test_constant_curvature_oracle_zero(self):
        assert np.abs(constant_curvature_oracle(4, 0.0)).max() == 0.0

    def test_constant_curvature_oracle_closed_form(self):
        comps = constant_curvature_oracle(3, 1.0)
        assert comps[1, 2, 1, 2] == -1.0
        assert comps[1, 2, 2, 1] == 1.0
        assert comps[0, 1, 0, 1] == -1.0
        assert comps[0, 1, 2, 0] == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_invariants_on_random_structures(self, seed):
        structure = generate(battery_recipe(seed))
        pts = sample_interior(structure.spec, 10, seed + 50)
        for spec in (structure.spec, structure.counterpart_spec):
            _, g_inv, dg, d2g = metric_batch(spec, pts)
            rm = riemann_tensor(christoffel_batch(g_inv, first_kind(dg)), dg, d2g)
            res = riemann_residuals(rm)
            assert res["antisymmetry_first_pair"] < 1e-9
            assert res["antisymmetry_second_pair"] < 1e-9
            assert res["pair_symmetry"] < 1e-9
            assert res["first_bianchi"] < 1e-8

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_einsum_reference_on_random_jets(self, n):
        g, g_inv, dg, d2g = random_jets(np.random.default_rng(20 + n), 6, n)
        rm = riemann_pairs(g_inv, dg, d2g)
        assert_close_per_point(rm, on_pairs(einsum_riemann(g, g_inv, dg, d2g)), 1e-13)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_matches_einsum_reference_on_structures(self, s3, seed):
        structure = s3 if seed is None else generate(battery_recipe(seed))
        pts = sample_interior(structure.spec, 12, 70 if seed is None else seed)
        if seed is None:  # the chart ends, where cot t and tan t blow up
            pts[:2, 0] = [1e-3, math.pi / 2 - 1e-3]
        for spec in (structure.spec, structure.counterpart_spec):
            g, g_inv, dg, d2g = metric_batch(spec, pts)
            rm = riemann_pairs(g_inv, dg, d2g)
            assert_close_per_point(rm, on_pairs(einsum_riemann(g, g_inv, dg, d2g)), 1e-13)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_riemann_is_batch_invariant(self, n):
        _, g_inv, dg, d2g = random_jets(np.random.default_rng(30 + n), 2, n)
        first = first_kind(dg)
        gamma = christoffel_batch(g_inv, first)
        gamma[1] *= 1e8
        first[1] *= 1e8
        d2g[1] *= 1e8
        batch = riemann_batch(gamma, first, d2g)
        for b in range(2):
            alone = riemann_batch(gamma[b : b + 1], first[b : b + 1], d2g[b : b + 1])[0]
            assert np.array_equal(alone, batch[b])

    @pytest.mark.parametrize("flipped", [False, True])
    def test_s3_matches_exact_symbolic_oracle(self, s3, flipped):
        spec = s3.counterpart_spec if flipped else s3.spec
        pts = np.array([[1e-3, 0.3, 0.4], [0.7, 1.0, 2.0], [math.pi / 2 - 1e-3, 6.0, 6.0]])
        assert_close_per_point(first_kind_riemann(spec, pts), on_pairs(exact_riemann(spec, pts)), 1e-12)

    def test_flat_torus_matches_exact_symbolic_oracle(self, flat_torus):
        spec, pts = flat_torus.spec, np.array([[0.5, 1.0, 2.0]])
        assert_close_per_point(first_kind_riemann(spec, pts), on_pairs(exact_riemann(spec, pts)), 1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_battery_matches_exact_symbolic_oracle(self, seed):
        # g_L only: the flipped metric of seed 0 takes sympy about 25 s,
        # longer than the rest of the suite
        spec = generate(battery_recipe(seed)).spec
        pts = sample_interior(spec, 3, seed + 90)
        assert_close_per_point(first_kind_riemann(spec, pts), on_pairs(exact_riemann(spec, pts)), 1e-12)

    def test_s3_operators_stay_identity_toward_chart_ends(self, s3):
        # the flipped S3 is the round sphere, so both the Riemannian and the
        # symmetrized operator are I; frame vectors grow like 1/sin t and
        # 1/cos t toward the chart ends and amplify any rounding in Rm
        steps = np.geomspace(1e-3, 0.5, 40)
        for ts in (steps, math.pi / 2 - steps):
            pts = np.stack([ts, np.full(40, 1.0), np.full(40, 2.0)], axis=1)
            ops = operators_at(s3, pts)
            assert np.abs(ops.m_r - np.eye(3)).max() <= 1e-9
            assert np.abs(ops.m_s - np.eye(3)).max() <= 1e-9

    def test_s3_invariants_near_margin(self, s3):
        # cot/tan factors degenerate toward the chart ends; the margin keeps
        # the identities intact even at the extreme interior points
        pts = np.array([[1e-3, 0.1, 0.1], [math.pi / 2 - 1e-3, 6.0, 6.0]])
        data = structure_data(s3, pts)
        for rm in riemann_tensors(data):
            res = riemann_residuals(rm)
            assert max(res.values()) < 1e-8


class TestFrameComponents:
    def test_identity_frame_is_noop(self, s3):
        rm = riemann_point(s3.spec, [0.7, 1.0, 2.0])
        assert np.array_equal(frame_point(rm, np.eye(3)), rm)

    def test_multilinear_scaling(self, s3):
        rm = riemann_point(s3.spec, [0.7, 1.0, 2.0])
        scaled = np.eye(3)
        scaled[1] *= 2.0
        pushed = frame_point(rm, scaled)
        assert pushed[1, 2, 1, 2] == pytest.approx(4.0 * rm[1, 2, 1, 2])
        assert pushed[1, 2, 0, 2] == pytest.approx(2.0 * rm[1, 2, 0, 2])

    def test_s3_frame_reproduces_paper_pattern(self, s3):
        # frame {T, d_t, cot t d_th1 - tan t d_th2}: the mixed diagonal
        # values are -1 and the spatial one is -7 (the displayed 7 - 6
        # pattern lives in the operator, which negates these)
        point = [0.5, 1.0, 2.0]
        frame = orthonormal_completion(s3, point)
        comps = frame_point(riemann_point(s3.spec, point), frame)
        assert comps[0, 1, 0, 1] == pytest.approx(-1.0, abs=1e-10)
        assert comps[0, 2, 0, 2] == pytest.approx(-1.0, abs=1e-10)
        assert comps[1, 2, 1, 2] == pytest.approx(-7.0, abs=1e-9)
        assert abs(comps[0, 1, 0, 2]) < 1e-10

    @pytest.mark.parametrize("n", range(3, 9))
    def test_staged_contraction_matches_five_operand_formula(self, n):
        # the unordered five-operand einsum is the defining formula, O(n^8)
        rng = np.random.default_rng(n)
        comps = rng.standard_normal((4, n, n, n, n))
        frames = rng.standard_normal((4, n, n))
        reference = np.einsum("bai,bcj,bdk,bel,bijkl->bacde", frames, frames, frames, frames, comps)
        staged = frame_components_batch(comps, frames)
        assert staged.shape == reference.shape
        assert np.abs(staged - reference).max() <= 1e-13 * np.abs(reference).max()

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_staged_contraction_is_batch_invariant(self, n):
        rng = np.random.default_rng(10 + n)
        comps = rng.standard_normal((2, n, n, n, n))
        frames = rng.standard_normal((2, n, n))
        comps[1] *= 1e8
        frames[1] *= 1e8
        batch = frame_components_batch(comps, frames)
        for b in range(2):
            alone = frame_components_batch(comps[b : b + 1], frames[b : b + 1])[0]
            assert np.array_equal(alone, batch[b])

    @pytest.mark.parametrize("n, c", [(3, 1e-5), (8, 1e-3)])
    def test_scaled_orthogonal_frame_accepted(self, s3, n, c):
        # the contraction is multilinear, so c * I scales every component by c^4
        rm = riemann_point(s3.spec, [0.7, 1.0, 2.0]) if n == 3 else constant_curvature_oracle(n, 1.0)
        assert np.allclose(frame_point(rm, c * np.eye(n)), c**4 * rm, rtol=1e-12, atol=0.0)


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
@example(4, 0)  # the reversed (3, 1) pair
@example(8, 0)
def test_pair_riemann_is_the_tensor_on_pairs(n, seed):
    # riemann_batch reads the n^4 formula's pair entries in its order of
    # operations, so they agree bitwise; C Rc C^T and W Rm W^T are the same
    # contraction summed in another order, and the n^4 tensor's entries off
    # the pairs (Rm_ijkk, Rm_ijlk) are antisymmetric only up to rounding
    rng = np.random.default_rng(seed)
    _, g_inv, dg, d2g = random_jets(rng, 3, n)
    first = first_kind(dg)
    gamma = christoffel_batch(g_inv, first)
    basis = Lambda2Basis.standard(n)
    rc = riemann_batch(gamma, first, d2g)
    rm = riemann_tensor(gamma, dg, d2g)
    assert rc.tobytes() == pair_entries(rm, basis).tobytes()
    frames = rng.standard_normal((3, n, n))
    want = wedge_pair_components(rm, frames, basis)
    assert_close_per_point(pair_components(rc, frames, basis), want, 1e-13)


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["riemannian", "lorentzian"]),
)
def test_signature_check_never_passes_wrong_pattern(seed, tag):
    # random symmetric matrices with a known eigenvalue sign pattern: the
    # check accepts exactly the matching tag
    from statcurv.metric import check_signature
    from statcurv.tolerances import DEFAULT

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
    negatives = int(rng.integers(0, n + 1))
    signs = np.array([-1.0] * negatives + [1.0] * (n - negatives))
    vals = signs * (0.5 + rng.random(n))
    g = (basis * vals) @ basis.T
    g = 0.5 * (g + g.T)
    expected_ok = negatives == (1 if tag == "lorentzian" else 0)
    if expected_ok:
        check_signature(tag, g[None], DEFAULT)
    else:
        with pytest.raises(SignatureError):
            check_signature(tag, g[None], DEFAULT)


@given(st.integers(min_value=0, max_value=30), st.floats(min_value=0.1, max_value=2.9))
def test_metric_fields_match_fd_everywhere(seed, t):
    structure = generate(battery_recipe(seed % 6))
    point = np.array([t] + [1.0] * (structure.dimension - 1))
    _, _, dg, _ = metric_batch(structure.spec, point[None, :])
    fd = fd_metric_derivative(structure.spec, point[None, :])
    assert np.abs(fd - dg).max() < 1e-6
