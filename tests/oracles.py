"""Independent brute-force oracles backing derived test values.

Test-only: nothing under ``src/statcurv`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from statcurv.errors import SpecFormatError
from statcurv.expr import Add, Call, Div, Expression, Mul, Neg, Num, Pow, Sub, Var, eval_jet_batch
from statcurv.lambda2 import compound
from statcurv.linalg import invert
from statcurv.metric import (
    KillingField,
    MetricSpec,
    christoffel_batch,
    first_kind,
    frame_components_batch,
    outside_chart,
)
from statcurv.stationary import StationaryStructure


def _central_differences(value, point: np.ndarray, step: float):
    """Gradient and Hessian by central differences with one step, error O(step^2)."""
    n = point.size
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    f0 = value(point)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        fp, fm = value(point + ei), value(point - ei)
        grad[i] = (fp - fm) / (2 * step)
        hess[i, i] = (fp - 2 * f0 + fm) / step**2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = step
            ej[j] = step
            mixed = (
                value(point + ei + ej)
                - value(point + ei - ej)
                - value(point - ei + ej)
                + value(point - ei - ej)
            ) / (4 * step**2)
            hess[i, j] = hess[j, i] = mixed
    return grad, hess


def fd_gradient_hessian(e: Expression, point, step: float = 1e-3):
    """Richardson-extrapolated central differences of an expression at one point.

    Each central difference D(h) has error c h^2 + O(h^4), so
    (4 D(h/2) - D(h)) / 3 cancels the h^2 term.  A plain difference with a
    step small enough to hide the h^2 term would instead lose digits to
    rounding, most of all in the Hessian.
    """
    point = np.asarray(point, dtype=float)

    def value(p):
        return float(eval_jet_batch([e], p[None, :])[0][0, 0])

    grad_h, hess_h = _central_differences(value, point, step)
    grad_half, hess_half = _central_differences(value, point, step / 2)
    return value(point), (4 * grad_half - grad_h) / 3, (4 * hess_half - hess_h) / 3


_TREE_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Var: 5, Call: 5}


def tree_unparse(node, parent_prec: int = 0) -> str:
    """The text of an expression node by a plain recursive walk of its tree.

    A node shared by several parents is unparsed again at every use, so
    the cost is the size of the tree the text spells out; each result is
    built from its children's text and the parent's precedence alone, which
    makes it the reference for the memoized ``expr._unparse``.
    """
    prec = _TREE_PREC[type(node)]
    if isinstance(node, Num):
        text = repr(node.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(node, Var):
        text = node.name
    elif isinstance(node, Call):
        text = f"{node.func}({tree_unparse(node.arg)})"
    elif isinstance(node, Neg):
        text = f"-{tree_unparse(node.arg, prec)}"
    elif isinstance(node, Pow):
        # ^ chains to the left: t^2^3 reads back as (t^2)^3
        text = f"{tree_unparse(node.base, prec)}^{node.exponent}"
    else:
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(node)]
        # right side gets a stricter bound so a-(b+c) and a/(b*c) keep parens
        text = f"{tree_unparse(node.left, prec)}{op}{tree_unparse(node.right, prec + 1)}"
    if prec < parent_prec:
        return f"({text})"
    return text


# --- composition by the folding rules alone -----------------------------------


def _rule_num(value: float):
    value = float(value)
    if value == 0.0:
        return Num(0.0)
    if value < 0.0:
        return Neg(Num(-value))
    return Num(value)


def _rule_is_const(node, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _rule_const_value(node):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg) and isinstance(node.arg, Num):
        return -node.arg.value
    return None


@dataclass(frozen=True)
class RuleExpression:
    """An expression composed by the folding rules alone.

    Each operator tries every rule, in order, on every operation: the
    operator bodies ``Expression`` had before it built a node at once where
    no rule can fire.  The reference for the trees, and the exceptions, of
    ``Expression``'s operators.
    """

    root: object
    coords: tuple

    @staticmethod
    def of(e: Expression) -> "RuleExpression":
        return RuleExpression(e.root, e.coords)

    def expression(self) -> Expression:
        return Expression(self.root, self.coords)

    def _coerce(self, other):
        if isinstance(other, RuleExpression):
            if other.coords != self.coords:
                raise ValueError("cannot combine expressions over different charts")
            return other.root
        return _rule_num(other)

    def __add__(self, other):
        rhs = self._coerce(other)
        if _rule_is_const(rhs, 0.0):
            return self
        if _rule_is_const(self.root, 0.0):
            return RuleExpression(rhs, self.coords)
        folded = _rule_const_value(self.root)
        folded_r = _rule_const_value(rhs)
        if folded is not None and folded_r is not None:
            return RuleExpression(_rule_num(folded + folded_r), self.coords)
        return RuleExpression(Add(self.root, rhs), self.coords)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if _rule_is_const(rhs, 0.0):
            return self
        folded = _rule_const_value(self.root)
        folded_r = _rule_const_value(rhs)
        if folded is not None and folded_r is not None:
            return RuleExpression(_rule_num(folded - folded_r), self.coords)
        if _rule_is_const(self.root, 0.0):
            return RuleExpression(Neg(rhs), self.coords)
        return RuleExpression(Sub(self.root, rhs), self.coords)

    def __rsub__(self, other):
        return RuleExpression(self._coerce(other), self.coords) - self

    def __mul__(self, other):
        rhs = self._coerce(other)
        if _rule_is_const(self.root, 0.0) or _rule_is_const(rhs, 0.0):
            return RuleExpression(Num(0.0), self.coords)
        if _rule_is_const(rhs, 1.0):
            return self
        if _rule_is_const(self.root, 1.0):
            return RuleExpression(rhs, self.coords)
        folded = _rule_const_value(self.root)
        folded_r = _rule_const_value(rhs)
        if folded is not None and folded_r is not None:
            return RuleExpression(_rule_num(folded * folded_r), self.coords)
        return RuleExpression(Mul(self.root, rhs), self.coords)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if _rule_is_const(rhs, 1.0):
            return self
        if _rule_is_const(self.root, 0.0):
            return self
        folded_r = _rule_const_value(rhs)
        if folded_r == 0.0:
            raise ZeroDivisionError("division by constant zero expression")
        folded = _rule_const_value(self.root)
        if folded is not None and folded_r is not None:
            return RuleExpression(_rule_num(folded / folded_r), self.coords)
        return RuleExpression(Div(self.root, rhs), self.coords)

    def __rtruediv__(self, other):
        return RuleExpression(self._coerce(other), self.coords) / self

    def __neg__(self):
        if isinstance(self.root, Neg):
            return RuleExpression(self.root.arg, self.coords)
        if _rule_is_const(self.root, 0.0):
            return self
        return RuleExpression(Neg(self.root), self.coords)

    def pow_int(self, exponent: int) -> "RuleExpression":
        return RuleExpression(Pow(self.root, int(exponent)), self.coords)

    def is_zero(self) -> bool:
        return _rule_is_const(self.root, 0.0)


def _rule_grid(spec: MetricSpec):
    return [[RuleExpression.of(e) for e in row] for row in spec.expression_matrix]


def dense_flip_spec(spec: MetricSpec) -> MetricSpec:
    """``stationary.flip_spec`` with every sum over all its terms, zero
    products included, and 2 T_flat_i T_flat_j / g_L(T,T) composed again for
    each entry, all by the rules alone."""
    t = [RuleExpression.of(e) for e in spec.killing.components]
    n = spec.dimension
    grid = _rule_grid(spec)
    zero = RuleExpression(Num(0.0), spec.coords)
    t_flat = [sum((grid[i][k] * t[k] for k in range(n)), zero) for i in range(n)]
    gtt = sum((t[i] * t_flat[i] for i in range(n)), zero)
    entries = []
    for i in range(n):
        for j in range(i, n):
            e = grid[i][j] - 2.0 * t_flat[i] * t_flat[j] / gtt
            if not e.is_zero():
                entries.append((i, j, e.expression()))
    signature = "riemannian" if spec.signature == "lorentzian" else "lorentzian"
    return MetricSpec(spec.coords, spec.intervals, spec.margin, signature, tuple(entries), spec.killing)


def dense_gtt_expression(s: StationaryStructure) -> Expression:
    """g_L(T,T) as the rules sum all n^2 terms g_L_ij T_i T_j, zeros included."""
    grid = _rule_grid(s.spec)
    t = [RuleExpression.of(e) for e in s.t]
    n = s.dimension
    zero = RuleExpression(Num(0.0), s.spec.coords)
    return sum((grid[i][j] * t[i] * t[j] for i in range(n) for j in range(n)), zero).expression()


def dense_conformal_normalize(s: StationaryStructure) -> StationaryStructure:
    """``stationary.conformal_normalize`` with a divisor -g_L(T,T) built again
    for every entry, by the rules alone; T must be timelike."""
    gtt = RuleExpression.of(dense_gtt_expression(s))
    entries = tuple((i, j, (RuleExpression.of(e) / (-gtt)).expression()) for i, j, e in s.spec.entries)
    killing = KillingField(s.t, True)
    spec = MetricSpec(s.spec.coords, s.spec.intervals, s.spec.margin, "lorentzian", entries, killing)
    return StationaryStructure(spec)


def tree_numbers(roots, table: dict) -> list[int]:
    """A number for the tree under each of ``roots``, the same for equal
    trees however their subtrees are shared: each node is numbered by its
    class, its fields and its children's numbers, through ``table``, which
    calls sharing ``roots`` may pass on.  Num is keyed on its float bits."""
    numbers: dict = {}
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in numbers:
            stack.pop()
            continue
        kind = type(node)
        if kind is Num:
            key = (Num, node.value.hex())
        elif kind is Var:
            key = (Var, node.name, node.index)
        else:
            if kind is Neg or kind is Call:
                children = [node.arg]
            else:
                children = [node.base] if kind is Pow else [node.left, node.right]
            pending = [c for c in children if id(c) not in numbers]
            if pending:
                stack += pending
                continue
            extra = (node.func,) if kind is Call else (node.exponent,) if kind is Pow else ()
            key = (kind, *extra, *(numbers[id(c)] for c in children))
        stack.pop()
        numbers[id(node)] = table.setdefault(key, len(table))
    return [numbers[id(r)] for r in roots]


def _metric_values(spec: MetricSpec, pts: np.ndarray) -> np.ndarray:
    n = spec.dimension
    vals = eval_jet_batch([e for _, _, e in spec.entries], pts)[0]
    g = np.zeros((pts.shape[0], n, n))
    for k, (i, j, _) in enumerate(spec.entries):
        g[:, i, j] = g[:, j, i] = vals[:, k]
    return g


def fd_metric_derivative(spec: MetricSpec, pts, step: float = 1e-4) -> np.ndarray:
    """dg[b,k,i,j] = d_k g_ij by central differences, batched."""
    pts = np.asarray(pts, dtype=float)
    batch, n = pts.shape
    shifted = np.repeat(pts[:, None, None, :], n, axis=1).repeat(2, axis=2)
    for k in range(n):
        shifted[:, k, 0, k] += step
        shifted[:, k, 1, k] -= step
    g = _metric_values(spec, shifted.reshape(-1, n)).reshape(batch, n, 2, n, n)
    return (g[:, :, 0] - g[:, :, 1]) / (2 * step)


def fd_christoffel_oracle(spec: MetricSpec, point, step: float = 1e-4) -> np.ndarray:
    """Christoffel symbols from finite-differenced metric derivatives."""
    point = np.asarray(point, dtype=float)
    dg = fd_metric_derivative(spec, point[None, :], step)
    g = _metric_values(spec, point[None, :])
    return christoffel_batch(invert(g), first_kind(dg))[0]


def constant_curvature_oracle(n: int, kappa: float) -> np.ndarray:
    """Components (n, n, n, n) of constant sectional curvature kappa in an orthonormal frame.

    With the sign convention used throughout (endomorphism R(X,Y)Z =
    nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z) this is
    Rm_abcd = kappa * (g_ad g_bc - g_ac g_bd), so Rm_1212 = -kappa and the
    curvature operator comes out as +kappa * identity.
    """
    delta = np.eye(n)
    return kappa * (
        np.einsum("ad,bc->abcd", delta, delta) - np.einsum("ac,bd->abcd", delta, delta)
    )


def riemann_residuals(comps: np.ndarray) -> dict[str, float]:
    """Max residuals of the algebraic curvature identities (any frame)."""
    first = float(np.abs(comps + comps.swapaxes(-4, -3)).max())
    second = float(np.abs(comps + comps.swapaxes(-2, -1)).max())
    pair = float(np.abs(comps - comps.transpose(*range(comps.ndim - 4), -2, -1, -4, -3)).max())
    lead = tuple(range(comps.ndim - 4))
    bianchi = float(
        np.abs(
            comps
            + comps.transpose(*lead, -4, -2, -1, -3)
            + comps.transpose(*lead, -4, -1, -3, -2)
        ).max()
    )
    return {
        "antisymmetry_first_pair": first,
        "antisymmetry_second_pair": second,
        "pair_symmetry": pair,
        "first_bianchi": bianchi,
    }


# --- the n^4 formulation of the curvature layer ------------------------------
#
# The library works on Lambda^2 pairs: ``metric.riemann_batch`` reads Rm on
# coordinate pairs and ``lambda2.pair_components`` takes them into a frame.
# These build the full (B, n, n, n, n) tensors instead, in coordinates and in
# frames, flip them component by component and gather the operator entries
# from them.


def riemann_tensor(gamma: np.ndarray, dg: np.ndarray, d2g: np.ndarray) -> np.ndarray:
    """Lowered Riemann tensor Rm[b,i,j,k,l] = g(R(d_i,d_j)d_k, d_l), (B, n, n, n, n).

    Rm_ijkl = S_ijkl - S_jikl with S_ijkl = Q[ik, jl] + 1/2 (d_i d_k g_jl -
    d_i d_l g_jk), Q[b,ik,jl] = Gamma^m_ik Gamma_{m,jl}, built in full in the
    [b,i,k,j,l] layout and transposed; ``metric.riemann_batch`` reads the
    pair entries of this formula, in the same order of operations.
    """
    b, n = dg.shape[:2]
    s = gamma.reshape(b, n, n * n).swapaxes(1, 2) @ first_kind(dg).reshape(b, n, n * n)
    # d2g[b,i,k,j,l] = d_i d_k g_jl
    s = s.reshape(b, n, n, n, n) + 0.5 * (d2g - d2g.swapaxes(2, 4))
    return s.transpose(0, 1, 3, 2, 4) - s.transpose(0, 3, 1, 2, 4)


def riemann_tensors(data) -> tuple[np.ndarray, np.ndarray]:
    """(Rm_L, Rm_g) of a ``StructureData`` as (B, n, n, n, n) coordinate tensors."""
    return (
        riemann_tensor(data.gamma_l, data.dgl, data.d2gl),
        riemann_tensor(data.gamma_g, data.dg, data.d2g),
    )


def pair_entries(rm: np.ndarray, basis) -> np.ndarray:
    """Rm[..., A, C] = rm[..., i, j, k, l] (..., N, N) over the pairs A = (i, j), C = (k, l) of ``basis``."""
    iv, iw = basis.legs
    return rm[..., iv[:, None], iw[:, None], iv[None, :], iw[None, :]]


def wedge_pair_components(comps: np.ndarray, frames: np.ndarray, basis) -> np.ndarray:
    """P[b, a, c] = Rm(E_v, E_w, E_v', E_w') (B, N, N) from coordinate components (B, n, n, n, n).

    With the wedge rows W[b, a] = E[b, v] (x) E[b, w] (B, N, n^2) this is
    W Rm W^T, two batched products over the flattened index pairs.
    """
    b, n = frames.shape[:2]
    iv, iw = basis.legs
    wedge = (frames[:, iv, :, None] * frames[:, iw, None, :]).reshape(b, len(iv), n * n)
    return wedge @ comps.reshape(b, n * n, n * n) @ wedge.swapaxes(1, 2)


def flipped_curvature_tensor(rm_l_frame: np.ndarray, omega: np.ndarray, gtt) -> np.ndarray:
    """Frame components (B, n, n, n, n) of Rm_g that the flip's curvature identities predict.

    ``rm_l_frame`` holds the frame components of Rm_L; ``omega`` and ``gtt``
    are as in ``stationary.flipped_curvature``.  Every component touching T
    changes sign, the spatial ones gain
    (2/gtt)(w_XW w_YZ - w_XZ w_YW - 2 w_XY w_ZW), and the (T,X,T,Y) block and
    its antisymmetric images gain -2 (w w^T)_XY.
    """
    n = omega.shape[-1]
    spatial = np.zeros((n,) * 4, dtype=bool)
    spatial[1:, 1:, 1:, 1:] = True
    synth = np.einsum("xad,xbc->xabcd", omega, omega)
    synth -= np.einsum("xac,xbd->xabcd", omega, omega)
    synth -= 2.0 * np.einsum("xab,xcd->xabcd", omega, omega)
    synth *= (2.0 / np.asarray(gtt))[..., None, None, None, None]
    synth += np.where(spatial, rm_l_frame, -rm_l_frame)
    tt = (-2.0 * omega @ omega.swapaxes(1, 2))[:, 1:, 1:]
    synth[:, 0, 1:, 0, 1:] += tt
    synth[:, 1:, 0, 1:, 0] += tt
    synth[:, 0, 1:, 1:, 0] -= tt
    synth[:, 1:, 0, 0, 1:] -= tt
    return synth


def gather_operator_entries(rm_frame: np.ndarray, pairs) -> np.ndarray:
    """S[..., a, b] = -Rm(pair_b; pair_a) from frame components (..., n, n, n, n)."""
    iv = np.array([p[0] for p in pairs])
    iw = np.array([p[1] for p in pairs])
    return -rm_frame[..., iv[None, :], iw[None, :], iv[:, None], iw[:, None]]


def _lambda2_gram(frame_gram: np.ndarray, pairs) -> np.ndarray:
    """det [[h(v,x), h(v,y)], [h(w,x), h(w,y)]] for pairs (v, w), (x, y), entry by entry."""
    out = np.empty(frame_gram.shape[:-2] + (len(pairs), len(pairs)))
    for a, (v, w) in enumerate(pairs):
        for c, (x, y) in enumerate(pairs):
            out[..., a, c] = (
                frame_gram[..., v, x] * frame_gram[..., w, y]
                - frame_gram[..., v, y] * frame_gram[..., w, x]
            )
    return out


def frame_tensor_operators(data, vectors: np.ndarray, omega: np.ndarray, pairs) -> dict[str, np.ndarray]:
    """m_r, m_l, m_s and central of unit-T data, each (B, ...), through the n^4 frame tensors.

    ``vectors`` (B, n, n) are the adapted frames as rows and ``omega`` their
    rotation blocks.
    """
    rm_l, rm_g = (frame_components_batch(rm, vectors) for rm in riemann_tensors(data))

    def operator(rm_frame, metric):
        gram = np.einsum("bai,bij,bcj->bac", vectors, metric, vectors)
        return np.linalg.inv(_lambda2_gram(gram, pairs)) @ gather_operator_entries(rm_frame, pairs)

    m_r = operator(rm_g, data.g)
    sym = gather_operator_entries(flipped_curvature_tensor(rm_l, omega, -1.0), pairs)
    m_s = 0.5 * (sym + sym.swapaxes(1, 2))
    return {
        "m_r": m_r,
        "m_l": operator(rm_l, data.gl),
        "m_s": m_s,
        "central": np.abs(m_s - m_r).max(axis=(1, 2)),
    }


def frame_tensor_curvature_residuals(data, frames: np.ndarray) -> np.ndarray:
    """Residuals (B, 3): max |Rm_g - prediction| over (X,Y,T,Z), (T,X,T,Y) and (X,Y,Z,W) components."""
    rml, rmg = (frame_components_batch(rm, frames) for rm in riemann_tensors(data))
    omega = np.einsum("bai,bki,bkl,bcl->bac", frames, data.cov_t_l, data.gl, frames)
    omega[:, 0] = omega[:, :, 0] = 0.0
    res = np.abs(rmg - flipped_curvature_tensor(rml, omega, data.gtt))
    return np.stack(
        [
            res[:, 1:, 1:, 0, 1:].max(axis=(1, 2, 3)),
            res[:, 0, 1:, 0, 1:].max(axis=(1, 2)),
            res[:, 1:, 1:, 1:, 1:].max(axis=(1, 2, 3, 4)),
        ],
        axis=1,
    )



# --- einsum forms of the flip's identity contractions ------------------------
#
# The library writes these contractions as batched matmuls on reshaped views;
# here each is the unordered einsum it replaced, index for index.  Called
# with every input replaced by its magnitude (and a negative g_L(T,T) and
# Gamma_L, so that every difference becomes a sum), each returns the sum of
# |terms| that bounds the rounding of both forms.


def dgtt_einsum(gl, dgl, t, dt) -> np.ndarray:
    """d_k g_L(T,T) (B, n) = d_k g_ij T^i T^j + 2 g_ij d_k T^i T^j."""
    return np.einsum("bkij,bi,bj->bk", dgl, t, t) + 2.0 * np.einsum("bij,bki,bj->bk", gl, dt, t)


def cov_t_einsum(gamma, t, dt) -> np.ndarray:
    """(nab_{d_i} T)^k as [b, k, i] (B, n, n) from the Christoffels Gamma[b,k,i,m]."""
    return dt.transpose(0, 2, 1) + np.einsum("bkim,bm->bki", gamma, t)


def lie_einsum(gl, dgl, t, dt) -> np.ndarray:
    """(Lie_T g_L)_ij (B, n, n) = T^k d_k g_ij + g_kj d_i T^k + g_ik d_j T^k."""
    return (
        np.einsum("bk,bkij->bij", t, dgl)
        + np.einsum("bkj,bik->bij", gl, dt)
        + np.einsum("bik,bjk->bij", gl, dt)
    )


def connection_residuals_einsum(t, x, dgtt, gtt, gamma_g, gamma_l, cov_t_g, cov_t_l):
    """(r1, r2, r3, r4) of ``stationary.connection_residuals`` for frame rows x = X_a (B, n-1, n)."""
    dln = np.einsum("bai,bi->ba", x, dgtt) / gtt[:, None]
    delta = gamma_g - gamma_l
    u_g = np.einsum("bki,bai->bka", cov_t_g, x)
    u_l = np.einsum("bki,bai->bka", cov_t_l, x)
    r1 = np.einsum("bki,bi->bk", cov_t_g + cov_t_l, t)
    r2 = u_g + u_l - t[:, :, None] * dln[:, None, :]
    r3 = np.einsum("bai,bkij,bcj->bkac", x, delta, x)
    r4 = np.einsum("bi,bkij,baj->bka", t, delta, x) + 2.0 * u_l - t[:, :, None] * dln[:, None, :]
    return r1, r2, r3, r4

# --- solved forms of what the library reads off an orthonormal frame ----------
#
# The library relies on its frames being orthonormal for g_L (checked by
# ``frames.check_orthonormal``); these solve with the frame instead, so they
# hold in any frame.


def inverse_nabla_t_frames(cov_t_l: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """A[b, j, i] = component of nab^L_{E_i} T along E_j, frames (B, n, n) as rows, by a linear solve."""
    e_t = frames.swapaxes(1, 2)
    return np.linalg.inv(e_t) @ (cov_t_l @ e_t)


def gram_operators(p: np.ndarray, metric: np.ndarray, frames: np.ndarray, basis) -> np.ndarray:
    """Operator matrices G^{-1} S (B, N, N) with the Lambda^2 Gram G of ``metric`` in ``frames`` inverted.

    S[b, a, c] = -p[b, c, a] for pair components ``p`` (B, N, N); ``metric``
    (B, n, n) is coordinate data and ``frames`` (B, n, n) holds the frame
    vectors as rows.
    """
    gram = np.einsum("bai,bij,bcj->bac", frames, metric, frames)
    return np.linalg.inv(compound(basis, gram)) @ -p.swapaxes(1, 2)


def orbits_by_unique(s, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``topology.orbits`` by ``np.unique(axis=0)`` over the same keys: the bits
    of the coordinates read, and the row number of each row outside the chart
    (-1 inside).  Returns the first row of each orbit, in order of first
    occurrence, and each row's orbit."""
    read = list(s.read_coordinates)
    outside = np.where(outside_chart(s.spec, pts), np.arange(len(pts)), -1)
    key = np.column_stack([np.ascontiguousarray(pts[:, read]).view(np.int64), outside])
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


def quantiles_by_numpy(rows: np.ndarray) -> np.ndarray:
    """Min, quartiles and max (R, 5) of each row of ``rows`` (R, m) by ``np.quantile``,
    with -0.0 folded into 0.0 as ``topology.margin_quantiles`` folds it."""
    return (np.quantile(rows, (0.0, 0.25, 0.5, 0.75, 1.0), axis=1) + 0.0).T


def sections_by_splitlines(text: str) -> dict[str, list[tuple[str, str, int]]]:
    """Section name -> [(key, value, lineno)] of a spec file's text, by copies.

    The section splitter ``metric._parse_sections`` replaced, kept as its
    reference: it copies each line out with ``str.splitlines`` and cuts it
    with ``split`` and ``strip``, where the scanner finds the same values by
    offset.  Errors are the same SpecFormatError messages.
    """
    sections: dict[str, list[tuple[str, str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecFormatError(f"line {lineno}: malformed section header '{raw.strip()}'")
            name = line[1:-1].strip()
            if name in sections:
                raise SpecFormatError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise SpecFormatError(f"line {lineno}: content before any section header")
        if "=" not in line:
            raise SpecFormatError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        sections[current].append((key.strip(), value.strip(), lineno))
    return sections


# the spectra of one operator in two g_L-orthonormal frames with T first, such
# as analyze's completions and the adapted frames, agree to rounding: within
# 16 eps of each point's largest |eigenvalue| on the seed-3, -4 and -11 specs
# up to n = 8 at 300 points, 14 eps over the first two battery seeds
ROUTE_ULPS = 32


def assert_spectra_agree(got: np.ndarray, want: np.ndarray) -> None:
    """Ascending spectra (B, N) equal within ``ROUTE_ULPS`` eps of each row's largest
    |eigenvalue|; a row of exact zeros in ``want`` must be exact zeros in ``got``."""
    bound = ROUTE_ULPS * np.finfo(float).eps * np.abs(want).max(axis=1, keepdims=True)
    gap = np.abs(got - want)
    assert (gap <= bound).all(), float((gap / np.where(bound > 0, bound, 1.0)).max())
