"""Relative Rota-Baxter operators of weight lambda on finite-dimensional
Lie algebras given by structure constants.

The relative identity for B: h -> g under an action phi: g -> Der(h) is

    [B(u), B(v)]_g = B( phi(B(u))v - phi(B(v))u + lambda*[u,v]_h )

and rescaling the bracket of h by lambda with phi = ad reduces it to the
plain weight-lambda Rota-Baxter identity on one algebra.  Vectors are sparse
dicts combined by hopf_core.lincomb; operators and actions are LinearMaps.
"""

from __future__ import annotations

from .hopf_core import LinearMap, _labels, lincomb
from .report import VerificationReport, first_failure, labelled, merge_reports
from .scalars import FieldCtx, Scalar, _json_int, parse_field, scalar_from_json


class LieData:
    """Lie algebra by sparse brackets: brackets[(i, j)] expands [e_i, e_j].

    A missing (j, i) entry is filled in as the negative of (i, j); ranges,
    labels and the dimension cap MAX_DIM raise ValueError at construction
    time, and check_lie verifies the axioms.
    """

    __slots__ = ("ctx", "dim", "labels", "brackets")

    def __init__(self, ctx: FieldCtx, dim: int, brackets: dict,
                 labels: list[str] | None = None):
        self.labels = _labels(labels, dim)
        self.ctx = ctx
        self.dim = dim
        self.brackets = {}
        for (i, j), terms in brackets.items():
            if not 0 <= i < dim or not 0 <= j < dim or any(not 0 <= k < dim for k in terms):
                raise ValueError(f"bracket entry ({i},{j}) out of range for dim {dim}")
            t = {k: c for k, c in terms.items() if not c.is_zero}
            if t:
                self.brackets[(i, j)] = t
        for (i, j), terms in list(self.brackets.items()):
            if (j, i) not in self.brackets and i != j:
                self.brackets[(j, i)] = {k: -c for k, c in terms.items()}

    def bracket_basis(self, i: int, j: int) -> dict:
        return self.brackets.get((i, j), {})

    def bracket_sparse(self, sa: dict, sb: dict) -> dict:
        brackets = self.brackets
        return lincomb((ca * cb, t) for i, ca in sa.items() for j, cb in sb.items()
                       if (t := brackets.get((i, j))))


def check_lie(L: LieData) -> VerificationReport:
    """Antisymmetry (including [u,u] = 0) and the Jacobi identity."""
    zero = L.ctx.zero
    one = L.ctx.one

    def antisymmetry():
        # [e_i,e_i] = 0 and [e_i,e_j] + [e_j,e_i] = 0 for i < j
        for i in range(L.dim):
            for j in range(i, L.dim):
                back = [] if i == j else [(one, L.bracket_basis(j, i))]
                yield (i, j), lincomb([(one, L.bracket_basis(i, j))] + back), {}

    def jacobi():
        for i in range(L.dim):
            for j in range(L.dim):
                for k in range(L.dim):
                    acc: dict = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = L.bracket_basis(a, b)
                        for t, ct in L.bracket_sparse(inner, {c: one}).items():
                            acc[t] = acc.get(t, zero) + ct
                    # cancelled entries stay in acc, and the witness shows them
                    yield (i, j, k), acc, {t: zero for t in acc}

    return merge_reports({
        "antisymmetry": first_failure("antisymmetry", antisymmetry(),
                                      labelled([L.labels] * 2, L.labels)),
        "jacobi": first_failure("jacobi", jacobi(),
                                labelled([L.labels] * 3, L.labels, show_rhs=lambda _: "0")),
    })


class DerivationAction:
    """phi: g -> Der(h) by one matrix per g-basis element."""

    __slots__ = ("ctx", "dim_g", "dim_h", "mats")

    def __init__(self, ctx: FieldCtx, mats: list[LinearMap]):
        if not mats:
            raise ValueError("a derivation action needs one matrix per basis element")
        self.ctx = ctx
        self.dim_g = len(mats)
        self.dim_h = mats[0].domain_dim
        for m in mats:
            if m.ctx != ctx:
                raise ValueError("action matrices use different scalar fields")
            if not m.domain_dim == m.codomain_dim == self.dim_h:
                raise ValueError(f"action matrix is {m.codomain_dim} x {m.domain_dim},"
                                 f" expected {self.dim_h} x {self.dim_h}")
        self.mats = list(mats)

    def apply(self, gs: dict, hv: dict) -> dict:
        """phi(u)(v) for sparse u in g and v in h."""
        return lincomb((c, self.mats[i].apply(hv)) for i, c in gs.items())


def adjoint_lie_action(L: LieData) -> DerivationAction:
    """phi = ad: phi(u)(v) = [u, v]."""
    return DerivationAction(L.ctx, [
        LinearMap(L.ctx, [L.bracket_basis(i, j) for j in range(L.dim)], L.dim)
        for i in range(L.dim)])


def check_derivation_action(phi: DerivationAction, g: LieData, h: LieData) -> VerificationReport:
    """Each phi(e_i) derives the bracket of h, and phi is a Lie morphism
    into the commutator bracket on endomorphisms."""
    if (phi.dim_g, phi.dim_h) != (g.dim, h.dim):
        raise ValueError(f"phi has dims {phi.dim_g} x {phi.dim_h},"
                         f" expected g x h = {g.dim} x {h.dim}")
    one = g.ctx.one

    def derivation():
        for i in range(g.dim):
            m = phi.mats[i]
            for u in range(h.dim):
                for v in range(h.dim):
                    rhs = lincomb([(one, h.bracket_sparse(m.cols[u], {v: one})),
                                   (one, h.bracket_sparse({u: one}, m.cols[v]))])
                    yield (i, u, v), m.apply(h.bracket_basis(u, v)), rhs

    def lie_morphism():
        for i in range(g.dim):
            for j in range(g.dim):
                mi, mj = phi.mats[i], phi.mats[j]
                comm_cols = [lincomb([(one, mi.apply(mj.cols[u])), (-one, mj.apply(mi.cols[u]))])
                             for u in range(h.dim)]
                lhs_cols = [lincomb((c, phi.mats[k].cols[u])
                                    for k, c in g.bracket_basis(i, j).items())
                            for u in range(h.dim)]
                yield (i, j), lhs_cols, comm_cols

    return merge_reports({
        "derivation": first_failure(
            "derivation", derivation(),
            labelled([g.labels, h.labels, h.labels], h.labels)),
        "lie_morphism": first_failure(
            "lie_morphism", lie_morphism(),
            labelled([g.labels, g.labels], show_lhs=lambda _: "phi([u,v])",
                     show_rhs=lambda _: "[phi(u),phi(v)]")),
    })


def _check_operator_dims(B: LinearMap, src: LieData, dst: LieData) -> None:
    if (B.domain_dim, B.codomain_dim) != (src.dim, dst.dim):
        raise ValueError(f"B maps dim {B.domain_dim} to dim {B.codomain_dim},"
                         f" expected {src.dim} to {dst.dim}")


def _rb_lie_cases(g: LieData, h: LieData, act, B: LinearMap, lam: Scalar):
    """Cases (u, v): [B(u), B(v)]_g against B(act(B(u), v) - act(B(v), u) + lambda*[u,v]_h),
    act(x, y) taking sparse x in g and y in h."""
    one = g.ctx.one
    for u in range(h.dim):
        bu = B.cols[u]
        for v in range(h.dim):
            bv = B.cols[v]
            arg = lincomb([(one, act(bu, {v: one})), (-one, act(bv, {u: one})),
                           (lam, h.bracket_basis(u, v))])
            yield (u, v), g.bracket_sparse(bu, bv), B.apply(arg)


def check_relative_rb_lie(g: LieData, h: LieData, phi: DerivationAction,
                          B: LinearMap, lam: Scalar) -> VerificationReport:
    """[B(u), B(v)]_g = B(phi(B(u))v - phi(B(v))u + lambda*[u,v]_h) on basis pairs."""
    act = check_derivation_action(phi, g, h)
    if not act.ok:
        raise ValueError(f"invalid derivation action: fails {act.identity}")
    _check_operator_dims(B, h, g)
    return first_failure("relative_rb_lie", _rb_lie_cases(g, h, phi.apply, B, lam),
                         labelled([h.labels, h.labels], g.labels))


def rescale_bracket(L: LieData, lam: Scalar) -> LieData:
    scaled = {ij: {k: lam * c for k, c in terms.items()}
              for ij, terms in L.brackets.items()}
    return LieData(L.ctx, L.dim, scaled, L.labels)


def check_rb_lie_weight(g: LieData, B: LinearMap, lam: Scalar) -> VerificationReport:
    """[B(u), B(v)] = B([B(u),v] - [B(v),u] + lambda*[u,v]) on basis pairs.

    This is check_relative_rb_lie over the lambda-rescaled bracket with the
    adjoint action, evaluated directly on g.
    """
    _check_operator_dims(B, g, g)
    return first_failure("rb_lie_weight", _rb_lie_cases(g, g, g.bracket_sparse, B, lam),
                         labelled([g.labels, g.labels], g.labels))


def sl2(ctx: FieldCtx) -> LieData:
    """Basis e, h, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    two = ctx.from_int(2)
    brackets = {(1, 0): {0: two}, (1, 2): {2: -two}, (0, 2): {1: ctx.one}}
    return LieData(ctx, 3, brackets, ["e", "h", "f"])


def lie_to_json(L: LieData) -> dict:
    rows = []
    for (i, j), terms in sorted(L.brackets.items()):
        rows.append({"i": i, "j": j,
                     "terms": [{"k": k, "c": c.to_json()} for k, c in sorted(terms.items())]})
    return {"dim": L.dim, "field": L.ctx.name(), "brackets": rows, "labels": L.labels}


def lie_from_json(obj: dict) -> LieData:
    ctx = parse_field(obj["field"])
    dim = _json_int(obj["dim"], "dim")
    brackets: dict = {}
    for row in obj["brackets"]:
        terms = {_json_int(t["k"], "term index"): scalar_from_json(t["c"], ctx)
                 for t in row["terms"]}
        ij = (_json_int(row["i"], "bracket index"), _json_int(row["j"], "bracket index"))
        brackets[ij] = terms
    return LieData(ctx, dim, brackets, obj.get("labels"))
