"""Relative Rota-Baxter operators of weight lambda on finite-dimensional
Lie algebras given by structure constants.

The relative identity for B: h -> g under an action phi: g -> Der(h) is

    [B(u), B(v)]_g = B( phi(B(u))v - phi(B(v))u + lambda*[u,v]_h )

and rescaling the bracket of h by lambda with phi = ad reduces it to the
plain weight-lambda Rota-Baxter identity on one algebra.  Vectors are sparse
dicts combined by hopf_core.lincomb; operators are LinearMaps, and an action
is a hopf_core.ActionData, the table of phi(e_i)(e_j) by structure constants.
"""

from __future__ import annotations

from .hopf_core import (ActionData, LinearMap, _bilinear, _check_action_dims, _check_map_dims,
                        _labels, _table, _table_from_json, _table_to_json, lincomb)
from .report import VerificationReport, first_failure, labelled, merge_reports
from .scalars import FieldCtx, Scalar, _json_shape, parse_field


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
        self.brackets = _table(brackets, (dim, dim, dim), "bracket")
        for (i, j), terms in list(self.brackets.items()):
            if (j, i) not in self.brackets and i != j:
                self.brackets[(j, i)] = {k: -c for k, c in terms.items()}

    def bracket_basis(self, i: int, j: int) -> dict:
        return self.brackets.get((i, j), {})

    def bracket_sparse(self, sa: dict, sb: dict) -> dict:
        return _bilinear(self.brackets, sa, sb)


def check_lie(L: LieData) -> VerificationReport:
    """Antisymmetry (including [u,u] = 0) and the Jacobi identity."""
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
                    cyclic = lincomb((one, L.bracket_sparse(L.bracket_basis(a, b), {c: one}))
                                     for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
                    yield (i, j, k), cyclic, {}

    return merge_reports({
        "antisymmetry": first_failure("antisymmetry", antisymmetry(),
                                      labelled([L.labels] * 2, L.labels)),
        "jacobi": first_failure("jacobi", jacobi(), labelled([L.labels] * 3, L.labels)),
    })


def adjoint_lie_action(L: LieData) -> ActionData:
    """phi = ad: phi(u)(v) = [u, v], whose table is the bracket table."""
    return ActionData(L.ctx, L.dim, L.dim, L.brackets)


def check_derivation_action(phi: ActionData, g: LieData, h: LieData) -> VerificationReport:
    """Each phi(e_i) derives the bracket of h, and phi is a Lie morphism
    into the commutator bracket on endomorphisms."""
    _check_action_dims(phi, g, h, "g x h")
    one = g.ctx.one

    def derivation():
        for i in range(g.dim):
            for u in range(h.dim):
                for v in range(h.dim):
                    rhs = lincomb([(one, h.bracket_sparse(phi.apply_basis(i, u), {v: one})),
                                   (one, h.bracket_sparse({u: one}, phi.apply_basis(i, v)))])
                    yield (i, u, v), phi.apply({i: one}, h.bracket_basis(u, v)), rhs

    def lie_morphism():
        # phi([e_i,e_j]) e_u against phi(e_i)phi(e_j) e_u - phi(e_j)phi(e_i) e_u
        for i in range(g.dim):
            for j in range(g.dim):
                bracket = g.bracket_basis(i, j)
                for u in range(h.dim):
                    comm = lincomb([(one, phi.apply({i: one}, phi.apply_basis(j, u))),
                                    (-one, phi.apply({j: one}, phi.apply_basis(i, u)))])
                    yield (i, j, u), phi.apply(bracket, {u: one}), comm

    return merge_reports({
        "derivation": first_failure(
            "derivation", derivation(),
            labelled([g.labels, h.labels, h.labels], h.labels)),
        "lie_morphism": first_failure(
            "lie_morphism", lie_morphism(),
            labelled([g.labels, g.labels, h.labels], h.labels)),
    })


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


def check_relative_rb_lie(g: LieData, h: LieData, phi: ActionData,
                          B: LinearMap, lam: Scalar) -> VerificationReport:
    """[B(u), B(v)]_g = B(phi(B(u))v - phi(B(v))u + lambda*[u,v]_h) on basis pairs."""
    act = check_derivation_action(phi, g, h)
    if not act.ok:
        raise ValueError(f"invalid derivation action: fails {act.identity}")
    _check_map_dims(B, h, g, "B")
    return first_failure("relative_rb_lie", _rb_lie_cases(g, h, phi.apply, B, lam),
                         labelled([h.labels, h.labels], g.labels))


def check_rb_lie_weight(g: LieData, B: LinearMap, lam: Scalar) -> VerificationReport:
    """[B(u), B(v)] = B([B(u),v] - [B(v),u] + lambda*[u,v]) on basis pairs.

    This is check_relative_rb_lie over the lambda-rescaled bracket with the
    adjoint action, evaluated directly on g.
    """
    _check_map_dims(B, g, g, "B")
    return first_failure("rb_lie_weight", _rb_lie_cases(g, g, g.bracket_sparse, B, lam),
                         labelled([g.labels, g.labels], g.labels))


def sl2(ctx: FieldCtx) -> LieData:
    """Basis e, h, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    two = ctx.from_int(2)
    brackets = {(1, 0): {0: two}, (1, 2): {2: -two}, (0, 2): {1: ctx.one}}
    return LieData(ctx, 3, brackets, ["e", "h", "f"])


def lie_to_json(L: LieData) -> dict:
    return {"dim": L.dim, "field": L.ctx.name(), "brackets": _table_to_json(L.brackets, "ijk"),
            "labels": L.labels}


def lie_from_json(obj: dict) -> LieData:
    _json_shape(obj, "Lie algebra", dict, {"field": str, "dim": int, "brackets": list},
                {"labels": (list, type(None))})
    ctx = parse_field(obj["field"])
    return LieData(ctx, obj["dim"], _table_from_json(obj["brackets"], ctx, "ijk"),
                   obj.get("labels"))
