"""Regenerate the JSON fixtures under fixtures/.

Besides the group tables and the H4 relative operator file, sl2.json is
sl2 over Q as lie_to_json writes it and sl2-minus-identity.json the
operator B = -id, which has weight 1 on it, so the fixtures pin the Hopf,
action and bracket codecs.  tests/test_cli_goldens.py compares fixtures/
byte for byte with outputs().

Run from the repository root:  python3 tools/make_fixtures.py
"""

import json
import os
import sys

from hopfrb import (FieldCtx, GroupTable, RelRBHopf, check_rb_lie_weight, check_rrbo,
                    hrbo_action, lie_to_json, opposite_hopf, rrb_to_json, sl2, sweedler_h4)
from hopfrb.hopf_core import LinearMap

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def h4_rrb() -> dict:
    """H4 factored as (k*1) * H4: the whole algebra is the L-side, so the
    operator is the identity and the action is Phi_a(b) = S(a_(1)) b a_(2)."""
    ctx = FieldCtx.rationals()
    H = sweedler_h4(ctx)
    data = RelRBHopf(H, opposite_hopf(H), hrbo_action(H), LinearMap.identity(ctx, H.dim))
    rep = check_rrbo(data, full=True)
    if not rep.ok:
        raise RuntimeError(f"h4 fixture fails {rep.identity}")
    return rrb_to_json(data)


def sl2_minus_identity() -> list:
    """B = -id, a Rota-Baxter operator of weight 1 on sl2 over Q."""
    ctx = FieldCtx.rationals()
    B = LinearMap(ctx, [{j: -ctx.one} for j in range(3)], 3)
    rep = check_rb_lie_weight(sl2(ctx), B, ctx.one)
    if not rep.ok:
        raise RuntimeError(f"sl2 operator fixture fails {rep.identity}")
    return B.to_json()


def outputs() -> dict:
    """File name -> the text of that fixture."""
    objs = {
        "z2.json": GroupTable.cyclic(2).to_json(),
        "z3.json": GroupTable.cyclic(3).to_json(),
        "z4.json": GroupTable.cyclic(4).to_json(),
        "s3.json": GroupTable.symmetric(3).to_json(),
        "f21.json": GroupTable.metacyclic(7, 3, 2).to_json(),
        "h4-rrb-exact-factorization.json": h4_rrb(),
        "sl2.json": lie_to_json(sl2(FieldCtx.rationals())),
        "sl2-minus-identity.json": sl2_minus_identity(),
    }
    return {name: json.dumps(obj, indent=1, sort_keys=True) + "\n" for name, obj in objs.items()}


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    for name, text in outputs().items():
        path = os.path.join(OUT, name)
        with open(path, "w") as fh:
            fh.write(text)
        print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
