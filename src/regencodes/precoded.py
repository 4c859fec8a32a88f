"""Precoded layered codes: general (n, k) via a linearized-polynomial outer code.

The complete-design layered code over n nodes only offers reconstruction
degree n - m. To hit smaller k, the F data symbols become the coefficients
of a q-linearized polynomial f(x) = sum v_i x^(q^(i-1)) over GF(q^kappa),
q = 2^w, with kappa = F_c = (r-m) C(n,r) the inner code's data size; the
inner code stores f evaluated at a basis of GF(q^kappa) over GF(q). Every
stored symbol is then itself an evaluation of f at a known point (the symbol
the inner code stores for data theta), so any symbol set whose columns have
full rank over GF(q) pins f down. Reconstruction recovers f by Newton
interpolation of the linearized polynomial, in O(F^2) field operations and
one inverse (linearized_interpolate).

F = rho(n, k, m, r) is the worst-case rank over k-subsets; rank_oracle
recomputes subset ranks by eliminating an explicit generator matrix and
shares no code with rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional, Sequence

from .designs import check_block_count, complete_design
from .errors import IntegrityError, ValidationError
from .extfield import BinaryExtensionField, extension_field
from .gf import binary_field, check_symbols
from .layered import LayeredCode, NodeContents, SystemParams, build_code
from .mds import mds_codec


def rho(n: int, k: int, m: int, r: int) -> int:
    """Data symbols retained by an (n, k) precoded code with group size r.

    Sums min(p, r-m) over the blocks meeting a fixed k-set in p points:
    rho = sum_p C(k,p) C(n-k,r-p) min(p, r-m). Equals (r-m) C(n,r) when
    m = n-k (the plain layered case).
    """
    _check_shape(n, k, m, r)
    total = 0
    for p in range(max(1, r - (n - k)), min(k, r) + 1):
        total += comb(k, p) * comb(n - k, r - p) * min(p, r - m)
    return total


def _check_shape(n: int, k: int, m: int, r: int) -> None:
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got n={n} k={k}")
    if not 1 <= m <= n - k:
        raise ValidationError(f"need 1 <= m <= n-k, got m={m} n-k={n - k}")
    if not m < r <= n:
        raise ValidationError(f"need m < r <= n, got m={m} r={r} n={n}")


def rank_oracle(
    n: int, k: int, m: int, r: int, nodes: Iterable[int], w: Optional[int] = None
) -> int:
    """Rank over GF(2^w) of the generator columns a node subset holds.

    Materializes the inner code's generator (one (r-m)-row segment per
    block) and eliminates the subset's columns. Plain linear algebra on an
    explicit matrix; nothing shared with rho.
    """
    _check_shape(n, k, m, r)
    nodes = sorted(set(nodes))
    if not set(nodes) <= set(range(1, n + 1)):
        raise ValidationError("nodes must lie in 1..n")
    if w is None:
        w = max(2, (r - 1).bit_length())
    field = binary_field(w)
    km = r - m
    gen_rows = mds_codec(field, r, km).generator(range(km))
    design = complete_design(n, r)
    node_set = set(nodes)
    # sparse elimination; columns of distinct blocks occupy disjoint rows
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for b, block in enumerate(design.blocks):
        base = b * km
        for pos, x in enumerate(block):
            if x not in node_set:
                continue
            vec = {base + i: v for i, v in enumerate(gen_rows[pos]) if v != field.zero}
            while vec:
                lead = min(vec)
                if lead not in pivots:
                    inv = field.inv(vec[lead])
                    pivots[lead] = {row: field.mul(inv, v) for row, v in vec.items()}
                    rank += 1
                    break
                factor = vec[lead]
                for row, v in pivots[lead].items():
                    nv = field.add(vec.get(row, field.zero), field.mul(factor, v))
                    if nv == field.zero:
                        vec.pop(row, None)
                    else:
                        vec[row] = nv
    return rank


def linearized_eval(field: BinaryExtensionField, coeffs: Sequence[int], point: int) -> int:
    """f(point) for f(x) = sum coeffs[i] x^(q^i)."""
    acc = field.zero
    p = point
    for v in coeffs:
        acc = field.add(acc, field.mul(v, p))
        p = field.frobenius(p)
    return acc


def linearized_precode(field: BinaryExtensionField, data: Sequence[int]) -> list[int]:
    """Evaluate the data's linearized polynomial at the field's basis theta."""
    if len(data) > field.kappa:
        raise ValidationError(f"{len(data)} coefficients but only kappa={field.kappa} points")
    check_symbols(field, data, "{!r} is not a field element")
    return [linearized_eval(field, data, pt) for pt in field.theta]


def linearized_interpolate(
    field: BinaryExtensionField, pairs: Sequence[tuple[int, int]], size: int
) -> list[int]:
    """Coefficients of the f of q-degree < size through size of the pairs.

    pairs are (point, value). A point is taken when it is independent over
    the subfield of the points taken before it; the rest are skipped,
    values unread. Raises IntegrityError when fewer than size points are
    taken. Fraction-free
    Newton interpolation: ann vanishes exactly on the subfield span of the
    points taken so far, g / s interpolates their values, and the only
    inverse is the final 1 / s.
    """
    if size == 0:
        return []
    mul, frob = field.mul, field.frobenius
    ann = [field.one]  # the polynomial x
    g: list[int] = []
    s = field.one
    taken = 0
    for nu, y in pairs:
        pows = [nu]  # nu^(q^i) for i < len(ann)
        for _ in range(len(ann) - 1):
            pows.append(frob(pows[-1]))
        delta = field.zero
        for c, p in zip(ann, pows):
            delta ^= mul(c, p)
        if delta == field.zero:
            continue  # nu lies in the span: ann(nu) = 0
        # g <- delta g + e ann keeps g = s' y at the old points and fixes nu
        e = mul(s, y)
        for c, p in zip(g, pows):
            e ^= mul(c, p)
        g = [mul(delta, c) ^ mul(e, a) for c, a in zip(g, ann)] + [mul(e, ann[-1])]
        s = mul(delta, s)
        taken += 1
        if taken == size:
            scale = field.inv(s)
            return [mul(scale, c) for c in g]
        # ann <- delta ann^q + delta^q ann vanishes at nu too
        dq = frob(delta)
        grown = [mul(dq, c) for c in ann] + [field.zero]
        for i, c in enumerate(ann):
            grown[i + 1] ^= mul(delta, frob(c))
        ann = grown
    raise IntegrityError(f"only {taken} independent columns among {len(pairs)}; need {size}")


@dataclass(frozen=True)
class PrecodedCode:
    n: int
    k: int
    d: int
    e: int
    m: int
    r: int
    field: BinaryExtensionField
    inner: LayeredCode
    data_len: int  # F = rho(n, k, m, r)

    @property
    def alpha(self) -> int:
        return self.inner.alpha

    def encode(self, data: Sequence[int]) -> list[NodeContents]:
        """Data -> all n nodes; symbols are extension-field elements."""
        if len(data) != self.data_len:
            raise ValidationError(f"data must have {self.data_len} symbols, got {len(data)}")
        evals = linearized_precode(self.field, data)
        return self.inner.encode(evals)

    def reconstruct(self, contents: Iterable[NodeContents]) -> list[int]:
        """Recover the data from any >= k distinct nodes' contents.

        Walks the provided symbols in node order, then slot order, and
        interpolates f through the first F whose evaluation points are
        independent over the subfield; then checks f against every provided
        symbol.
        """
        by_node = self.inner._index_contents(contents)
        if len(by_node) < self.k:
            raise ValidationError(f"need at least k={self.k} distinct nodes, got {len(by_node)}")
        f = self.field
        # the inner code combines with subfield weights, over which f is
        # linear, so each slot holds f at what it stores for data theta
        stored_theta = self.inner.encode(f.theta)
        pairs = [  # (evaluation point, stored symbol)
            pair for x in sorted(by_node) for pair in zip(stored_theta[x - 1].symbols, by_node[x])
        ]
        data = linearized_interpolate(f, pairs, self.data_len)
        for nu, sym in pairs:
            if linearized_eval(f, data, nu) != sym:
                raise IntegrityError("stored symbols are inconsistent with the recovered data")
        return data

    def repair(
        self,
        state: Iterable[NodeContents],
        failed: Iterable[int],
        helpers: Iterable[int],
    ):
        """Group-local repair, exactly the inner layered code's."""
        return self.inner.repair(state, failed, helpers)


def build_precoded(
    n: int, k: int, d: int, e: int, m: int, r: int, w: Optional[int] = None
) -> PrecodedCode:
    """Assemble an (n, k, d, e) precoded code with group size r over GF(2^w)."""
    _check_shape(n, k, m, r)
    if not 1 <= e <= m:
        raise ValidationError(f"need 1 <= e <= m, got e={e} m={m}")
    if not k <= d <= n - e:
        raise ValidationError(f"need k <= d <= n-e, got k={k} d={d} n-e={n - e}")
    inner_k = n - m
    if inner_k < 2:
        raise ValidationError("m = n-1 collapses the inner code to one node; unsupported")
    if w is None:
        w = max(2, (r - 1).bit_length())
    check_block_count(n, r)
    kappa = (r - m) * comb(n, r)
    field = extension_field(w, kappa)
    inner_params = SystemParams(
        n=n, k=inner_k, d=inner_k, e=min(m, inner_k - 1), m=m, r=r, t=r
    )
    inner = build_code(inner_params, field=field)
    if inner.data_len != kappa:
        raise IntegrityError("inner code size disagrees with kappa")
    # the extension codec must be the embedded image of the subfield codec,
    # or inner.encode(theta) would not give the evaluation points
    subfield_rows = mds_codec(binary_field(w), r, r - m).generator(range(r - m))
    embedded = tuple(tuple(map(field.embed, row)) for row in subfield_rows)
    if inner.codec.generator(range(r - m)) != embedded:
        raise IntegrityError("extension codec is not the embedded subfield codec")
    return PrecodedCode(
        n=n, k=k, d=d, e=e, m=m, r=r,
        field=field, inner=inner,
        data_len=rho(n, k, m, r),
    )
