"""Precoded layered codes: general (n, k) via a linearized-polynomial outer code.

The complete-design layered code over n nodes only offers reconstruction
degree n - m. To hit smaller k, the F data symbols become the coefficients
of a q-linearized polynomial f(x) = sum v_i x^(q^(i-1)) over GF(q^kappa),
q = 2^w, with kappa = F_c = (r-m) C(n,r) the inner code's data size; the
inner code stores f evaluated at a basis of GF(q^kappa) over GF(q). Every
stored symbol is then itself an evaluation of f at a known point (the symbol
the inner code stores for data theta), so any symbol set whose columns have
full rank over GF(q) pins f down.

Reconstruction has two exact methods and takes the one that needs fewer
field operations for the nodes it is given (interpolation_method). Newton
interpolation of the linearized polynomial takes O(F^2) multiplies and
O(F^2) Frobenius steps and checks every symbol it did not take in the same
pass (linearized_interpolate). The other runs the inner code's batched group
decode (LayeredCode._data) into the evaluations u_l = f(x^l), with a block's
missing positions below r-m filled with zeros, each adding one free
direction, and inverts the precode as a Vandermonde map in the conjugates of
x, through x's minimal polynomial (vandermonde_interpolate): about kappa^2
multiplies and no Frobenius step, plus about kappa multiplies, kappa - F
Frobenius steps and a small elimination per free direction. Newton wins when
the nodes leave many evaluations free, as k nodes of a code with small k do.
The precode and both methods hold their operands in the extension field's
lane form (extfield.py), the form every multiply runs in, across their
loops; linearized_eval, one point at a time through mul and frobenius, stays
as their closed-form reference.

F = rho(n, k, m, r) (bandwidth.py) is the worst-case rank over k-subsets;
rank_oracle recomputes subset ranks by eliminating an explicit generator
matrix and shares no code with rho.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb
from typing import Iterable, NamedTuple, Optional, Sequence

from .bandwidth import _check_shape, rho
from .designs import check_block_count, complete_design
from .errors import IntegrityError, ValidationError
from .extfield import BinaryExtensionField, extension_field
from .gf import binary_field, check_symbols
from .layered import GIVEN, LayeredCode, NodeContents, SystemParams, build_code
from .mds import MdsCodec, mds_codec


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
    """Evaluate the data's linearized polynomial at the field's basis theta.

    theta is the power basis x^l, so f(x^l) = sum_i c_i z_i^l with z_i =
    x^(q^i), which the field holds; each next point multiplies every term
    c_i z_i^l by its z_i once, in the lane form (extfield.py).
    """
    if len(data) > field.kappa:
        raise ValidationError(f"{len(data)} coefficients but only kappa={field.kappa} points")
    check_symbols(field, data, "{!r} is not a field element")
    lanes, mul, z = field._lanes_in, field._lane_mul, field._lane_conjugates
    terms = [lanes(c) for c in data]  # c_i z_i^l, here at l = 0
    evals = []
    for l in range(field.kappa):
        if l:
            terms = [mul(t, zi) for t, zi in zip(terms, z)]
        acc = 0
        for t in terms:
            acc ^= t
        evals.append(field._lanes_out(acc))
    return evals


_INCONSISTENT = "stored symbols are inconsistent with the recovered data"


def _rank_verdict(rank: int, given: int, size: int) -> None:
    if rank < size:
        raise IntegrityError(f"only {rank} independent columns among {given}; need {size}")


def linearized_interpolate(
    field: BinaryExtensionField, pairs: Sequence[tuple[int, int]], size: int
) -> list[int]:
    """Coefficients of the f of q-degree < size through the pairs, each pair checked.

    pairs are (point, value). One pass of Newton interpolation: ann, monic,
    vanishes exactly on the subfield span of the points taken so far, and f
    interpolates their values. A point nu is taken while fewer than size
    are and delta = ann(nu) != 0; for the residual e = value + f(nu),
    f <- f + (e / delta) ann and ann <- ann^q + delta^(q-1) ann, through one
    inverse. Every other pair must have e = 0: a skipped point lies in the
    span, on which all linearized f through the points taken agree, and
    after the size-th point f is final. Raises IntegrityError when fewer than size
    points are taken, else when a checked pair disagrees. f and ann are held in
    the lane form (extfield.py); the powers of nu are taken before they enter
    it, and the inverse is taken outside it.
    """
    lanes, mul, frob = field._lanes_in, field._lane_mul, field.frobenius
    f: list[int] = []
    ann = [lanes(field.one)]  # the polynomial x
    misfit = False
    for nu, y in pairs:
        taking = len(f) < size
        pows = [lanes(nu)]  # nu^(q^i) for i < len(ann) while taking, i < len(f) after
        power = nu
        for _ in range(len(f) - 1 + taking):
            power = frob(power)
            pows.append(lanes(power))
        e = lanes(y)
        for c, p in zip(f, pows):
            e ^= mul(c, p)
        delta = 0  # zero in the lane form too
        if taking:
            for c, p in zip(ann, pows):
                delta ^= mul(c, p)
        if not delta:  # nu lies in the span, or f is final
            misfit |= e != 0
            continue
        d = field._lanes_out(delta)
        inv = lanes(field.inv(d))
        s, dq1 = mul(e, inv), mul(lanes(frob(d)), inv)  # e / delta and delta^(q-1)
        f = [c ^ mul(s, a) for c, a in zip(f, ann)] + [s]  # ann is monic
        lifted = [0] + [field._lane_frobenius(c) for c in ann]  # ann^q
        ann = [c ^ mul(dq1, a) for c, a in zip(lifted, ann)] + lifted[-1:]
    _rank_verdict(len(f), len(pairs), size)
    if misfit:
        raise IntegrityError(_INCONSISTENT)
    return [field._lanes_out(c) for c in f]


def interpolation_method(kappa: int, size: int, free: int, given: int) -> str:
    """"newton" or "vandermonde": the reconstruct that takes fewer field operations.

    Multiplies and Frobenius steps count one each. Newton through `given`
    points takes about 4j + 4 multiplies and 2j + 1 Frobenius steps for the
    j-th of the `size` points it takes, and 2 size - 1 for each further one.
    The Vandermonde inverse evaluates W at the kappa conjugates of x (kappa - 1
    multiplies each) and divides size of them; each of the `free` directions
    takes kappa - 1 multiplies to evaluate at the first check's conjugate and
    kappa - size Frobenius steps to lift, and the directions are solved for
    among the kappa - size checks.
    """
    newton = 2 * size * (size + 1) + size * size + (given - size) * (2 * size - 1)
    vandermonde = (kappa * (kappa - 1) + size + free * (2 * kappa - size - 1)
                   + (kappa - size) * free * (free + 1) // 2)
    return "newton" if newton < vandermonde else "vandermonde"


def _combine(tabs: Sequence[Sequence[int]], coeffs: Iterable[int]) -> int:
    """sum_i coeffs[i] a_i for subfield coefficients, where tabs[i] is a_i's table of multiples
    (extfield.py's _lane_multiples), in the lane form."""
    acc = 0
    for tab, c in zip(tabs, coeffs):
        acc ^= tab[c]
    return acc


def vandermonde_interpolate(
    field: BinaryExtensionField, evals: Sequence[int], size: int,
    free: Sequence[tuple[int, Sequence[int]]],
) -> list[int]:
    """Coefficients of the f of q-degree < size with f(x^l) = u_l for every l < kappa, checked.

    u = evals + sum_t lambda_t v_t for some lambdas: evals is in the lane
    form, and each free direction v_t = (start, vec) is the subfield vector
    holding vec from index start. f(x^l) = sum_i c_i z_i^l is a Vandermonde
    map in the conjugates z_i = x^(q^i), the roots of x's minimal polynomial
    g(Y) = Y^kappa + sum g_l Y^l, with the closed-form inverse c_i = W(z_i) /
    g'(z_i), W(Y) = sum_s w_s Y^s, w_s = sum_l u_l g_(l+s+1) (Kaltofen and
    Lakshman, ISSAC 1988): one Horner pass per conjugate. g' has subfield
    coefficients, so 1 / g'(z_i) = (1 / g'(x))^(q^i), a constant of the
    field; so is z_i. A direction's h_t = W of v_t has subfield
    coefficients too, so it adds lambda_t h_t(x)^(q^i) to W(z_i). The
    lambdas come from c_i = 0 for size <= i < kappa, by elimination; the
    equations left over are checks, and IntegrityError is raised when one
    fails. The directions must be independent on those equations, which
    holds when the given symbols' rank reaches size (the rank verdict).
    """
    lanes, mul, horner = field._lanes_in, field._lane_mul, field._lane_horner
    kappa, g, conj = field.kappa, field.minpoly, field._lane_conjugates
    tabs = [field._lane_multiples(u) for u in evals]
    w = [_combine(tabs, g[s + 1 :]) for s in range(kappa)]
    smul = field.subfield.mul
    shapes = []  # each direction's h_t
    for start, vec in free:
        h = [0] * kappa
        for s in range(max(0, kappa - start)):
            for c, gl in zip(vec, g[start + s + 1 :]):
                h[s] ^= smul(c, gl)
        shapes.append(h)
    # rows i = size..kappa-1 of sum_t lambda_t h_t(z_i) = W(z_i), augmented
    rows = [[] for _ in range(size, kappa)]
    emb = field._lane_multiples(1)  # the embedded subfield elements in the lane form
    for h in shapes:
        # h_t(z_size), raised to the q once per further row: h_t(z_i) = h_t(x)^(q^i)
        lift = field._lanes_out(horner([emb[c] for c in h], conj[size]))
        for row in rows:
            row.append(lanes(lift))
            lift = field.frobenius(lift)
    for i, row in enumerate(rows, size):
        row.append(horner(w, conj[i]))
    solved = []
    for t in range(len(free)):
        # a pivot exists, as the directions are independent on these rows
        row = rows.pop(next(i for i, row in enumerate(rows) if row[t]))
        inv = lanes(field.inv(field._lanes_out(row[t])))
        row = [mul(c, inv) if c else 0 for c in row]
        for other in rows + solved:
            factor = other[t]
            if factor:
                other[:] = [a ^ mul(factor, b) if b else a for a, b in zip(other, row)]
        solved.append(row)
    if any(row[-1] for row in rows):
        raise IntegrityError(_INCONSISTENT)
    for row, h in zip(solved, shapes):
        tab = field._lane_multiples(row[-1])  # lambda_t
        w = [acc ^ tab[c] for acc, c in zip(w, h)]
    inv_slopes = field._lane_inv_slopes
    return [field._lanes_out(mul(horner(w, conj[i]), inv_slopes[i])) for i in range(size)]


class PrecodedCode(NamedTuple):
    n: int
    k: int
    d: int
    e: int
    m: int
    r: int
    field: BinaryExtensionField
    inner: LayeredCode
    data_len: int  # F = rho(n, k, m, r)
    subfield_codec: MdsCodec  # inner.codec over the subfield: both take their rows from its logs

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

        The given symbols' evaluation points span rank = sum over blocks of
        min(given positions, r-m) over the subfield; fewer than F raises
        IntegrityError before anything is decoded. Then f is recovered by
        whichever of two exact methods takes fewer field operations
        (interpolation_method). Newton interpolation walks the symbols in
        node order, then slot order, once, through the first F independent
        points, and checks every other symbol against them
        (linearized_interpolate). The Vandermonde route runs the inner code's
        batched group decode into the evaluations u_l = f(x^l), with the
        deficient positions filled with zeros and the kappa - rank directions
        they leave free (_inner_decode), and inverts the precode's Vandermonde
        structure (vandermonde_interpolate). Both raise IntegrityError when a
        stored symbol disagrees with the rest.
        """
        by_node = self.inner._index_contents(contents)
        if len(by_node) < self.k:
            raise ValidationError(f"need at least k={self.k} distinct nodes, got {len(by_node)}")
        f, km = self.field, self.inner.codec.dimension
        groups = self.inner._groups(dict.fromkeys(by_node, GIVEN))
        rank = sum(len(blocks) * min(key.count(GIVEN), km) for key, blocks in groups.items())
        given = len(by_node) * self.alpha
        _rank_verdict(rank, given, self.data_len)
        if interpolation_method(f.kappa, self.data_len, f.kappa - rank, given) == "vandermonde":
            evals, free = self._inner_decode(by_node, groups)
            return vandermonde_interpolate(f, evals, self.data_len, free)
        # the inner code combines with subfield weights, over which f is
        # linear, so each slot holds f at what it stores for data theta
        stored_theta = self.inner.encode(f.theta)
        pairs = [  # (evaluation point, stored symbol)
            pair for x in sorted(by_node) for pair in zip(stored_theta[x - 1].symbols, by_node[x])
        ]
        return linearized_interpolate(f, pairs, self.data_len)

    def _inner_decode(self, by_node, groups) -> tuple[list[int], list[tuple[int, list[int]]]]:
        """The evaluations u = f(theta) the given symbols fix, in the lane form, and the free
        directions (vandermonde_interpolate) that the missing ones leave.

        The nodes store exactly inner.encode(u), so u is the inner code's batched group decode
        (LayeredCode._data), which checks every further given symbol. A block with fewer than
        r-m given positions also takes its lowest missing ones as given zeros, each adding the
        direction of its generator column; blocks whose roles then agree decode as one group.
        """
        km = self.inner.codec.dimension
        filled: defaultdict[bytes, list[int]] = defaultdict(list)
        free = []
        for key, blocks in groups.items():
            missing = [pos for pos, role in enumerate(key) if role != GIVEN]
            zeros = missing[: max(0, km - key.count(GIVEN))]
            if zeros:  # absent nodes read as zeros, so they decode as given ones
                key = bytes(GIVEN if pos in zeros else role for pos, role in enumerate(key))
                chosen = [pos for pos, role in enumerate(key) if role == GIVEN]
                rows = self.subfield_codec.generator(chosen)[:km]
                vecs = [[row[chosen.index(pos)] for row in rows] for pos in zeros]
                free += [(b * km, vec) for b in blocks for vec in vecs]
            filled[key] += blocks
        try:
            evals = self.inner._data(by_node, filled)
        except IntegrityError:
            raise IntegrityError(_INCONSISTENT) from None
        return list(map(self.field._lanes_in, evals)), free

    def repair(
        self,
        state: Iterable[NodeContents],
        failed: Iterable[int],
        helpers: Iterable[int],
    ):
        """Group-local repair, exactly the inner layered code's, from at least n-m helpers."""
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
    if d < inner_k:  # a repair decodes each group from the inner code's n-m nodes
        raise ValidationError(f"repair needs d >= n-m = {inner_k} helpers, got d={d}")
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
    return PrecodedCode(
        n=n, k=k, d=d, e=e, m=m, r=r,
        field=field, inner=inner,
        data_len=rho(n, k, m, r), subfield_codec=mds_codec(field.subfield, r, r - m),
    )
