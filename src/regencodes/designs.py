"""Block designs: N blocks of size r over points 1..n with covering order t.

A design is usable by the layered construction when every t-subset of the
point set lies in exactly one block (verify_steiner). complete_design gives
the degenerate t = r case, all r-subsets in lexicographic order; smaller t
comes from files or the bundled designs. verify_steiner refuses a design
with more than MAX_BLOCKS t-subsets before it expands any block, so a short
file cannot make it allocate without bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources
from math import comb
from pathlib import Path

from .errors import ValidationError

# complete designs are materialized block by block, verify_steiner expands
# C(n, t) t-subsets, and a precoded code's extension degree grows with the
# block count; larger requests are refused
MAX_BLOCKS = 100_000


@dataclass(frozen=True)
class BlockDesign:
    n: int
    r: int
    t: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or not 1 <= self.t <= self.r <= self.n:
            raise ValidationError(
                f"need 1 <= t <= r <= n, got n={self.n} r={self.r} t={self.t}"
            )
        if not self.blocks:
            raise ValidationError("design has no blocks")
        norm = []
        for b in self.blocks:
            bb = tuple(sorted(b))
            if len(bb) != self.r or len(set(bb)) != self.r:
                raise ValidationError(f"block {b!r} must hold {self.r} distinct points")
            if bb[0] < 1 or bb[-1] > self.n:
                raise ValidationError(f"block {b!r} has points outside 1..{self.n}")
            norm.append(bb)
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class DesignStats:
    N: int        # blocks
    alpha: int    # blocks through a point, N r / n
    lambda2: int  # blocks through a pair (0 when t < 2)
    lambda3: int  # blocks through a triple (0 when t < 3)


def _comb_within_limit(n: int, r: int) -> bool:
    """C(n, r) <= MAX_BLOCKS, for 0 <= r <= n.

    Builds C(n, r) one factor at a time and stops past the limit, so a huge
    n costs no more than a small one.
    """
    count = 1
    for i in range(min(r, n - r)):
        count = count * (n - i) // (i + 1)  # C(n, i + 1), exact
        if count > MAX_BLOCKS:
            return False
    return True


def check_block_count(n: int, r: int) -> None:
    """Refuse a complete design of more than MAX_BLOCKS blocks before building it."""
    if not _comb_within_limit(n, r):
        raise ValidationError(f"complete design C({n},{r}) has more than {MAX_BLOCKS} blocks")


def complete_design(n: int, r: int) -> BlockDesign:
    if not 1 <= r <= n:
        raise ValidationError(f"need 1 <= r <= n, got n={n} r={r}")
    check_block_count(n, r)
    blocks = tuple(itertools.combinations(range(1, n + 1), r))
    return BlockDesign(n=n, r=r, t=r, blocks=blocks)


def verify_steiner(design: BlockDesign) -> bool:
    """True iff every t-subset of 1..n lies in exactly one block.

    Before any block is expanded, C(n, t) > MAX_BLOCKS raises and a block
    count other than C(n, t) / C(r, t) gives False.
    """
    n, r, t = design.n, design.r, design.t
    if not _comb_within_limit(n, t):
        raise ValidationError(
            f"design has C({n},{t}) {t}-subsets to cover, more than {MAX_BLOCKS}"
        )
    if design.block_count * comb(r, t) != comb(n, t):
        return False
    # C(n, t) subsets in all: every one is covered once iff none repeats
    seen: set[tuple[int, ...]] = set()
    for b in design.blocks:
        seen.update(itertools.combinations(b, t))
    return len(seen) == comb(n, t)


def _exact_ratio(num: int, den: int, what: str) -> int:
    if den == 0 or num % den:
        raise ValidationError(f"{what} = {num}/{den} is not an integer")
    return num // den


def design_stats(design: BlockDesign) -> DesignStats:
    """Counting parameters of a verified design.

    Assumes verify_steiner(design) holds; only the arithmetic consistency of
    (n, r, t, N) is re-checked here.
    """
    n, r, t = design.n, design.r, design.t
    N = design.block_count
    if N * comb(r, t) != comb(n, t):
        raise ValidationError(
            f"block count {N} does not match C({n},{t})/C({r},{t}) for a covering design"
        )
    alpha = _exact_ratio(N * r, n, "blocks per point")
    lambda2 = _exact_ratio(comb(n - 2, t - 2), comb(r - 2, t - 2), "lambda2") if t >= 2 else 0
    lambda3 = _exact_ratio(comb(n - 3, t - 3), comb(r - 3, t - 3), "lambda3") if t >= 3 else 0
    return DesignStats(N=N, alpha=alpha, lambda2=lambda2, lambda3=lambda3)


def serialize_design(design: BlockDesign) -> str:
    lines = [f"{design.n} {design.r} {design.t}"]
    lines.extend(" ".join(str(x) for x in b) for b in design.blocks)
    return "\n".join(lines) + "\n"


def parse_design(text: str) -> BlockDesign:
    """Parse the `n r t` + one-block-per-line format; strict about shape."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValidationError("empty design file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValidationError(f"design header must be 'n r t', got {lines[0]!r}")
    try:
        n, r, t = (int(x) for x in head)
    except ValueError:
        raise ValidationError(f"design header must be three integers, got {lines[0]!r}") from None
    blocks = []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            members = tuple(int(x) for x in ln.split())
        except ValueError:
            raise ValidationError(f"line {lineno}: block must be integers, got {ln!r}") from None
        if len(members) != r:
            raise ValidationError(f"line {lineno}: expected {r} points, got {len(members)}")
        blocks.append(members)
    return BlockDesign(n=n, r=r, t=t, blocks=tuple(blocks))


def load_design(path) -> BlockDesign:
    return parse_design(Path(path).read_text())


def bundled_design_names() -> list[str]:
    root = resources.files(__package__) / "data"
    return sorted(p.name[: -len(".design")] for p in root.iterdir() if p.name.endswith(".design"))


def bundled_design(name: str) -> BlockDesign:
    res = resources.files(__package__) / "data" / f"{name}.design"
    try:
        text = res.read_text()
    except FileNotFoundError:
        raise ValidationError(
            f"no bundled design {name!r}; available: {', '.join(bundled_design_names())}"
        ) from None
    return parse_design(text)
