"""Write or check the table of field moduli in src/regencodes/extfield.py.

    python tests/moduli.py --check
    python tests/moduli.py --write

A field of degree D takes its modulus from extfield._MODULUS_LOWS, which holds
find_modulus(D) ^ (1 << D) for every D from 2 to MAX_EXTENSION_DEGREE. find_modulus, the
irreducibility search, is the table's oracle. --check runs the search at every degree and
prints each degree whose entry differs from it (or is missing), then the count and the time
taken; it exits 1 if any differs, else 0. --write runs the same search and rewrites the
literal in extfield.py from it, so the table is never edited by hand. Each run takes about
five minutes on a 2-core x86-64 VM (Python 3.11); tier-1 checks every entry's
irreducibility and a sample against the search (tests/test_extfield.py). pytest does not
collect this file, as it does not collect tests/flow.py.
"""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "regencodes" / "extfield.py"
sys.path.insert(0, str(SOURCE.parent.parent))

from regencodes import extfield  # noqa: E402  (after the path is set)

LITERAL = re.compile(r'^_MODULUS_LOWS = bytes\.fromhex\(\n(?:    ".*"\n)*\)$', re.M)
HEX_PER_LINE = 92  # 23 degrees a line, within the 100-column lines


def searched_lows() -> dict[int, int]:
    """find_modulus(D) ^ (1 << D) for every degree the table covers."""
    return {d: extfield.find_modulus(d) ^ (1 << d)
            for d in range(2, extfield.MAX_EXTENSION_DEGREE + 1)}


def literal(lows: dict[int, int]) -> str:
    """The _MODULUS_LOWS assignment holding lows, two big-endian bytes per degree."""
    text = b"".join(lows[d].to_bytes(2, "big") for d in sorted(lows)).hex()
    lines = [f'    "{text[i : i + HEX_PER_LINE]}"\n' for i in range(0, len(text), HEX_PER_LINE)]
    return "_MODULUS_LOWS = bytes.fromhex(\n" + "".join(lines) + ")"


def table_lows() -> dict[int, int]:
    """The table's entries by degree, as many as it holds."""
    table = extfield._MODULUS_LOWS
    return {2 + i // 2: int.from_bytes(table[i : i + 2], "big") for i in range(0, len(table), 2)}


def main(argv: list[str]) -> int:
    if argv not in (["--check"], ["--write"]):
        print(__doc__.strip().splitlines()[0] + "\nusage: python tests/moduli.py --check|--write")
        return 2
    start = time.perf_counter()
    lows = searched_lows()
    seconds = time.perf_counter() - start
    if argv == ["--write"]:
        source = SOURCE.read_text()
        new, count = LITERAL.subn(lambda _: literal(lows), source)
        if count != 1:
            print(f"{SOURCE.name} holds {count} _MODULUS_LOWS literals, not one")
            return 1
        SOURCE.write_text(new)
        print(f"wrote {len(lows)} degrees to {SOURCE.name} ({seconds:.0f} s of search)")
        return 0
    table = table_lows()
    differ = sorted(d for d in lows.keys() | table.keys() if lows.get(d) != table.get(d))
    for d in differ:
        print(f"degree {d}: table {table.get(d)!r}, search {lows.get(d)!r}")
    print(f"{len(lows)} degrees, {len(differ)} differ ({seconds:.0f} s of search)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
