"""The benchmark's workloads: seeded inputs, one op cycle, and output checks.

A single closed-loop client runs every op to completion before the next.
Each op is one in-process call of regencodes.cli.main(argv), so it pays for
argument parsing, node-file text I/O, the code.json rebuild and the math.
Outputs are checked outside the timed region; a nonzero exit or a failed
check marks the op failed.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from regencodes import (
    BoundParams,
    SystemParams,
    TradeoffPoint,
    achievable_points_c1,
    achievable_points_general,
    beta_oracle,
    build_code,
    build_precoded,
    complete_design,
    functional_bound_check,
    hull_oracle,
    mbcr_point,
    rank_oracle,
    rho,
)
from regencodes.cli import main as cli_main

from calibrate import NOMINAL_S, loop_seconds

# The tradeoff-analysis ladder; every cycle runs all of it in a seeded order.
LADDER = (
    ("region", "--k", "14", "--e", "3"),
    ("region", "--k", "30", "--e", "3"),
    ("region", "--k", "60", "--e", "5"),
    ("region", "--k", "100", "--e", "5"),
    ("points", "--n", "19", "--k", "13", "--d", "14", "--e", "3"),
    ("points", "--n", "30", "--k", "20", "--d", "22", "--e", "4"),
    ("compare", "--n", "10", "--k", "7", "--d", "7"),
    ("compare", "--n", "16", "--k", "11", "--d", "12"),
    ("compare", "--n", "20", "--k", "14", "--d", "15"),
)
# compare rows are recounted with beta_oracle on the complete design up to
# this n; n=16 takes about a second, n=20 would take tens
ORACLE_MAX_N = 16

KINDS = ("encode", "repair", "reconstruct", "analysis")


@dataclass(frozen=True)
class CodecWorkload:
    name: str
    params: dict  # n, k, d, e, m, r
    precoded: bool
    repairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (failed, helpers) ring
    subsets: Optional[tuple[tuple[int, ...], ...]]  # reconstruct ring; None: seeded draws
    symbol_bytes: int
    data_symbols: int  # F

    @property
    def data_bytes(self) -> int:
        return self.symbol_bytes * self.data_symbols

    @property
    def encode_argv(self) -> tuple[str, ...]:
        # layered encode ignores --k (it is n - m there)
        argv = ["encode", "--construction", "precoded" if self.precoded else "layered"]
        for key in "nkdemr":
            argv += [f"--{key}", str(self.params[key])]
        return tuple(argv)

    def build(self) -> object:
        """The first code build, as setup_probe.py times it."""
        p = self.params
        if self.precoded:
            return build_precoded(**p)
        return build_code(SystemParams(**p, t=p["r"]))


# Repair time depends on which nodes fail (0.4-0.8 s across layered patterns,
# 4-50 ms across precoded nodes), and precoded reconstruct time on the node
# subset, so a free draw per cycle made run medians differ by up to 20%
# between seeds. Each run instead walks fixed rings of patterns in a seeded
# order, in whole rounds (Client.round_length), and so measures the same mix
# every time; run.py averages the patterns' medians, so that every pattern
# contributes.


def _layered_repairs():
    # seven rotations of failed {0, 1, 5} (mod 14) with node 8 left idle
    out = []
    for i in range(0, 14, 2):
        failed = tuple(sorted(1 + (i + j) % 14 for j in (0, 1, 5)))
        idle = 1 + (i + 8) % 14
        out.append((failed, tuple(x for x in range(1, 15) if x not in failed and x != idle)))
    return tuple(out)


WORKLOADS = {
    wl.name: wl
    for wl in (
        CodecWorkload(
            name="layered-n14",
            params=dict(n=14, k=10, d=10, e=3, m=4, r=9),
            precoded=False,
            repairs=_layered_repairs(),
            subsets=None,
            symbol_bytes=1,
            data_symbols=10010,
        ),
        CodecWorkload(
            name="precoded-f36",
            params=dict(n=6, k=4, d=5, e=1, m=1, r=3),
            precoded=True,
            # every node fails in turn, the other five help
            repairs=tuple(((x,), tuple(y for y in range(1, 7) if y != x)) for x in range(1, 7)),
            # the complements of the cyclic pairs {i, i+1 mod 6}; six, like
            # the repair ring, so a round is six cycles
            subsets=tuple(tuple(x for x in range(1, 7) if x not in (i, i % 6 + 1))
                          for i in range(1, 7)),
            symbol_bytes=10,
            data_symbols=36,
        ),
    )
}


@dataclass
class OpRecord:
    kind: str  # one of KINDS
    argv: tuple[str, ...]
    cycle: int
    seconds: float
    ok: bool
    # the ring entry or ladder command the op ran ("" where every op runs
    # alike): ops of one pattern take about the same time, other patterns
    # may take ten times as long
    pattern: str
    loop_s: float = 0.0  # calibration loop time around the op (calibrate.py)

    @property
    def normalized_seconds(self) -> float:
        """The op's time on a machine where the calibration loop takes NOMINAL_S."""
        return self.seconds * NOMINAL_S / self.loop_s


def _csv_list(nodes) -> str:
    return ",".join(str(x) for x in sorted(nodes))


def _json(text: str) -> dict:
    try:
        value = json.loads(text)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


def _read(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError:
        return None


class Client:
    """Runs op cycles in the current directory and checks every output.

    With a tracer, each op gets a root span `cli.<command>` and the op id.
    """

    def __init__(self, workload: CodecWorkload, seed: int) -> None:
        self.wl = workload
        self.rng = random.Random(seed)
        self.tracer = None  # a tracing.Tracer while spans are recorded
        self.ops: list[OpRecord] = []
        self.notes: list[str] = []
        self.stored_ratios: list[float] = []
        self.repair_totals: list[dict] = []  # the repair report's totals, per cycle
        self._canonical: dict[tuple[str, ...], Optional[bytes]] = {}  # analysis argv -> CSV
        self.cycles = 0
        self._repairs = self.rng.sample(workload.repairs, len(workload.repairs))
        self._subsets_ring = (None if workload.subsets is None
                              else self.rng.sample(workload.subsets, len(workload.subsets)))
        self._loop_s = loop_seconds()
        self._uncalibrated = 0  # trailing ops still waiting for their loop time

    @property
    def round_length(self) -> int:
        """Cycles after which every ring is back where it started."""
        rings = [self._repairs] + ([self._subsets_ring] if self._subsets_ring else [])
        return math.lcm(*(len(r) for r in rings))

    # -- ops -------------------------------------------------------------------

    def _op(self, kind: str, argv: list[str], pattern: str = "") -> tuple[Optional[int], str]:
        gc.collect()
        buf = io.StringIO()
        tr = self.tracer
        if tr is not None:
            tr.op = len(self.ops)
            root = tr.begin("cli." + argv[0])
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli_main(argv)
        except SystemExit as ex:
            rc = ex.code if isinstance(ex.code, int) else 2
        except Exception:  # the op failed; keep the client running
            traceback.print_exc(file=sys.stderr)
            rc = None
        seconds = time.perf_counter() - start
        if tr is not None:
            tr.end(root)
        self.ops.append(OpRecord(kind, tuple(argv), self.cycles, seconds, rc == 0, pattern))
        self._uncalibrated += 1
        return rc, buf.getvalue()

    def _calibrate(self) -> None:
        """Give the ops since the last call the mean loop time before and after them."""
        after = loop_seconds()
        for rec in self.ops[len(self.ops) - self._uncalibrated:]:
            rec.loop_s = (self._loop_s + after) / 2
        self._loop_s, self._uncalibrated = after, 0

    def _check(self, ok: bool, what: str) -> None:
        if not ok and self.ops[-1].ok:
            self.ops[-1].ok = False
            self.notes.append(f"cycle {self.cycles}: {what}")

    def cycle(self) -> None:
        """encode -> repair -> reconstruct -> the analysis ladder, all seeded."""
        wl, rng = self.wl, self.rng
        n = wl.params["n"]
        data = rng.randbytes(wl.data_bytes)
        failed, helpers = self._repairs[self.cycles % len(self._repairs)]
        if self._subsets_ring is None:
            subset = rng.sample(range(1, n + 1), wl.params["k"])
        else:
            subset = self._subsets_ring[self.cycles % len(self._subsets_ring)]
        ladder = list(LADDER)
        rng.shuffle(ladder)

        data_path, nodes = Path("data.bin"), Path("nodes")
        data_path.write_bytes(data)
        shutil.rmtree(nodes, ignore_errors=True)

        rc, out = self._op("encode", [*wl.encode_argv, "--data", str(data_path),
                                      "--out-dir", str(nodes)])
        self._check(rc == 0, f"encode exited {rc}")
        self._calibrate()
        summary = _json(out)
        self._check(summary.get("nodes") == n and summary.get("data_symbols") == wl.data_symbols,
                    "encode summary disagrees with the code")
        if rc == 0:
            stored = sum(p.stat().st_size for p in nodes.iterdir())
            self.stored_ratios.append(stored / len(data))

        node_file = lambda x: nodes / f"node_{x:03d}.txt"  # noqa: E731
        before = {x: _read(node_file(x)) for x in failed}
        for x in failed:
            node_file(x).unlink(missing_ok=True)
        rc, out = self._op("repair", ["repair", "--node-dir", str(nodes),
                                      "--failed", _csv_list(failed),
                                      "--helpers", _csv_list(helpers)],
                           pattern=_csv_list(failed))
        self._calibrate()
        self._check(rc == 0, f"repair exited {rc}")
        self._check(all(b is not None and _read(node_file(x)) == b for x, b in before.items()),
                    f"repair of {sorted(failed)} is not byte-identical")
        if rc == 0:
            self.repair_totals.append(_json(out).get("totals"))

        Path("rec.bin").unlink(missing_ok=True)
        rc, _ = self._op("reconstruct", ["reconstruct", "--node-dir", str(nodes),
                                         "--nodes", _csv_list(subset), "--out", "rec.bin"],
                         pattern="" if self._subsets_ring is None else _csv_list(subset))
        self._calibrate()
        self._check(rc == 0, f"reconstruct exited {rc}")
        self._check(_read(Path("rec.bin")) == data,
                    f"reconstruct from {sorted(subset)} differs from the data")

        for cmd in ladder:
            Path("a.csv").unlink(missing_ok=True)
            rc, _ = self._op("analysis", [*cmd, "--out", "a.csv"], pattern=" ".join(cmd))
            self._check(rc == 0, f"{cmd[0]} exited {rc}")
            text = _read(Path("a.csv"))
            self._check(self._canonical.setdefault(cmd, text) == text,
                        f"{' '.join(cmd)} output changed between runs")
        self._calibrate()
        self.cycles += 1

    # -- checks against the oracles ---------------------------------------------

    def finish_checks(self) -> None:
        """Check each distinct analysis output and precoded node subset once.

        Every op's output was already compared to its command's first output,
        so a failure here fails every op of that command.
        """
        bad: set = set()  # analysis commands, and node lists as passed to --nodes
        for cmd, text in self._canonical.items():
            err = "no output" if text is None else _analysis_error(cmd, text.decode())
            if err:
                bad.add(cmd)
                self.notes.append(f"{' '.join(cmd)}: {err}")
        if self.wl.precoded:  # whole rounds use every subset in the ring
            p = self.wl.params
            for nodes in self.wl.subsets:
                if rank_oracle(p["n"], p["k"], p["m"], p["r"], nodes) < self.wl.data_symbols:
                    self.notes.append(f"nodes {nodes} hold too low a rank to reconstruct")
                    bad.add(_csv_list(nodes))
        for rec in self.ops:
            if (rec.kind == "analysis" and rec.argv[:-2] in bad
                    or rec.kind == "reconstruct" and rec.argv[4] in bad):
                rec.ok = False


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _coords(row: dict) -> tuple[Fraction, Fraction]:
    return (Fraction(int(row["alpha_bar_num"]), int(row["alpha_bar_den"])),
            Fraction(int(row["beta_bar_num"]), int(row["beta_bar_den"])))


def _analysis_error(cmd: tuple[str, ...], text: str) -> Optional[str]:
    args = {cmd[i][2:]: int(cmd[i + 1]) for i in range(1, len(cmd), 2)}
    rows = _rows(text)
    if cmd[0] == "region":
        k, e = args["k"], args["e"]
        points = achievable_points_c1(k, e) + [mbcr_point(k, k, e)]
        if {_coords(r) for r in rows} != {pt.coords() for pt in points}:
            return "rows are not the achievable points"
        corners = {_coords(r) for r in rows if r["is_corner"] == "1"}
        if corners != {pt.coords() for pt in hull_oracle(points)}:
            return "corners disagree with hull_oracle"
        return None
    if cmd[0] == "points":
        n, k, d, e = args["n"], args["k"], args["d"], args["e"]
        if len(rows) != len(achievable_points_general(n, k, d, e)) + 2:
            return "wrong number of points"
        bound = BoundParams(k=k, d=d, e=e)
        for r in rows:
            a, b = _coords(r)
            if not functional_bound_check(TradeoffPoint(a, b, r["label"]), bound)[0]:
                return f"{r['label']} beats the functional-repair bound"
        return None
    n, k, d = args["n"], args["k"], args["d"]
    m = n - k
    by_label = {r["label"]: _coords(r)[1] for r in rows}
    expected = {f"{kind}(r={r})" for r in range(m + 1, n + 1) for kind in ("msmr", "layered-naive")}
    if set(by_label) != expected or len(rows) != len(expected):
        return "wrong rows"
    if n > ORACLE_MAX_N:
        return None
    for r in range(m + 1, n + 1):
        rep = beta_oracle(complete_design(n, r), m, failed=[1], helpers=range(2, d + 2))
        per_helper = set(rep.msmr.values())
        denom = rho(n, k, m, r)
        if len(per_helper) != 1 or by_label[f"msmr(r={r})"] != per_helper.pop() / denom:
            return f"msmr(r={r}) disagrees with beta_oracle"
        if by_label[f"layered-naive(r={r})"] != rep.layered_naive_total / d / denom:
            return f"layered-naive(r={r}) disagrees with beta_oracle"
    return None
