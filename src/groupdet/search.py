"""Bounded searches over integer group-ring coefficients.

Enumerate (exhaustively or by seeded sampling) the determinant values a
group attains at a given coefficient height, track the minimum
nontrivial absolute value and a witness, and estimate the growth
constant log(min)/|G|.  One byte budget, _BLOCK_BYTES, sizes every
working array, so memory grows neither with the trials nor with the
height: rows reach the route evaluator as (B, |G|) blocks of at most
block_rows(|G|) rows, int64 unless the height is past it, and every
evaluator takes a whole block at once.  One collector takes each block's
values: the first max_values distinct values met, a count of each later
meeting with a value it left out, and the witness.  Random trials are
drawn a block at a time, bit for bit the per-trial Random(f"{seed}:{t}")
stream (see "random trials" below).  The witness depends on the order of
work.  Exhaustive work is split into shards by the first coefficient, in
increasing order, which feed the one collector in turn, so its values
and count are those of the lexicographic walk; each shard keeps the
first vector of smallest |m| >= 2, and the search the least (|m|, m,
vector) of those, so a tie in |m| goes to the negative value.  A random
search keeps the first such trial.  Order-8 dihedral searches pair value
classes, with the witness the shards would keep, and count those pairs
against the budget.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, GroupDetError, InvalidParameter
from .exactdet import _INT64_MAX, _exact_rows
from .groups import kind_of
from .verify import achieve_construction, is_power_residue

DEFAULT_BUDGET = 100_000_000
MAX_DISTINCT_VALUES = 1_000_000
# bytes of a block of int64 rows, of its random draws, of a class-pair tile
_BLOCK_BYTES = 1 << 18


def block_rows(order: int) -> int:
    """Rows of |G| = order int64 coefficients in one block."""
    return max(1, _BLOCK_BYTES // (8 * order))


def evaluation_budget() -> int:
    """Evaluation cap for exhaustive searches (env GDET_BUDGET overrides)."""
    raw = os.environ.get("GDET_BUDGET", "")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise InvalidParameter(f"GDET_BUDGET={raw!r} is not an integer") from None
    return DEFAULT_BUDGET


@dataclass
class SearchConfig:
    """What to enumerate.

    kind/params name the group as in build_group; height bounds |coeff|;
    mode is "exhaustive" or "random" (trials + seed); value_filter keeps
    "all" values, only those "coprime" to the group's base prime, or only
    "multiples" of it.
    """

    kind: str
    params: tuple
    height: int
    mode: str = "exhaustive"
    trials: int = 10000
    seed: int = 0
    value_filter: str = "all"
    max_values: int = MAX_DISTINCT_VALUES


@dataclass
class SearchResult:
    config: SearchConfig
    route: str
    evaluations: int
    min_nontrivial: Optional[int]
    witness: Optional[list]
    attained_values: list = field(repr=False)
    values_truncated: int = 0

    def lambda_estimate(self) -> Optional[float]:
        if self.min_nontrivial is None:
            return None
        cfg = self.config
        return math.log(abs(self.min_nontrivial)) / kind_of(cfg.kind).order(cfg.params)

    def to_report(self, value_cap: int = 200) -> dict:
        vals = self.attained_values
        lam = self.lambda_estimate()
        return {
            "group": {"kind": self.config.kind, "params": list(self.config.params)},
            "route": self.route,
            "height": self.config.height,
            "mode": self.config.mode,
            "trials": self.config.trials if self.config.mode == "random" else None,
            "seed": self.config.seed if self.config.mode == "random" else None,
            "value_filter": self.config.value_filter,
            "evaluations": self.evaluations,
            "min_nontrivial": None if self.min_nontrivial is None else str(self.min_nontrivial),
            "witness": None if self.witness is None else [
                {"exps": list(e), "coef": str(c)} for e, c in self.witness],
            "num_distinct_values": len(vals),
            "values_truncated": self.values_truncated,
            "attained_values": [str(v) for v in vals[:value_cap]],
            "lambda_estimate": None if lam is None else f"{lam:.12f}",
        }


class _Collector:
    """Accumulator for a search, fed a block of rows and their values at
    a time."""

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        self.p = kind_of(cfg.kind).base_prime(cfg.params)
        self.values = {}  # the kept values as keys, in the order met
        self.truncated = 0
        self.evaluations = 0
        self.best = None  # (abs value, value, coeff tuple)

    def _kept(self, values):
        """Mask of the values the filter keeps."""
        vf = self.cfg.value_filter
        if vf == "all":
            return np.broadcast_to(True, np.shape(values))
        if vf == "coprime":
            return values % self.p != 0
        if vf == "multiples":
            return values % self.p == 0
        raise InvalidParameter(f"unknown value filter {vf!r}")

    def add_block(self, rows, values) -> None:
        """Take the values of a block of rows as if one row at a time: the
        kept values join the set in the order met until it holds
        max_values, each later kept value outside it counts as truncated,
        and the first row of least |m| >= 2 replaces the witness if
        strictly smaller."""
        self.evaluations += len(values)
        values = _exact_rows([values], len(values))[0]  # int64 iff every |value| fits
        at = np.flatnonzero(self._kept(values))
        values = values[at]
        distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
        new = np.flatnonzero([v not in self.values for v in distinct.tolist()])
        new = new[np.argsort(first[new])]
        room = max(0, self.cfg.max_values - len(self.values))
        self.values.update(dict.fromkeys(distinct[new[:room]].tolist()))
        left_out = np.zeros(len(distinct), dtype=bool)
        left_out[new[room:]] = True
        self.truncated += int(np.count_nonzero(left_out[inverse]))
        size = np.abs(values)
        big = np.flatnonzero(size >= 2)
        if len(big):
            i = big[np.argmin(size[big])]
            if self.best is None or size[i] < self.best[0]:
                self.best = (int(size[i]), int(values[i]), tuple(rows[at[i]].tolist()))


def _collect(cfg: SearchConfig, blocks, col: _Collector) -> _Collector:
    """Evaluate each block of rows and add its values to the collector."""
    _, ev = kind_of(cfg.kind).route(cfg.params)
    for block in blocks:
        col.add_block(block, ev(block))
    return col


def _shard_blocks(h: int, order: int, first_coeff: int):
    """The rows of the shard with leading coefficient first_coeff, in
    lexicographic order, a block at a time: row r holds the base 2h + 1
    digits of r, less h, after the leading coefficient."""
    side = 2 * h + 1
    size = side ** (order - 1)
    step = block_rows(order)
    for lo in range(0, size, step):
        index = np.arange(lo, min(lo + step, size), dtype=np.int64)
        block = np.empty((len(index), order), dtype=np.int64)
        block[:, 0] = first_coeff
        for j in range(order - 1, 0, -1):
            index, block[:, j] = np.divmod(index, side)
        block[:, 1:] -= h
        yield block


def run_shard(cfg: SearchConfig, first_coeff: int, col: _Collector) -> _Collector:
    """Exhaustively evaluate the shard with the leading coefficient fixed,
    into ``col`` as if its rows followed the ones ``col`` has taken.  The
    shard's witness is its own first row of smallest |m| >= 2, and ``col``
    keeps the least (|m|, m, vector) of that and its earlier witness."""
    best, col.best = col.best, None
    order = kind_of(cfg.kind).order(cfg.params)
    _collect(cfg, _shard_blocks(cfg.height, order, first_coeff), col)
    if best is not None and (col.best is None or best < col.best):
        col.best = best
    return col


# -- random trials -----------------------------------------------------------
#
# Trial t is the row tuple(r.randint(-h, h) for _ in range(|G|)) of
# r = Random(f"{seed}:{t}").  CPython draws randint(-h, h) as -h + d with d
# the top k = (2h + 1).bit_length() bits of the next 32-bit Mersenne
# Twister output, drawn again while d >= 2h + 1 (``_randbelow`` by
# ``getrandbits(k)``, k <= 32, the same on Python 3.10 to 3.13).  One
# ``getrandbits(32 w)`` returns the next w outputs, the first in the lowest
# bits, so a block of trials is one reseed and one such call each, and the
# shift, the rejection and the choice of each row's first |G| accepted
# draws run over the whole block in numpy.  A row with fewer accepted
# draws than |G|, and every row of a height with k > 32, takes its own
# randint calls: the same stream, drawn one value at a time.

_DRAW_SIGMAS = 4


def _randint_row(r: random.Random, key: str, order: int, h: int) -> list:
    r.seed(key)
    return [r.randint(-h, h) for _ in range(order)]


def _draw_width(order: int, h: int) -> int:
    """Outputs a trial draws at once: enough for |G| acceptances at
    _DRAW_SIGMAS standard deviations above the mean."""
    n = 2 * h + 1
    accept = n / (1 << n.bit_length())
    return math.ceil((order + _DRAW_SIGMAS * math.sqrt(order * (1 - accept))) / accept)


def _draw(r: random.Random, seed: int, ts: range, order: int, h: int, width: int):
    """The rows of trials ts as a (len(ts), order) array, from ``width``
    outputs a trial; int64 unless h is past 2^62."""
    n = 2 * h + 1
    k = n.bit_length()
    if k > 32:
        rows = [_randint_row(r, f"{seed}:{t}", order, h) for t in ts]
        return np.array(rows, dtype=np.int64 if n < _INT64_MAX else object)
    span = 4 * width  # bytes a trial
    raw = bytearray(span * len(ts))
    for i, t in enumerate(ts):
        r.seed(f"{seed}:{t}")
        raw[span * i:span * (i + 1)] = r.getrandbits(32 * width).to_bytes(span, "little")
    # the top k bits of each output sit in its top `size` bytes
    size = 1 if k <= 8 else 2 if k <= 16 else 4
    step = 4 // size
    top = np.frombuffer(raw, dtype=f"<u{size}").reshape(len(ts), -1)[:, step - 1::step]
    draws = top >> (8 * size - k)
    accepted = draws < n
    rank = np.cumsum(accepted, axis=1, dtype=np.min_scalar_type(width))
    full = rank[:, -1] >= order
    accepted &= rank <= order
    accepted[~full] = False
    block = np.empty((len(ts), order), dtype=np.int64)
    block[full] = draws[accepted].reshape(-1, order)
    block -= h
    for i in np.flatnonzero(~full).tolist():
        block[i] = _randint_row(r, f"{seed}:{ts[i]}", order, h)
    return block


def _random_blocks(seed: int, trials: int, order: int, h: int):
    """The rows of trials 0 to trials - 1 in blocks of at most
    block_rows(order), each drawing at most _BLOCK_BYTES of outputs."""
    width = _draw_width(order, h)
    step = max(1, min(block_rows(order), _BLOCK_BYTES // (4 * width)))
    r = random.Random()
    for lo in range(0, trials, step):
        yield _draw(r, seed, range(lo, min(lo + step, trials)), order, h, width)


def enumerate_values(cfg: SearchConfig) -> SearchResult:
    """Run the configured search: the shards in turn, or the random trials."""
    kind = kind_of(cfg.kind)
    order = kind.order(cfg.params)
    h = cfg.height
    if h < 0:
        raise InvalidParameter(f"height must be >= 0, got {h}")
    total = _Collector(cfg)
    if cfg.mode == "exhaustive":
        budget = evaluation_budget()
        if cfg.kind == "dihedral" and cfg.params[0] == 8:
            return _enumerate_dihedral8(cfg, budget)
        count = (2 * h + 1) ** order
        if count > budget:
            raise BudgetExceeded(
                f"(2*{h}+1)^{order} = {count} matrix evaluations exceed the "
                f"budget {budget}; raise GDET_BUDGET or shrink the search")
        for c0 in range(-h, h + 1):
            run_shard(cfg, c0, total)
    elif cfg.mode == "random":
        _collect(cfg, _random_blocks(cfg.seed, cfg.trials, order, h), total)
    else:
        raise InvalidParameter(f"unknown search mode {cfg.mode!r}")
    return _result_from_collector(cfg, total, kind.route(cfg.params)[0])


def _result_from_collector(cfg: SearchConfig, col: _Collector, route: str) -> SearchResult:
    best = col.best or (None, None, None)
    witness = None if col.best is None else kind_of(cfg.kind).terms(cfg.params, best[2])
    return SearchResult(config=cfg, route=route, evaluations=col.evaluations,
                        min_nontrivial=best[1], witness=witness,
                        attained_values=sorted(col.values), values_truncated=col.truncated)


# -- exhaustive order-8 dihedral search over pairs of value classes ---------
#
# At order 8 the value of f + y g is (s1 - t1)(s2 - t2)(q - r)^2 with
# s1 = f(1)^2, s2 = f(-1)^2, q = |f(i)|^2 and (t1, t2, r) the same for g,
# so it depends on each half only through its class.  The f classes are
# also split by the leading coefficient, the shard of the generic search,
# so that a pair's first members are its first vector in that shard:
# 957 x 203 class pairs at height 3 rather than 2401^2 vector pairs.  The
# budget counts these pairs.  The pair matrix is evaluated a tile of
# _BLOCK_BYTES at a time, and each tile's distinct values wait in a list
# that is folded into the running set once it holds as many values as the
# set (or a tile), so memory is a tile and a few times the distinct values.


def _distinct(x):
    # np.unique(x) by a sort: on numpy 2 a plain np.unique imports numpy.ma
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x


def _enumerate_dihedral8(cfg: SearchConfig, budget: int) -> SearchResult:
    # int64 is ample here: |value| <= 16384 * H^8, so heights up to ~35
    # stay exact; the budget bites long before that.
    h = cfg.height
    if h > 35:
        raise BudgetExceeded("order-8 class-pair kernel is int64-exact only up to height 35")
    side = 2 * h + 1
    span = np.arange(-h, h + 1, dtype=np.int64)
    c1, c2, c3 = np.stack(np.meshgrid(span, span, span, indexing="ij")).reshape(3, -1)
    # classes of the halves with leading coefficient c0, one shard at a
    # time, with the budget checked as they grow, since the pair count only
    # grows; first indices count vectors in lexicographic order over all four
    f_keys, f_first = [], []
    g_keys, g_first = np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64)
    for shard, c0 in enumerate(span.tolist()):
        keys = np.stack([(c0 + c1 + c2 + c3) ** 2, (c0 - c1 + c2 - c3) ** 2,
                         (c0 - c2) ** 2 + (c1 - c3) ** 2], axis=1)
        k, first = np.unique(keys, axis=0, return_index=True)
        f_keys.append(k)
        f_first.append(first + shard * side ** 3)
        g_keys, at = np.unique(np.concatenate([g_keys, k]), axis=0, return_index=True)
        g_first = np.concatenate([g_first, f_first[-1]])[at]
        pairs = sum(map(len, f_keys)) * len(g_keys)
        if pairs > budget:
            raise BudgetExceeded(
                f"order-8 dihedral search at height {h} needs at least {pairs} class "
                f"pairs, over the budget {budget}; raise GDET_BUDGET or shrink the search")
    f_shard = np.repeat(np.arange(side), list(map(len, f_keys)))
    f_keys, f_first = np.concatenate(f_keys), np.concatenate(f_first)
    col = _Collector(cfg)
    col.evaluations = side ** 8
    tile = _BLOCK_BYTES // 8
    width = min(len(g_keys), tile)
    rows = max(1, tile // width)
    seen, pending = np.empty(0, dtype=np.int64), []
    low, hits = None, []  # hits: (f first, g first, value, shard) at |value| = low
    for lo in range(0, len(f_keys), rows):
        f = f_keys[lo:lo + rows]
        for at in range(0, len(g_keys), width):
            g = g_keys[at:at + width]
            values, s2, q = (x[:, None] - y for x, y in zip(f.T, g.T))
            values *= s2
            values *= q
            values *= q  # values[a, b]: f in class lo + a, g in class at + b
            kept = col._kept(values)
            pending.append(_distinct(values[kept]))
            if sum(map(len, pending)) >= max(len(seen), tile):
                seen, pending = _distinct(np.concatenate([seen, *pending])), []
            absval = np.abs(values, out=s2)
            kept = kept & (absval >= 2)
            if not kept.any():
                continue
            m = absval[kept].min()
            if low is None or m < low:
                low, hits = m, []
            if m == low:
                a, b = np.nonzero(kept & (absval == low))
                hits += zip(f_first[lo + a].tolist(), g_first[at + b].tolist(),
                            values[a, b].tolist(), f_shard[lo + a].tolist())
    seen = _distinct(np.concatenate([seen, *pending]))
    col.values = dict.fromkeys(seen[:cfg.max_values].tolist())
    col.truncated = max(0, len(seen) - cfg.max_values)
    if hits:
        firsts = {}  # shard -> (m, f first, g first) of its first vector of smallest |m|
        for i, j, m, shard in sorted(hits):
            firsts.setdefault(shard, (m, i, j))
        m, i, j = min(firsts.values())  # as the exhaustive walk of the shards keeps
        vector = np.concatenate([np.unravel_index(i, (side,) * 4), np.unravel_index(j, (side,) * 4)])
        col.best = (abs(m), m, tuple((vector - h).tolist()))
    return _result_from_collector(cfg, col, "class-pairs")


# -- growth constants --------------------------------------------------------


def min_coprime_residue(p: int) -> int:
    """Smallest x >= 2 with x^(p-1) == 1 mod p^3: the smallest value
    coprime to p that the order-p^3 Heisenberg group can attain, by the
    classification of coprime values."""
    mod = p ** 3
    for x in range(2, mod + 1):
        if pow(x, p - 1, mod) == 1:
            return x
    raise InvalidParameter("no unit below p^3 found (impossible for p >= 2)")


def lambda_heisenberg(p: int) -> dict:
    """Growth constant of the order-p^3 Heisenberg family at prime p:
    lambda = log(min attainable |value| >= 2) / p^3.

    The minimum over values coprime to p comes from the residue scan;
    the explicit construction then exhibits a polynomial attaining it
    (searched over small bases a), which certifies the scan result is
    actually attained.  Multiples of p are never competitive: the
    smallest admissible one is p^(p^2+3).
    """
    min_x = min_coprime_residue(p)
    pc = p ** 3
    witness = None
    for target in (min_x, -min_x):
        for a in range(1, pc + 1):
            if a % p == 0:
                continue
            r = target - a ** (p * p)
            if r % pc:
                continue
            poly, value = achieve_construction(a, r // pc, p)
            if abs(value) != min_x:
                continue
            witness = {"a": a, "m": r // pc, "value": value,
                       "terms": kind_of("heisenberg").terms((p,), poly)}
            break
        if witness:
            break
    if not is_power_residue(min_x, p, 3):
        raise GroupDetError(f"residue scan returned {min_x}, not a unit residue mod {p}^3")
    return {
        "p": p,
        "min_nontrivial": min_x,
        "lambda": math.log(min_x) / pc,
        "witness": witness,
        "attained": witness is not None and abs(witness["value"]) == min_x,
    }
