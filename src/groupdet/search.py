"""Bounded searches over integer group-ring coefficients.

Enumerate (exhaustively or by seeded sampling) the determinant values a
group attains at a given coefficient height, track the minimum
nontrivial absolute value and a witness, and estimate the growth
constant log(min)/|G|.  The outcome is deterministic, and the witness
depends on the order of work.  Exhaustive work is split into shards by
the first coefficient, in increasing order; each shard walks the rest in
lexicographic order and keeps the first vector of smallest |m| >= 2, and
the merge keeps the least (|m|, m, vector), so a tie in |m| goes to the
negative value.  The order-8 dihedral kernel keeps the lexicographically
first vector of smallest |m|; a random search, the first such trial.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, GroupDetError, InvalidParameter
from .groups import kind_of
from .verify import achieve_construction, is_power_residue

DEFAULT_BUDGET = 100_000_000
MAX_DISTINCT_VALUES = 1_000_000


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
    budget: Optional[int] = None
    max_values: int = MAX_DISTINCT_VALUES


@dataclass
class SearchResult:
    config: SearchConfig
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
    """Merge-friendly accumulator for one shard of a search."""

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        self.p = kind_of(cfg.kind).base_prime(cfg.params)
        self.values = set()
        self.truncated = 0
        self.evaluations = 0
        self.best = None  # (abs value, value, coeff tuple)

    def _keep(self, m: int) -> bool:
        vf = self.cfg.value_filter
        if vf == "all":
            return True
        if vf == "coprime":
            return m % self.p != 0
        if vf == "multiples":
            return m % self.p == 0
        raise InvalidParameter(f"unknown value filter {vf!r}")

    def add(self, m: int, coeffs) -> None:
        self.evaluations += 1
        if not self._keep(m):
            return
        if m not in self.values:
            if len(self.values) < self.cfg.max_values:
                self.values.add(m)
            else:
                self.truncated += 1
        if abs(m) >= 2 and (self.best is None or abs(m) < self.best[0]):
            self.best = (abs(m), m, tuple(coeffs))

    def merge(self, other: "_Collector") -> None:
        self.evaluations += other.evaluations
        self.truncated += other.truncated
        for v in other.values:
            if v not in self.values:
                if len(self.values) < self.cfg.max_values:
                    self.values.add(v)
                else:
                    self.truncated += 1
        if other.best is not None and (self.best is None or other.best < self.best):
            self.best = other.best


def run_shard(cfg: SearchConfig, first_coeff: int) -> _Collector:
    """Exhaustively evaluate the shard with the leading coefficient fixed."""
    kind = kind_of(cfg.kind)
    order = kind.order(cfg.params)
    _, ev = kind.route(cfg.params)
    col = _Collector(cfg)
    h = cfg.height
    span = range(-h, h + 1)
    for rest in iter_product(span, repeat=order - 1):
        coeffs = (first_coeff,) + rest
        col.add(ev(coeffs), coeffs)
    return col


def enumerate_values(cfg: SearchConfig) -> SearchResult:
    """Run the configured search and merge shard results."""
    kind = kind_of(cfg.kind)
    order = kind.order(cfg.params)
    h = cfg.height
    if h < 0:
        raise InvalidParameter(f"height must be >= 0, got {h}")
    total = _Collector(cfg)
    if cfg.mode == "exhaustive":
        budget = cfg.budget if cfg.budget is not None else evaluation_budget()
        count = (2 * h + 1) ** order
        if count > budget:
            raise BudgetExceeded(
                f"(2*{h}+1)^{order} = {count} matrix evaluations exceed the "
                f"budget {budget}; raise GDET_BUDGET or shrink the search")
        if cfg.kind == "dihedral" and cfg.params[0] == 8 and cfg.value_filter == "all":
            return _enumerate_dihedral8(cfg)
        for c0 in range(-h, h + 1):
            total.merge(run_shard(cfg, c0))
    elif cfg.mode == "random":
        _, ev = kind.route(cfg.params)
        for t in range(cfg.trials):
            rng = random.Random(f"{cfg.seed}:{t}")
            coeffs = tuple(rng.randint(-h, h) for _ in range(order))
            total.add(ev(coeffs), coeffs)
    else:
        raise InvalidParameter(f"unknown search mode {cfg.mode!r}")
    return _result_from_collector(cfg, total)


def _result_from_collector(cfg: SearchConfig, col: _Collector) -> SearchResult:
    witness = None
    minval = None
    if col.best is not None:
        minval = col.best[1]
        witness = kind_of(cfg.kind).terms(cfg.params, col.best[2])
    return SearchResult(config=cfg, evaluations=col.evaluations,
                        min_nontrivial=minval, witness=witness,
                        attained_values=sorted(col.values),
                        values_truncated=col.truncated)


# -- vectorized exhaustive kernel for the order-8 dihedral group -----------
#
# At order 8 the determinant factors over the fourth roots of unity into
# integer quantities: with s1 = f(1), s2 = f(-1), |f(i)|^2 = re^2 + im^2,
# the value is (s1^2 - t1^2)(s2^2 - t2^2)(|f(i)|^2 - |g(i)|^2)^2 where the
# t's are the same functionals of g.  That turns the (2H+1)^8 enumeration
# into one outer-product pass.


def _d8_value_table(height: int):
    span = np.arange(-height, height + 1, dtype=np.int64)
    c0, c1, c2, c3 = np.meshgrid(span, span, span, span, indexing="ij")
    c0, c1, c2, c3 = (a.ravel() for a in (c0, c1, c2, c3))
    s1 = (c0 + c1 + c2 + c3) ** 2
    s2 = (c0 - c1 + c2 - c3) ** 2
    q = (c0 - c2) ** 2 + (c1 - c3) ** 2
    vecs = np.stack([c0, c1, c2, c3], axis=1)
    a = s1[:, None] - s1[None, :]
    b = s2[:, None] - s2[None, :]
    c = q[:, None] - q[None, :]
    return a * b * c * c, vecs


def _enumerate_dihedral8(cfg: SearchConfig) -> SearchResult:
    # int64 is ample here: |value| <= 16384 * H^8, so heights up to ~35
    # stay exact; the evaluation budget bites long before that.
    if cfg.height > 35:
        raise BudgetExceeded("vectorized order-8 kernel is int64-exact only up to height 35")
    table, vecs = _d8_value_table(cfg.height)
    col = _Collector(cfg)
    col.evaluations = table.size
    uniq = np.unique(table)
    col.values = set(int(v) for v in uniq[:cfg.max_values])
    col.truncated = max(0, len(uniq) - cfg.max_values)
    absval = np.abs(table)
    masked = np.where(absval >= 2, absval, np.iinfo(np.int64).max)
    flat = int(masked.argmin())
    if masked.flat[flat] != np.iinfo(np.int64).max:
        i, j = divmod(flat, table.shape[1])
        coeffs = tuple(int(v) for v in vecs[i]) + tuple(int(v) for v in vecs[j])
        col.best = (int(absval.flat[flat]), int(table.flat[flat]), coeffs)
    return _result_from_collector(cfg, col)


# -- growth constants --------------------------------------------------------


def min_coprime_residue(p: int, n: int = 3) -> int:
    """Smallest x >= 2 with x^(p-1) == 1 mod p^n: the smallest value
    coprime to p that the order-p^3 Heisenberg group can attain (n = 3),
    by the classification of coprime values."""
    mod = p ** n
    for x in range(2, mod + 1):
        if pow(x, p - 1, mod) == 1:
            return x
    raise InvalidParameter(f"no unit below p^{n} found (impossible for p >= 2)")


def lambda_heisenberg(p: int) -> dict:
    """Growth constant of the order-p^3 Heisenberg family at prime p:
    lambda = log(min attainable |value| >= 2) / p^3.

    The minimum over values coprime to p comes from the residue scan;
    the explicit construction then exhibits a polynomial attaining it
    (searched over small bases a), which certifies the scan result is
    actually attained.  Multiples of p are never competitive: the
    smallest admissible one is p^(p^2+3).
    """
    min_x = min_coprime_residue(p, 3)
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
