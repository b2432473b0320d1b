"""Bounded value enumeration: filters, determinism, budgets, growth constants."""

import functools
import math
import random
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupdet import (
    BudgetExceeded,
    InvalidParameter,
    SearchConfig,
    abelian_measure,
    dihedral_measure,
    enumerate_values,
    evaluation_budget,
    heisenberg_measure,
    lambda_heisenberg,
    measure_h3,
    min_coprime_residue,
)
from groupdet import search
from groupdet.groups import KINDS, build_group
from groupdet.search import (
    MAX_DISTINCT_VALUES,
    SearchResult,
    _Collector,
    _draw,
    _draw_width,
    _random_blocks,
    block_rows,
    run_shard,
)


def _cfg(**kw):
    base = dict(kind="cyclic", params=(3,), height=2)
    base.update(kw)
    return SearchConfig(**base)


# -- exhaustive enumeration ---------------------------------------------------


def test_cyclic3_height2_exhaustive():
    res = enumerate_values(_cfg())
    assert res.evaluations == 5 ** 3
    assert res.min_nontrivial is not None
    assert abs(res.min_nontrivial) == 2
    vals = set(res.attained_values)
    # multiples of 3 among circulant values are automatically multiples of 9
    assert all(v % 9 == 0 for v in vals if v % 3 == 0)


def test_value_filters():
    coprime = enumerate_values(_cfg(value_filter="coprime"))
    assert coprime.attained_values
    assert all(v % 3 != 0 for v in coprime.attained_values)
    mult = enumerate_values(_cfg(value_filter="multiples"))
    assert mult.attained_values
    assert all(v % 3 == 0 for v in mult.attained_values)
    assert mult.min_nontrivial is None or abs(mult.min_nontrivial) >= 9


def test_witness_reproduces_minimum():
    res = enumerate_values(_cfg(kind="dihedral", params=(6,), height=2))
    assert res.witness is not None
    coeffs = [0] * 6
    for exps, c in res.witness:
        i, j = exps
        coeffs[3 * j + i] = c
    assert dihedral_measure([coeffs], 3) == [res.min_nontrivial]


def test_exhaustive_budget(monkeypatch):
    monkeypatch.setenv("GDET_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        enumerate_values(_cfg())


def test_env_budget(monkeypatch):
    monkeypatch.setenv("GDET_BUDGET", "123")
    assert evaluation_budget() == 123
    monkeypatch.setenv("GDET_BUDGET", "lots")
    with pytest.raises(InvalidParameter):
        evaluation_budget()
    monkeypatch.delenv("GDET_BUDGET")
    assert evaluation_budget() == 100_000_000


def test_max_values_truncation():
    res = enumerate_values(_cfg(max_values=3))
    assert len(res.attained_values) == 3
    assert res.values_truncated > 0
    # the minimum is still exact even when the value set is truncated
    assert abs(res.min_nontrivial) == 2


def test_shard_merge_matches_full_run():
    cfg = _cfg(height=2)
    full = enumerate_values(cfg)
    acc = _Collector(cfg)
    for first in range(-2, 3):
        run_shard(cfg, first, acc)
    assert acc.best is not None
    assert abs(acc.best[0]) == abs(full.min_nontrivial)
    assert set(acc.values) == set(full.attained_values)


# -- random sampling -----------------------------------------------------------


def test_random_mode_reproducible():
    cfg = dict(kind="heisenberg", params=(3,), height=2, mode="random",
               trials=300, seed=99)
    a = enumerate_values(SearchConfig(**cfg))
    b = enumerate_values(SearchConfig(**cfg))
    assert a.min_nontrivial == b.min_nontrivial
    assert a.attained_values == b.attained_values
    assert a.evaluations == b.evaluations == 300


def test_random_mode_trial_coefficients_are_reproducible():
    # trial t draws from Random(f"{seed}:{t}"), so the first sampled
    # vector is recomputable and its value must appear in the result
    res = enumerate_values(SearchConfig(kind="heisenberg", params=(3,),
                                        height=1, mode="random",
                                        trials=50, seed=5))
    rng = random.Random("5:0")
    first = tuple(rng.randint(-1, 1) for _ in range(27))
    assert heisenberg_measure(3, first).m in set(res.attained_values)


def test_heisenberg5_random_smoke():
    res = enumerate_values(SearchConfig(kind="heisenberg", params=(5,),
                                        height=1, mode="random",
                                        trials=3, seed=1))
    assert res.evaluations == 3
    for v in res.attained_values:
        m = v % 5
        assert m == pow(m, 5 ** 3, 5)  # Fermat: m^(p^3) = m mod p


def test_report_shape():
    res = enumerate_values(_cfg())
    rep = res.to_report(value_cap=5)
    assert rep["group"] == {"kind": "cyclic", "params": [3]}
    assert rep["evaluations"] == 125
    assert isinstance(rep["min_nontrivial"], str)
    assert len(rep["attained_values"]) <= 5
    assert rep["trials"] is None and rep["seed"] is None
    lam = float(rep["lambda_estimate"])
    assert lam == pytest.approx(math.log(2) / 3, abs=1e-9)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidParameter):
        enumerate_values(_cfg(kind="qq", params=(3,)))


def test_invalid_filter_rejected():
    with pytest.raises(InvalidParameter):
        enumerate_values(_cfg(value_filter="odd"))


def test_invalid_mode_rejected():
    with pytest.raises(InvalidParameter, match="unknown search mode 'sideways'"):
        enumerate_values(_cfg(mode="sideways"))


# -- the order-8 dihedral class-pair search -----------------------------------


def test_d8_kernel_agrees_with_generic_route():
    res = enumerate_values(SearchConfig(kind="dihedral", params=(8,), height=1))
    assert res.evaluations == 3 ** 8
    gen = enumerate_values(SearchConfig(kind="dihedral", params=(8,), height=1,
                                        value_filter="coprime"))
    odd_from_fast = {v for v in res.attained_values if v % 2}
    assert odd_from_fast == set(gen.attained_values)


def test_d8_kernel_height_guard(monkeypatch):
    # with the budget out of the way, the 64-bit exactness guard binds
    monkeypatch.setenv("GDET_BUDGET", str(10 ** 18))
    with pytest.raises(BudgetExceeded):
        enumerate_values(SearchConfig(kind="dihedral", params=(8,), height=40))


def _d8_class_pairs(height):
    # f classes are (c0, f(1)^2, f(-1)^2, |f(i)|^2), g classes the last three
    span = range(-height, height + 1)
    f = {(c0, (c0 + c1 + c2 + c3) ** 2, (c0 - c1 + c2 - c3) ** 2, (c0 - c2) ** 2 + (c1 - c3) ** 2)
         for c0, c1, c2, c3 in product(span, repeat=4)}
    return len(f) * len({k[1:] for k in f})


def test_d8_budget_counts_class_pairs(monkeypatch):
    # a budget below the 5^8 vectors of height 2 but at the class-pair
    # count runs, in tiles of a few f classes, and finds what the full
    # search finds; one pair less is refused
    pairs = _d8_class_pairs(2)
    assert pairs < 5 ** 8
    monkeypatch.setattr(search, "_BLOCK_BYTES", 8 * 1000)
    monkeypatch.setenv("GDET_BUDGET", str(pairs))
    res = enumerate_values(SearchConfig(kind="dihedral", params=(8,), height=2))
    evaluations, low, vec, values = _d8_reference(2, "all")
    assert (res.evaluations, res.min_nontrivial) == (evaluations, low)
    assert res.witness == KINDS["dihedral"].terms((8,), vec)
    assert res.attained_values == values
    monkeypatch.setenv("GDET_BUDGET", str(pairs - 1))
    with pytest.raises(BudgetExceeded, match="class pairs"):
        enumerate_values(SearchConfig(kind="dihedral", params=(8,), height=2))


@functools.lru_cache(maxsize=None)
def _d8_brute_force(height):
    """The Cayley determinant of every 8-vector, in lexicographic order:
    entry (i, j) of the matrix is the coefficient at g_i g_j^(-1), read
    from the built tables, and numpy's det of a chunk of such matrices
    is rounded to the nearest integer.  Every value is at most 2^20 in
    size at height 2 (Hadamard), and the rounding is certified: no det
    may lie 0.25 or more from its integer."""
    g = build_group("dihedral", 8)
    at = np.array([[g.mul[i][g.inv[j]] for j in range(8)] for i in range(8)])
    span = np.arange(-height, height + 1)
    vectors = np.stack(np.meshgrid(*[span] * 8, indexing="ij"), axis=-1).reshape(-1, 8)
    values = []
    for chunk in np.array_split(vectors, max(1, len(vectors) // 20_000)):
        det = np.linalg.det(chunk[:, at].astype(np.float64))
        near = np.rint(det)
        assert np.abs(det - near).max() < 0.25
        values.append(near.astype(np.int64))
    return np.concatenate(values)


def _d8_reference(height, value_filter):
    """The class-pair search restated over every vector: the values the
    filter keeps, and the witness of smallest |m| >= 2, the least
    (m, vector) among the first such vectors of each shard (a leading
    coefficient).  With no filter that is the first such vector."""
    values = _d8_brute_force(height)
    keep = {"all": np.ones(len(values), bool), "coprime": values % 2 != 0,
            "multiples": values % 2 == 0}[value_filter]
    absval = np.abs(values)
    low = absval[keep & (absval >= 2)].min()
    hits = np.flatnonzero(keep & (absval == low))
    shard = (2 * height + 1) ** 7
    firsts = [hits[hits // shard == s][0] for s in np.unique(hits // shard)]
    i = min(firsts, key=lambda i: (values[i], i))
    assert value_filter != "all" or i == firsts[0]
    vec = np.unravel_index(i, (2 * height + 1,) * 8)
    return (len(values), int(values[i]), [int(c) - height for c in vec],
            np.unique(values[keep]).tolist())


@pytest.mark.parametrize("height", [1, 2])
@pytest.mark.parametrize("value_filter", ["all", "coprime", "multiples"])
def test_d8_class_pairs_match_brute_force(height, value_filter):
    res = enumerate_values(SearchConfig(kind="dihedral", params=(8,), height=height,
                                        value_filter=value_filter))
    evaluations, low, vec, values = _d8_reference(height, value_filter)
    assert res.route == "class-pairs"
    assert res.evaluations == evaluations
    assert res.min_nontrivial == low
    assert res.witness == KINDS["dihedral"].terms((8,), vec)
    assert res.attained_values == values


@pytest.mark.parametrize("value_filter", ["coprime", "multiples"])
def test_d8_class_pairs_match_generic_shards(value_filter):
    # the witness rule of a filtered search is the one the generic route
    # gives: the shards in increasing order through one collector
    cfg = SearchConfig(kind="dihedral", params=(8,), height=1, value_filter=value_filter)
    acc = _Collector(cfg)
    for first in (-1, 0, 1):
        run_shard(cfg, first, acc)
    res = enumerate_values(cfg)
    assert (res.evaluations, res.min_nontrivial) == (acc.evaluations, acc.best[1])
    assert res.witness == KINDS["dihedral"].terms((8,), acc.best[2])
    assert res.attained_values == sorted(acc.values)


def test_random_search_memory_does_not_grow_with_trials(traced_peak):
    # the evaluator sees blocks of at most block_rows(27) trials, so ten
    # times the trials may not raise the peak; max_values caps the one
    # thing that should grow, the set of attained values
    def peak(trials):
        cfg = SearchConfig(kind="heisenberg", params=(3,), height=2, mode="random",
                           trials=trials, seed=5, max_values=1000)
        res, peak = traced_peak(lambda: enumerate_values(cfg))
        assert res.evaluations == trials
        return peak

    peak(100)
    assert peak(10 ** 5) < peak(10 ** 4) + (256 << 10)


def test_d8_class_pairs_memory_does_not_grow_with_height(traced_peak):
    # tiles of _BLOCK_BYTES and a folded value set: the 1.3M class pairs
    # of height 4 took 48 MB when each temporary held a million of them
    cfg = SearchConfig(kind="dihedral", params=(8,), height=4)
    res, peak = traced_peak(lambda: enumerate_values(cfg))
    assert res.evaluations == 9 ** 8
    assert peak < 4 << 20


def test_random_search_memory_is_one_block(traced_peak):
    # 10^4 heisenberg:3 trials at height 2 come in blocks of at most
    # block_rows(27) rows and 256 KB of draws
    cfg = SearchConfig(kind="heisenberg", params=(3,), height=2, mode="random",
                       trials=10 ** 4, seed=5)
    res, peak = traced_peak(lambda: enumerate_values(cfg))
    assert res.evaluations == 10 ** 4
    assert peak < 3 << 20


def test_evaluator_blocks_follow_the_rule(monkeypatch):
    # a random heisenberg:5 search hands its route blocks of at most
    # block_rows(125) rows, and an exhaustive cyclic:7 search its shards
    # of 5^6 rows in blocks of block_rows(7)
    sizes = []

    def recording(kind):
        def exact(params):
            route, ev = kind.exact(params)
            return route, lambda rows: sizes.append(len(rows)) or ev(rows)
        return replace(kind, exact=exact)

    for name, params, cfg in (
            ("heisenberg", (5,), dict(height=1, mode="random", trials=600, seed=1)),
            ("cyclic", (7,), dict(height=2))):
        monkeypatch.setitem(KINDS, name, recording(KINDS[name]))
        sizes.clear()
        res = enumerate_values(SearchConfig(kind=name, params=params, **cfg))
        assert sum(sizes) == res.evaluations and len(sizes) > 2
        assert max(sizes) == block_rows(KINDS[name].order(params))


def test_search_reports_the_route():
    cases = [(dict(kind="heisenberg", params=(3,), mode="random", trials=5), "batched"),
             (dict(kind="heisenberg", params=(5,), mode="random", trials=2), "factorized"),
             (dict(kind="dihedral", params=(8,)), "class-pairs"),
             (dict(kind="dihedral", params=(8,), mode="random", trials=5), "two-part"),
             (dict(kind="cyclic", params=(3,)), "circulant")]
    for kw, route in cases:
        res = enumerate_values(SearchConfig(height=1, **kw))
        assert res.route == route
        assert res.to_report()["route"] == route


# -- the random-trial stream -------------------------------------------------


def _stdlib_rows(seed, ts, order, h):
    # the stream's definition: trial t is |G| randint calls of Random(f"{seed}:{t}")
    trials = (random.Random(f"{seed}:{t}") for t in ts)
    return [[r.randint(-h, h) for _ in range(order)] for r in trials]


def _sampled_rows(seed, trials, order, h):
    blocks = list(_random_blocks(seed, trials, order, h))
    assert all(len(b) <= block_rows(order) for b in blocks)
    return np.concatenate(blocks).tolist()


@pytest.mark.parametrize("order", [5, 8, 16, 27, 125])
def test_sampler_rows_equal_the_stdlib_stream(monkeypatch, order):
    # 37 trials in blocks of at most 16: several blocks and a short one
    monkeypatch.setattr(search, "_BLOCK_BYTES", 16 * 8 * order)
    assert block_rows(order) == 16
    for h in range(11):
        for seed in (0, -7, 10 ** 12):
            assert _sampled_rows(seed, 37, order, h) == _stdlib_rows(seed, range(37), order, h)


def test_sampler_blocks_past_chunk_rows():
    # a block is at most block_rows(27) rows and a quarter of
    # _BLOCK_BYTES draws: 1,024 rows of 64 draws at height 2
    step = min(block_rows(27), search._BLOCK_BYTES // (4 * _draw_width(27, 2)))
    assert step == 1024
    trials = 2 * step + 5
    blocks = list(_random_blocks(3, trials, 27, 2))
    assert [len(b) for b in blocks] == [step, step, 5]
    assert np.concatenate(blocks).tolist() == _stdlib_rows(3, range(trials), 27, 2)


def _outputs_needed(seed, t, order, h):
    # the 32-bit outputs trial t reads before its |G|-th accepted draw
    n = 2 * h + 1
    r = random.Random(f"{seed}:{t}")
    used = accepted = 0
    while accepted < order:
        used += 1
        accepted += r.getrandbits(n.bit_length()) < n
    return used


@pytest.mark.parametrize("h", [0, 4])
def test_sampler_short_rows_fall_back_to_randint(monkeypatch, h):
    # at 64 outputs a trial, some trials of heights 0 and 4 run short and
    # take their own randint calls
    monkeypatch.setattr(search, "_draw_width", lambda order, h: 64)
    short = sum(_outputs_needed(1, t, 27, h) > 64 for t in range(400))
    assert 0 < short < 400
    assert _sampled_rows(1, 400, 27, h) == _stdlib_rows(1, range(400), 27, h)


def test_sampler_every_row_short(monkeypatch):
    monkeypatch.setattr(search, "_draw_width", lambda order, h: 1)
    assert _sampled_rows(8, 30, 27, 3) == _stdlib_rows(8, range(30), 27, 3)


@pytest.mark.parametrize("h", [2 ** 31 - 1, 2 ** 31, 2 ** 40, 10 ** 20])
def test_sampler_wide_heights(h):
    # up to 2^31 - 1 a draw is at most 32 bits and goes through the block;
    # from 2^31 each trial takes randint's own calls, int64 rows below
    # 2^62 and Python ints above
    blocks = list(_random_blocks(4, 6, 27, h))
    assert blocks[0].dtype == (object if h > 1 << 62 else np.int64)
    assert np.concatenate(blocks).tolist() == _stdlib_rows(4, range(6), 27, h)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-10 ** 15, 10 ** 15), t=st.integers(0, 10 ** 6),
       h=st.one_of(st.integers(0, 40), st.integers(0, 2 ** 40)), order=st.integers(1, 64))
def test_sampler_stream_property(seed, t, h, order):
    rows = _draw(random.Random(), seed, range(t, t + 2), order, h, _draw_width(order, h))
    assert rows.tolist() == _stdlib_rows(seed, range(t, t + 2), order, h)


# -- the block collector against one add per row ------------------------------


class _RowCollector:
    """The collector restated one row at a time, in the order met: every
    row of the walk meets one value set, and each shard, opened by
    ``new_shard``, keeps its own first row of smallest |m| >= 2."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.p = KINDS[cfg.kind].base_prime(cfg.params)
        self.values = {}  # in the order met
        self.truncated = self.evaluations = 0
        self.firsts = [None]  # per shard: (|m|, m, coefficients) of its first smallest

    def new_shard(self):
        self.firsts.append(None)

    @property
    def best(self):
        return min((b for b in self.firsts if b is not None), default=None)

    def add(self, m, coeffs):
        self.evaluations += 1
        keep = {"all": True, "coprime": m % self.p != 0,
                "multiples": m % self.p == 0}[self.cfg.value_filter]
        if keep:
            if m not in self.values:
                if len(self.values) < self.cfg.max_values:
                    self.values[m] = None
                else:
                    self.truncated += 1
            first = self.firsts[-1]
            if abs(m) >= 2 and (first is None or abs(m) < first[0]):
                self.firsts[-1] = (abs(m), m, tuple(coeffs))


def _reference_report(cfg):
    """The report of a search whose rows are drawn one randint at a time
    (or listed by itertools.product) and added one row at a time."""
    kind = KINDS[cfg.kind]
    order, h = kind.order(cfg.params), cfg.height
    route, ev = kind.route(cfg.params)

    def feed(col, rows):
        for coeffs, m in zip(rows, ev(rows)):
            col.add(m, coeffs)
        return col

    total = _RowCollector(cfg)
    if cfg.mode == "random":
        feed(total, _stdlib_rows(cfg.seed, range(cfg.trials), order, h))
    else:
        span = range(-h, h + 1)
        for c0 in span:
            total.new_shard()
            feed(total, [(c0,) + r for r in product(span, repeat=order - 1)])
    best = total.best or (None, None, None)
    batched = (cfg.kind, cfg.params) == ("heisenberg", (3,))
    res = SearchResult(config=cfg, route="batched" if batched else route,
                       evaluations=total.evaluations, min_nontrivial=best[1],
                       witness=None if total.best is None else kind.terms(cfg.params, best[2]),
                       attained_values=sorted(total.values), values_truncated=total.truncated)
    return res.to_report(value_cap=10 ** 9)


@pytest.mark.parametrize("max_values", [MAX_DISTINCT_VALUES, 7])
@pytest.mark.parametrize("value_filter", ["all", "coprime", "multiples"])
@pytest.mark.parametrize("kind,params,height,mode", [
    ("cyclic", (4,), 2, "exhaustive"), ("cyclic", (4,), 3, "random"),
    ("cyclic", (5,), 2, "exhaustive"), ("cyclic", (5,), 2, "random"),
    ("dicyclic", (8,), 1, "exhaustive"), ("dicyclic", (8,), 2, "random"),
    ("heisenberg", (3,), 0, "exhaustive"), ("heisenberg", (3,), 2, "random")])
def test_block_collector_matches_row_reference(monkeypatch, kind, params, height, mode,
                                               value_filter, max_values):
    # blocks of at most 64 rows, so that with --max-values 7 the set fills
    # inside the first block and later blocks count what it leaves out
    monkeypatch.setattr(search, "_BLOCK_BYTES", 64 * 8 * KINDS[kind].order(params))
    assert block_rows(KINDS[kind].order(params)) == 64
    cfg = SearchConfig(kind=kind, params=params, height=height, mode=mode, trials=500,
                       seed=11, value_filter=value_filter, max_values=max_values)
    report = enumerate_values(cfg).to_report(value_cap=10 ** 9)
    assert report == _reference_report(cfg)
    if report["num_distinct_values"] == 7:  # the set filled, and left values out
        assert report["values_truncated"] > 0


def test_exhaustive_shards_keep_the_values_met_first():
    # the first shard of cyclic:3 at height 2 meets 13 distinct values and
    # the second meets -2 early: with room for 18, the merge must take the
    # later shards' values in the order the lexicographic walk meets them
    cfg = SearchConfig(kind="cyclic", params=(3,), height=2, max_values=18)
    report = enumerate_values(cfg).to_report(value_cap=10 ** 9)
    assert report == _reference_report(cfg)
    walk = [abelian_measure((3,), [r])[0] for r in product(range(-2, 3), repeat=3)]
    first = list(dict.fromkeys(walk))[:18]
    assert -2 in first
    assert report["attained_values"] == [str(v) for v in sorted(first)]
    # every later row whose value is not kept counts, a value met twice
    # twice: 24 of the 125 rows, where counting each left-out value once
    # per shard gave 15
    assert report["values_truncated"] == sum(v not in first for v in walk) == 24
    # a collector fed the shards in turn keeps them in that order too
    acc = _Collector(cfg)
    for c0 in range(-2, 3):
        run_shard(cfg, c0, acc)
    assert list(acc.values) == first


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.one_of(st.integers(-30, 30), st.integers(-2 ** 70, 2 ** 70)), max_size=60),
       cuts=st.lists(st.integers(0, 60), max_size=4),
       max_values=st.integers(0, 12), value_filter=st.sampled_from(["all", "coprime", "multiples"]))
def test_add_block_equals_row_adds(values, cuts, max_values, value_filter):
    # any split of a value sequence into blocks, some past int64, gives
    # the set, count and witness of one add per row
    cfg = _cfg(max_values=max_values, value_filter=value_filter)
    rows = np.arange(3 * len(values)).reshape(-1, 3)
    ref, col = _RowCollector(cfg), _Collector(cfg)
    for coeffs, m in zip(rows.tolist(), values):
        ref.add(m, coeffs)
    bounds = [0] + sorted(c for c in cuts if c < len(values)) + [len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        col.add_block(rows[lo:hi], values[lo:hi])
    assert (col.evaluations, list(col.values), col.truncated, col.best) == \
        (ref.evaluations, list(ref.values), ref.truncated, ref.best)


_BIG_HEIGHT_MIN = {  # min_nontrivial of the seed-2 searches below
    "cyclic": "3757197683563749286211177056664711140380018440114695780882229305287193604818084683352935355496625004",
}


@pytest.mark.parametrize("kind,params", [("cyclic", (5,)), ("heisenberg", (3,)),
                                         ("heisenberg", (5,)), ("dihedral", (8,))])
def test_big_height_search_matches_per_trial_reference(kind, params):
    # coefficients near 10^20 pass int64: rows and values stay Python ints
    cfg = SearchConfig(kind=kind, params=params, height=10 ** 20, mode="random", trials=3, seed=2)
    report = enumerate_values(cfg).to_report()
    assert report == _reference_report(cfg)
    assert report["min_nontrivial"] == _BIG_HEIGHT_MIN.get(kind, report["min_nontrivial"])


def test_per_row_routes_take_python_ints():
    # an int64 block reaches the character-product routes, both the
    # accumulators of (Z_p)^n and the direct evaluation of other products,
    # and the p >= 5 Heisenberg route, and its values past 2^63 stay exact
    rng = np.random.default_rng(3)
    for kind, params in (("elementary", (3, 2)), ("product", (2, 4)), ("product", (2, 3)),
                         ("cyclic", (7,)), ("heisenberg", (5,))):
        _, ev = KINDS[kind].route(params)
        block = rng.integers(-2 ** 40, 2 ** 40, size=(2, KINDS[kind].order(params)))
        assert ev(block) == ev(block.tolist())
        assert all(type(v) is int for v in ev(block))


# -- growth constants -----------------------------------------------------------


def test_min_coprime_residue_reference_values():
    assert min_coprime_residue(3) == 26
    assert min_coprime_residue(5) == 57
    assert min_coprime_residue(7) == 18


def test_lambda_h3():
    info = lambda_heisenberg(3)
    assert info["min_nontrivial"] == 26
    assert info["attained"]
    assert info["witness"]["a"] == 1 or abs(info["witness"]["value"]) == 26
    assert info["lambda"] == pytest.approx(math.log(26) / 27, rel=1e-12)


def test_kernel_minimum_consistency():
    # the sampled minimum can never undercut the exact residue bound
    res = enumerate_values(SearchConfig(kind="heisenberg", params=(3,),
                                        height=2, mode="random",
                                        trials=2000, seed=17,
                                        value_filter="coprime"))
    floor = min_coprime_residue(3)
    assert all(abs(v) >= floor or abs(v) == 1 for v in res.attained_values)
    flat = [0] * 27
    flat[0] = 1
    assert measure_h3([flat]) == [1]
