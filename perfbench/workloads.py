"""Seeded op lists for the four workloads.

Every workload is a fixed list of ops whose shape (which functions, at
which sizes) is the same for every seed; the seed only picks the values
(window offsets, residues, cylinder positions, distinct moduli pairs), so
runs on different seeds cost the same and can be compared.  An op calls
the package through attribute lookups at call time, so the tracer's
wrappers are seen when they are installed.

Each op carries its own check, run right after its timed call against an
independent oracle from ``oracles``.  ``kind`` is ``"op"`` for ordinary
ops, ``"probe"`` for budget probes (a documented budget refusal counts as
refused, a returned value must be exact) and ``"defect"`` for ops that
reproduce a known defect of the program: they are checked like any other
op and their failures are reported by name.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

import oracles as O
from oracles import expect

WORKLOADS = ("exact", "sample", "stream", "cli")


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    kind: str = "op"
    expect_error: str | None = None  # name of the BFreeError the op must raise


# squarefree_family(k): the squares of the first k primes
SF = {k: tuple(p * p for p in (2, 3, 5, 7, 11, 13, 17, 19)[:k]) for k in range(1, 9)}


def _coding_bits(rng, moduli, lo, hi):
    """The coding over [lo, hi) of a random residue vector."""
    residues = [rng.randrange(b) for b in moduli]
    return O.coding_at(np.arange(lo, hi), moduli, [{(-r) % b} for r, b in zip(residues, moduli)])


def _random_minimal_block(rng, length):
    while True:
        text = "".join(rng.choice("01") for _ in range(length))
        if "1" in text and all(text != text[:d] * (length // d) for d in range(1, length) if length % d == 0):
            return text


# -- exact ------------------------------------------------------------------


def exact_ops(rng, B):
    ops = []
    add = ops.append

    def check_family(r):
        for k, bset in zip(range(3, 7), r):
            expect(bset.moduli == SF[k], f"moduli {bset.moduli}")
            expect(bset.tail_bound == Fraction(1, math.isqrt(SF[k][-1])), "tail bound")
    add(Op("squarefree_family k=3..6", lambda: [B.squarefree_family(k) for k in range(3, 7)], check_family))
    crt_sets = (rng.choice([(4, 9, 25), (8, 27, 125)]), rng.choice([(3, 4, 5, 7), (5, 7, 8, 9)]))
    add(Op(f"crt_free_count{[list(m) for m in crt_sets]}", lambda: [B.crt_free_count(B.validate_bset(m)) for m in crt_sets],
           lambda r: expect(r == [math.prod(b - 1 for b in m) for m in crt_sets], f"{r}")))

    # One op per call shape; the seed picks values, and sizes vary by a few
    # percent at most between seeds.
    #
    # Transfer-DP block counts: n on and off multiples of the period P, so a
    # closed form for P | n that slows the other case shows in the tail.
    ladder = [
        ((2, 3), 6 * rng.randint(25, 26)),
        ((2, 3), 6 * rng.randint(150, 151) + rng.randint(1, 5)),
        ((2, 3), 6 * rng.randint(166, 167)),
        ((2, 3), 6 * rng.randint(166, 167) + rng.randint(1, 5)),
        ((2, 3), 6 * rng.randint(332, 333)),
        ((2, 3), 6 * 332 + rng.randint(1, 5)),
        ((2, 5), 10 * 20),
        ((2, 5), 10 * 20 + rng.randint(1, 3)),
        ((3, 4), 12 * 17),
        ((3, 4), 12 * 17 + rng.randint(1, 3)),
        ((2, 7), 14 * 5),
        ((2, 7), 14 * 5 + rng.randint(1, 3)),
        ((2, 7), 14 * 20),
        ((3, 5), 15 * 6),
        ((3, 5), 15 * 6 + rng.randint(1, 3)),
        ((3, 5), 15 * 20 + rng.randint(1, 5)),
        ((4, 5), 20 * 3),
        ((2, 3, 5), 30 * 2),
        ((2, 3, 5), 30 * 2 + rng.randint(1, 3)),
        ((2, 3, 5), 30 * 6),
        ((2, 3, 5), 30 * 6 + rng.randint(1, 3)),
        ((4, 9), 18),
        ((4, 9), 36),
        ((4, 9), 36 + rng.randint(1, 2)),
    ]
    for mods, n in ladder:
        add(Op(f"block_complexity{list(mods)} n={n}", lambda m=mods, n=n: B.block_complexity(B.validate_bset(m), n),
               lambda r, m=mods, n=n: O.check_block_counts(r, m, n)))

    for mods, n in (((2, 3), 20), ((4, 9), 13), ((2, 3, 5), 16)):
        add(Op(f"admissible_words{list(mods)} n={n}", lambda m=mods, n=n: list(B.admissible_words(B.validate_bset(m), n)),
               lambda r, m=mods, n=n: O.check_admissible_words(r, m, n)))

    recover_sets = ((4, 9), (2, 3, 5), (4, 9, 25))
    recover_words = []
    for mods in recover_sets:
        lo = rng.randrange(10**6)
        recover_words.append(B.BinaryWord(_coding_bits(rng, mods, lo, lo + 3 * max(mods)), lo))

    def recover():
        out = []
        for w, m in zip(recover_words, recover_sets):
            bset = B.validate_bset(m)
            out.append((B.theta_window(w, bset), B.spectrum_profile(w, bset)))
        return out

    def check_recover(r):
        for (theta, spectrum), w, m in zip(r, recover_words, recover_sets):
            O.check_theta(theta, w, m)
            O.check_spectrum(spectrum, w, m)
    add(Op("theta_window, spectrum_profile [4,9] [2,3,5] [4,9,25]", recover, check_recover))
    full = B.BinaryWord.from_string("1" * 6, rng.randrange(100))
    add(Op("spectrum_profile[2,3] inadmissible", lambda: B.spectrum_profile(full, B.validate_bset((2, 3))),
           lambda r: None, expect_error="Inadmissible"))

    # Cylinders over squarefree_family(4), cut from the sequence itself so
    # their probability is positive; 2^|zeros| inclusion-exclusion terms.
    mods4 = SF[4]
    for zeros, n_ones in [(8, 2), (9, 3), (10, 2), (11, 3), (12, 2), (13, 3), (14, 2)]:
        t0 = rng.randrange(10**6)
        bits = O.coding_at(np.arange(t0, t0 + 64), mods4, O.free_of(mods4))
        zero_pos = rng.sample([i for i in range(64) if not bits[i]], zeros)
        one_pos = rng.sample([i for i in range(64) if bits[i]], n_ones)
        entries = {**{i: 0 for i in zero_pos}, **{i: 1 for i in one_pos}}
        add(Op(f"mixed_cylinder sf4 zeros={zeros} ones={n_ones}",
               lambda e=entries: B.mixed_cylinder(B.squarefree_family(4), B.CylinderSpec(e)),
               lambda r, e=entries: expect(r == O.haar_cylinder(mods4, e), f"{r}")))
    ones = [rng.sample(range(40), 3) for _ in range(2)]
    add(Op("mirsky_cylinder sf4 x2", lambda: [B.mirsky_cylinder(B.squarefree_family(4), o) for o in ones],
           lambda r: expect(r == [O.haar_cylinder(mods4, {i: 1 for i in o}) for o in ones], f"{r}")))

    # Inclusion: distinct B-moduli in every pair, because the oracle's
    # per-modulus verdict is cached for the life of the process.
    cofactors = rng.sample([7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43], 10)
    incl_pairs = [
        (SF[4], tuple(sorted((4 * cofactors[0], 9 * cofactors[1], 25 * cofactors[2])))),
        (SF[4], tuple(sorted((4 * cofactors[3] * cofactors[4], 9 * cofactors[5])))),
        (SF[3], tuple(sorted((4 * cofactors[6], 25 * cofactors[7])))),
    ]
    for a, b in incl_pairs:
        add(Op(f"inclusion_witness{list(a)}<={list(b)}", lambda a=a, b=b: B.inclusion_witness(B.validate_bset(a), B.validate_bset(b)),
               lambda r, a=a, b=b: O.check_witness(r, a, b)))
    small = rng.choice([(2, 3), (4, 9), (2, 5)])
    outsiders = [p for p in (7, 11, 13, 17, 19, 23) if all(p % a for a in small)]
    non_pairs = [(small, (rng.choice(outsiders),)), ((4, 9), tuple(sorted((8 * 5, rng.choice([7, 11, 13])))))]

    def check_witnesses(r):
        for word, (a, b) in zip(r, non_pairs):
            O.check_witness(word, a, b)
    add(Op(f"inclusion_witness, non-included {non_pairs}",
           lambda: [B.inclusion_witness(B.validate_bset(a), B.validate_bset(b)) for a, b in non_pairs], check_witnesses))
    oracle_b = tuple(sorted((4 * cofactors[8], 9 * cofactors[9])))
    verdict_b = (rng.choice(outsiders),)

    def verdicts():
        bset_small = B.validate_bset(small)
        return (
            B.word_level_includes(B.validate_bset(SF[2]), B.validate_bset(oracle_b)),
            B.includes(bset_small, B.validate_bset(verdict_b)),
            B.equality(bset_small, bset_small),
        )
    add(Op(f"word_level_includes[4,9]<={list(oracle_b)}, includes, equality", verdicts,
           lambda r: expect(r == (True, O.divides_criterion(small, verdict_b), True), f"{r}")))
    constructs = [(m, rng.choice([p for p in (5, 7, 11, 13, 25) if all(p % x for x in m)])) for m in ((2, 3), (4, 9))]

    def check_construct(r):
        for out, (m, bp) in zip(r, constructs):
            expect(len(out) == bp and {x % bp for x in out} == set(range(bp)), "not a full residue system")
            expect(all(x % q for x in out for q in m), "hits residue 0 of a small modulus")
    add(Op(f"construct_admissible {constructs}", lambda: [B.construct_admissible(m, bp) for m, bp in constructs],
           check_construct))

    # Closed-form entropies, as one table.
    k = rng.randint(3, 8)
    p = Fraction(1, rng.randint(2, 5))
    a_sets = (frozenset(rng.sample(range(4), 2)), frozenset(rng.sample(range(9), 3)))
    block = _random_minimal_block(rng, rng.randint(9, 15))

    def entropies():
        return (
            B.htop_bfree(B.squarefree_family(k)),
            B.h_product_type(B.squarefree_family(4), p),
            B.htop_generalized(B.SAProfile(B.validate_bset((4, 9)), (2, 3), a_sets)),
            B.htop_periodic_hereditary(B.BinaryWord.from_string(block)),
            B.lm7_bounds(0.5, 0.25, 0.375),
        )

    def check_entropies(r):
        bfree_h, product_h, general_h, periodic_h, bounds = r
        expect(bfree_h.exact == math.prod(Fraction(b - 1, b) for b in SF[k]) and bfree_h.bits == float(bfree_h.exact), "htop_bfree")
        h2 = -(float(p) * math.log2(float(p)) + (1 - float(p)) * math.log2(1 - float(p)))
        dens = math.prod(Fraction(b - 1, b) for b in SF[4])
        expect(math.isclose(product_h.bits, h2 * float(dens), rel_tol=1e-12), "h_product_type")
        expect(general_h.exact == Fraction(2, 4) * Fraction(6, 9), "htop_generalized")
        expect(periodic_h.exact == Fraction(block.count("1"), len(block)), "htop_periodic_hereditary")
        expect(bounds == (0.25, 0.875), "lm7_bounds")
    add(Op(f"entropy closed forms sf{k} p={p} block={block}", entropies, check_entropies))

    # Exact frequencies and counts of the periodic and rotation constructions.
    target = B.BinaryWord.from_string("".join(rng.choice("0001") for _ in range(9)))
    blocks = ["".join(rng.choice("0011") for _ in range(12)) for _ in range(8)]

    def periodic_exact():
        freqs = [B.mme_block_frequency(system, target, Fraction(1, 2)) for system in B.two_mme_system()]
        return freqs, B.hereditary_closure_count(blocks)

    def check_periodic_exact(r):
        expect(r[0] == [O.periodic_frequency(bt, target.to_string(), Fraction(1, 2)) for bt in ("101001000", "101000100")],
               "mme_block_frequency")
        expect(r[1] == O.dominated_count(blocks), "hereditary_closure_count")
    add(Op("mme_block_frequency, hereditary_closure_count", periodic_exact, check_periodic_exact))

    # Density bound over one full period, from a sieved window.
    def crt_bound():
        bset = B.validate_bset((4, 9))
        profile = B.SAProfile(bset, (2, 3), a_sets)
        return B.crt_density_bound(profile, B.phi_sa_window(profile, (0, 0), 0, bset.period))
    add(Op("crt_density_bound[4,9]", crt_bound,
           lambda r: expect(r == (True, Fraction(1, 3), Fraction(1, 3)), f"{r}")))

    # A small Monte Carlo cross-check, as a researcher would run beside the tables.
    lo, sample_seed = rng.randrange(1000), rng.randrange(2**32)
    small_batch = {}

    def small_sample():
        small_batch["b"] = B.sample_mirsky(B.validate_bset((2, 3)), lo, lo + 8, 64, sample_seed)
        return small_batch["b"]
    add(Op("sample_mirsky[2,3] 64x8", small_sample,
           lambda r: O.check_sampler_law(r, lo, lo + 8, 64, (2, 3), O.free_of((2, 3)), 1)))
    add(Op("empirical_block_distribution 64x8 n=2", lambda: B.empirical_block_distribution(small_batch["b"], 2),
           lambda r: expect(r == O.block_frequencies(np.stack([w.bits for w in small_batch["b"].words]), 2), "frequencies")))

    # Budget probes: refused at seed; if computed, the value must be exact.
    probe_n = 900
    add(Op("probe block_complexity[4,9,25]", lambda: B.block_complexity(B.validate_bset((4, 9, 25)), probe_n),
           lambda r: expect(r[probe_n - 1] == O.closed_form_count((4, 9, 25), probe_n), "p_n"), kind="probe"))
    t0 = rng.randrange(10**6)
    bits = O.coding_at(np.arange(t0, t0 + 96), mods4, O.free_of(mods4))
    entries = {i: 0 for i in rng.sample([i for i in range(96) if not bits[i]], 25)}
    add(Op("probe mixed_cylinder zeros=25", lambda: B.mixed_cylinder(B.squarefree_family(4), B.CylinderSpec(entries)),
           lambda r: expect(r == O.haar_cylinder(mods4, entries), f"{r}"), kind="probe"))
    b = (4 * 121 * cofactors[0],)
    add(Op("probe inclusion_witness sf5", lambda: B.inclusion_witness(B.squarefree_family(5), B.validate_bset(b)),
           lambda r: O.check_witness(r, SF[5], b), kind="probe"))
    return ops


# -- sample -----------------------------------------------------------------


def sample_ops(rng, B):
    ops = []
    add = ops.append
    batches = {}

    def sampler(key, measure, mods, p, L, count, a_sets=None, lo=None):
        """A sampler op; with ``key`` its batch is kept for the ops after it."""
        lo = rng.randrange(10**6) if lo is None else lo
        seed = rng.randrange(2**63)
        forbidden = [set(s) for s in a_sets] if a_sets else O.free_of(mods)

        def call():
            bset = B.validate_bset(mods)
            if measure == "mirsky":
                batch = B.sample_mirsky(bset, lo, lo + L, count, seed)
            elif measure == "product":
                batch = B.sample_product(B.ProductMeasureSpec(bset, p), lo, lo + L, count, seed)
            else:
                profile = B.SAProfile(bset, tuple(len(s) for s in a_sets), tuple(frozenset(s) for s in a_sets))
                batch = B.sample_generalized(profile, p, lo, lo + L, count, seed)
            if key:
                batches[key] = batch
            return batch
        add(Op(f"sample_{measure}{list(mods)} p={p} L={L} x{count}", call,
               lambda r: O.check_sampler_law(r, lo, lo + L, count, mods, forbidden, p)))
        return lo

    # One batch per shape: the three measures at L = 12-64 with 2k-20k samples.
    ga = [sorted(rng.sample(range(4), 2)), sorted(rng.sample(range(9), 3))]
    sampler(None, "product", (2, 3), Fraction(1, 2), 16, 2000)
    lo23 = sampler("m23", "mirsky", (2, 3), 1, 12, 4000)
    sampler("p23", "product", (2, 3), Fraction(1, 2), 12, 4000, lo=lo23)
    lo49 = sampler("m49", "mirsky", (4, 9), 1, 24, 3000)
    sampler("g49", "generalized", (4, 9), Fraction(1), 24, 3000, ga, lo=lo49)
    sampler(None, "generalized", (4, 9), Fraction(1, 2), 16, 2000, ga)
    sampler(None, "mirsky", (2, 3, 5), 1, 32, 3000)
    sampler(None, "product", (4, 9, 25), Fraction(1, 2), 48, 2000)
    sampler("p25", "product", (2, 5), Fraction(1, 3), 16, 3000)
    sampler(None, "mirsky", (4, 9, 25), 1, 50, 2000)
    sampler(None, "product", (4, 9), Fraction(1, 2), 64, 2000)
    sampler(None, "mirsky", (2, 3), 1, 20, 20000)

    for key in ("m23", "p23", "m49", "p25"):
        add(Op(f"empirical_block_distribution {key} n=3", lambda k=key: B.empirical_block_distribution(batches[k], 3),
               lambda r, k=key: expect(r == O.block_frequencies(np.stack([w.bits for w in batches[k].words]), 3), "frequencies")))

    # Exact law of every 3-block, compared with the sampled frequencies.
    law_of = (("m23", (2, 3)), ("m49", (4, 9)))

    def law():
        out = []
        for _, mods in law_of:
            bset = B.validate_bset(mods)
            out.append({
                format(c, "03b"): B.mixed_cylinder(bset, B.CylinderSpec({i: (c >> (2 - i)) & 1 for i in range(3)}))
                for c in range(8)
            })
        return out

    def check_law(r):
        for values, (key, mods) in zip(r, law_of):
            exact = O.exact_block_law(mods, O.free_of(mods), 3, 1)
            expect(all(values[b] == exact.get(b, 0) for b in values), "cylinder values")
            words = batches[key].words
            O.check_frequencies(O.block_frequencies(np.stack([w.bits for w in words]), 3), values, len(words))
    add(Op("block law [2,3] and [4,9] n=3", law, check_law))

    for base, mask in (("m23", "p23"), ("m49", "g49")):
        def check_mask(r, b=base, m=mask):
            for w, x, y in zip(r.words, batches[b].words, batches[m].words):
                expect(np.array_equal(w.bits, x.bits & y.bits) and w.offset == x.offset, "masked word")
            expect(len(r.words) == len(batches[b].words), "count")
        add(Op(f"mask_batch {base}*{mask}", lambda b=base, m=mask: B.mask_batch(batches[b], batches[m]), check_mask))

    i, j = rng.randrange(4000), rng.randrange(4000)

    def squeeze_embed():
        x, z = batches["p23"].words[i], batches["m23"].words[j]
        return B.squeeze(x, z), B.embed(B.BinaryWord(x.bits[: z.ones]), z)

    def check_squeeze_embed(r):
        x, z = batches["p23"].words[i], batches["m23"].words[j]
        expect(np.array_equal(r[0].bits, x.bits[z.bits == 1]), "squeezed bits")
        expected = np.zeros(len(z), np.uint8)
        expected[z.bits == 1] = x.bits[: z.ones]
        expect(np.array_equal(r[1].bits, expected) and r[1].offset == z.offset, "embedded bits")
    add(Op("squeeze, embed", squeeze_embed, check_squeeze_embed))

    periodic_seeds = [rng.randrange(2**63) for _ in range(2)]

    def periodic():
        return [B.sample_periodic_windows(system, Fraction(1, 2), 18, 5000, s)
                for system, s in zip(B.two_mme_system(), periodic_seeds)]

    def check_periodic(r):
        for rows, block in zip(r, ("101001000", "101000100")):
            expect(rows.shape == (5000, 18), "shape")
            windows = np.array([[int(block[(j + t) % 9]) for t in range(18)] for j in range(9)], dtype=np.int64)
            clash = rows.astype(np.int64) @ (1 - windows).T
            expect(bool(((clash == 0).any(axis=1)).all()), "row under no phase window")
    add(Op("sample_periodic_windows two_mme_system", periodic, check_periodic))

    k = rng.randrange(3000)

    def side_checks():
        return (
            B.theta_window(batches["m49"].words[k], B.validate_bset((4, 9))),
            B.h_product_type(B.validate_bset((4, 9, 25)), Fraction(1, 2)),
            B.includes(B.validate_bset((2, 3)), B.validate_bset((4, 9))),
        )

    def check_side(r):
        O.check_theta(r[0], batches["m49"].words[k], (4, 9))
        expect(r[1].exact == Fraction(3 * 8 * 24, 900), "h_product_type")
        expect(r[2] is True, "includes")
    add(Op("theta_window, h_product_type, includes", side_checks, check_side))
    return ops


# -- stream -----------------------------------------------------------------


def stream_ops(rng, B):
    # One op per shape: windows of 1e6-1e8 bits, rotation codings of 1e4-1e5
    # bits, density estimates over 1e6 and 3e6.
    ops = []
    add = ops.append
    mods8, mods4 = SF[8], SF[4]
    words = {}

    def window_op(name, size, make, forbidden, mods, key=None):
        lo = rng.randrange(10**9)
        check_seed = rng.randrange(2**32)

        def call():
            w = make(lo, lo + size)
            if key:
                words[key] = w
            return w
        add(Op(f"{name} {size:.0e} bits", call,
               lambda r: O.check_window(r, lo, lo + size, mods, forbidden, check_seed)))

    for size in (10**6, 10**7, 5 * 10**7, 10**8):
        window_op("eta_window sf8", size, lambda lo, hi: B.eta_window(B.squarefree_family(8), lo, hi), O.free_of(mods8), mods8)
    for size in (10**6, 10**7):
        res = [rng.randrange(b) for b in mods8]
        window_op("phi_window sf8", size,
                  lambda lo, hi, r=res: B.phi_window(B.OdometerPoint(B.squarefree_family(8), r), lo, hi),
                  [{(-x) % b} for x, b in zip(res, mods8)], mods8)
    s = [rng.randint(1, b - 1) for b in (2, 3, 3, 4)]
    a = [set(rng.sample(range(b), sk)) for sk, b in zip(s, mods4)]
    res = [rng.randrange(b) for b in mods4]
    for size in (10**6, 10**7):
        window_op("phi_sa_window sf4", size,
                  lambda lo, hi: B.phi_sa_window(B.SAProfile(B.squarefree_family(4), tuple(s), tuple(frozenset(x) for x in a)), res, lo, hi),
                  [{(c - x) % b for c in ak} for ak, x, b in zip(a, res, mods4)], mods4, key="sa")

    # The sampler in its few-long-windows form.
    for k, p, count in ((3, Fraction(1, 2), 8), (4, Fraction(1, 3), 4)):
        lo, seed = rng.randrange(10**6), rng.randrange(2**63)
        add(Op(f"sample_product sf{k} p={p} L=1e5 x{count}",
               lambda k=k, p=p, count=count, lo=lo, seed=seed: B.sample_product(
                   B.ProductMeasureSpec(B.squarefree_family(k), p), lo, lo + 10**5, count, seed),
               lambda r, k=k, lo=lo: O.check_dominated(O.batch_matrix(r, lo, lo + 10**5), lo, SF[k], O.free_of(SF[k]))))

    # Rotation codings: golden and rational alpha.
    half = (Fraction(0), Fraction(1, 2))
    for size in (10**4, 2 * 10**4, 5 * 10**4, 10**5):
        lo = rng.randrange(10**6)
        add(Op(f"sturmian_window golden {size:.0e} bits", lambda lo=lo, n=size: B.sturmian_window(B.RotationCoding.golden(), lo, lo + n),
               lambda r, lo=lo, n=size: O.check_bits(r, lo, O.golden_half_bits(lo, lo + n), "golden")))
    for size in (10**4, 5 * 10**4, 10**5):
        q = rng.choice([p for p in range(101, 400) if p % 3 and all(p % d for d in range(2, 20))])
        alpha, y, lo = Fraction(rng.randrange(1, q), q), Fraction(1, 3 * q), rng.randrange(10**5)
        add(Op(f"sturmian_window rational {size:.0e} bits alpha={alpha}",
               lambda a=alpha, y=y, lo=lo, n=size: B.sturmian_window(B.RotationCoding.from_real(a, y), lo, lo + n),
               lambda r, a=alpha, y=y, lo=lo, n=size: O.check_bits(r, lo, O.rational_rotation_bits(a, y, half, lo, lo + n), "rational")))
    reference = O.golden_half_bits(0, 1 << 13)
    text = "".join(map(str, reference))
    for n in (4, 8, 12):
        add(Op(f"collect_blocks golden n={n}", lambda n=n: B.collect_blocks(B.RotationCoding.golden(), n),
               lambda r, n=n: expect(r == O.blocks_of_text(text, n), f"{len(r)} blocks")))
    n_max = 6
    add(Op(f"rotation_complexity golden n<={n_max}", lambda: B.rotation_complexity(B.RotationCoding.golden(), n_max),
           lambda r: expect(r == [len(O.blocks_of_text(text, n)) for n in range(1, n_max + 1)], f"{r}")))

    # A known defect: y is truncated to 128 bits but treated as exact, so
    # the bit at n = 0 comes back 0 while the true bit is 1.
    y_defect, third = Fraction(1, 3) + Fraction(1, 2**200), (Fraction(1, 3), Fraction(2, 3))
    add(Op("defect sturmian_window y=1/3+2^-200 n=0",
           lambda: B.sturmian_window(B.RotationCoding.from_real(Fraction(1, 5), y_defect, third), 0, 1),
           lambda r: O.check_bits(r, 0, O.rational_rotation_bits(Fraction(1, 5), y_defect, third, 0, 1), "defect"),
           kind="defect"))

    for horizon in (10**6, 3 * 10**6):
        c, r0 = rng.choice([7, 11, 13, 17, 19, 23]), rng.randrange(1000)

        def check_density(r, c=c, r0=r0, horizon=horizon):
            free = 0
            for start in range(1, horizon + 1, 10**6):
                s = np.arange(start, min(start + 10**6, horizon + 1), dtype=np.int64)
                free += int(O.coding_at(s * c + r0, SF[3], O.free_of(SF[3])).sum())
            expect(r == free / horizon, f"{r} != {free / horizon}")
        add(Op(f"density_estimate sf3 c={c} horizon={horizon:.0e}",
               lambda c=c, r0=r0, horizon=horizon: B.density_estimate(B.squarefree_family(3), c, r0, horizon), check_density))

    ones = rng.sample(range(50), 4)

    def head():
        return B.BinaryWord(words["sa"].bits[:3000], words["sa"].offset)

    def side_ops():
        return (
            B.theta_window(head(), B.squarefree_family(4)),
            B.mirsky_cylinder(B.squarefree_family(8), ones),
            B.squeeze(head(), head()),
            B.htop_bfree(B.squarefree_family(8)),
        )

    def check_side(r):
        O.check_theta(r[0], head(), mods4)
        expect(r[1] == math.prod(Fraction(b - len({o % b for o in ones}), b) for b in mods8), "mirsky_cylinder")
        expect(len(r[2]) == head().ones and bool(r[2].bits.all()), "squeezed bits")
        expect(r[3].exact == math.prod(Fraction(b - 1, b) for b in mods8), "htop_bfree")
    add(Op("theta_window, mirsky_cylinder, squeeze, htop_bfree", side_ops, check_side))
    return ops


# -- cli --------------------------------------------------------------------


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str
    out_file: str | None  # contents of the --out file, if one was asked for


TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")


def run_cli(argv, env, out_path=None, trace_out=None):
    """One cold ``python -m bfree.cli`` process, waited for.  With
    ``trace_out`` the process runs the CLI under the tracer instead."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "bfree.cli", *argv]
    else:
        cmd, env = [sys.executable, TRACED_CLI, *argv], {**env, "PERFBENCH_TRACE_OUT": trace_out}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    out_file = None
    if out_path is not None and os.path.exists(out_path):
        with open(out_path) as fh:
            out_file = fh.read()
        os.remove(out_path)
    return CliResult(proc.returncode, proc.stdout, proc.stderr, out_file)


def _json_ok(r, check_payload=None):
    expect(r.code == 0, f"exit {r.code}: {r.stderr.strip()[-200:]}")
    obj = json.loads(r.stdout)
    expect(obj.get("schema") == 1, "schema field")
    if check_payload:
        check_payload(obj)


def _error_exit(code, name=None):
    def check(r):
        expect(r.code == code, f"exit {r.code}, expected {code}")
        if name is not None:
            err = json.loads(r.stderr.strip().splitlines()[-1])
            expect(err.get("schema") == 1 and err.get("error") == name and "message" in err, f"error {err}")
    return check


def _csv_rows(text, header):
    lines = text.strip().splitlines()
    expect(lines[0] == header, f"csv header {lines[0]!r}")
    return [line.split(",", len(header.split(",")) - 1) for line in lines[1:]]


def cli_ops(rng, B, env, tmpdir, trace):
    ops = []

    def add(name, argv, check, kind="op", out=None):
        argv = [str(x) for x in argv]
        out_path = os.path.join(tmpdir, out) if out else None
        if out_path:
            argv += ["--out", out_path]
        trace_out = os.path.join(tmpdir, f"trace-{len(ops)}.json") if trace else None
        ops.append(Op(name, lambda: run_cli(argv, env, out_path, trace_out), check, kind=kind))

    def word_payload(lo, hi, mods, forbidden):
        def check(obj):
            w = obj["word"]
            expect(w["offset"] == lo, "offset")
            bits = np.frombuffer(w["bits"].encode(), np.uint8) - ord("0")
            expect(np.array_equal(bits, O.coding_at(np.arange(lo, hi), mods, forbidden)), "bits")
        return check

    lo2 = rng.randrange(1000)

    def check_eta_csv(r, lo=lo2):
        expect(r.code == 0, f"exit {r.code}")
        rows = dict(_csv_rows(r.stdout, "key,value"))
        expect(rows["schema"] == "1", "schema")
        word_payload(lo, lo + 60, (4, 9), O.free_of((4, 9)))({"word": json.loads(rows["word"])})
    add("eta csv", ["--format", "csv", "eta", "--bset", "4,9", "--window", f"{lo2}:{lo2 + 60}"], check_eta_csv)
    res = [rng.randrange(4), rng.randrange(9)]
    add("phi json", ["phi", "--bset", "4,9", "--omega", f"{res[0]},{res[1]}", "--window", "0:72"],
        lambda r: _json_ok(r, word_payload(0, 72, (4, 9), [{(-res[0]) % 4}, {(-res[1]) % 9}])))
    word = "".join(rng.choice("0001") for _ in range(30))
    add("admissible json", ["admissible", "--bset", "2,3,5", "--word", word],
        lambda r: _json_ok(r, lambda o: expect(o["admissible"] == O.is_admissible_bits(
            np.frombuffer(word.encode(), np.uint8) - 48, 0, (2, 3, 5)), "verdict")))
    n = rng.randint(12, 14)

    def check_complexity_csv(r, n=n):
        expect(r.code == 0 and r.out_file is not None and r.stdout == "", f"exit {r.code}, --out ignored")
        rows = _csv_rows(r.out_file, "n,p_n,h_n")
        expect([int(p) for _, p, _ in rows] == O.brute_counts((2, 5), n), "p_n")
    add("complexity csv --out", ["complexity", "--bset", "2,5", "--n", n, "--format", "csv"], check_complexity_csv, out="complexity.csv")
    mods = rng.choice([(4, 9, 25), (2, 3, 5, 7)])
    add("entropy bfree", ["entropy", "--formula", "bfree", "--bset", ",".join(map(str, mods))],
        lambda r: _json_ok(r, lambda o: expect(Fraction(o["exact"]) == math.prod(Fraction(b - 1, b) for b in mods), "exact")))
    a4, a9 = sorted(rng.sample(range(4), 2)), sorted(rng.sample(range(9), 3))
    add("entropy generalized", ["entropy", "--formula", "generalized", "--bset", "4,9", "--s", "2,3",
                                "--a", f"{','.join(map(str, a4))};{','.join(map(str, a9))}"],
        lambda r: _json_ok(r, lambda o: expect(o["exact"] == "1/3", "exact")))
    ones, zeros = rng.sample(range(0, 20, 2), 2), rng.sample(range(1, 20, 2), 3)
    entries = {**{o: 1 for o in ones}, **{z: 0 for z in zeros}}
    add("mirsky json", ["mirsky", "--bset", "4,9", "--ones", ",".join(map(str, ones)), "--zeros", ",".join(map(str, zeros))],
        lambda r: _json_ok(r, lambda o: expect(Fraction(o["probability"]) == O.haar_cylinder((4, 9), entries), "probability")))

    def sample_check(measure, mods, lo, hi, count, p, forbidden=None):
        def payload(o):
            matrix = np.array([[int(c) for c in w] for w in o["words"]], dtype=np.uint8)
            expect(matrix.shape == (count, hi - lo), "shape")
            expect(o["metadata"]["seed"] is not None and o["metadata"]["spec"]["measure"] == measure, "metadata")
            fb = forbidden or O.free_of(mods)
            (O.check_codings if p == 1 else O.check_dominated)(matrix, lo, mods, fb)
        return lambda r: _json_ok(r, payload)
    seed = rng.randrange(10**6)
    add("sample mme", ["sample", "--measure", "mme", "--bset", "2,3", "--window", "0:12", "--count", 200, "--seed", seed],
        sample_check("product", (2, 3), 0, 12, 200, Fraction(1, 2)))
    add("sample generalized", ["sample", "--measure", "generalized", "--bset", "4,9", "--s", "2,3",
                               "--a", f"{','.join(map(str, a4))};{','.join(map(str, a9))}", "--window", "0:24",
                               "--count", 100, "--seed", seed + 2],
        sample_check("generalized", (4, 9), 0, 24, 100, 1, [set(a4), set(a9)]))

    def check_sample_csv(r):
        expect(r.code == 0 and r.out_file is not None, f"exit {r.code}")
        rows = _csv_rows(r.out_file, "index,bits")
        matrix = np.array([[int(c) for c in bits] for _, bits in rows], dtype=np.uint8)
        expect(matrix.shape == (50, 18), "shape")
        O.check_codings(matrix, 0, (2, 3), O.free_of((2, 3)))
    add("sample mirsky csv --out", ["sample", "--measure", "mirsky", "--bset", "2,3", "--window", "0:18", "--count", 50,
                                    "--seed", seed + 3, "--format", "csv"], check_sample_csv, out="sample.csv")
    spec_word = "".join(rng.choice("01") for _ in range(8)) + "0"
    spec_bits = np.frombuffer(spec_word.encode(), np.uint8) - 48

    def check_spectrum(r):
        _json_ok(r, lambda o: expect(o["profile"][0]["missing"] == sorted(set(range(9)) - O.support_residue_hits(spec_bits, 0, 9)), "missing"))
    add("spectrum json", ["spectrum", "--bset", "9", "--word", spec_word], check_spectrum)
    theta_word = "".join(rng.choice("01") for _ in range(12))
    theta_bits = np.frombuffer(theta_word.encode(), np.uint8) - 48

    def check_theta(r):
        def payload(o):
            for entry, b in zip(o["theta"], (2, 3)):
                missing = set(range(b)) - O.support_residue_hits(theta_bits, 0, b)
                cands = sorted((-a) % b for a in missing)
                expected = None if not cands else ({"unique": cands[0]} if len(cands) == 1 else {"ambiguous": cands})
                expect(entry == expected, f"theta {entry} != {expected}")
        _json_ok(r, payload)
    add("theta json", ["theta", "--bset", "2,3", "--word", theta_word], check_theta)
    cof = rng.sample([5, 7, 11, 13], 2)
    other = sorted((4 * cof[0], 9 * cof[1]))
    add("include json", ["include", "--bset", "4,9", "--other", ",".join(map(str, other))],
        lambda r: _json_ok(r, lambda o: expect(o["includes"] is True and o["witness"] is None, "verdict")))
    outsider = rng.choice([5, 7, 11])

    def check_witness(r):
        def payload(o):
            expect(o["includes"] is False, "verdict")
            bits = np.frombuffer(o["witness"]["bits"].encode(), np.uint8) - 48
            O.check_witness(SimpleNamespace(bits=bits, offset=o["witness"]["offset"]), (2, 3), (outsider,))
        _json_ok(r, payload)
    add("witness json", ["witness", "--bset", "2,3", "--other", outsider], check_witness)
    bp = rng.choice([5, 7, 11])
    add("construct-admissible", ["construct-admissible", "--small", "2,3", "--bprime", bp],
        lambda r: _json_ok(r, lambda o: expect(len(o["set"]) == bp and {x % bp for x in o["set"]} == set(range(bp))
                                              and all(x % 2 and x % 3 for x in o["set"]), "set")))
    c, r0 = rng.choice([5, 7, 11]), rng.randrange(100)

    def check_density(r):
        s = np.arange(1, 100001, dtype=np.int64)
        expected = int(O.coding_at(s * c + r0, (4, 9), O.free_of((4, 9))).sum()) / 100000
        _json_ok(r, lambda o: expect(o["density"] == expected, "density"))
    add("density json", ["density", "--bset", "4,9", "--c", c, "--r", r0, "--horizon", 100000], check_density)
    lo3 = rng.randrange(1000)
    add("sturmian golden", ["sturmian", "--alpha", "golden", "--window", f"{lo3}:{lo3 + 200}"],
        lambda r: _json_ok(r, lambda o: expect(o["word"]["bits"] == "".join(map(str, O.golden_half_bits(lo3, lo3 + 200))), "bits")))
    q = rng.choice([17, 19, 23, 29])
    alpha = Fraction(rng.randrange(1, q), q)
    add("sturmian rational", ["sturmian", "--alpha", str(alpha), "--y", str(Fraction(1, 3 * q)), "--window", "0:200"],
        lambda r: _json_ok(r, lambda o: expect(o["word"]["bits"] == "".join(map(str, O.rational_rotation_bits(
            alpha, Fraction(1, 3 * q), (Fraction(0), Fraction(1, 2)), 0, 200))), "bits")))
    add("counterexample two-mme", ["counterexample", "two-mme"],
        lambda r: _json_ok(r, lambda o: expect(
            o["entropies_bits"] == ["1/3", "1/3"] and o["frequencies"] == [
                str(O.periodic_frequency(b, "101001000", Fraction(1, 2))) for b in ("101001000", "101000100")], "values")))

    def check_transitive(r):
        def payload(o):
            bits = o["word"]["bits"]
            expect(len(bits) == 120 and bits.startswith("000100"), "stage-1 layout")
        _json_ok(r, payload)
    add("transitive", ["transitive", "--bset", "2", "--length", 120], check_transitive)
    x = "".join(rng.choice("01") for _ in range(16))
    z = "".join(rng.choice("011") for _ in range(16))
    add("squeeze", ["squeeze", "--x", x, "--z", z],
        lambda r: _json_ok(r, lambda o: expect(o["word"]["bits"] == "".join(a for a, b in zip(x, z) if b == "1"), "bits")))
    u = "".join(rng.choice("01") for _ in range(z.count("1")))

    def check_embed(r):
        it = iter(u)
        _json_ok(r, lambda o: expect(o["word"]["bits"] == "".join(next(it) if b == "1" else "0" for b in z), "bits"))
    add("embed", ["embed", "--u", u, "--z", z], check_embed)

    # Expected domain errors: exit 1 with a JSON error object on stderr.
    add("error NotCoprime", ["admissible", "--bset", "4,6", "--word", "1"], _error_exit(1, "NotCoprime"))
    add("error StateSpaceTooLarge", ["complexity", "--bset", "4,9,25", "--n", 5], _error_exit(1, "StateSpaceTooLarge"))
    # Usage errors: exit 2.
    add("usage unknown subcommand", ["frobnicate"], _error_exit(2))
    add("usage missing --window", ["eta", "--bset", "2,3"], _error_exit(2))
    # A known defect: a malformed --window is a usage error (exit 2 per the
    # README) but the program exits 1.
    add("defect malformed --window", ["eta", "--bset", "2,3", "--window", str(rng.randint(5, 50))], _error_exit(2), kind="defect")
    return ops


def build(name, seed, B, env=None, tmpdir=None, trace=False):
    rng = random.Random(f"{name}:{seed}")
    if name == "exact":
        return exact_ops(rng, B)
    if name == "sample":
        return sample_ops(rng, B)
    if name == "stream":
        return stream_ops(rng, B)
    if name == "cli":
        return cli_ops(rng, B, env, tmpdir, trace)
    raise ValueError(f"unknown workload {name}")
