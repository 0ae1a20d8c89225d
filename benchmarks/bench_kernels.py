#!/usr/bin/env python3
"""Benchmark the pure-Python kernels against the compiled extension.

Usage:
    python benchmarks/bench_kernels.py [--repeat N] [--full]

The power_table rows at 16, 32 and 64 elements are the sizes around the
point where the compiled builder stops winning: the 228 order-5 census
carriers of `experiment monoids` (16 elements each), where it is about
2x faster, one 32-element carrier, where the pure one is about 2.5x
faster, and one 64-element carrier, where it is about 13x faster.  At
256 and 512 elements (bases of order 9 and, with --full, 10) the pure
builder writes carrier positions into its cells from the start and takes
0.13 and 0.63 ms against 11 and 58 ms compiled (2 vCPU, best of 5).  The
assoc_witness row times Light's test on the 273 census bases of order
<= 5, where the pure kernel's bookkeeping of the rows it skips costs
more than it saves (the compiled one is about 12x faster).  The carrier
validation rows time, on reduced carriers of 16 (the 228 order-5 census
carriers), 32, 128, 256 and, with --full, 512 elements, Light's test on
both backends against the certificate (is_power_table) that PowerMonoid
runs instead of it.  Without numpy the pure Light's test at 512 elements
is the plain triple loop, about 7 s.  The last rows time the census
enumeration of orders 5 and 6, which has no compiled twin.

Two runs of --repeat 5 --full, 2 vCPU, ms, best of 5: Light's test
pure and compiled while it still validated carriers (the pure one with
numpy at 512 elements), and both beside the certificate that replaced
it:

    carrier            Light's test, before    Light's test, after  certificate
    16 (228 of them)   4.35    1.87            3.75    1.74         3.12
    32                 0.06    0.05            0.06    0.06         0.02
    128, Q8            1.30    2.61            1.30    2.80         0.08
    128, Z2^3          1.85    2.62            2.03    3.01         0.08
    256, Z9            5.80    21.5            5.93    17.8         0.19
    512, Z10           186     144             7441    156          0.90

A first pair of runs, on a host under more load, read 8.09 and 3.24 ms
at 16 elements before, and 3.72, 1.61 and 2.99 after.

Before it is timed, each pure result is checked against the compiled
one; without the compiled backend, each pure power_table is checked
against setwise products instead.
"""

import argparse
import time
from array import array
from collections import Counter
from types import SimpleNamespace

from powmon import _pure
from powmon.census import enumerate_monoids
from powmon.iso import refine_colors
from powmon.monoid import cyclic_group, dihedral_group, direct_product, quaternion_group
from powmon.powerset import reduced_power_monoid

try:
    from powmon import _core
except ImportError:
    _core = None


def timed(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cells(result):
    """result with each table as a list: the pure power_table packs its
    tables (bytes, or array('H') above 256 elements), the compiled one
    returns lists."""
    if isinstance(result, (bytes, array)):
        return list(result)
    if isinstance(result, list) and result and isinstance(result[0], (bytes, array)):
        return [list(t) for t in result]
    return result


def _setwise_power_table(table, n, masks):
    """power_table cell by cell from _pure.setwise_product, the reference a
    pure table is checked against when the compiled backend is not built."""
    pos = {mask: i for i, mask in enumerate(masks)}
    return [pos[_pure.setwise_product(table, n, x, y)] for x in masks for y in masks]


SETWISE = SimpleNamespace(power_table=_setwise_power_table)


def _reduced_masks(m):
    return tuple(x for x in range(1, 1 << m.n) if x >> m.identity & 1)


def bench_cases(full):
    q8 = quaternion_group()

    z6 = cyclic_group(6)
    z23 = direct_product(cyclic_group(2), cyclic_group(3))
    c1, c2 = refine_colors([reduced_power_monoid(z6).carrier,
                            reduced_power_monoid(z23).carrier])
    sizes = Counter(c1)
    order = sorted(range(32), key=lambda a: (sizes[c1[a]], a))
    t1 = reduced_power_monoid(z6).carrier.flat
    t2 = reduced_power_monoid(z23).carrier.flat

    d4 = dihedral_group(4)

    # the order-5 census bases, as in `experiment monoids`: 228 carriers of 16
    census5 = [(e.monoid.flat, _reduced_masks(e.monoid)) for e in enumerate_monoids(5)]
    masks32 = _reduced_masks(z6)
    z7 = cyclic_group(7)
    masks64 = _reduced_masks(z7)

    z9 = cyclic_group(9)

    # the census bases of orders 1 to 5, each validated as the census is built
    bases5 = [e.monoid for n in range(1, 6) for e in enumerate_monoids(n)]

    cases = [
        ("power_table, 228 order-5 census carriers (16)",
         lambda k: [k.power_table(flat, 5, masks) for flat, masks in census5]),
        ("assoc_witness, 273 census bases of order <= 5",
         lambda k: [k.assoc_witness(m.flat, m.n) for m in bases5]),
        ("power_table, cyclic 6 base (carrier 32)",
         lambda k: k.power_table(z6.flat, 6, masks32)),
        ("power_table, cyclic 7 base (carrier 64)",
         lambda k: k.power_table(z7.flat, 7, masks64)),
        ("power_table, quaternion base (carrier 128)",
         lambda k: k.power_table(q8.flat, 8, _reduced_masks(q8))),
        ("power_table, cyclic 9 base (carrier 256)",
         lambda k: k.power_table(z9.flat, 9, _reduced_masks(z9))),
        ("setwise_product, dihedral 4, all 255^2 pairs",
         lambda k: [k.setwise_product(d4.flat, 8, x, y)
                    for x in range(1, 256) for y in range(1, 256)]),
        ("iso_search, P(Z6) vs P(Z2xZ3) first witness",
         lambda k: k.iso_search(t1, t2, 32, c1, c2, order, 10 ** 7, 1)),
    ]
    if full:
        z10 = cyclic_group(10)
        cases.append(("power_table, cyclic 10 base (carrier 512)",
                      lambda k: k.power_table(z10.flat, 10, _reduced_masks(z10))))
    return cases


def validation_cases(full):
    """Reduced carriers, each with its base: the table Light's test
    (assoc_witness) checks, and the certificate (is_power_table) proves
    the setwise product of the base."""
    z2 = cyclic_group(2)
    bases = [
        ("228 order-5 census carriers (16)", [e.monoid for e in enumerate_monoids(5)]),
        ("Z6 carrier (32)", [cyclic_group(6)]),
        ("Q8 carrier (128, 59 light rows)", [quaternion_group()]),
        ("Z2^3 carrier (128, 92 light rows)", [direct_product(z2, direct_product(z2, z2))]),
        ("Z9 carrier (256)", [cyclic_group(9)]),
    ]
    if full:
        bases.append(("Z10 carrier (512)", [cyclic_group(10)]))
    return [(name, [(m, reduced_power_monoid(m).carrier.flat) for m in ms]) for name, ms in bases]


def pure_cases():
    """Kernels timed on the pure backend only: the compiled
    enumerate_tables is unbound and lists every labelling, where the
    pure one yields one table per isomorphism class."""
    return [(f"enumerate_tables({n}), pure only", lambda k, n=n: k.enumerate_tables(n))
            for n in (5, 6)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args()

    if _core is None:
        print("compiled backend not built; run: python setup.py build_ext --inplace")
    print(f"{'case':<48} {'pure':>10} {'compiled':>10} {'speedup':>8}")
    for name, fn in bench_cases(args.full):
        # sanity: correct results before timing
        if _core is not None:
            assert _cells(fn(_pure)) == _cells(fn(_core)), name
        elif name.startswith("power_table"):
            assert _cells(fn(_pure)) == _cells(fn(SETWISE)), name
        tp = timed(lambda: fn(_pure), args.repeat)
        if _core is not None:
            tc = timed(lambda: fn(_core), args.repeat)
            print(f"{name:<48} {tp * 1e3:>8.2f}ms {tc * 1e3:>8.2f}ms {tp / tc:>7.1f}x")
        else:
            print(f"{name:<48} {tp * 1e3:>8.2f}ms {'-':>10} {'-':>8}")
    print(f"{'carrier validation':<48} {'Light pure':>10} {'compiled':>10} {'certificate':>11}")
    for name, carriers in validation_cases(args.full):
        def light(k):
            return [k.assoc_witness(flat, 1 << m.n - 1) for m, flat in carriers]

        def certificate():
            return [_pure.is_power_table(m.flat, m.n, m.identity, flat) for m, flat in carriers]
        assert set(light(_pure)) == {-1} and all(certificate()), name
        tp = timed(lambda: light(_pure), args.repeat)
        tcert = timed(certificate, args.repeat)
        if _core is not None:
            assert set(light(_core)) == {-1}, name
            tc = f"{timed(lambda: light(_core), args.repeat) * 1e3:>8.2f}ms"
        else:
            tc = f"{'-':>10}"
        print(f"{name:<48} {tp * 1e3:>8.2f}ms {tc} {tcert * 1e3:>9.2f}ms")
    for name, fn in pure_cases():
        tp = timed(lambda: fn(_pure), args.repeat)
        print(f"{name:<48} {tp * 1e3:>8.2f}ms {'-':>10} {'-':>8}")


if __name__ == "__main__":
    main()
