"""Subsets of a finite monoid under setwise multiplication.

A subset is an int bitmask over element indices (bit i set iff element i
belongs).  The reduced power monoid carries the subsets containing the
identity, which are never empty.  Carrier element indices are assigned
in increasing bitmask order, so carriers are reproducible across runs.
"""

from bisect import bisect_left

from . import kernels
from .errors import SizeLimitExceeded
from .iso import IsoWitness
from .monoid import FiniteMonoid, cycle_term, eventual_cycle

MATERIALIZE_LIMIT = 10   # largest base order of a power monoid


def mask_of(elements, n):
    """Bitmask for an iterable of element indices."""
    out = 0
    for e in elements:
        if not (0 <= e < n):
            raise ValueError(f"element {e} out of range [0, {n})")
        out |= 1 << e
    return out


def elements_of(mask):
    """Sorted element indices of a bitmask."""
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def parse_subset(text, n):
    """Parse the CLI subset literal, comma-separated indices like '0,3'."""
    try:
        elems = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"bad subset literal {text!r}")
    if not elems:
        raise ValueError("empty subset literal")
    return mask_of(elems, n)


def format_subset(mask):
    return ",".join(str(e) for e in elements_of(mask))


def setwise_product(m, x, y):
    """Bitmask of {a*b : a in x, b in y}; both factors must be non-empty."""
    if x == 0 or y == 0:
        raise ValueError("setwise product of an empty subset")
    return kernels.setwise_product(m.flat, m.n, x, y)


def subset_power(m, x, k):
    """x^k under setwise product, with x^0 the singleton {identity}.

    The powers of x are eventually periodic, since M has finitely many
    subsets.  The first call for x builds their cycle, which m caches: the
    distinct powers x^0, x^1, ... up to the first repeat, one product each.
    Any k is then an index into the cycle.  When x holds the identity the
    powers only grow, so they reach a fixed point within |M| products; without
    it they may cycle, as {1} does in Z6.
    """
    if x == 0:
        raise ValueError("power of an empty subset")
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    cycle = m.subset_cycles.get(x)
    if cycle is None:
        flat, n = m.flat, m.n
        cycle = m.subset_cycles[x] = eventual_cycle(
            1 << m.identity, lambda acc: kernels.setwise_product(flat, n, acc, x))
    return cycle_term(cycle, k)


class PowerMonoid:
    """The reduced power monoid of a base monoid, itself a finite monoid.

    It carries the 2^(n-1) subsets containing the identity.  The carrier is
    a FiniteMonoid whose element i is masks[i], built at construction from
    the one flat table kernels.power_table returns; bases above
    MATERIALIZE_LIMIT raise SizeLimitExceeded.  The carrier is not put
    through Light's test: kernels.is_power_table proves the table the
    setwise product of the base, which is validated, so the carrier is
    associative with the identity {identity} at 0, whichever backend built
    it.  A table that fails raises AssertionError.  masks is
    increasing, so index_of finds a mask by bisection.  sizes[i] is the
    number of base elements in masks[i], and pairs[x] the index of
    {identity, x}, found once here: pairs[identity] is that of {identity}.
    """

    kind = "reduced"    # the only kind; perfbench's carrier notes read it

    def __init__(self, base):
        n = base.n
        if n > MATERIALIZE_LIMIT:
            raise SizeLimitExceeded(
                f"base order {n} exceeds the power monoid limit {MATERIALIZE_LIMIT}")
        ebit = 1 << base.identity
        masks = tuple(x for x in range(1, 1 << n) if x & ebit)
        self.base = base
        self.masks = masks
        self.sizes = [mask.bit_count() for mask in masks]
        self.pairs = tuple(bisect_left(masks, ebit | 1 << x) for x in range(n))
        flat = kernels.power_table(base.flat, n, masks)
        if not kernels.is_power_table(base.flat, n, base.identity, flat):
            raise AssertionError("carrier is not the setwise product of its base")
        self.carrier = FiniteMonoid._certified(flat, len(masks),
                                               name=f"reduced power({base.name})")

    def __len__(self):
        return len(self.masks)

    def index_of(self, mask):
        i = bisect_left(self.masks, mask)
        if i == len(self.masks) or self.masks[i] != mask:
            raise ValueError(f"subset {format_subset(mask)} is not a carrier element")
        return i

    def __repr__(self):
        return f"PowerMonoid(base={self.base.name}, size={len(self.masks)})"


def reduced_power_monoid(base):
    """The reduced finitary power monoid of a finite base monoid."""
    return PowerMonoid(base)


def augment(base_witness, pm_src=None, pm_dst=None):
    """Lift a base isomorphism h to subsets: X -> h[X], on reduced carriers.

    Returns a certified IsoWitness between the carriers of the reduced
    power monoids of the witness's source and target.
    """
    if pm_src is None:
        pm_src = reduced_power_monoid(base_witness.source)
    if pm_dst is None:
        pm_dst = reduced_power_monoid(base_witness.target)
    h = base_witness.map
    mapping = []
    for mask in pm_src.masks:
        img = 0
        for e in elements_of(mask):
            img |= 1 << h[e]
        mapping.append(pm_dst.index_of(img))
    return IsoWitness(pm_src.carrier, pm_dst.carrier, mapping)
