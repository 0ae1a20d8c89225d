"""Kernel backend selection.

The hot loops live in powmon._pure (always available) and, when built, in
the compiled twin powmon._core.  The compiled backend is preferred unless
POWMON_PURE=1 forces the fallback.  Four kernels are backend-selected,
with identical semantics on both; tests/test_kernels.py holds them to
that.  power_table returns a packed table, bytes up to 256 elements and
array('H') above, on both: the pure builder writes its cells that way,
and the compiled twin returns a list, which pack_table packs once here.
Both take only the reduced family of masks: the compiled twin reads its
cells through the family unchecked, so check_reduced_family refuses any
other here first, with the pure builder's ValueError.  pack_table,
unions, light_rows and is_power_table, the certificate that a carrier is
the setwise product of its base, do not depend on the backend and are
the pure ones on both.  Monoid enumeration is always the pure one, which yields
one table per isomorphism class.  _core.enumerate_tables still lists
every raw labelling and stays unbound until _core.c is regenerated from
_core.pyx.
"""

import os

from . import _pure

backend = "pure"
_impl = _pure
if os.environ.get("POWMON_PURE", "") not in ("1", "true", "yes"):
    try:
        from . import _core
    except ImportError:
        pass
    else:
        _impl = _core
        backend = "compiled"

assoc_witness = _impl.assoc_witness
setwise_product = _impl.setwise_product
iso_search = _impl.iso_search
enumerate_tables = _pure.enumerate_tables
pack_table = _pure.pack_table
unions = _pure.unions
light_rows = _pure.light_rows
is_power_table = _pure.is_power_table


def _compiled_power_table(table, n, masks):
    _pure.check_reduced_family(table, n, masks)
    return pack_table(_impl.power_table(table, n, masks), len(masks))


power_table = _pure.power_table if _impl is _pure else _compiled_power_table
