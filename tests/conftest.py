import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import powmon
from powmon.monoid import (cyclic_group, cyclic_monoid, dihedral_group,
                           direct_product, idempotent_monoid2, klein_group,
                           quaternion_group)


@pytest.fixture(scope="session")
def zoo():
    """Named small monoids used across the tests."""
    return {
        "triv": cyclic_group(1),
        "z2": cyclic_group(2),
        "z3": cyclic_group(3),
        "z4": cyclic_group(4),
        "z5": cyclic_group(5),
        "z6": cyclic_group(6),
        "z7": cyclic_group(7),
        "klein": klein_group(),
        "d3": dihedral_group(3),
        "d4": dihedral_group(4),
        "q8": quaternion_group(),
        "z2xz3": direct_product(cyclic_group(2), cyclic_group(3)),
        "idem2": idempotent_monoid2(),
        "cm22": cyclic_monoid(2, 2),
        "cm12": cyclic_monoid(1, 2),
    }


@pytest.fixture(scope="session")
def core(request, tmp_path_factory):
    """The compiled kernels, built from the tracked _core.c with cc.

    The build goes into the pytest cache (a temp dir when the cache is
    disabled), keyed by the sha256 of _core.c, and is loaded as
    powmon._core without becoming the active backend.
    Tests using it skip only when there is no compiler or the build fails.
    """
    src = Path(powmon.__file__).with_name("_core.c")
    if not src.is_file():
        pytest.skip("no _core.c beside the powmon package")
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) to build _core.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    digest = hashlib.sha256(src.read_bytes()).hexdigest()[:16]
    cache = getattr(request.config, "cache", None)
    root = cache.mkdir("powmon_core") if cache else tmp_path_factory.mktemp("powmon_core")
    out = root / digest / f"_core{suffix}"
    if not out.is_file():
        out.parent.mkdir(exist_ok=True)
        tmp = out.with_name(f"build-{os.getpid()}{suffix}")
        cmd = ["cc", "-O2", "-fwrapv", "-DNDEBUG", "-fPIC", "-shared",
               "-I", sysconfig.get_paths()["include"], str(src), "-o", str(tmp)]
        try:
            subprocess.run(cmd, check=True, timeout=600, capture_output=True)
        except (OSError, subprocess.SubprocessError) as exc:
            tmp.unlink(missing_ok=True)
            pytest.skip(f"building _core.c failed: {exc}")
        tmp.replace(out)
    spec = importlib.util.spec_from_file_location("powmon._core", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
