import importlib.util
from pathlib import Path

import mpmath as mp
import pytest


@pytest.fixture(scope="session")
def oracle():
    """perfbench/oracle.py, the benchmark's 40-digit mpmath references.

    Loading it sets mpmath's global precision, which is restored here, so call
    its functions inside `mp.workdps(oracle.DPS)`.
    """
    dps = mp.mp.dps
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    mp.mp.dps = dps
    return module
